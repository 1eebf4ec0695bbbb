"""Scalar and per-horizon twins of flowrl's batch code, kept as test
oracles: each does the work the plain way the batch code replaced."""

import csv
from itertools import repeat

import numpy as np

from flowrl.env import (OCC_EPSILON_DEFAULT, WINDOW_DEFAULT, classify, compute_rewards, fit_calibration,
                        window_rows)
from flowrl.ingest import READINGS_HEADER
from flowrl.metrics import compute_metrics
from flowrl.qnet import N_ACTIONS, forward_batch
from flowrl.replay import Batch
from flowrl.trainer import predict_horizon_block


def forward(net, state) -> np.ndarray:
    """Q-values for a single state, shape (5,): the full forward of one row."""
    state = np.asarray(state, dtype=float)
    if state.ndim != 1 or state.shape[0] != net.input_dim:
        raise ValueError(f"state has shape {state.shape}, expected ({net.input_dim},)")
    return forward_batch(net, state[None, :])[0]


def loss_and_gradients_reference(net, states, actions, targets):
    """(Q, loss, grad) of a batch with every activation, mask, product and
    sum of the forward and backward pass a fresh array, the parts of the
    gradient concatenated: the arithmetic that loss_and_gradients does in
    a workspace, operand for operand."""
    z1 = states @ net.w1.T + net.b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ net.w2.T + net.b2
    h2 = np.maximum(z2, 0.0)
    value = h2 @ net.wv.T + net.bv
    adv = h2 @ net.wa.T + net.ba
    n = len(states)
    q = value + (N_ACTIONS * adv - adv.sum(axis=1, keepdims=True)) / N_ACTIONS if net.dueling else adv
    idx = np.arange(n)
    err = q[idx, actions] - targets
    loss = float(np.mean(err**2))
    dq = np.zeros_like(q)
    dq[idx, actions] = 2.0 * err / n
    if net.dueling:
        dvalue = dq.sum(axis=1, keepdims=True)
        dadv = dq - dq.sum(axis=1, keepdims=True) / N_ACTIONS
    else:
        dvalue = np.zeros((n, 1))
        dadv = dq
    dh2 = dvalue @ net.wv + dadv @ net.wa
    dz2 = dh2 * (z2 > 0)
    dh1 = dz2 @ net.w2
    dz1 = dh1 * (z1 > 0)
    parts = (dz1.T @ states, dz1.sum(axis=0), dz2.T @ h1, dz2.sum(axis=0),
             dvalue.T @ h2, dvalue.sum(axis=0), dadv.T @ h2, dadv.sum(axis=0))
    return q, loss, np.concatenate([p.ravel() for p in parts])


def select_action(net, state, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy action for one state; greedy ties break toward the lowest class."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    if rng.random() < epsilon:
        return int(rng.integers(0, N_ACTIONS))
    return int(np.argmax(forward(net, state)))


def compute_reward(pred: int, actual: int, speed_norm: float, occupancy: float,
                   weights, occ_epsilon: float = OCC_EPSILON_DEFAULT) -> float:
    """Scalar form of compute_rewards."""
    return float(compute_rewards(pred, actual, speed_norm, occupancy, weights, occ_epsilon))


def td_target(reward: float, next_q, gamma: float, terminal: bool) -> float:
    """Bootstrapped regression target: r, plus gamma*max(next_q) if non-terminal."""
    if terminal:
        return float(reward)
    return float(reward) + gamma * float(np.max(next_q))


def tabular_q_update(q_table: np.ndarray, s: int, a: int, r: float, s_next: int,
                     alpha: float, gamma: float) -> np.ndarray:
    """One temporal-difference backup on a dense Q table (in place)."""
    q_table[s, a] += alpha * (r + gamma * np.max(q_table[s_next]) - q_table[s, a])
    return q_table


def gather(store, idx):
    """The Batch of transitions idx of a ReplayBuffer or ConsolidationMemory:
    each state and next state cut from the transition's window."""
    windows, degree, actions, rewards, terminals = store.window_columns(idx)
    return Batch(window_rows(windows[..., :-1], degree), actions, rewards,
                 window_rows(windows[..., 1:], degree), terminals)


def sampling_probabilities(priorities, omega: float = 1.0) -> np.ndarray:
    """Normalized sampling distribution p_i^omega / sum_k p_k^omega, the
    distribution ReplayBuffer.cdf accumulates."""
    p = np.asarray(priorities, dtype=float)
    if p.size == 0:
        raise ValueError("no priorities to normalize")
    if np.any(p <= 0):
        raise ValueError("priorities must be positive")
    if omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    w = p**omega
    return w / w.sum()


def drift_scores_reference(prev, curr, bins: int, smoothing: float) -> dict[str, float]:
    """KL(current || previous) of every node in both periods, one node at a
    time: np.histogram counts of the flows over np.linspace edges between
    the pooled min and max (widened by 0.5 each way when they meet), then
    Laplace-smoothed masses and the KL sum."""
    scores = {}
    for node in sorted(set(prev.nodes) & set(curr.nodes)):
        a = prev.values[prev.index[node], :, 0]
        b = curr.values[curr.index[node], :, 0]
        lo, hi = min(a.min(), b.min()), max(a.max(), b.max())
        if hi <= lo:
            lo, hi = lo - 0.5, hi + 0.5
        edges = np.linspace(lo, hi, bins + 1)
        p, q = ((np.histogram(x, bins=edges)[0] + smoothing) / (x.size + bins * smoothing) for x in (b, a))
        scores[node] = float(np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0) / q), 0.0).sum())
    return scores


def write_readings_reference(dataset, readings_path) -> None:
    """The readings CSV of `dataset` written one csv.writer row at a time:
    rows blocked by sensor, each block in time order, floats as repr."""
    stamps = np.datetime_as_string(dataset.times, unit="s").tolist()
    with open(readings_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(READINGS_HEADER)
        for sid, block in zip(dataset.nodes, dataset.values):
            writer.writerows(zip(stamps, repeat(sid), *(map(repr, col) for col in block.T.tolist())))


def build_state(dataset, v, t, window=WINDOW_DEFAULT, calibration=None) -> np.ndarray:
    """One state vector for (node, time), read straight from
    `dataset.values` and the snapshot's edges one value at a time: the own
    flow, speed and occupancy windows over [t - window, t), then the mean
    of the neighbors' windows in the same order, their values added in
    sorted-id order, then the degree over the largest degree."""
    cal = calibration if calibration is not None else fit_calibration(dataset)
    nodes = dataset.snapshot.nodes
    if v not in nodes:
        raise ValueError(f"unknown node {v!r}")
    if not window <= t <= dataset.length:
        raise ValueError(f"time index {t} outside [{window}, {dataset.length}]")

    def channel(u, c, s):
        value = dataset.values[dataset.index[u], s, c]
        if c == 0:
            return np.clip(value / cal.flow_max, 0.0, 1.0)
        return np.clip(value / cal.speed_max, 0.0, 1.0) if c == 1 else value

    adjacent = {u: sorted({b if a == u else a for a, b in dataset.snapshot.edges if u in (a, b)})
                for u in nodes}
    state = [channel(v, c, s) for c in range(3) for s in range(t - window, t)]
    for c in range(3):
        for s in range(t - window, t):
            acc = 0.0
            for u in adjacent[v]:
                acc += channel(u, c, s)
            state.append(acc / max(len(adjacent[v]), 1))
    max_degree = max(len(a) for a in adjacent.values())
    state.append(len(adjacent[v]) / max_degree if max_degree else 0.0)
    return np.array(state, dtype=float)


def predict_horizon(net, dataset, node, t, horizon, discretizer, window=WINDOW_DEFAULT,
                    calibration=None):
    """Autoregressive greedy forecast of `horizon` steps from anchor t, one
    state vector at a time; returns (classes, flows), each of length horizon.

    Each step's representative flow, over the calibration's flow_max and
    clipped to [0, 1], enters the own-flow window; the speed and occupancy
    windows shift with their last slot held, and the neighbor block stays
    frozen at the anchor.
    """
    calibration = calibration if calibration is not None else fit_calibration(dataset)
    state = build_state(dataset, node, t, window, calibration)
    classes, flows = np.empty(horizon, dtype=int), np.empty(horizon)
    for j in range(horizon):
        a = int(np.argmax(forward(net, state)))
        classes[j], flows[j] = a, discretizer.representatives[a]
        for c in range(3):
            own = state[c * window : (c + 1) * window]
            own[:-1] = own[1:].copy()
        state[window - 1] = min(max(flows[j] / calibration.flow_max, 0.0), 1.0)
    return classes, flows


def evaluate_node_per_horizon(net, assembler, discretizer, node, split, horizons):
    """Per-horizon (predicted flows/classes, actual flows/classes) for one
    node, each horizon rolled out on its own; None where no anchor fits."""
    ds = assembler.dataset
    lo, hi = ds.splits.range_of(split)
    w = assembler.window
    out = {}
    for h in horizons:
        t0 = max(w, lo)
        t1 = hi - h  # last anchor whose h-th step stays inside the split
        if t1 < t0:
            out[h] = None
            continue
        anchors = np.arange(t0, t1 + 1)
        cls, flows = predict_horizon_block(net, assembler, discretizer, node, anchors, h)
        actual_flow = ds.series[node].flow[anchors + h - 1]
        actual_cls = np.asarray(classify(discretizer, actual_flow), dtype=int)
        out[h] = (flows[:, h - 1], cls[:, h - 1], actual_flow, actual_cls)
    return out


def evaluate_period_per_horizon(dataset, net, discretizer, assembler, horizons):
    """evaluate_period with one rollout per (node, split, horizon), the
    results pooled over nodes by concatenation."""
    nodes = dataset.nodes
    splits = ("val", "test")
    results = {
        (node, split): evaluate_node_per_horizon(net, assembler, discretizer, node, split, horizons)
        for node in nodes
        for split in splits
    }
    metrics = {}
    for split in splits:
        metrics[split] = {}
        for h in horizons:
            parts = [results[(node, split)][h] for node in nodes if results[(node, split)][h]]
            if not parts:
                continue
            metrics[split][h] = compute_metrics(
                np.concatenate([p[0] for p in parts]),
                np.concatenate([p[2] for p in parts]),
                np.concatenate([p[1] for p in parts]),
                np.concatenate([p[3] for p in parts]),
            )
    per_node_test_mae = {}
    for node in nodes:
        part = results[(node, "test")][horizons[0]]
        if part is not None:
            per_node_test_mae[node] = float(np.mean(np.abs(part[0] - part[2])))
    return metrics, per_node_test_mae
