"""Continual training loop over the period stream.

Each period: detect drifted/new candidate nodes, roll the agent over their
training split to generate reward-labelled experiences, train the Q-network
on mixed prioritized + consolidation batches against TD targets from a
periodically synced frozen copy, retain the top experiences into the
consolidation memory, and evaluate all nodes on val/test at each horizon.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import drift as drift_mod
from .atomic import atomic_write
from .drift import DriftConfig
from .env import (
    Calibration,
    Discretizer,
    RewardWeights,
    StateAssembler,
    WINDOW_DEFAULT,
    OCC_EPSILON_DEFAULT,
    classify,
    compute_rewards,
    fit_calibration,
    fit_discretizer,
)
from .errors import DivergenceError
from .ingest import PeriodDataset
from .metrics import MetricSet, compute_metrics
from .qnet import (
    QNetwork,
    OptimizerState,
    forward_batch,
    init_optimizer,
    loss_and_gradients,
    apply_update,
    network_from_state_dict,
    network_state_dict,
    optimizer_from_state_dict,
    optimizer_state_dict,
    select_actions,
)
from .replay import (
    COLUMNS,
    ConsolidationMemory,
    ReplayBuffer,
    mixed_batch,
    retain_top_fraction,
)


@dataclass(frozen=True)
class TrainerConfig:
    """Hyperparameters of the continual loop."""

    gamma: float = 0.5
    learning_rate: float = 0.001
    batch_size: int = 128
    epochs: int = 3
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 10_000
    sync_interval: int = 500
    use_target_network: bool = True
    mix_rho: float = 0.25
    sampling_omega: float = 1.0
    consolidation_fraction: float = 0.05
    horizons: tuple[int, ...] = (3, 12)
    window: int = WINDOW_DEFAULT
    occ_epsilon: float = OCC_EPSILON_DEFAULT

    def __post_init__(self):
        if not 0 <= self.gamma < 1:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0 <= self.eps_end <= 1 and 0 <= self.eps_start <= 1):
            raise ValueError("epsilon bounds must lie in [0, 1]")
        if self.eps_decay_steps < 1:
            raise ValueError("eps_decay_steps must be >= 1")
        if not 0 <= self.mix_rho <= 1:
            raise ValueError(f"mix_rho must lie in [0, 1], got {self.mix_rho}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.sync_interval < 1:
            raise ValueError("sync_interval must be >= 1")
        if not self.horizons or any(h < 1 for h in self.horizons):
            raise ValueError(f"horizons must be positive, got {self.horizons}")
        if self.window < 1:
            raise ValueError("window must be >= 1")


def td_target(reward: float, next_q, gamma: float, terminal: bool) -> float:
    """Bootstrapped regression target: r, plus gamma*max(next_q) if non-terminal."""
    if terminal:
        return float(reward)
    return float(reward) + gamma * float(np.max(next_q))


def td_targets(rewards, next_qs, gamma: float, terminals) -> np.ndarray:
    """Vectorized td_target over a batch; next_qs has shape (N, actions)."""
    rewards = np.asarray(rewards, dtype=float)
    terminals = np.asarray(terminals, dtype=bool)
    boot = gamma * np.max(np.asarray(next_qs, dtype=float), axis=1)
    return np.where(terminals, rewards, rewards + boot)


def tabular_q_update(q_table: np.ndarray, s: int, a: int, r: float, s_next: int,
                     alpha: float, gamma: float) -> np.ndarray:
    """One temporal-difference backup on a dense Q table (in place)."""
    q_table[s, a] += alpha * (r + gamma * np.max(q_table[s_next]) - q_table[s, a])
    return q_table


def epsilon_schedule(k: np.ndarray, cfg: TrainerConfig) -> np.ndarray:
    """Exploration rate for the k-th generated experience of a period."""
    k = np.asarray(k, dtype=float)
    frac = np.minimum(k / cfg.eps_decay_steps, 1.0)
    eps = cfg.eps_start + (cfg.eps_end - cfg.eps_start) * frac
    return np.where(k >= cfg.eps_decay_steps, cfg.eps_end, eps)


@dataclass(eq=False)
class EpisodeRollout:
    """Ordered transitions from one (node, split) traversal."""

    node_id: str
    split: str
    experiences: ReplayBuffer


@dataclass(eq=False)
class AgentState:
    """Everything that persists across periods; `buffer` is the current
    period's pool and is not saved."""

    net: QNetwork
    opt: OptimizerState
    buffer: ReplayBuffer
    memory: ConsolidationMemory
    updates: int = 0
    target: QNetwork | None = None


def init_agent(input_dim: int, hidden: int = 64, dueling: bool = True, seed: int = 0,
               learning_rate: float = 0.001, optimizer: str = "adam") -> AgentState:
    net = QNetwork.initialize(input_dim, hidden=hidden, seed=seed, dueling=dueling)
    return AgentState(
        net=net,
        opt=init_optimizer(net, learning_rate=learning_rate, method=optimizer),
        buffer=ReplayBuffer(),
        memory=ConsolidationMemory(),
    )


def generate_rollout(assembler: StateAssembler, discretizer: Discretizer, node: str,
                     split: str, net: QNetwork, epsilons: np.ndarray,
                     rng: np.random.Generator, weights: RewardWeights,
                     occ_epsilon: float, pool: ReplayBuffer | None = None) -> EpisodeRollout:
    """Traverse one node's split, writing chained transitions into `pool`
    (a store of its own when None).

    The transition at time t holds the state built from [t-W, t), the
    epsilon-greedy action, the reward against the actual class at t, and
    the state at t+1; the final usable index is flagged terminal.
    """
    ds = assembler.dataset
    lo, hi = ds.splits.range_of(split)
    w = assembler.window
    t0 = max(w, lo)
    if hi - t0 < 1:
        return EpisodeRollout(node_id=node, split=split, experiences=ReplayBuffer())
    n = hi - t0
    if len(epsilons) != n:
        raise ValueError(f"need {n} epsilon values, got {len(epsilons)}")
    states = assembler.states(node, np.arange(t0, hi + 1))
    actions = select_actions(net, states[:n], epsilons, rng)
    channels = assembler.node_channels(node)
    flows = ds.series[node].flow[t0:hi]
    actual = np.asarray(classify(discretizer, flows), dtype=int)
    rewards = compute_rewards(
        actions, actual, channels[t0:hi, 1], ds.series[node].occupancy[t0:hi],
        weights, occ_epsilon,
    )
    if pool is None:
        pool = ReplayBuffer.allocate(n, 1, assembler.dim, [node])
    experiences = pool.add_rollout(states, actions, rewards, node, ds.period, t0)
    return EpisodeRollout(node_id=node, split=split, experiences=experiences)


def _rollout_plan(dataset: PeriodDataset, candidates, window: int) -> tuple[list[str], int]:
    """The candidates that roll out over the training split, in sorted
    order, and the number of steps each one takes."""
    lo, hi = dataset.splits.train
    n = hi - max(window, lo)
    if n < 1:
        return [], n
    return sorted(candidates), n


def _allocate_pool(plans, dim: int) -> ReplayBuffer:
    """An empty store sized for every rollout of the given plans."""
    nodes = [node for plan_nodes, _ in plans for node in plan_nodes]
    steps = sum(len(plan_nodes) * n for plan_nodes, n in plans)
    return ReplayBuffer.allocate(steps, len(nodes), dim, nodes)


def generate_training_experiences(dataset: PeriodDataset, candidates, net: QNetwork,
                                  cfg: TrainerConfig, weights: RewardWeights,
                                  assembler: StateAssembler, discretizer: Discretizer,
                                  rng: np.random.Generator,
                                  pool: ReplayBuffer | None = None) -> ReplayBuffer:
    """Rollouts over the training split for each candidate node, in sorted
    order, written into `pool` (allocated here when None) and returned;
    the epsilon schedule advances with the dataset's transition count."""
    nodes, n = _rollout_plan(dataset, candidates, cfg.window)
    if pool is None:
        pool = _allocate_pool([(nodes, n)], assembler.dim)
    for k, node in enumerate(nodes):
        eps = epsilon_schedule(np.arange(k * n, (k + 1) * n), cfg)
        generate_rollout(
            assembler, discretizer, node, "train", net, eps, rng, weights, cfg.occ_epsilon, pool
        )
    return pool


def train_on_buffer(agent: AgentState, n_experiences: int, cfg: TrainerConfig,
                    rng: np.random.Generator, period: int) -> list[float]:
    """Run cfg.epochs passes of mixed batches; returns mean loss per epoch.

    An epoch is ceil(N/B) batches, sampled with replacement, N being the
    number of freshly generated experiences. The TD target uses a frozen
    copy of the net, re-synced every sync_interval updates. A non-finite
    loss or parameter after an update raises DivergenceError.
    """
    if n_experiences == 0 or cfg.epochs == 0 or len(agent.buffer) == 0:
        return []
    batches_per_epoch = math.ceil(n_experiences / cfg.batch_size)
    agent.target = agent.net.copy()  # fresh sync at phase start keeps resumed runs exact
    epoch_losses: list[float] = []
    for epoch in range(cfg.epochs):
        losses = np.empty(batches_per_epoch)
        for b in range(batches_per_epoch):
            states, actions, rewards, next_states, terminals = mixed_batch(
                agent.buffer, agent.memory, cfg.batch_size, cfg.mix_rho,
                cfg.sampling_omega, rng,
            )
            target_net = agent.target if cfg.use_target_network else agent.net
            next_q = forward_batch(target_net, next_states)
            targets = td_targets(rewards, next_q, cfg.gamma, terminals)
            loss, grad = loss_and_gradients(agent.net, states, actions, targets)
            apply_update(agent.net, grad, agent.opt)
            agent.updates += 1
            if not (math.isfinite(loss) and np.isfinite(agent.net.theta).all()):
                raise DivergenceError(
                    f"training diverged in period {period} at update "
                    f"{epoch * batches_per_epoch + b + 1} ({agent.updates} in all): loss {loss}, "
                    f"{np.count_nonzero(~np.isfinite(agent.net.theta))} non-finite parameters"
                )
            if cfg.use_target_network and agent.updates % cfg.sync_interval == 0:
                agent.target = agent.net.copy()
            losses[b] = loss
        epoch_losses.append(float(losses.mean()))
    return epoch_losses


def predict_horizon(net: QNetwork, dataset: PeriodDataset, node: str, t: int, horizon: int,
                    discretizer: Discretizer, window: int = WINDOW_DEFAULT,
                    calibration: Calibration | None = None):
    """Autoregressive greedy forecast of `horizon` steps from anchor t.

    Returns (classes, flows), each of length horizon. Every step's greedy
    class is mapped to its representative flow, which is appended to the
    own-flow window; speed and occupancy slots are filled with their last
    observed values, and the neighbor block stays frozen at the anchor.
    """
    assembler = StateAssembler(dataset, window=window, calibration=calibration)
    classes, flows = predict_horizon_block(net, assembler, discretizer, node, np.array([t]), horizon)
    return classes[0], flows[0]


def predict_horizon_block(net: QNetwork, assembler: StateAssembler, discretizer: Discretizer,
                          node: str, anchors: np.ndarray, horizon: int):
    """Vectorized predict_horizon over many anchors: returns (n, horizon)
    class and representative-flow arrays."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    w = assembler.window
    states = assembler.states(node, anchors)
    n = states.shape[0]
    classes = np.empty((n, horizon), dtype=int)
    flows = np.empty((n, horizon))
    for j in range(horizon):
        q = forward_batch(net, states)
        a = np.argmax(q, axis=1)
        rep = discretizer.representatives[a]
        classes[:, j] = a
        flows[:, j] = rep
        if j + 1 < horizon:
            rep_norm = np.clip(rep / assembler.calibration.flow_max, 0.0, 1.0)
            states[:, 0 : w - 1] = states[:, 1:w]
            states[:, w - 1] = rep_norm
            states[:, w : 2 * w - 1] = states[:, w + 1 : 2 * w]
            states[:, 2 * w : 3 * w - 1] = states[:, 2 * w + 1 : 3 * w]
            # last speed/occupancy slots keep their final observed values
    return classes, flows


def _evaluate_node(net, assembler, discretizer, node, split, horizons):
    """Per-horizon (predicted flows/classes, actual flows/classes) for one node."""
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
        pred_flow = flows[:, h - 1]
        pred_cls = cls[:, h - 1]
        actual_flow = ds.series[node].flow[anchors + h - 1]
        actual_cls = np.asarray(classify(discretizer, actual_flow), dtype=int)
        out[h] = (pred_flow, pred_cls, actual_flow, actual_cls)
    return out


def evaluate_period(dataset: PeriodDataset, net: QNetwork, discretizer: Discretizer,
                    assembler: StateAssembler, horizons, splits=("val", "test")):
    """Metrics over every node, per split and horizon.

    Returns (metrics, per_node_test_mae) where metrics maps
    split -> horizon -> MetricSet pooled over nodes, and the per-node dict
    holds each node's test MAE at the first horizon.
    """
    nodes = dataset.nodes
    results = {
        (node, split): _evaluate_node(net, assembler, discretizer, node, split, horizons)
        for node in nodes
        for split in splits
    }

    metrics: dict[str, dict[int, MetricSet]] = {}
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
    first_h = horizons[0]
    per_node_test_mae: dict[str, float] = {}
    for node in nodes:
        part = results[(node, "test")][first_h] if "test" in splits else None
        if part is not None:
            per_node_test_mae[node] = float(np.mean(np.abs(part[0] - part[2])))
    return metrics, per_node_test_mae


@dataclass(eq=False)
class PeriodReport:
    """Deterministic per-period outcome plus (separately dumped) timings."""

    period: int
    candidates: tuple[str, ...]
    new_nodes: tuple[str, ...]
    drifted_nodes: tuple[str, ...]
    experiences_generated: int
    experiences_consumed: int
    updates: int
    epoch_losses: list[float]
    metrics: dict[str, dict[int, MetricSet]]
    per_node_test_mae: dict[str, float]
    drift_scores: dict[str, float] | None
    timings: dict[str, float] = field(default_factory=dict)

    def to_report_dict(self) -> dict:
        """JSON-ready content; excludes wall-clock values so reruns match byte-for-byte."""
        out = {
            "period": self.period,
            "candidates": {
                "nodes": list(self.candidates),
                "new": list(self.new_nodes),
                "drifted": list(self.drifted_nodes),
                "count": len(self.candidates),
            },
            "experiences": {
                "generated": self.experiences_generated,
                "consumed": self.experiences_consumed,
            },
            "updates": self.updates,
            "epoch_losses": [float(x) for x in self.epoch_losses],
            "metrics": {
                split: {str(h): ms.as_dict() for h, ms in per_split.items()}
                for split, per_split in self.metrics.items()
            },
            "per_node_test_mae": {k: float(v) for k, v in self.per_node_test_mae.items()},
        }
        if self.drift_scores is not None:
            out["drift_scores"] = {k: float(v) for k, v in self.drift_scores.items()}
        return out

    def to_timings_dict(self) -> dict:
        return {"period": self.period, **{k: float(v) for k, v in self.timings.items()}}


AGENT_CHECKPOINT_VERSION = 2


def save_agent(agent: AgentState, path) -> None:
    """Versioned npz checkpoint of network, optimizer, update count and
    consolidation memory. The period pool is left out: the next period
    replaces it, and training re-syncs the target network."""
    payload: dict = {"version": np.array(AGENT_CHECKPOINT_VERSION)}
    payload.update(network_state_dict(agent.net, prefix="net_"))
    payload.update(optimizer_state_dict(agent.opt, agent.net, prefix="opt_"))
    payload["updates"] = np.array(agent.updates)
    for name, column in agent.memory.store.columns().items():
        payload[f"mem_{name}"] = column
    with atomic_write(path) as f:
        np.savez(f, **payload)


def load_agent(path) -> AgentState:
    with np.load(path) as data:
        version = int(data["version"])
        if version != AGENT_CHECKPOINT_VERSION:
            raise ValueError(f"unsupported agent checkpoint version {version}")
        net = network_from_state_dict(data, prefix="net_")
        opt = optimizer_from_state_dict(data, net, prefix="opt_")
        store = ReplayBuffer(**{name: data[f"mem_{name}"] for name in ("states", *COLUMNS)})
        if len(store) and store.states.shape[1] != net.input_dim:
            raise ValueError(f"mem_states has shape {store.states.shape}, "
                             f"expected (N, {net.input_dim})")
        return AgentState(net=net, opt=opt, buffer=ReplayBuffer(),
                          memory=ConsolidationMemory(store), updates=int(data["updates"]))


def _period_report(curr: PeriodDataset, cfg: TrainerConfig, generated: int,
                   epoch_losses: list[float], evaluation, clock, candidates,
                   new_nodes=(), drifted=(), drift_scores=None) -> PeriodReport:
    """A period's report from its pool size, losses and evaluation; `clock`
    holds perf_counter readings at the start and after detection,
    rollouts, training and evaluation."""
    t_start, t_detect, t_rollout, t_train, t_eval = clock
    updates = len(epoch_losses) * math.ceil(generated / cfg.batch_size)
    metrics, per_node_mae = evaluation
    return PeriodReport(
        period=curr.period,
        candidates=candidates,
        new_nodes=new_nodes,
        drifted_nodes=drifted,
        experiences_generated=generated,
        experiences_consumed=updates * cfg.batch_size,
        updates=updates,
        epoch_losses=epoch_losses,
        metrics=metrics,
        per_node_test_mae=per_node_mae,
        drift_scores=drift_scores,
        timings={
            "total_seconds": t_eval - t_start,
            "detect_seconds": t_detect - t_start,
            "rollout_seconds": t_rollout - t_detect,
            "train_seconds": t_train - t_rollout,
            "eval_seconds": t_eval - t_train,
            "per_epoch_seconds": (t_train - t_rollout) / len(epoch_losses) if epoch_losses else 0.0,
        },
    )


def run_period(prev: PeriodDataset | None, curr: PeriodDataset, agent: AgentState,
               cfg: TrainerConfig, weights: RewardWeights, seed: int,
               drift_cfg: DriftConfig | None = None) -> PeriodReport:
    """One period of the continual loop; mutates and returns via `agent`.

    Without a previous period (bootstrap) every node is a candidate;
    otherwise drift detection picks new nodes plus the top-KL fraction of
    survivors. Only candidates generate training rollouts; evaluation
    always covers all nodes.
    """
    drift_cfg = drift_cfg or DriftConfig()
    t_start = time.perf_counter()
    if prev is None:
        candidates = curr.nodes
        new_nodes = candidates
        drifted: tuple[str, ...] = ()
        drift_scores = None
    else:
        report = drift_mod.detect(
            prev, curr, fraction=drift_cfg.fraction, bins=drift_cfg.bins,
            smoothing=drift_cfg.smoothing,
        )
        candidates = report.candidates
        new_nodes = report.new_nodes
        drifted = report.top_kl_nodes
        drift_scores = report.scores
    t_detect = time.perf_counter()

    calibration = fit_calibration(curr)
    discretizer = fit_discretizer(curr.flows_in("train"))
    assembler = StateAssembler(curr, window=cfg.window, calibration=calibration)

    # The buffer holds only the current period's pool; cross-period recall
    # flows exclusively through the consolidation memory. Dropping the last
    # pool first keeps a single pool in memory.
    agent.buffer = ReplayBuffer()
    rng_rollout = np.random.default_rng([seed, curr.period, 1])
    agent.buffer.extend(generate_training_experiences(
        curr, candidates, agent.net, cfg, weights, assembler, discretizer, rng_rollout
    ))
    pool = agent.buffer
    t_rollout = time.perf_counter()

    rng_train = np.random.default_rng([seed, curr.period, 2])
    epoch_losses = train_on_buffer(agent, len(pool), cfg, rng_train, curr.period)
    t_train = time.perf_counter()

    if len(pool):
        agent.memory.add_period(curr.period, retain_top_fraction(pool, cfg.consolidation_fraction))
    evaluation = evaluate_period(curr, agent.net, discretizer, assembler, cfg.horizons)
    t_eval = time.perf_counter()
    return _period_report(
        curr, cfg, len(pool), epoch_losses, evaluation,
        (t_start, t_detect, t_rollout, t_train, t_eval),
        candidates, new_nodes, drifted, drift_scores,
    )


def run_continual(datasets: list[PeriodDataset], cfg: TrainerConfig, weights: RewardWeights,
                  seed: int, drift_cfg: DriftConfig | None = None, hidden: int = 64,
                  dueling: bool = True, optimizer: str = "adam",
                  freeze_after_first: bool = False):
    """Continual training across a dataset sequence; returns (agent, reports)."""
    if not datasets:
        raise ValueError("no datasets to train on")
    agent = init_agent(
        6 * cfg.window + 1, hidden=hidden, dueling=dueling, seed=seed,
        learning_rate=cfg.learning_rate, optimizer=optimizer,
    )
    reports = []
    prev = None
    for i, curr in enumerate(datasets):
        period_cfg = cfg
        if freeze_after_first and i > 0:
            period_cfg = replace(cfg, epochs=0)
        reports.append(run_period(prev, curr, agent, period_cfg, weights, seed, drift_cfg=drift_cfg))
        prev = curr
    return agent, reports


def run_full_retrain(datasets: list[PeriodDataset], cfg: TrainerConfig,
                     weights: RewardWeights, seed: int, hidden: int = 64,
                     dueling: bool = True, optimizer: str = "adam"):
    """Retrain-from-scratch baseline: each period trains a fresh network on
    every node of every period seen so far, with no drift selection and no
    consolidation. Returns (reports, experiences_touched_total)."""
    if not datasets:
        raise ValueError("no datasets to train on")
    dim = 6 * cfg.window + 1
    reports = []
    touched = 0
    for i, curr in enumerate(datasets):
        agent = init_agent(
            dim, hidden=hidden, dueling=dueling, seed=seed,
            learning_rate=cfg.learning_rate, optimizer=optimizer,
        )
        t_start = time.perf_counter()
        seen = datasets[: i + 1]
        pool = _allocate_pool([_rollout_plan(past, past.nodes, cfg.window) for past in seen], dim)
        for past in seen:
            calibration = fit_calibration(past)
            discretizer = fit_discretizer(past.flows_in("train"))
            assembler = StateAssembler(past, window=cfg.window, calibration=calibration)
            rng_rollout = np.random.default_rng([seed, past.period, i, 3])
            generate_training_experiences(
                past, past.nodes, agent.net, cfg, weights, assembler, discretizer,
                rng_rollout, pool,
            )
        agent.buffer.extend(pool)
        t_rollout = time.perf_counter()
        rng_train = np.random.default_rng([seed, curr.period, i, 4])
        epoch_losses = train_on_buffer(
            agent, len(pool), replace(cfg, mix_rho=0.0), rng_train, curr.period
        )
        t_train = time.perf_counter()

        # the last dataset seen is curr, so its discretizer and assembler score it
        evaluation = evaluate_period(curr, agent.net, discretizer, assembler, cfg.horizons)
        t_eval = time.perf_counter()
        touched += len(pool)
        reports.append(_period_report(
            curr, cfg, len(pool), epoch_losses, evaluation,
            (t_start, t_start, t_rollout, t_train, t_eval), curr.nodes,
        ))
    return reports, touched
