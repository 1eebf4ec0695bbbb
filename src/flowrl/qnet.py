"""Dueling fully-connected Q-network with exact analytic gradients.

Two rectifier hidden layers feed a scalar value head and a five-way
advantage head; Q(s, a) = V(s) + A(s, a) - mean_a A(s, a). Everything is
plain numpy: forward, backward, and the optimizer are written out so the
gradients can be checked against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

N_ACTIONS = 5
HIDDEN_DEFAULT = 64

PARAM_NAMES = ("w1", "b1", "w2", "b2", "wv", "bv", "wa", "ba")


def param_shapes(input_dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """The layout of a flat parameter vector: each parameter's shape, in
    PARAM_NAMES order."""
    shapes = ((hidden, input_dim), (hidden,), (hidden, hidden), (hidden,),
              (1, hidden), (1,), (N_ACTIONS, hidden), (N_ACTIONS,))
    return dict(zip(PARAM_NAMES, shapes))


def param_views(flat: np.ndarray, input_dim: int, hidden: int) -> dict[str, np.ndarray]:
    """Named reshaped views into a flat vector laid out as param_shapes."""
    views, start = {}, 0
    for name, shape in param_shapes(input_dim, hidden).items():
        stop = start + math.prod(shape)
        views[name] = flat[start:stop].reshape(shape)
        start = stop
    return views


def flatten_params(named, input_dim: int, hidden: int, prefix: str = "") -> np.ndarray:
    """One float64 vector from the arrays named prefix + w1 ... prefix + ba,
    each checked against the layout."""
    parts = []
    for name, shape in param_shapes(input_dim, hidden).items():
        array = np.asarray(named[prefix + name], dtype=float)
        if array.shape != shape:
            raise ValueError(f"{prefix}{name} has shape {array.shape}, expected {shape}")
        parts.append(array.ravel())
    return np.concatenate(parts)


def dueling_aggregate(value, advantages) -> np.ndarray:
    """Combine value and advantages: V + A - mean(A).

    Computed as V + (n*A - sum(A)) / n; the scaled form keeps the
    centering exact whenever the advantage entries share a binary grid,
    so a common offset cancels bit-for-bit.
    """
    adv = np.asarray(advantages, dtype=float)
    n = adv.shape[-1]
    return np.asarray(value, dtype=float) + (n * adv - adv.sum(axis=-1, keepdims=True)) / n


class QNetwork:
    """The dueling net's parameters: one float64 vector `theta`, mutated in
    place by training, with w1 ... ba as views into it (see param_shapes)."""

    def __init__(self, theta: np.ndarray, input_dim: int, hidden: int, dueling: bool = True):
        self.theta = theta
        self.input_dim = input_dim
        self.hidden_dim = hidden
        self.dueling = dueling
        vars(self).update(param_views(theta, input_dim, hidden))

    @classmethod
    def from_params(cls, named, dueling: bool = True, prefix: str = "") -> "QNetwork":
        """A network from the arrays named prefix + w1 ... prefix + ba;
        the shape of w1 sets the layout every other array must match."""
        w1 = np.shape(named[prefix + "w1"])
        if len(w1) != 2:
            raise ValueError(f"{prefix}w1 has shape {w1}, expected (hidden, input_dim)")
        hidden, input_dim = w1
        return cls(flatten_params(named, input_dim, hidden, prefix), input_dim, hidden, dueling)

    def copy(self) -> "QNetwork":
        return QNetwork(self.theta.copy(), self.input_dim, self.hidden_dim, self.dueling)

    @staticmethod
    def initialize(input_dim: int, hidden: int = HIDDEN_DEFAULT, seed: int = 0,
                   dueling: bool = True) -> "QNetwork":
        """Seeded uniform fan-in initialization: U(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
        rng = np.random.default_rng([int(seed), 0x9E7])
        params = {}
        for name, shape in param_shapes(input_dim, hidden).items():
            bound = 1.0 / np.sqrt(input_dim if name in ("w1", "b1") else hidden)
            params[name] = rng.uniform(-bound, bound, size=shape)
        return QNetwork.from_params(params, dueling)


def _forward_cached(net: QNetwork, states: np.ndarray):
    z1 = states @ net.w1.T + net.b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ net.w2.T + net.b2
    h2 = np.maximum(z2, 0.0)
    value = h2 @ net.wv.T + net.bv  # (N, 1)
    adv = h2 @ net.wa.T + net.ba  # (N, A)
    q = dueling_aggregate(value, adv) if net.dueling else adv
    return q, (states, z1, h1, z2, h2)


class FrozenInput(NamedTuple):
    """What stays fixed while a block of states changes only in its leading
    columns: the first layer's pre-activation from the trailing columns,
    with b1 added, laid out feature-major (one row per hidden unit, one
    column per state), the first-layer weights of the leading columns, and
    the second layer and the Q head (for a dueling net, value and advantage
    folded into one map), each with its bias as a last column that the
    frozen forward multiplies by a row of ones. `w_own` may be a view of
    the net's parameters, so a FrozenInput is valid only while those stay
    unchanged, and its columns may be permuted to match an `own` whose
    leading columns come in another order."""

    z1: np.ndarray     # (hidden, n)
    w_own: np.ndarray  # (hidden, leading columns)
    w2: np.ndarray     # (hidden, hidden + 1): [w2 | b2]
    head: np.ndarray   # (5, hidden + 1): [head weights | head bias]


def freeze_input(net: QNetwork, tail) -> FrozenInput:
    """The fixed part of forward_batch(net, own, frozen) for states whose
    trailing columns are `tail` (n, m) and whose leading input_dim - m
    columns are passed as `own` at each call; z1 = w1[:, -m:] @ tail.T + b1.

    The dueling aggregate Q = V + A - mean(A) is linear in the last hidden
    layer, so its head folds into weights wa + wv - mean_k(wa_k) and bias
    ba + bv - mean(ba).
    """
    tail = np.asarray(tail, dtype=float)
    if tail.ndim != 2 or not 0 < tail.shape[1] < net.input_dim:
        raise ValueError(f"frozen columns have shape {tail.shape}, expected (N, m) with "
                         f"0 < m < {net.input_dim}")
    split = net.input_dim - tail.shape[1]
    z1 = net.w1[:, split:] @ tail.T
    z1 += net.b1[:, None]
    if net.dueling:
        head_w = net.wa + net.wv - net.wa.mean(axis=0)
        head_b = net.ba + net.bv - net.ba.mean()
    else:
        head_w, head_b = net.wa, net.ba
    return FrozenInput(z1, net.w1[:, :split], np.column_stack([net.w2, net.b2]),
                       np.column_stack([head_w, head_b]))


def forward_batch(net: QNetwork, states, frozen: FrozenInput | None = None) -> np.ndarray:
    """Q-values for a batch of states, shape (N, 5).

    With `frozen` (from freeze_input), `states` holds only each state's
    leading columns and the rest of the first layer, the second layer and
    the folded head come from `frozen`. This path runs feature-major, with
    one column per state: it multiplies weights @ states.T (fastest when
    `states` is the .T view of a contiguous block), keeps a row of ones
    under each hidden layer so that the second layer's and the head's
    products add their biases, and returns the (N, 5) view of a (5, N)
    array. The split sums round differently, so such Q-values match the
    full forward only to the last bits; read them through argmax.
    """
    states = np.asarray(states, dtype=float)
    if frozen is None:
        if states.ndim != 2 or states.shape[1] != net.input_dim:
            raise ValueError(f"state batch has shape {states.shape}, expected (N, {net.input_dim})")
        q, _ = _forward_cached(net, states)
        return q
    expected = (frozen.z1.shape[1], frozen.w_own.shape[1])
    if states.shape != expected:
        raise ValueError(f"leading state columns have shape {states.shape}, expected {expected}")
    hidden, n = frozen.z1.shape
    h1 = np.empty((hidden + 1, n))
    h1[hidden] = 1.0  # the row of ones that adds the next product's bias column
    np.matmul(frozen.w_own, states.T, out=h1[:hidden])
    h1[:hidden] += frozen.z1
    np.maximum(h1[:hidden], 0.0, out=h1[:hidden])
    h2 = np.empty((hidden + 1, n))
    h2[hidden] = 1.0
    np.matmul(frozen.w2, h1, out=h2[:hidden])
    np.maximum(h2[:hidden], 0.0, out=h2[:hidden])
    return (frozen.head @ h2).T


def loss_and_gradients(net: QNetwork, states, actions, targets):
    """Mean squared TD loss over the batch and its exact gradients.

    Loss = mean_i (y_i - Q(s_i, a_i))^2. Returns (loss, grad) where grad is
    one flat vector laid out like net.theta; param_views names its parts.
    """
    states = np.asarray(states, dtype=float)
    actions = np.asarray(actions, dtype=int)
    targets = np.asarray(targets, dtype=float)
    if states.ndim != 2 or states.shape[1] != net.input_dim:
        raise ValueError(f"state batch has shape {states.shape}, expected (N, {net.input_dim})")
    n = states.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if actions.shape != (n,) or targets.shape != (n,):
        raise ValueError(
            f"actions/targets shapes {actions.shape}/{targets.shape} do not match batch size {n}"
        )
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets contain non-finite values")

    q, (s, z1, h1, z2, h2) = _forward_cached(net, states)
    idx = np.arange(n)
    err = q[idx, actions] - targets
    loss = float(np.mean(err**2))

    dq = np.zeros_like(q)
    dq[idx, actions] = 2.0 * err / n
    if net.dueling:
        dvalue = dq.sum(axis=1, keepdims=True)           # dQ_j/dV = 1
        dadv = dq - dq.sum(axis=1, keepdims=True) / N_ACTIONS  # dQ_j/dA_k = d_jk - 1/n
    else:
        dvalue = np.zeros((n, 1))
        dadv = dq

    dh2 = dvalue @ net.wv + dadv @ net.wa
    dz2 = dh2 * (z2 > 0)
    dh1 = dz2 @ net.w2
    dz1 = dh1 * (z1 > 0)
    parts = (dz1.T @ s, dz1.sum(axis=0), dz2.T @ h1, dz2.sum(axis=0),
             dvalue.T @ h2, dvalue.sum(axis=0), dadv.T @ h2, dadv.sum(axis=0))
    return loss, np.concatenate([p.ravel() for p in parts])  # PARAM_NAMES order


@dataclass(eq=False)
class OptimizerState:
    """Adaptive-moment (or plain gradient) update state for one network;
    m and v are laid out like its theta."""

    m: np.ndarray
    v: np.ndarray
    learning_rate: float = 0.001
    method: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0

    def __post_init__(self):
        if self.method not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer method {self.method!r}")


def init_optimizer(net: QNetwork, learning_rate: float = 0.001, method: str = "adam") -> OptimizerState:
    return OptimizerState(np.zeros_like(net.theta), np.zeros_like(net.theta),
                          learning_rate=learning_rate, method=method)


def apply_update(net: QNetwork, grad: np.ndarray, opt: OptimizerState):
    """One in-place optimizer step on net.theta; returns (net, opt)."""
    if grad.shape != net.theta.shape:
        raise ValueError(
            f"gradient shape {grad.shape} does not match parameter vector shape {net.theta.shape}"
        )
    opt.step += 1
    if opt.method == "sgd":
        net.theta -= opt.learning_rate * grad
        return net, opt
    t = opt.step
    bc1 = 1.0 - opt.beta1**t
    bc2 = 1.0 - opt.beta2**t
    opt.m *= opt.beta1
    opt.m += (1.0 - opt.beta1) * grad
    opt.v *= opt.beta2
    opt.v += (1.0 - opt.beta2) * grad * grad
    net.theta -= opt.learning_rate * (opt.m / bc1) / (np.sqrt(opt.v / bc2) + opt.eps)
    return net, opt


def select_actions(net: QNetwork, blocks, epsilons, rng: np.random.Generator) -> np.ndarray:
    """Vectorized epsilon-greedy over the rows of a sequence of (m, d)
    state blocks, one epsilon per row, so a batch need not be held whole."""
    epsilons = np.asarray(epsilons, dtype=float)
    if np.any(epsilons < 0) or np.any(epsilons > 1):
        raise ValueError("epsilons must lie in [0, 1]")
    greedy = np.concatenate([np.argmax(forward_batch(net, states), axis=1) for states in blocks])
    explore = rng.random(len(greedy)) < epsilons
    randoms = rng.integers(0, N_ACTIONS, size=len(greedy))
    return np.where(explore, randoms, greedy).astype(int)


def network_state_dict(net: QNetwork, prefix: str = "net_") -> dict[str, np.ndarray]:
    """Flatten the network into named arrays for an npz dump."""
    out = {prefix + name: getattr(net, name) for name in PARAM_NAMES}
    out[prefix + "dueling"] = np.array(int(net.dueling))
    return out


def network_from_state_dict(state, prefix: str = "net_") -> QNetwork:
    """Inverse of network_state_dict; raises ValueError naming the first
    array whose shape disagrees with the layout set by w1."""
    return QNetwork.from_params(state, dueling=bool(int(state[prefix + "dueling"])), prefix=prefix)


OPTIMIZER_SETTINGS = ("learning_rate", "method", "beta1", "beta2", "eps", "step")


def optimizer_state_dict(opt: OptimizerState, net: QNetwork,
                         prefix: str = "opt_") -> dict[str, np.ndarray]:
    """The optimizer of `net` as named arrays: its settings, then each
    parameter's first and second moments."""
    out = {prefix + key: np.array(getattr(opt, key)) for key in OPTIMIZER_SETTINGS}
    m, v = (param_views(a, net.input_dim, net.hidden_dim) for a in (opt.m, opt.v))
    for name in PARAM_NAMES:
        out[f"{prefix}m_{name}"] = m[name]
        out[f"{prefix}v_{name}"] = v[name]
    return out


def optimizer_from_state_dict(state, net: QNetwork, prefix: str = "opt_") -> OptimizerState:
    """Inverse of optimizer_state_dict, moments checked against net's layout."""
    m, v = (flatten_params(state, net.input_dim, net.hidden_dim, prefix + part)
            for part in ("m_", "v_"))
    return OptimizerState(m, v, **{key: state[prefix + key].item() for key in OPTIMIZER_SETTINGS})
