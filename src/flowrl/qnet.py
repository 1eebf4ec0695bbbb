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
# Adam's moment decay rates and denominator floor; checkpoints record them
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

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


def dueling_aggregate(value, advantages, out=None) -> np.ndarray:
    """Combine value and advantages: V + A - mean(A), into `out` if given
    (which may be the advantages themselves).

    Computed as V + (n*A - sum(A)) / n; the scaled form keeps the
    centering exact whenever the advantage entries share a binary grid,
    so a common offset cancels bit-for-bit.
    """
    adv = np.asarray(advantages, dtype=float)
    n = adv.shape[-1]
    total = adv.sum(axis=-1, keepdims=True)
    out = np.multiply(n, adv, out=out)
    out -= total
    out /= n
    return np.add(np.asarray(value, dtype=float), out, out=out)


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


class Workspace:
    """What one training update writes, for batches of `rows` states of a
    net of this shape: one float64 block carved into views, so a training
    phase allocates it once and every update reuses it.

    The batch (states, next states, rewards; actions and terminals are
    int64 and bool views of the same block) is filled by
    replay.mixed_batch; h1, h2, value and q hold the last full forward,
    and the target's forward and the online net's share them; dq, dvalue,
    dh and dz hold the backward pass and grad the flat gradient, laid out
    like theta; adam holds the optimizer's two scratch vectors, which share
    the floats of the forward and backward pass: apply_update runs after
    loss_and_gradients has read them. A view is valid only until the next
    call that writes it. Each view starts on a 64-byte boundary, where the
    update ran about 3-5% faster than at the 16-byte alignment of a fresh
    array.
    """

    def __init__(self, rows: int, input_dim: int, hidden: int):
        line = 8  # float64s per 64-byte cache line
        params = sum(math.prod(shape) for shape in param_shapes(input_dim, hidden).values())
        padded = -(-params // line) * line
        shapes = {  # a forward alone writes only the first four
            "h1": (rows, hidden), "h2": (rows, hidden), "value": (rows, 1), "q": (rows, N_ACTIONS),
            "dh": (rows, hidden), "dz": (rows, hidden), "dvalue": (rows, 1), "dq": (rows, N_ACTIONS),
            "grad": (params,), "states": (rows, input_dim), "next_states": (rows, input_dim),
            "rewards": (rows,), "actions": (rows,), "terminals": (-(-rows // 8),),
        }
        sizes = {name: -(-math.prod(shape) // line) * line for name, shape in shapes.items()}
        passes = sum(sizes[name] for name in ("h1", "h2", "value", "q", "dh", "dz", "dvalue", "dq"))
        shared = max(passes, 2 * padded)  # the passes' floats, and adam's at the same start
        total = sum(sizes.values()) - passes + shared
        raw = np.empty(total + line)
        first = -raw.ctypes.data % 64 // 8
        self.block = raw[first:first + total]
        start = 0
        for name, shape in shapes.items():
            if name == "grad":
                start = shared
            setattr(self, name, self.block[start:start + math.prod(shape)].reshape(shape))
            start += sizes[name]
        self.adam = self.block[:2 * padded].reshape(2, padded)[:, :params]
        self.actions = self.actions.view(np.int64)
        self.terminals = self.terminals.view(np.bool_)[:rows]
        self.grads = param_views(self.grad, input_dim, hidden)


def _forward(net: QNetwork, states: np.ndarray, work: Workspace | None) -> np.ndarray:
    """The full forward of `states` into work's h1, h2, value and q, or
    into fresh arrays of just those if `work` is None; returns q."""
    if work is not None and len(states) != len(work.q):
        raise ValueError(f"a batch of {len(states)} states in a workspace of {len(work.q)} rows")
    h1, h2, value, q = (None,) * 4 if work is None else (work.h1, work.h2, work.value, work.q)
    h1 = np.matmul(states, net.w1.T, out=h1)
    h1 += net.b1
    np.maximum(h1, 0.0, out=h1)
    h2 = np.matmul(h1, net.w2.T, out=h2)
    h2 += net.b2
    np.maximum(h2, 0.0, out=h2)
    q = np.matmul(h2, net.wa.T, out=q)  # the advantages; Q itself for a plain head
    q += net.ba
    if net.dueling:
        value = np.matmul(h2, net.wv.T, out=value)
        value += net.bv
        dueling_aggregate(value, q, out=q)
    return q


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


def forward_batch(net: QNetwork, states, frozen: FrozenInput | None = None,
                  work: Workspace | None = None) -> np.ndarray:
    """Q-values for a batch of states, shape (N, 5).

    The full forward writes its activations and Q-values into `work` (into
    fresh arrays of just those if none is given) and returns its q view.

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
        return _forward(net, states, work)
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


def loss_and_gradients(net: QNetwork, states, actions, targets, work: Workspace | None = None):
    """Mean squared TD loss over the batch and its exact gradients.

    Loss = mean_i (y_i - Q(s_i, a_i))^2. Returns (loss, grad) where grad is
    one flat vector laid out like net.theta; param_views names its parts.
    The forward and backward pass and grad itself are written into `work`
    (a fresh Workspace of N rows if none is given), so grad is valid until
    the next call with the same workspace.
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
    if work is None:
        work = Workspace(n, net.input_dim, net.hidden_dim)

    q = _forward(net, states, work)
    idx = np.arange(n)
    err = q[idx, actions] - targets
    loss = float(np.mean(err**2))

    dq, dvalue, dh, dz, h1, h2 = work.dq, work.dvalue, work.dh, work.dz, work.h1, work.h2
    dq.fill(0.0)
    dq[idx, actions] = 2.0 * err / n
    if net.dueling:
        np.sum(dq, axis=1, keepdims=True, out=dvalue)  # dQ_j/dV = 1
        dq -= dvalue / N_ACTIONS  # dQ_j/dA_k = d_jk - 1/n: dq now holds dadv
    else:
        dvalue.fill(0.0)

    # h > 0 exactly where the pre-activation z > 0, so the ReLU masks read h
    np.matmul(dvalue, net.wv, out=dh)
    dh += np.matmul(dq, net.wa, out=dz)  # dh2
    dh *= h2 > 0  # dz2
    np.matmul(dh, net.w2, out=dz)  # dh1
    dz *= h1 > 0  # dz1
    g = work.grads
    for w, b, delta, inputs in (("w1", "b1", dz, states), ("w2", "b2", dh, h1),
                                ("wv", "bv", dvalue, h2), ("wa", "ba", dq, h2)):
        np.matmul(delta.T, inputs, out=g[w])
        np.sum(delta, axis=0, out=g[b])
    return loss, work.grad


@dataclass(eq=False)
class OptimizerState:
    """Adaptive-moment (or plain gradient) update state for one network;
    m and v are laid out like its theta, and Adam's constants are ADAM_*."""

    m: np.ndarray
    v: np.ndarray
    learning_rate: float = 0.001
    method: str = "adam"
    step: int = 0

    def __post_init__(self):
        if self.method not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer method {self.method!r}")


def init_optimizer(net: QNetwork, learning_rate: float = 0.001, method: str = "adam") -> OptimizerState:
    return OptimizerState(np.zeros_like(net.theta), np.zeros_like(net.theta),
                          learning_rate=learning_rate, method=method)


def apply_update(net: QNetwork, grad: np.ndarray, opt: OptimizerState,
                 work: Workspace | None = None):
    """One in-place optimizer step on net.theta, its temporaries written
    into work's adam scratch (a fresh Workspace's if none is given);
    returns (net, opt)."""
    if grad.shape != net.theta.shape:
        raise ValueError(
            f"gradient shape {grad.shape} does not match parameter vector shape {net.theta.shape}"
        )
    num, den = (Workspace(0, net.input_dim, net.hidden_dim) if work is None else work).adam
    opt.step += 1
    if opt.method == "sgd":
        net.theta -= np.multiply(opt.learning_rate, grad, out=num)
        return net, opt
    t = opt.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    opt.m *= ADAM_BETA1
    opt.m += np.multiply(1.0 - ADAM_BETA1, grad, out=num)
    opt.v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, grad, out=num)
    num *= grad
    opt.v += num
    # theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
    np.divide(opt.m, bc1, out=num)
    num *= opt.learning_rate
    np.divide(opt.v, bc2, out=den)
    np.sqrt(den, out=den)
    den += ADAM_EPS
    num /= den
    net.theta -= num
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


# Adam's constants as a checkpoint records them, between the method and the step
ADAM_CONSTANTS = {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS}


def optimizer_state_dict(opt: OptimizerState, net: QNetwork,
                         prefix: str = "opt_") -> dict[str, np.ndarray]:
    """The optimizer of `net` as named arrays: its settings, then each
    parameter's first and second moments."""
    settings = {"learning_rate": opt.learning_rate, "method": opt.method, **ADAM_CONSTANTS,
                "step": opt.step}
    out = {prefix + key: np.array(value) for key, value in settings.items()}
    m, v = (param_views(a, net.input_dim, net.hidden_dim) for a in (opt.m, opt.v))
    for name in PARAM_NAMES:
        out[f"{prefix}m_{name}"] = m[name]
        out[f"{prefix}v_{name}"] = v[name]
    return out


def optimizer_from_state_dict(state, net: QNetwork, prefix: str = "opt_") -> OptimizerState:
    """Inverse of optimizer_state_dict, moments checked against net's layout.
    Constants other than ADAM_CONSTANTS, a step that is not an integer >= 0
    and negative second moments, each of which would make the next update
    divide by zero or take a negative root, raise ValueError naming the key."""
    for key, value in ADAM_CONSTANTS.items():
        if (saved := state[prefix + key].item()) != value:
            raise ValueError(f"{prefix}{key} is {saved!r}, but Adam's {key} is {value!r}")
    step = state[prefix + "step"].item()
    if type(step) is not int or step < 0:
        raise ValueError(f"{prefix}step is {step!r}, expected an integer >= 0")
    m, v = (flatten_params(state, net.input_dim, net.hidden_dim, prefix + part)
            for part in ("m_", "v_"))
    for name in PARAM_NAMES:
        if np.any(state[f"{prefix}v_{name}"] < 0):
            raise ValueError(f"{prefix}v_{name} holds negative second moments")
    learning_rate, method = (state[prefix + key].item() for key in ("learning_rate", "method"))
    return OptimizerState(m, v, learning_rate, method, step)
