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
from collections import namedtuple
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import drift as drift_mod
from .atomic import atomic_write
from .drift import DriftConfig
from .env import (
    Discretizer,
    RewardWeights,
    StateAssembler,
    WINDOW_DEFAULT,
    OCC_EPSILON_DEFAULT,
    classify,
    compute_rewards,
    fit_calibration,
    fit_discretizer,
    state_dim,
    window_rows,
)
from .errors import DivergenceError
from .ingest import PeriodDataset, ReadingError
from .metrics import MetricSet, compute_metrics, metrics_dict
from .qnet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    HIDDEN_DEFAULT,
    PARAM_NAMES,
    QNetwork,
    OptimizerState,
    Workspace,
    forward_batch,
    freeze_input,
    init_optimizer,
    loss_and_gradients,
    apply_update,
    param_shapes,
    param_views,
    select_actions,
)
from .replay import (
    MEMORY_COLUMNS,
    Batch,
    ConsolidationMemory,
    ReplayBuffer,
    mixed_batch,
    retain_top_fraction,
)

# A rollout acts on its states in blocks of at most this many rows.
ROLLOUT_BLOCK = 256


@dataclass(frozen=True)
class TrainerConfig:
    """Hyperparameters of the continual loop, and the network and optimizer
    that init_agent builds."""

    gamma: float = 0.5
    hidden: int = HIDDEN_DEFAULT
    dueling: bool = True
    optimizer: str = "adam"
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
    # After the first period (any period run with a previous one), train no
    # epochs: the frozen model still rolls out, retains and evaluates.
    freeze_after_first_period: bool = False

    def __post_init__(self):
        if not 0 <= self.gamma < 1:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("eps_start", "eps_end"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
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
        if len(set(self.horizons)) != len(self.horizons):
            raise ValueError(f"horizons must be distinct, got {self.horizons}")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not self.sampling_omega >= 0:
            raise ValueError(f"sampling_omega must be >= 0, got {self.sampling_omega}")
        if not 0 < self.consolidation_fraction <= 1:
            raise ValueError(f"consolidation_fraction must lie in (0, 1], got {self.consolidation_fraction}")
        if not self.occ_epsilon > 0:
            raise ValueError(f"occ_epsilon must be > 0, got {self.occ_epsilon}")


def td_targets(rewards, next_qs, gamma: float, terminals) -> np.ndarray:
    """Bootstrapped regression targets of a batch: r, plus gamma * max(next_q)
    where not terminal; next_qs has shape (N, actions)."""
    rewards = np.asarray(rewards, dtype=float)
    terminals = np.asarray(terminals, dtype=bool)
    boot = gamma * np.max(np.asarray(next_qs, dtype=float), axis=1)
    return np.where(terminals, rewards, rewards + boot)


def epsilon_schedule(k: np.ndarray, cfg: TrainerConfig) -> np.ndarray:
    """Exploration rate for the k-th generated experience of a period."""
    k = np.asarray(k, dtype=float)
    frac = np.minimum(k / cfg.eps_decay_steps, 1.0)
    eps = cfg.eps_start + (cfg.eps_end - cfg.eps_start) * frac
    return np.where(k >= cfg.eps_decay_steps, cfg.eps_end, eps)


@dataclass(eq=False)
class EpisodeRollout:
    """One node's transitions, a view of its span of the pool. No result reads
    it; perfbench/spans.py counts its .experiences as trainer.experiences."""

    node_id: str
    experiences: ReplayBuffer


@dataclass(eq=False)
class AgentState:
    """Everything that persists across periods, which is what save_agent
    writes. A period's pool and target net are its own."""

    net: QNetwork
    opt: OptimizerState
    memory: ConsolidationMemory
    updates: int = 0


def init_agent(cfg: TrainerConfig, seed: int = 0) -> AgentState:
    """A fresh agent: cfg's network for states of window cfg.window, seeded
    by `seed`, its optimizer and an empty memory."""
    net = QNetwork.initialize(state_dim(cfg.window), cfg.hidden, seed, cfg.dueling)
    return AgentState(net, init_optimizer(net, cfg.learning_rate, cfg.optimizer), ConsolidationMemory())


def fit_period(dataset: PeriodDataset, window: int) -> tuple[Discretizer, StateAssembler]:
    """The discretizer and the state assembler of one period, both fitted on
    its training split; the assembler holds the calibration."""
    discretizer = fit_discretizer(dataset.flows_in("train"))
    return discretizer, StateAssembler(dataset, window=window, calibration=fit_calibration(dataset))


def generate_rollout(assembler: StateAssembler, discretizer: Discretizer, pool: ReplayBuffer,
                     r: int, net: QNetwork, epsilons: np.ndarray, rng: np.random.Generator,
                     weights: RewardWeights, occ_epsilon: float) -> EpisodeRollout:
    """Roll the pool's r-th node over its n steps from t0, writing its rows
    over [t0 - W, t0 + n) into block r of the pool's table and its degree,
    actions and rewards into transitions [rn, (r + 1)n).

    The transition at time t reads its state from rows [t-W, t) of the
    block, takes the epsilon-greedy action on it and the reward against the
    actual class at t; its next state is the state at t+1, and the pool
    flags the last one terminal. The states are acted on in blocks of at
    most ROLLOUT_BLOCK rows, whose Q-values can differ from one forward's
    over all n in the last bits; only the argmax is read.
    """
    ds = assembler.dataset
    nodes, _, t0, n = pool.rollouts
    node, w = str(nodes[r]), pool.window
    if len(epsilons) != n:
        raise ValueError(f"need {n} epsilon values, got {len(epsilons)}")
    rows = assembler.rows(node, t0 - w, t0 + n, out=pool.steps[r * (n + w):(r + 1) * (n + w)])
    degree = assembler.degree(node)
    windows = np.lib.stride_tricks.sliding_window_view(rows, w, axis=0)[:n]
    blocks = np.array_split(windows, -(-n // ROLLOUT_BLOCK))
    actions = select_actions(net, (window_rows(b, degree) for b in blocks), epsilons, rng)
    actual = np.asarray(classify(discretizer, ds.values[ds.index[node], t0:t0 + n, 0]), dtype=int)
    span = slice(r * n, (r + 1) * n)
    pool.degree[span] = degree
    pool.action[span] = actions
    pool.reward[span] = compute_rewards(actions, actual, rows[w:, 1], rows[w:, 2], weights, occ_epsilon)
    return EpisodeRollout(node, pool.subset(span))


def generate_training_experiences(dataset: PeriodDataset, candidates, net: QNetwork,
                                  cfg: TrainerConfig, weights: RewardWeights,
                                  assembler: StateAssembler, discretizer: Discretizer,
                                  rng: np.random.Generator) -> ReplayBuffer:
    """Rollouts over the training split for each candidate node, in sorted
    order, written into one pool of their own rows and returned; the
    epsilon schedule advances with the dataset's transition count."""
    lo, hi = dataset.splits.train
    t0 = max(cfg.window, lo)
    n = max(hi - t0, 0)  # none when the split ends at or before W
    nodes = sorted(candidates) if n else []
    pool = ReplayBuffer.allocate(nodes, n, cfg.window, dataset.period, t0)
    for r in range(len(nodes)):
        eps = epsilon_schedule(np.arange(r * n, (r + 1) * n), cfg)
        generate_rollout(assembler, discretizer, pool, r, net, eps, rng, weights, cfg.occ_epsilon)
    return pool


def train_on_buffer(agent: AgentState, pool: ReplayBuffer, cfg: TrainerConfig,
                    rng: np.random.Generator, period: int) -> list[float]:
    """Run cfg.epochs passes of batches mixing `pool` with the agent's
    memory; returns mean loss per epoch.

    An epoch is ceil(N/B) batches, sampled with replacement, N being the
    pool's length. The TD target uses a frozen copy of the net, re-synced
    every sync_interval updates. A non-finite loss or parameter after an
    update raises DivergenceError.

    Every update writes its batch, activations, gradient and optimizer
    temporaries into one Workspace, allocated once per call: the target's
    forward and the online net's share its activations, as td_targets
    reads the target's Q-values before the online forward overwrites them.
    """
    if len(pool) == 0 or cfg.epochs == 0:
        return []
    batches_per_epoch = math.ceil(len(pool) / cfg.batch_size)
    target = agent.net.copy()  # fresh sync at phase start keeps resumed runs exact
    work = Workspace(cfg.batch_size, agent.net.input_dim, agent.net.hidden_dim)
    batch = Batch(work.states, work.actions, work.rewards, work.next_states, work.terminals)
    epoch_losses: list[float] = []
    for epoch in range(cfg.epochs):
        losses = np.empty(batches_per_epoch)
        for b in range(batches_per_epoch):
            states, actions, rewards, next_states, terminals = mixed_batch(
                pool, agent.memory, cfg.batch_size, cfg.mix_rho, cfg.sampling_omega, rng, out=batch,
            )
            next_q = forward_batch(target if cfg.use_target_network else agent.net, next_states,
                                   work=work)
            targets = td_targets(rewards, next_q, cfg.gamma, terminals)
            loss, grad = loss_and_gradients(agent.net, states, actions, targets, work)
            apply_update(agent.net, grad, agent.opt, work)
            agent.updates += 1
            if not (math.isfinite(loss) and np.isfinite(agent.net.theta).all()):
                raise DivergenceError(
                    f"training diverged in period {period} at update "
                    f"{epoch * batches_per_epoch + b + 1} ({agent.updates} in all): loss {loss}, "
                    f"{np.count_nonzero(~np.isfinite(agent.net.theta))} non-finite parameters"
                )
            if cfg.use_target_network and agent.updates % cfg.sync_interval == 0:
                np.copyto(target.theta, agent.net.theta)
            losses[b] = loss
        epoch_losses.append(float(losses.mean()))
    return epoch_losses


def predict_horizon_block(net: QNetwork, assembler: StateAssembler, discretizer: Discretizer,
                          node: str, anchors: np.ndarray, horizon: int):
    """Autoregressive greedy forecast of `horizon` steps from each anchor:
    returns (n, horizon) class and representative-flow arrays.

    Every step's greedy class is mapped to its representative flow, which
    is appended to the own-flow window; speed and occupancy slots are
    filled with their last observed values, and the neighbor block stays
    frozen at the anchor. A repeated anchor is rolled out once and its
    forecast copied to each of its rows.

    Only the own windows move, so the first layer's part from the neighbor
    block, the degree and b1 is computed once per anchor, and a dueling
    net's two heads are folded into one (freeze_input); each step
    multiplies only the 3W own-window columns. The own windows never move:
    they live slot-major in one contiguous (W + horizon - 1, 3, n) history
    of (flow, speed, occupancy) per time step, whose slots past the anchor
    hold the last observed speed and occupancy. Step j passes the .T view
    of slots j..j+W-1, with the frozen own-window weights permuted to that
    order, and writes its forecast into the flow row of slot W + j. The split
    sums give Q-values whose last bits differ from the full forward, and
    the last bits of an anchor's Q-values also depend on the block's anchor
    count (with OpenBLAS 0.3.31 only the last n % 8 columns of a product
    with n columns can round differently from a wider one). Only each
    anchor's argmax is read, and it is independent of both, except at exact
    ties, which go to the lowest class.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    w = assembler.window
    rep_norm = np.clip(discretizer.representatives / assembler.calibration.flow_max, 0.0, 1.0)
    anchors, rows = np.unique(anchors, return_inverse=True)
    states = assembler.states(node, anchors)
    n = states.shape[0]
    frozen = freeze_input(net, states[:, 3 * w:])
    # own column c * W + s (channel c, slot s) becomes slot-major column 3 * s + c
    frozen = frozen._replace(w_own=frozen.w_own[:, np.arange(3 * w).reshape(3, w).T.ravel()])
    hist = np.empty((w + horizon - 1, 3, n))
    hist[:w] = states[:, : 3 * w].reshape(n, 3, w).transpose(2, 1, 0)
    hist[w:, 1:] = hist[w - 1, 1:]  # speed and occupancy hold their last observed values
    del states  # the block holds only hist and frozen from here on
    classes = np.empty((n, horizon), dtype=int)
    for j in range(horizon):
        own = hist[j:j + w].reshape(3 * w, n, copy=False)
        a = np.argmax(forward_batch(net, own.T, frozen), axis=1)
        classes[:, j] = a
        if j + 1 < horizon:
            hist[w + j, 0] = rep_norm[a]
    classes = classes[rows]
    return classes, discretizer.representatives[classes]


def evaluate_period(dataset: PeriodDataset, net: QNetwork, discretizer: Discretizer,
                    assembler: StateAssembler, horizons):
    """Metrics over every node, on the val and test splits at each horizon.

    Returns (metrics, per_node_test_mae) where metrics maps
    split -> horizon -> MetricSet pooled over nodes, and the per-node dict
    holds each node's test MAE at the first horizon.

    Horizon h of a split [lo, hi) scores the anchors t0 = max(W, lo) to
    hi - h, whose h-th step stays inside the split. Each node makes one
    rollout call, to the longest horizon, with the anchors of every scored
    (split, h) in turn, and horizon h reads column h - 1 of its rows. The
    anchors of a shorter horizon include those of a longer one, and a
    repeated anchor is rolled out once, so each anchor of a split is
    rolled out once per node. A forecast reads no flow past its anchor, so
    the extra steps of the shorter horizons' anchors change nothing.

    Of a node's rollout only its greedy classes are kept, one int8 per
    scored forecast, and its block is freed once the next node's has
    returned. The predicted flows (the classes' representatives), the
    actual flows and the actual classes are made one (split, h) at a
    time. A scored (split, h) whose actual flows are all zero raises a
    ReadingError.
    """
    nodes = dataset.nodes
    metrics: dict[str, dict[int, MetricSet]] = {"val": {}, "test": {}}
    segments = []  # (split, h, t0, anchor count) per scored (split, h), in report order
    for split in metrics:
        lo, hi = dataset.splits.range_of(split)
        t0 = max(assembler.window, lo)
        segments += [(split, h, t0, hi - h - t0 + 1) for h in horizons if hi - h >= t0]
    per_node_test_mae: dict[str, float] = {}
    if not segments:
        return metrics, per_node_test_mae
    anchors = np.concatenate([np.arange(t0, t0 + m) for _, _, t0, m in segments])
    steps = np.concatenate([np.full(m, h - 1) for _, h, _, m in segments])
    rows = np.arange(len(anchors))
    classes = np.empty((len(nodes), len(anchors)), dtype=np.int8)  # five classes
    for i, node in enumerate(nodes):
        # the last node's block stays alive until this one's returns: freed
        # first, it lets malloc trim the heap top after every rollout, and the
        # next rollout faults those pages back in
        block = predict_horizon_block(net, assembler, discretizer, node, anchors, max(horizons))
        classes[i] = block[0][rows, steps]

    start = 0
    for split, h, t0, m in segments:
        pred_cls = classes[:, start:start + m]
        start += m
        actual = dataset.values[:, t0 + h - 1: t0 + h - 1 + m, 0]
        if not actual.any():
            raise ReadingError(f"every actual flow of the {split} split at horizon {h} is zero, "
                               "so its MAPE is undefined")
        pred = discretizer.representatives[pred_cls]
        metrics[split][h] = compute_metrics(
            pred.ravel(), actual.ravel(),
            pred_cls.ravel(), classify(discretizer, actual).ravel(),
        )
        if split == "test" and h == horizons[0]:
            err = np.abs(pred - actual)
            per_node_test_mae = {node: float(np.mean(err[i])) for i, node in enumerate(nodes)}
    return metrics, per_node_test_mae


AGENT_CHECKPOINT_VERSION = 4
Entry = namedtuple("Entry", "dtype shape within fault", defaults=((), lambda values, sizes: True, ""))


def _within(low, high=math.inf):
    return lambda values, sizes: (low <= values) & (values <= high)


_ADAM = {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS}
_MEMORY = {
    "start": (lambda start, s: (0 <= start) & (start <= s["C"] - (s["D"] - 1) // 6 - 1),
              "{key} holds window starts outside [0, C - W - 1] for C = {C} and D = 6W + 1 = {D}"),
    "action": (_within(0, 4), "{key} holds actions outside [0, 4]"),
    **dict.fromkeys(("steps", "degree"), (_within(0, 1), "{key} holds values outside [0, 1]")),
    **dict.fromkeys(("reward", "period", "t"), (_within(0), "{key} holds negative values")),
}
# Format 4: each key that save_agent writes, in order, as an Entry of its exact dtype
# (np.str_: text of any width), its shape in sizes that all keys naming them share (H, D
# from net_w1, C from mem_steps, N from mem_action; a state of D = 6W + 1 values holds W
# steps), a test of its values given the sizes, if any, and the fault that names a failure.
CHECKPOINT: dict[str, Entry] = {
    "version": Entry(np.int64, (), lambda version, _: version == AGENT_CHECKPOINT_VERSION,
                     "unsupported agent checkpoint version {value!r}"),
    **{f"net_{name}": Entry(np.float64, shape) for name, shape in param_shapes("D", "H").items()},
    "net_dueling": Entry(np.int64, (), _within(0, 1), "{key} is {value!r}, expected 0 or 1"),
    "opt_learning_rate": Entry(np.float64, (), lambda rate, _: rate > 0, "{key} is {value!r}, expected > 0"),
    "opt_method": Entry(np.str_, (), lambda method, _: np.isin(method, ("adam", "sgd")),
                        "{key} is {value!r}, expected 'adam' or 'sgd'"),
    **{f"opt_{name}": Entry(np.float64, (), _within(c, c), f"{{key}} is {{value!r}}, but Adam's {name} is {c}")
       for name, c in _ADAM.items()},
    "opt_step": Entry(np.int64, (), _within(0), "{key} is {value!r}, expected an integer >= 0"),
    **{f"opt_{m}_{name}": Entry(np.float64, shape, *bounds) for name, shape in param_shapes("D", "H").items()
       for m, bounds in (("m", ()), ("v", (_within(0), "{key} holds negative second moments")))},
    "updates": Entry(np.int64, (), _within(0), "{key} is {value!r}, expected an integer >= 0"),
    **{f"mem_{name}": Entry(dtype, ("C", 6) if name == "steps" else ("N",), *_MEMORY.get(name, ()))
       for name, dtype in MEMORY_COLUMNS.items()},
}


def save_agent(agent: AgentState, path) -> None:
    """The whole agent as one npz: every key of CHECKPOINT, in its order."""
    net, opt = agent.net, agent.opt
    values = {"version": AGENT_CHECKPOINT_VERSION, "net_dueling": int(net.dueling), "updates": agent.updates,
              "opt_learning_rate": opt.learning_rate, "opt_method": opt.method, "opt_step": opt.step,
              **{f"opt_{name}": c for name, c in _ADAM.items()},
              **{f"mem_{name}": getattr(agent.memory, name) for name in MEMORY_COLUMNS}}
    for prefix, flat in (("net_", net.theta), ("opt_m_", opt.m), ("opt_v_", opt.v)):
        views = param_views(flat, net.input_dim, net.hidden_dim)
        values.update({prefix + name: view for name, view in views.items()})
    with atomic_write(path) as f:
        np.savez(f, **{key: np.asarray(values[key]) for key in CHECKPOINT})


def load_agent(path) -> AgentState:
    """The agent that save_agent wrote. Each key's shape, dtype, finite floats
    and range are checked against its row of CHECKPOINT before any is read,
    and other keys refused, each fault a ValueError that names the key."""
    with np.load(path) as npz:
        data = {key: npz[key] for key in npz.files}
    sizes: dict[str, int] = {}
    # the version first, so that an older format is named by it; then the keys that set the sizes
    for key in dict.fromkeys(("version", "net_w1", "mem_steps", "mem_action", *CHECKPOINT, *data)):
        if key not in data or key not in CHECKPOINT:
            raise ValueError(f"{key} is {'missing' if key in CHECKPOINT else 'not a checkpoint key'}")
        (dtype, shape, within, fault), array = CHECKPOINT[key], data[key]
        sizes = {**{size: n for size, n in zip(shape, array.shape) if isinstance(size, str)}, **sizes}
        expected = tuple(sizes.get(size, size) for size in shape)
        if array.shape != expected:
            raise ValueError(f"{key} has shape {array.shape}, expected {expected}")
        wrong = array.dtype.kind != "U" if dtype is np.str_ else array.dtype != dtype
        if wrong and shape:
            raise ValueError(f"{key} has dtype {array.dtype}, expected {dtype.__name__}")
        if array.dtype.kind == "f" and not np.isfinite(array).all():
            raise ValueError(f"{key} holds non-finite values")
        if wrong or not np.all(within(array, sizes)):
            raise ValueError(fault.format(key=key, value=None if shape else array.item(), **sizes))
    theta, m, v = (np.concatenate([data[prefix + name].ravel() for name in PARAM_NAMES])
                   for prefix in ("net_", "opt_m_", "opt_v_"))
    opt = OptimizerState(m, v, *(data[f"opt_{key}"].item() for key in ("learning_rate", "method", "step")))
    window = (sizes["D"] - 1) // 6
    memory = ConsolidationMemory(window, **{name: data[f"mem_{name}"] for name in MEMORY_COLUMNS})
    net = QNetwork(theta, sizes["D"], sizes["H"], bool(data["net_dueling"]))
    return AgentState(net, opt, memory, data["updates"].item())


def _period_report(period: int, cfg: TrainerConfig, generated: int, epoch_losses: list[float],
                   evaluation, candidates, new_nodes=(), drifted=(), drift_scores=None) -> dict:
    """A period's report as train writes it, from its pool size, losses and
    evaluation; it holds no wall-clock value, so reruns match byte for byte,
    and drift scores only where drift detection ran."""
    updates = len(epoch_losses) * math.ceil(generated / cfg.batch_size)
    metrics, per_node_mae = evaluation
    report = {
        "period": period,
        "candidates": {
            "nodes": list(candidates),
            "new": list(new_nodes),
            "drifted": list(drifted),
            "count": len(candidates),
        },
        "experiences": {
            "generated": generated,
            "consumed": updates * cfg.batch_size,
        },
        "updates": updates,
        "epoch_losses": [float(x) for x in epoch_losses],
        "metrics": metrics_dict(metrics),
        "per_node_test_mae": {k: float(v) for k, v in per_node_mae.items()},
    }
    if drift_scores is not None:
        report["drift_scores"] = {k: float(v) for k, v in drift_scores.items()}
    return report


def run_period(prev: PeriodDataset | None, curr: PeriodDataset, agent: AgentState,
               cfg: TrainerConfig, weights: RewardWeights, seed: int,
               drift_cfg: DriftConfig | None = None) -> tuple[dict, dict]:
    """One period of the continual loop; mutates `agent` and returns the
    period's (report, timings), the dicts that train writes as report_<p>.json
    and timings_<p>.json.

    Without a previous period (bootstrap) every node is a candidate;
    otherwise drift detection picks new nodes plus the top-KL fraction of
    survivors, and cfg.freeze_after_first_period skips training. Only
    candidates generate training rollouts; evaluation always covers all
    nodes. The period's pool is freed once its top fraction is retained,
    before evaluation; only the net and the consolidation memory carry over.
    """
    drift_cfg = drift_cfg or DriftConfig()
    if prev is not None and cfg.freeze_after_first_period:
        cfg = replace(cfg, epochs=0)
    t_start = time.perf_counter()
    if prev is None:
        candidates = curr.nodes
        new_nodes = candidates
        drifted: tuple[str, ...] = ()
        drift_scores = None
    else:
        found = drift_mod.detect(prev, curr, **asdict(drift_cfg))
        candidates = found.candidates
        new_nodes = found.new_nodes
        drifted = found.top_kl_nodes
        drift_scores = found.scores
    t_detect = time.perf_counter()

    discretizer, assembler = fit_period(curr, cfg.window)
    pool = ReplayBuffer()
    rng_rollout = np.random.default_rng([seed, curr.period, 1])
    pool.extend(generate_training_experiences(
        curr, candidates, agent.net, cfg, weights, assembler, discretizer, rng_rollout
    ))
    t_rollout = time.perf_counter()

    rng_train = np.random.default_rng([seed, curr.period, 2])
    epoch_losses = train_on_buffer(agent, pool, cfg, rng_train, curr.period)
    t_train = time.perf_counter()

    generated = len(pool)
    if generated:
        agent.memory.add_period(curr.period, retain_top_fraction(pool, cfg.consolidation_fraction))
    del pool  # evaluation runs without it
    evaluation = evaluate_period(curr, agent.net, discretizer, assembler, cfg.horizons)
    t_eval = time.perf_counter()
    timings = {
        "period": curr.period,
        "total_seconds": t_eval - t_start,
        "detect_seconds": t_detect - t_start,
        "rollout_seconds": t_rollout - t_detect,
        "train_seconds": t_train - t_rollout,
        "eval_seconds": t_eval - t_train,
        "per_epoch_seconds": (t_train - t_rollout) / len(epoch_losses) if epoch_losses else 0.0,
    }
    return _period_report(curr.period, cfg, generated, epoch_losses, evaluation,
                          candidates, new_nodes, drifted, drift_scores), timings


def run_continual(datasets: list[PeriodDataset], cfg: TrainerConfig, weights: RewardWeights,
                  seed: int, drift_cfg: DriftConfig | None = None):
    """Continual training across a dataset sequence; returns (agent, reports),
    one run_period report per dataset."""
    if not datasets:
        raise ValueError("no datasets to train on")
    agent = init_agent(cfg, seed)
    reports = [run_period(prev, curr, agent, cfg, weights, seed, drift_cfg=drift_cfg)[0]
               for prev, curr in zip([None, *datasets], datasets)]
    return agent, reports


def run_full_retrain(datasets: list[PeriodDataset], cfg: TrainerConfig,
                     weights: RewardWeights, seed: int):
    """Retrain-from-scratch baseline: each period trains a fresh network on
    every node of every period seen so far, pooled in one ConsolidationMemory,
    with no drift selection. Returns (reports, experiences_touched_total), each
    report laid out as run_period's bootstrap report."""
    if not datasets:
        raise ValueError("no datasets to train on")
    reports = []
    touched = 0
    for i, curr in enumerate(datasets):
        agent = init_agent(cfg, seed)
        pool = ConsolidationMemory()
        for past in datasets[: i + 1]:
            discretizer, assembler = fit_period(past, cfg.window)
            rng_rollout = np.random.default_rng([seed, past.period, i, 3])
            pool.add_period(past.period, generate_training_experiences(
                past, past.nodes, agent.net, cfg, weights, assembler, discretizer, rng_rollout
            ))
        rng_train = np.random.default_rng([seed, curr.period, i, 4])
        epoch_losses = train_on_buffer(agent, pool, cfg, rng_train, curr.period)

        # the last dataset seen is curr, so its discretizer and assembler score it
        evaluation = evaluate_period(curr, agent.net, discretizer, assembler, cfg.horizons)
        touched += len(pool)
        reports.append(_period_report(curr.period, cfg, len(pool), epoch_losses, evaluation, curr.nodes))
    return reports, touched
