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
from dataclasses import asdict, dataclass, field, replace

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
)
from .errors import DivergenceError
from .ingest import PeriodDataset, ReadingError
from .metrics import MetricSet, compute_metrics, metrics_dict
from .qnet import (
    N_ACTIONS,
    QNetwork,
    OptimizerState,
    forward_batch,
    freeze_input,
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
    MEMORY_COLUMNS,
    ConsolidationMemory,
    KeyedStates,
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


def fit_period(dataset: PeriodDataset, window: int) -> tuple[Discretizer, StateAssembler]:
    """The discretizer and the state assembler of one period, both fitted on
    its training split; the assembler holds the calibration."""
    discretizer = fit_discretizer(dataset.flows_in("train"))
    return discretizer, StateAssembler(dataset, window=window, calibration=fit_calibration(dataset))


def generate_rollout(assembler: StateAssembler, discretizer: Discretizer, node: str,
                     split: str, net: QNetwork, epsilons: np.ndarray,
                     rng: np.random.Generator, weights: RewardWeights,
                     occ_epsilon: float, pool: ReplayBuffer) -> EpisodeRollout:
    """Traverse one node's split, writing chained transitions into `pool`,
    which is keyed to the assembler.

    The transition at time t holds the key of the state built from
    [t-W, t), the epsilon-greedy action and the reward against the actual
    class at t; its next state is the state at t+1. The final usable index
    is flagged terminal.
    """
    ds = assembler.dataset
    lo, hi = ds.splits.range_of(split)
    t0 = max(assembler.window, lo)
    n = hi - t0
    if len(epsilons) != n:
        raise ValueError(f"need {n} epsilon values, got {len(epsilons)}")
    ts = np.arange(t0, hi)
    actions = select_actions(net, assembler.states(node, ts), epsilons, rng)
    channels = assembler.node_channels(node)
    own = ds.values[ds.index[node], t0:hi]  # flow, speed, occupancy
    actual = np.asarray(classify(discretizer, own[:, 0]), dtype=int)
    rewards = compute_rewards(
        actions, actual, channels[t0:hi, 1], own[:, 2], weights, occ_epsilon,
    )
    experiences = pool.add_rollout(assembler.keys(node, ts), actions, rewards)
    return EpisodeRollout(node_id=node, split=split, experiences=experiences)


def generate_training_experiences(dataset: PeriodDataset, candidates, net: QNetwork,
                                  cfg: TrainerConfig, weights: RewardWeights,
                                  assembler: StateAssembler, discretizer: Discretizer,
                                  rng: np.random.Generator) -> ReplayBuffer:
    """Rollouts over the training split for each candidate node, in sorted
    order, written into one pool keyed to the assembler and returned; the
    epsilon schedule advances with the dataset's transition count."""
    lo, hi = dataset.splits.train
    n = hi - max(cfg.window, lo)
    nodes = sorted(candidates) if n >= 1 else []
    pool = ReplayBuffer.allocate(len(nodes) * n, KeyedStates(assembler))
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
    multiplies only the 3W own-window columns. The split sums give Q-values
    whose last bits differ from the full forward, and the last bits of a
    row also depend on the block's row count (with OpenBLAS 0.3.31 an
    (n, 64) @ (64, 5) product rounds a row of a block under 256 rows
    differently). Only each row's argmax is read, and it is independent of
    both, except at exact ties, which go to the lowest class.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    w = assembler.window
    rep_norm = np.clip(discretizer.representatives / assembler.calibration.flow_max, 0.0, 1.0)
    anchors, rows = np.unique(anchors, return_inverse=True)
    states = assembler.states(node, anchors)
    n = states.shape[0]
    frozen = freeze_input(net, states[:, 3 * w:])
    own = np.ascontiguousarray(states[:, : 3 * w])
    del states  # the block holds only own and frozen from here on
    windows = own.reshape(n, 3, w, copy=False)  # own flow, speed, occupancy
    classes = np.empty((n, horizon), dtype=int)
    for j in range(horizon):
        a = np.argmax(forward_batch(net, own, frozen), axis=1)
        classes[:, j] = a
        if j + 1 < horizon:
            # shift every own window one step; the last speed/occupancy
            # slots keep their final observed values
            windows[:, :, :-1] = windows[:, :, 1:]
            windows[:, 0, -1] = rep_norm[a]
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
            "metrics": metrics_dict(self.metrics),
            "per_node_test_mae": {k: float(v) for k, v in self.per_node_test_mae.items()},
        }
        if self.drift_scores is not None:
            out["drift_scores"] = {k: float(v) for k, v in self.drift_scores.items()}
        return out

    def to_timings_dict(self) -> dict:
        return {"period": self.period, **{k: float(v) for k, v in self.timings.items()}}


AGENT_CHECKPOINT_VERSION = 4


def save_agent(agent: AgentState, path) -> None:
    """Versioned npz checkpoint of network, optimizer, update count and
    consolidation memory. The period pool is left out: the next period
    replaces it, and training re-syncs the target network."""
    payload: dict = {"version": np.array(AGENT_CHECKPOINT_VERSION)}
    payload.update(network_state_dict(agent.net, prefix="net_"))
    payload.update(optimizer_state_dict(agent.opt, agent.net, prefix="opt_"))
    payload["updates"] = np.array(agent.updates)
    for name, column in agent.memory.columns().items():
        payload[f"mem_{name}"] = column
    with atomic_write(path) as f:
        np.savez(f, **payload)


def load_agent(path) -> AgentState:
    """The agent saved by save_agent; a wrong version, a misshaped array, a
    non-finite value or an action outside the action space raises
    ValueError naming the key."""
    with np.load(path) as npz:
        data = {key: npz[key] for key in npz.files}
    version = int(data["version"])
    if version != AGENT_CHECKPOINT_VERSION:
        raise ValueError(f"unsupported agent checkpoint version {version}")
    for key, column in data.items():
        if column.dtype.kind == "f" and not np.isfinite(column).all():
            raise ValueError(f"{key} holds non-finite values")
    net = network_from_state_dict(data, prefix="net_")
    opt = optimizer_from_state_dict(data, net, prefix="opt_")
    window = (net.input_dim - 1) // 6  # a state is 6W + 1 long
    columns = {name: data[f"mem_{name}"] for name in MEMORY_COLUMNS}
    steps, start = columns["steps"], columns["start"]
    if steps.ndim != 2 or steps.shape[1] != 6:
        raise ValueError(f"mem_steps has shape {steps.shape}, expected (C, 6)")
    rows = columns["action"].shape[:1]
    for name, column in columns.items():
        if name != "steps" and column.shape != rows:
            raise ValueError(f"mem_{name} has shape {column.shape}, expected {rows} like mem_action")
    last = len(steps) - window - 1  # the last row a window of W + 1 steps can start at
    if np.any((start < 0) | (start > last)):
        raise ValueError(f"mem_start holds window starts outside [0, {last}] "
                         f"for a table of {len(steps)} steps and windows of {window + 1}")
    memory = ConsolidationMemory(window, **columns)
    if np.any((memory.action < 0) | (memory.action >= N_ACTIONS)):
        raise ValueError(f"mem_action holds actions outside [0, {N_ACTIONS - 1}]")
    return AgentState(net=net, opt=opt, buffer=ReplayBuffer(), memory=memory, updates=int(data["updates"]))


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
        report = drift_mod.detect(prev, curr, **asdict(drift_cfg))
        candidates = report.candidates
        new_nodes = report.new_nodes
        drifted = report.top_kl_nodes
        drift_scores = report.scores
    t_detect = time.perf_counter()

    discretizer, assembler = fit_period(curr, cfg.window)

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
        state_dim(cfg.window), hidden=hidden, dueling=dueling, seed=seed,
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
    dim = state_dim(cfg.window)
    reports = []
    touched = 0
    for i, curr in enumerate(datasets):
        agent = init_agent(
            dim, hidden=hidden, dueling=dueling, seed=seed,
            learning_rate=cfg.learning_rate, optimizer=optimizer,
        )
        t_start = time.perf_counter()
        for past in datasets[: i + 1]:
            discretizer, assembler = fit_period(past, cfg.window)
            rng_rollout = np.random.default_rng([seed, past.period, i, 3])
            agent.buffer.extend(generate_training_experiences(
                past, past.nodes, agent.net, cfg, weights, assembler, discretizer, rng_rollout
            ))
        pool = agent.buffer
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
