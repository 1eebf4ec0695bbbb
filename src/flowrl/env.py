"""Agent-facing view of the stream: states, discrete actions, rewards.

A state fuses a sensor's own recent window with the mean window of its
graph neighbors plus its normalized degree. Flow values are discretized
into five classes that double as the action space; the reward combines
prediction closeness with speed and (inverse) occupancy terms. States
are computed node by node, from rows of channels over a span of time;
a period's replay pool keeps the rows of its rollouts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import PeriodDataset, ReadingError

N_CLASSES = 5
WINDOW_DEFAULT = 12  # one hour of 5-min steps
OCC_EPSILON_DEFAULT = 0.05
CALIBRATION_PERCENTILE = 99.5


@dataclass(frozen=True)
class RewardWeights:
    """Weights of the prediction, speed, and occupancy reward terms."""

    lambda_p: float = 1.0
    lambda_c: float = 0.1
    lambda_o: float = 0.1

    def __post_init__(self):
        for name in ("lambda_p", "lambda_c", "lambda_o"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.lambda_p == self.lambda_c == self.lambda_o == 0:
            raise ValueError("at least one reward weight must be positive")

    @property
    def total(self) -> float:
        return self.lambda_p + self.lambda_c + self.lambda_o


@dataclass(frozen=True)
class Calibration:
    """Per-period normalization bounds for the flow and speed channels."""

    flow_max: float
    speed_max: float

    def __post_init__(self):
        if self.flow_max <= 0 or self.speed_max <= 0:
            raise ValueError("calibration bounds must be positive")


def fit_calibration(dataset: PeriodDataset, percentile: float = CALIBRATION_PERCENTILE) -> Calibration:
    """Fit normalization bounds on the training split, pooled over sensors."""
    lo, hi = dataset.splits.train
    flows, speeds = dataset.values[:, lo:hi, 0], dataset.values[:, lo:hi, 1]
    flow_max = float(np.percentile(flows, percentile))
    speed_max = float(np.percentile(speeds, percentile))
    return Calibration(flow_max=max(flow_max, 1e-9), speed_max=max(speed_max, 1e-9))


@dataclass(frozen=True)
class Discretizer:
    """Five flow classes bounded by four ascending edges, with per-bin
    representative flows (training medians) for mapping classes back to
    continuous values."""

    edges: np.ndarray  # shape (4,), strictly increasing
    representatives: np.ndarray  # shape (5,), one per class

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        reps = np.asarray(self.representatives, dtype=float)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "representatives", reps)
        if edges.shape != (N_CLASSES - 1,):
            raise ValueError(f"expected {N_CLASSES - 1} edges, got shape {edges.shape}")
        if reps.shape != (N_CLASSES,):
            raise ValueError(f"expected {N_CLASSES} representatives, got shape {reps.shape}")
        if not np.all(np.diff(edges) > 0):
            raise ValueError(f"edges must be strictly increasing, got {edges.tolist()}")
        for k in range(N_CLASSES):
            if int(classify(self, reps[k])) != k:
                raise ValueError(
                    f"representative {reps[k]} of class {k} falls outside its bin"
                )


def fit_discretizer(training_flows) -> Discretizer:
    """Fit class edges at the 20/40/60/80th percentiles of training flows.

    Representatives are the median training flow of each bin. Flows that
    cannot be binned (fewer than five distinct values, or percentile ties)
    are a fault of the period's readings and raise a ReadingError.
    """
    flows = np.asarray(training_flows, dtype=float)
    if flows.size == 0:
        raise ValueError("cannot fit discretizer on empty flows")
    edges = np.percentile(flows, [20, 40, 60, 80])  # its copy is gone before the sorted one is made
    flows = np.sort(flows, axis=None)
    distinct = 1 + np.count_nonzero(flows[1:] != flows[:-1])
    if distinct < N_CLASSES:
        raise ReadingError(
            f"degenerate binning: need >= {N_CLASSES} distinct training flow values, got {distinct}"
        )
    if not np.all(np.diff(edges) > 0):
        raise ReadingError("degenerate binning: training-flow percentile edges not strictly "
                           f"increasing: {edges.tolist()}")
    reps = np.empty(N_CLASSES)
    # class k, the flows in [edges[k - 1], edges[k]), is one slice of the sorted flows
    for k, members in enumerate(np.split(flows, np.searchsorted(flows, edges))):
        if members.size == 0:
            raise ReadingError(f"degenerate binning: class {k} has no training flows")
        reps[k] = np.median(members)
    return Discretizer(edges=edges, representatives=reps)


def classify(d: Discretizer, flow):
    """Map flow value(s) to class(es): class k covers [edge_{k-1}, edge_k)."""
    return np.searchsorted(d.edges, flow, side="right")


def compute_rewards(pred, actual, speed_norm, occupancy, weights: RewardWeights,
                    occ_epsilon: float = OCC_EPSILON_DEFAULT) -> np.ndarray:
    """Vectorized reward: lambda_p*r_p + lambda_c*r_c + lambda_o*r_o.

    r_p = 1 - |pred - actual| / 4 rewards small class gaps; r_c is the
    normalized speed; r_o is the occupancy reciprocal clamped at
    occ_epsilon so it stays in (0, 1].
    """
    pred = np.asarray(pred)
    actual = np.asarray(actual)
    speed_norm = np.asarray(speed_norm, dtype=float)
    occupancy = np.asarray(occupancy, dtype=float)
    if np.any(pred < 0) or np.any(pred > N_CLASSES - 1) or np.any(actual < 0) or np.any(actual > N_CLASSES - 1):
        raise ValueError("classes must lie in [0, 4]")
    if np.any(speed_norm < 0) or np.any(speed_norm > 1):
        raise ValueError("speed_norm must lie in [0, 1]")
    if np.any(occupancy < 0) or np.any(occupancy > 1):
        raise ValueError("occupancy must lie in [0, 1]")
    r_p = 1.0 - np.abs(pred.astype(float) - actual.astype(float)) / (N_CLASSES - 1)
    r_c = speed_norm
    r_o = occ_epsilon / np.maximum(occupancy, occ_epsilon)
    return weights.lambda_p * r_p + weights.lambda_c * r_c + weights.lambda_o * r_o


def state_dim(window: int) -> int:
    """Length of a state: own and neighbor-mean windows of three channels, plus the degree."""
    return 6 * window + 1


def window_rows(windows: np.ndarray, degree, out=None) -> np.ndarray:
    """State rows from (n, 6, W) channel windows and a degree for all rows
    or one per row, written into `out` (n, 6W + 1) if given."""
    n, _, w = windows.shape
    if out is None:
        out = np.empty((n, state_dim(w)))
    out[:, : 6 * w].reshape(n, 6, w, copy=False)[...] = windows
    out[:, 6 * w] = degree
    return out


class StateAssembler:
    """Builds state vectors for one period's dataset from each node's
    normalized flow and speed, raw occupancy and the means of its neighbors'
    channels, summed in sorted-id order so that edge order does not matter.

    `rows` computes a node's (L, 6) channel rows over a span of time
    indices, and `states` cuts its windows from them. A period's replay
    pool keeps the rows its rollouts compute, so its windows hold the
    bytes that `states` returns.
    """

    def __init__(self, dataset: PeriodDataset, window: int = WINDOW_DEFAULT,
                 calibration: Calibration | None = None):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.dataset = dataset
        self.window = window
        self.calibration = calibration if calibration is not None else fit_calibration(dataset)
        # Sorted canonical edges list each (u, x) with u < x before any (x, w),
        # so every node's neighbor rows come out in sorted-id order.
        adjacent: list[list[int]] = [[] for _ in dataset.nodes]
        for a, b in sorted(dataset.snapshot.edges):
            adjacent[dataset.index[a]].append(dataset.index[b])
            adjacent[dataset.index[b]].append(dataset.index[a])
        degree = np.array([len(a) for a in adjacent], dtype=np.int64)
        max_degree = degree.max(initial=0)
        self._adjacent = adjacent
        self._degree = degree / max_degree if max_degree > 0 else np.zeros(len(adjacent))

    @property
    def dim(self) -> int:
        return state_dim(self.window)

    def _normalize(self, readings: np.ndarray, own: np.ndarray) -> None:
        """Write (L, 3) readings into (3, L) own channels, each one
        contiguous run, which numpy's elementwise loops handle fastest."""
        for c, bound in ((0, self.calibration.flow_max), (1, self.calibration.speed_max)):
            np.divide(readings[:, c], bound, out=own[c])  # in place: no temporary of own's size
            np.clip(own[c], 0.0, 1.0, out=own[c])
        own[2] = readings[:, 2]

    def rows(self, v: str, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Node v's (hi - lo, 6) channel rows over time indices [lo, hi),
        written into `out` when given: its own channels, then the mean of
        its neighbors', each neighbor normalized in turn into one buffer."""
        i = self.dataset.index[v]
        own, acc, channels = np.empty((3, hi - lo)), np.zeros((3, hi - lo)), np.empty((3, hi - lo))
        self._normalize(self.dataset.values[i, lo:hi], own)
        for j in self._adjacent[i]:
            self._normalize(self.dataset.values[j, lo:hi], channels)
            acc += channels
        acc /= max(len(self._adjacent[i]), 1)
        row = np.empty((hi - lo, 6)) if out is None else out
        row[:, :3], row[:, 3:] = own.T, acc.T
        return row

    def states(self, v: str, ts) -> np.ndarray:
        """State matrix for node v at each time index in ts.

        Each row is [own flow window, own speed window, own occupancy
        window, neighbor-mean windows in the same channel order, degree],
        windows covering [t - window, t) oldest first; total 6W + 1.
        """
        ts, w = np.asarray(ts, dtype=np.int64).ravel(), self.window
        if v not in self.dataset.snapshot.nodes:
            raise ValueError(f"unknown node {v!r}")
        lo, hi = (int(ts.min()), int(ts.max())) if ts.size else (w, w)
        if lo < w:
            raise ValueError(f"time index {lo} < window {w}: not enough history")
        if hi > self.dataset.length:
            raise ValueError(f"time index {hi} beyond series length {self.dataset.length}")
        windows = np.lib.stride_tricks.sliding_window_view(self.rows(v, lo - w, hi), w, axis=0)
        return window_rows(windows[ts - lo], self.degree(v))

    def degree(self, v: str) -> float:
        """Node v's degree over the largest degree of the period."""
        return float(self._degree[self.dataset.index[v]])
