"""Agent-facing view of the stream: states, discrete actions, rewards.

A state fuses a sensor's own recent window with the mean window of its
graph neighbors plus its normalized degree. Flow values are discretized
into five classes that double as the action space; the reward combines
prediction closeness with speed and (inverse) occupancy terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import PeriodDataset

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

    Representatives are the median training flow of each bin. Degenerate
    inputs (fewer than five distinct values, or percentile ties) raise.
    """
    flows = np.asarray(training_flows, dtype=float).ravel()
    if flows.size == 0:
        raise ValueError("cannot fit discretizer on empty flows")
    distinct = np.unique(flows)
    if distinct.size < N_CLASSES:
        raise ValueError(
            f"degenerate binning: need >= {N_CLASSES} distinct flow values, got {distinct.size}"
        )
    edges = np.percentile(flows, [20, 40, 60, 80])
    if not np.all(np.diff(edges) > 0):
        raise ValueError(f"degenerate binning: percentile edges not strictly increasing: {edges.tolist()}")
    classes = np.searchsorted(edges, flows, side="right")
    reps = np.empty(N_CLASSES)
    for k in range(N_CLASSES):
        members = flows[classes == k]
        if members.size == 0:
            raise ValueError(f"degenerate binning: class {k} has no training flows")
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


def compute_reward(pred: int, actual: int, speed_norm: float, occupancy: float,
                   weights: RewardWeights, occ_epsilon: float = OCC_EPSILON_DEFAULT) -> float:
    """Scalar form of compute_rewards."""
    return float(compute_rewards(pred, actual, speed_norm, occupancy, weights, occ_epsilon))


def state_dim(window: int) -> int:
    """Length of a state: own and neighbor-mean windows of three channels, plus the degree."""
    return 6 * window + 1


class StateAssembler:
    """Builds state vectors for one period's dataset.

    Normalized channels and neighbor means of every node are built once,
    as (N, T, 3) arrays in the dataset's node order. Neighbor windows are
    summed in sorted-id order, which makes the result independent of edge
    iteration order.
    """

    def __init__(self, dataset: PeriodDataset, window: int = WINDOW_DEFAULT,
                 calibration: Calibration | None = None):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.dataset = dataset
        self.window = window
        self.calibration = calibration if calibration is not None else fit_calibration(dataset)
        v, cal = dataset.values, self.calibration
        self._channels = np.stack([np.clip(v[..., 0] / cal.flow_max, 0.0, 1.0),
                                   np.clip(v[..., 1] / cal.speed_max, 0.0, 1.0), v[..., 2]], axis=-1)
        # Sorted canonical edges list each (u, x) with u < x before any (x, w),
        # so every node's neighbor rows come out in sorted-id order.
        adjacent: list[list[int]] = [[] for _ in dataset.nodes]
        for a, b in sorted(dataset.snapshot.edges):
            adjacent[dataset.index[a]].append(dataset.index[b])
            adjacent[dataset.index[b]].append(dataset.index[a])
        self._degree = np.array([len(a) for a in adjacent])
        self._max_degree = self._degree.max(initial=0)
        acc = np.zeros(v.shape)
        for j in range(self._max_degree):  # the j-th neighbor of every node that has one
            rows = np.flatnonzero(self._degree > j)
            acc[rows] += self._channels[[adjacent[i][j] for i in rows]]
        self._neighbor_mean = acc / np.maximum(self._degree, 1)[:, None, None]

    @property
    def dim(self) -> int:
        return state_dim(self.window)

    def node_channels(self, v: str) -> np.ndarray:
        """(T, 3) array of normalized flow, normalized speed, raw occupancy."""
        return self._channels[self.dataset.index[v]]

    def states(self, v: str, ts) -> np.ndarray:
        """State matrix for node v at each time index in ts.

        Each row is [own flow window, own speed window, own occupancy
        window, neighbor-mean windows in the same channel order, degree],
        windows covering [t - window, t) oldest first; total 6W + 1.
        """
        ts = np.asarray(ts, dtype=int)
        if v not in self.dataset.snapshot.nodes:
            raise ValueError(f"unknown node {v!r}")
        if ts.size and int(ts.min()) < self.window:
            raise ValueError(
                f"time index {int(ts.min())} < window {self.window}: not enough history"
            )
        if ts.size and int(ts.max()) > self.dataset.length:
            raise ValueError(
                f"time index {int(ts.max())} beyond series length {self.dataset.length}"
            )
        i = self.dataset.index[v]
        own = self._channels[i]
        nbr = self._neighbor_mean[i]
        deg = self._degree[i] / self._max_degree if self._max_degree > 0 else 0.0
        W = self.window
        out = np.empty((ts.size, self.dim))
        own_win = np.lib.stride_tricks.sliding_window_view(own, W, axis=0)  # (T-W+1, 3, W)
        nbr_win = np.lib.stride_tricks.sliding_window_view(nbr, W, axis=0)
        rows = ts - W
        out[:, 0 : 3 * W] = own_win[rows].reshape(ts.size, 3 * W)
        out[:, 3 * W : 6 * W] = nbr_win[rows].reshape(ts.size, 3 * W)
        out[:, 6 * W] = deg
        return out

    def state(self, v: str, t: int) -> np.ndarray:
        return self.states(v, [t])[0]


def build_state(dataset: PeriodDataset, v: str, t: int, window: int = WINDOW_DEFAULT,
                calibration: Calibration | None = None) -> np.ndarray:
    """One state vector for (node, time); see StateAssembler.states."""
    return StateAssembler(dataset, window=window, calibration=calibration).state(v, t)
