"""Evolution detection between consecutive periods via per-node KL scores.

Each surviving node's flow distribution is histogrammed over the pooled
two-period range and scored with KL(current || previous); the top fraction
plus every newly added node become the retraining candidate set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import node_diff
from .ingest import PeriodDataset, SensorSeries

BINS_DEFAULT = 20
SMOOTHING_DEFAULT = 1.0
FRACTION_DEFAULT = 0.10


@dataclass(frozen=True)
class DriftConfig:
    fraction: float = FRACTION_DEFAULT
    bins: int = BINS_DEFAULT
    smoothing: float = SMOOTHING_DEFAULT

    def __post_init__(self):
        if not 0 <= self.fraction <= 1:
            raise ValueError(f"fraction must lie in [0, 1], got {self.fraction}")
        if self.bins < 2:
            raise ValueError(f"need at least 2 bins, got {self.bins}")
        if self.smoothing < 0:
            raise ValueError(f"smoothing must be >= 0, got {self.smoothing}")


@dataclass(frozen=True)
class NodeHistogram:
    """Smoothed probability masses of one node's flow values in one period."""

    node_id: str
    period: int
    edges: np.ndarray  # (bins + 1,) ascending bin boundaries
    masses: np.ndarray  # (bins,) strictly positive when smoothed, sum to 1

    def __post_init__(self):
        object.__setattr__(self, "edges", np.asarray(self.edges, dtype=float))
        object.__setattr__(self, "masses", np.asarray(self.masses, dtype=float))
        if self.edges.ndim != 1 or self.edges.size < 3:
            raise ValueError("need at least 2 bins worth of edges")
        if not np.all(np.diff(self.edges) > 0):
            raise ValueError("histogram edges must be strictly ascending")
        if self.masses.shape != (self.edges.size - 1,):
            raise ValueError(
                f"expected {self.edges.size - 1} masses, got shape {self.masses.shape}"
            )
        if abs(float(self.masses.sum()) - 1.0) > 1e-9:
            raise ValueError(f"masses sum to {float(self.masses.sum())}, expected 1")


def build_histogram(series: SensorSeries, edges, smoothing: float = SMOOTHING_DEFAULT,
                    period: int = 0) -> NodeHistogram:
    """Count flows into bins and Laplace-smooth: (count_k + s) / (N + B*s)."""
    edges = np.asarray(edges, dtype=float)
    values = np.asarray(series.flow, dtype=float)
    if values.size == 0:
        raise ValueError(f"sensor {series.sensor_id!r}: empty series")
    if not np.all(np.diff(edges) > 0):
        raise ValueError("histogram edges must be strictly ascending")
    clipped = np.clip(values, edges[0], edges[-1])
    counts, _ = np.histogram(clipped, bins=edges)
    bins = edges.size - 1
    masses = (counts + smoothing) / (values.size + bins * smoothing)
    return NodeHistogram(node_id=series.sensor_id, period=period, edges=edges, masses=masses)


def kl_divergence(p: NodeHistogram, q: NodeHistogram) -> float:
    """KL(p || q) in nats over matching bins; zero p-masses contribute zero."""
    if p.edges.shape != q.edges.shape or not np.array_equal(p.edges, q.edges):
        raise ValueError(
            f"histograms are binned differently ({p.node_id!r} vs {q.node_id!r})"
        )
    if np.any(q.masses <= 0):
        raise ValueError("q has zero-mass bins; smooth before computing KL")
    pm = p.masses
    terms = np.where(pm > 0, pm * np.log(np.where(pm > 0, pm, 1.0) / q.masses), 0.0)
    return float(terms.sum())


@dataclass(frozen=True)
class DriftReport:
    """Per-node KL scores plus the selected retraining candidates."""

    period: int
    scores: dict[str, float]  # surviving nodes only
    new_nodes: tuple[str, ...]
    top_kl_nodes: tuple[str, ...]
    candidates: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "scores": [
                {"node": n, "kl": float(self.scores[n])} for n in sorted(self.scores)
            ],
            "candidates": list(self.candidates),
        }


def detect(prev: PeriodDataset, curr: PeriodDataset, fraction: float = FRACTION_DEFAULT,
           bins: int = BINS_DEFAULT, smoothing: float = SMOOTHING_DEFAULT) -> DriftReport:
    """Select retraining candidates for the current period.

    New nodes are unconditional candidates. Surviving nodes are ranked by
    KL(current || previous) descending (ties by node id) and the top
    ceil(fraction * count) join them. Removed nodes never appear.
    """
    if curr.period != prev.period + 1:
        raise ValueError(
            f"periods are not consecutive: {prev.period} then {curr.period}"
        )
    new, surviving, _removed = node_diff(prev.snapshot, curr.snapshot)
    scores: dict[str, float] = {}
    for node in sorted(surviving):
        pooled_lo = min(prev.series[node].flow.min(), curr.series[node].flow.min())
        pooled_hi = max(prev.series[node].flow.max(), curr.series[node].flow.max())
        if pooled_hi <= pooled_lo:
            pooled_lo -= 0.5
            pooled_hi += 0.5
        edges = np.linspace(pooled_lo, pooled_hi, bins + 1)
        h_prev = build_histogram(prev.series[node], edges, smoothing, period=prev.period)
        h_curr = build_histogram(curr.series[node], edges, smoothing, period=curr.period)
        scores[node] = kl_divergence(h_curr, h_prev)

    k = math.ceil(fraction * len(surviving))
    ranked = sorted(scores, key=lambda n: (-scores[n], n))
    top = tuple(ranked[:k])
    candidates = tuple(sorted(set(new) | set(top)))
    return DriftReport(
        period=curr.period,
        scores=scores,
        new_nodes=tuple(sorted(new)),
        top_kl_nodes=top,
        candidates=candidates,
    )
