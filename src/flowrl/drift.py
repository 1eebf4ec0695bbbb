"""Evolution detection between consecutive periods via per-node KL scores.

Each surviving node's flow distribution is histogrammed over the pooled
two-period range (`_masses`) and scored with KL(current || previous)
(`_kl`), every node in one pass over the two period tensors; the top
fraction plus every newly added node become the retraining candidate set.
`_masses` and `_kl` are the package's one binning and KL code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import node_diff
from .ingest import PeriodDataset

BINS_DEFAULT = 20
SMOOTHING_DEFAULT = 1.0
FRACTION_DEFAULT = 0.10


@dataclass(frozen=True)
class DriftConfig:
    """The keyword arguments of `detect`, checked."""

    fraction: float = FRACTION_DEFAULT
    bins: int = BINS_DEFAULT
    smoothing: float = SMOOTHING_DEFAULT

    def __post_init__(self):
        if not 0 <= self.fraction <= 1:
            raise ValueError(f"fraction must lie in [0, 1], got {self.fraction}")
        if self.bins < 2:
            raise ValueError(f"need at least 2 bins, got {self.bins}")
        if not self.smoothing > 0:  # an empty bin of zero mass makes KL infinite
            raise ValueError(f"smoothing must be > 0, got {self.smoothing}")


def _masses(flows: np.ndarray, edges: np.ndarray, smoothing: float) -> np.ndarray:
    """Smoothed masses (count_k + s) / (T + B*s) of each row of `flows`
    (N, T) in the bins of its row of `edges` (N, B + 1): a value outside
    the edges counts in the nearest end bin, and the last bin is closed."""
    n, bins = edges.shape[0], edges.shape[1] - 1
    counts = np.empty((n, bins), dtype=np.intp)
    for i in range(n):  # row by row, so that no (N, T) index array is held
        at = edges[i].searchsorted(flows[i], side="right") - 1
        counts[i] = np.bincount(np.clip(at, 0, bins - 1), minlength=bins)
    return (counts + smoothing) / (flows.shape[1] + bins * smoothing)


def _kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p || q) in nats along the last axis; zero p-masses contribute zero."""
    if np.any(q <= 0):
        raise ValueError("q has zero-mass bins; smooth before computing KL")
    terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0) / q), 0.0)
    return terms.sum(axis=-1)


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
    nodes = sorted(surviving)
    before = prev.values[[prev.index[node] for node in nodes], :, 0]
    after = curr.values[[curr.index[node] for node in nodes], :, 0]
    lo = np.minimum(before.min(axis=1), after.min(axis=1))
    hi = np.maximum(before.max(axis=1), after.max(axis=1))
    widen = np.where(hi <= lo, 0.5, 0.0)  # a flat pair of rows gets a unit-wide range
    edges = np.linspace(lo - widen, hi + widen, bins + 1, axis=1)
    kl = _kl(_masses(after, edges, smoothing), _masses(before, edges, smoothing))
    scores = dict(zip(nodes, kl.tolist()))

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
