"""Reference forecasters that need no learning.

Used to sanity-check the agent: persistence repeats the last observation,
and the historical-average baseline predicts the training-split mean flow
for the target's time of day.
"""

from __future__ import annotations

import numpy as np

from .ingest import PeriodDataset

DAY_STEPS = 288


def last_value_forecast(dataset: PeriodDataset, node: str, anchors, horizon: int) -> np.ndarray:
    """Persistence: every step of the forecast repeats flow[t - 1]."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    anchors = np.asarray(anchors, dtype=int)
    if anchors.size and anchors.min() < 1:
        raise ValueError("anchors must leave at least one observed value behind them")
    return dataset.values[dataset.index[node], anchors - 1, 0]


def historical_average_forecast(dataset: PeriodDataset, node: str, anchors, horizon: int,
                                day_steps: int = DAY_STEPS) -> np.ndarray:
    """Mean training-split flow at the target index's time of day.

    Targets are anchors + horizon - 1; each is predicted by averaging the
    node's training flows whose index is congruent modulo day_steps.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    anchors = np.asarray(anchors, dtype=int)
    lo, hi = dataset.splits.train
    flows = dataset.values[dataset.index[node], lo:hi, 0]
    positions = (np.arange(lo, hi)) % day_steps
    sums = np.zeros(day_steps)
    counts = np.zeros(day_steps)
    np.add.at(sums, positions, flows)
    np.add.at(counts, positions, 1)
    overall = flows.mean()
    means = np.where(counts > 0, sums / np.maximum(counts, 1), overall)
    targets = (anchors + horizon - 1) % day_steps
    return means[targets]
