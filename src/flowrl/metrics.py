"""Forecast-quality metrics: MAE, RMSE, MAPE, and class accuracy."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class MetricSet:
    mae: float
    rmse: float
    mape: float  # percent, over nonzero actuals only
    class_accuracy: float
    count: int


def metrics_dict(metrics: dict[str, dict[int, MetricSet]]) -> dict:
    """JSON form of split -> horizon -> MetricSet, the horizons as strings."""
    return {split: {str(h): asdict(ms) for h, ms in per_split.items()}
            for split, per_split in metrics.items()}


def compute_metrics(predicted_flows, actual_flows, predicted_classes, actual_classes) -> MetricSet:
    """Score flow predictions against ground truth.

    MAPE masks entries whose actual flow is zero; if every actual is zero
    the percentage error is undefined and a ValueError is raised.
    """
    pf = np.asarray(predicted_flows, dtype=float)
    af = np.asarray(actual_flows, dtype=float)
    pc = np.asarray(predicted_classes)
    ac = np.asarray(actual_classes)
    if pf.shape != af.shape or pc.shape != ac.shape or pf.shape != pc.shape:
        raise ValueError(
            f"length mismatch: flows {pf.shape} vs {af.shape}, classes {pc.shape} vs {ac.shape}"
        )
    if pf.size == 0:
        raise ValueError("cannot compute metrics on empty inputs")

    err = pf - af
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err**2)))
    nonzero = af != 0
    if not np.any(nonzero):
        raise ValueError("MAPE undefined: all actual flows are zero")
    mape = float(np.mean(np.abs(err[nonzero]) / np.abs(af[nonzero]))) * 100.0
    accuracy = float(np.mean(pc == ac))
    return MetricSet(mae=mae, rmse=rmse, mape=mape, class_accuracy=accuracy, count=int(pf.size))
