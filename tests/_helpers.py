"""Shared fixture builders for hand-constructed datasets."""

from datetime import datetime, timedelta

import numpy as np

from flowrl.graph import GraphSnapshot
from flowrl.ingest import PeriodDataset, SensorSeries, compute_splits


def iso_timestamps(n, start="2001-01-01T00:00:00"):
    t0 = datetime.fromisoformat(start)
    return tuple((t0 + timedelta(minutes=5 * i)).isoformat() for i in range(n))


def make_series(sensor_id, flow, speed=None, occ=None):
    flow = np.asarray(flow, dtype=float)
    n = len(flow)
    if speed is None:
        speed = np.full(n, 50.0)
    if occ is None:
        occ = np.full(n, 0.1)
    return SensorSeries(
        sensor_id=sensor_id,
        timestamps=iso_timestamps(n),
        flow=flow,
        speed=np.asarray(speed, dtype=float),
        occupancy=np.asarray(occ, dtype=float),
    )


def make_dataset(period, nodes, edges, series):
    """A dataset of the given series, stacked in sorted id order on the
    first series' time axis; PeriodDataset checks the rest."""
    snapshot = GraphSnapshot.build(period, nodes, edges)
    ids = tuple(sorted(series))
    first = series[ids[0]]
    values = np.stack([np.stack([series[i].flow, series[i].speed, series[i].occupancy], axis=-1)
                       for i in ids])
    return PeriodDataset(period=period, snapshot=snapshot, nodes=ids, times=first.timestamps,
                         values=values, splits=compute_splits(len(first)))
