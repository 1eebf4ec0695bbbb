"""Shared fixture builders for hand-constructed datasets."""

import tracemalloc
from datetime import datetime, timedelta

import numpy as np

from flowrl.graph import GraphSnapshot
from flowrl.ingest import PeriodDataset, SensorSeries, compute_splits
from flowrl.replay import ReplayBuffer


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


class WindowTable:
    """A replay source for replay tests with the `steps`, `window`,
    `degree` and `origins` of a StateAssembler, holding independent
    transitions: W = 1, and transition k owns rows 2k and 2k + 1 of the
    step table, which read t_k and t_k + 1 in every channel. Its key, the
    row its state ends at, is 2k + 1, and its degree is r_k, so its state
    is [t_k] * 6 + [r_k] and its next state [t_k + 1] * 6 + [r_k]."""

    window = 1

    def __init__(self, ts, rewards, nodes, period):
        ts = np.asarray(ts, dtype=np.int64)
        self.steps = np.repeat(np.stack([ts, ts + 1], 1).reshape(-1, 1).astype(float), 6, axis=1)
        self.keys = 2 * np.arange(len(ts)) + 1
        self._degree = np.asarray(rewards, dtype=float)
        self._ids = np.array(nodes, dtype=np.str_)
        self._period = period
        self._ts = ts

    def degree(self, keys):
        return self._degree[keys // 2]

    def origins(self, keys):
        return self._ids[keys // 2], np.full(len(keys), self._period, dtype=np.int64), self._ts[keys // 2]


def table_windows(source, keys):
    """(windows, degree) of each key of a replay source, read the way
    replay reads a pool: the (6, W + 1) window whose last row is the key."""
    keys = np.asarray(keys, dtype=np.int64)
    pool = ReplayBuffer(source, start=keys - source.window, degree=source.degree(keys),
                        action=np.zeros(len(keys)), reward=np.zeros(len(keys)),
                        terminal=np.zeros(len(keys), dtype=bool))
    return pool.window_columns(slice(None))[:2]


def window_table_rows(ts, rewards):
    """The WindowTable state rows [t] * 6 + [r] of each (t, r)."""
    return np.column_stack([np.repeat(np.asarray(ts, dtype=float)[:, None], 6, axis=1), rewards])


def traced_peak(build):
    """build()'s result and the traced memory it held at most beyond what
    was traced before it ran."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
