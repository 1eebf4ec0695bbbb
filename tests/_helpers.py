"""Shared fixture builders for hand-constructed datasets."""

import tracemalloc
from datetime import datetime, timedelta

import numpy as np

from flowrl.graph import GraphSnapshot
from flowrl.ingest import PeriodDataset, SensorSeries
from flowrl.replay import MEMORY_COLUMNS, ReplayBuffer, Rollouts


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
                         values=values)


def store(rewards, nodes=None, ts=None, period=1, actions=None):
    """A pool of transitions, W = 1: transition k is node nodes[k]'s at time
    ts[k] (default 0), and its degree is r_k. Every node of the pool, in
    sorted order, has a block whose row for time t reads t in every
    channel, so transition k's state is [t_k] * 6 + [r_k] and its next
    state [t_k + 1] * 6 + [r_k]."""
    rewards = np.asarray(rewards, dtype=float)
    n = len(rewards)
    ts = np.zeros(n, dtype=np.int64) if ts is None else np.asarray(ts, dtype=np.int64)
    nodes = np.asarray([f"n{i}" for i in range(n)] if nodes is None else nodes, dtype=np.str_)
    ids, r = np.unique(nodes, return_inverse=True)
    t0 = int(ts.min())
    span = int(ts.max()) - t0 + 1  # the rollout length n of the pool's Rollouts
    steps = np.repeat(np.tile(np.arange(t0, t0 + span + 1, dtype=float), len(ids))[:, None], 6, axis=1)
    return ReplayBuffer(1, steps, Rollouts(ids, period, t0, span), start=r * (span + 1) + ts - t0,
                        degree=rewards, action=np.zeros(n) if actions is None else actions,
                        reward=rewards, terminal=np.zeros(n, dtype=bool))


def memory_columns(memory):
    """Each column of a ConsolidationMemory, by its name in MEMORY_COLUMNS."""
    return {name: getattr(memory, name) for name in MEMORY_COLUMNS}


def window_table_rows(ts, rewards):
    """The `store` state rows [t] * 6 + [r] of each (t, r)."""
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
