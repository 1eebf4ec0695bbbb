"""Sensor time-series ingestion: the period tensor, CSV loading and
writing, and synthetic streams.

Readings are 5-minute aggregates of (flow, speed, occupancy) per sensor.
A period holds them as one (N, T, 3) float64 array: N sensors in sorted id
order, every node of the period's graph, on one shared axis of T
timestamps 300 s apart. `PeriodDataset`'s constructor is the one place
that checks readings. `load_period` parses a CSV in one `np.loadtxt`
call, places each row on the (sensor, time) grid and maps any fault back
to its file and line. The synthetic generator produces multi-period
streams with a growing topology and optionally planted regime shifts, for
desk-scale experiments.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from itertools import islice, repeat
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import DataError
from .graph import (GraphDelta, GraphSnapshot, apply_delta, canonical_edge, csv_rows, load_adjacency,
                    write_adjacency)

STEP_SECONDS = 300  # 5-minute aggregates
READINGS_HEADER = ["timestamp", "sensor_id", "flow", "speed", "occupancy"]
CHANNELS = ("flow", "speed", "occupancy")
# Timestamps parse at ns so that a fractional second shows instead of being
# cut off. A year outside datetime64[ns]'s range wraps modulo 2**64 ns,
# which leaves a fraction of a second too, so it is rejected the same way.
_ROW_DTYPE = np.dtype([("time", "M8[ns]"), ("sensor", object),
                       ("flow", "f8"), ("speed", "f8"), ("occupancy", "f8")])


@dataclass(eq=False)
class SensorSeries:
    """One sensor's channels: views into its period's `values`, checked
    only as part of the period."""

    sensor_id: str
    timestamps: np.ndarray  # the period's datetime64[s] axis
    flow: np.ndarray
    speed: np.ndarray
    occupancy: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)


class ReadingError(ValueError):
    """A fault in a period's readings, at sensor `node` and time index `t`
    where it has them."""

    def __init__(self, message: str, node: str | None = None, t: int | None = None):
        super().__init__(message)
        self.node, self.t = node, t


@dataclass(frozen=True)
class SplitBounds:
    """Contiguous train/val/test index ranges covering [0, length)."""

    train_end: int
    val_end: int
    length: int

    @property
    def train(self) -> tuple[int, int]:
        return (0, self.train_end)

    @property
    def val(self) -> tuple[int, int]:
        return (self.train_end, self.val_end)

    @property
    def test(self) -> tuple[int, int]:
        return (self.val_end, self.length)

    def range_of(self, split: str) -> tuple[int, int]:
        try:
            return {"train": self.train, "val": self.val, "test": self.test}[split]
        except KeyError:
            raise ValueError(f"unknown split {split!r}") from None


def compute_splits(length: int) -> SplitBounds:
    """6:2:2 chronological split via cumulative floors.

    Boundaries sit at floor(0.6 T) and floor(0.8 T), so every index is
    covered and each piece is within one index of the exact ratio.
    """
    if length < 5:
        raise ValueError(f"series too short to split 6:2:2: length {length} < 5")
    return SplitBounds(train_end=int(0.6 * length), val_end=int(0.8 * length), length=length)


@dataclass(eq=False)
class PeriodDataset:
    """One period of the stream: its graph snapshot, the (N, T, 3) tensor of
    (flow, speed, occupancy) readings of every node, and the split bounds
    of its time axis. The constructor checks the readings and raises a
    ReadingError at the first offending sensor and time index."""

    period: int
    snapshot: GraphSnapshot
    nodes: tuple[str, ...]  # sorted ids, every node of the snapshot
    times: np.ndarray  # (T,) datetime64[s], 300 s apart
    values: np.ndarray  # (N, T, 3) float64, channels in CHANNELS order
    splits: SplitBounds

    def __post_init__(self):
        self.nodes = tuple(self.nodes)
        self.times = np.asarray(self.times, dtype="datetime64[s]")
        self.values = np.asarray(self.values, dtype=float)
        graph = self.snapshot.nodes
        if self.nodes != tuple(sorted(graph)):
            odd = min(set(self.nodes) ^ graph, default=None)
            raise ReadingError(
                f"node {odd!r} of the period-{self.period} snapshot has no readings" if odd in graph else
                f"sensor {odd!r} is not a node of the period-{self.period} snapshot" if odd else
                "nodes must be the snapshot's ids, each once, in sorted order", node=odd)
        shape = (len(self.nodes), len(self.times), len(CHANNELS))
        if self.times.ndim != 1 or self.values.shape != shape:
            raise ValueError(f"values have shape {self.values.shape}, expected {shape}")
        if self.splits.length != len(self.times):
            raise ValueError("split bounds do not match series length")
        gaps = np.diff(self.times).astype(int)
        if np.any(gaps != STEP_SECONDS):
            t = int(np.argmax(gaps != STEP_SECONDS))
            raise ReadingError(f"timestamp gap of {gaps[t]}s after {self.times[t]} "
                               f"(expected {STEP_SECONDS}s)", t=t + 1)
        v = self.values
        bad = ~np.isfinite(v)
        bad[..., :2] |= v[..., :2] < 0
        bad[..., 2] |= (v[..., 2] < 0) | (v[..., 2] > 1)
        if bad.any():
            i, t, c = np.unravel_index(np.argmax(bad), bad.shape)
            value, name = float(v[i, t, c]), CHANNELS[c]
            problem = (f"non-finite {name} {value}" if not np.isfinite(value) else
                       f"occupancy {value} outside [0, 1]" if c == 2 else f"negative {name} {value}")
            raise ReadingError(f"{problem} (sensor {self.nodes[i]!r} at {self.times[t]})",
                               node=self.nodes[i], t=int(t))

    @property
    def length(self) -> int:
        return self.splits.length

    @cached_property
    def index(self) -> dict[str, int]:
        """Node id -> its row in `values`."""
        return {node: i for i, node in enumerate(self.nodes)}

    @cached_property
    def series(self) -> MappingProxyType:
        """Node id -> SensorSeries of writable views into `values`."""
        return MappingProxyType({node: SensorSeries(node, self.times, *self.values[i].T)
                                 for i, node in enumerate(self.nodes)})

    def flows_in(self, split: str) -> np.ndarray:
        """All sensors' flow values inside a split, pooled in node order."""
        lo, hi = self.splits.range_of(split)
        return self.values[:, lo:hi, 0].ravel()


def _row_problem(cells: list[str]) -> str | None:
    """Why np.loadtxt cannot parse a readings row, or None."""
    if len(cells) != len(READINGS_HEADER):
        return f"expected {len(READINGS_HEADER)} columns, got {len(cells)}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            np.datetime64(cells[0], "ns")
        except (ValueError, Warning):
            return f"bad timestamp {cells[0]!r}"
    try:
        [float(c.replace("_", "x")) for c in cells[2:]]  # np.loadtxt takes no digit separators
    except ValueError:
        return "bad numeric value"
    return None


def load_period(readings_path, adjacency_path, period: int, nodes_path=None) -> PeriodDataset:
    """Load one period from a readings CSV plus its adjacency CSV.

    Readings schema: ``timestamp,sensor_id,flow,speed,occupancy``, rows in
    any order, timestamps naive ISO-8601 to the second. Every sensor must
    be a graph node, and every node needs one reading at each time of a
    shared 300 s axis. A fault raises a DataError with file and line.
    """
    snapshot = load_adjacency(adjacency_path, period, nodes_path=nodes_path)
    path = Path(readings_path)
    if not path.exists():
        raise DataError("readings file not found", path=str(path))
    if next(csv_rows(path, READINGS_HEADER), None) is None:
        raise DataError("readings file contains no data rows", path=str(path))

    def fault(row, message):
        line, cells = next(islice(csv_rows(path, READINGS_HEADER), int(row), None))
        return DataError(message(cells) if callable(message) else message, path=str(path), line=line)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy takes a zone suffix with only a warning
            rows = np.loadtxt(path, dtype=_ROW_DTYPE, delimiter=",", skiprows=1,
                              comments=None, quotechar='"', ndmin=1)
    except (ValueError, Warning) as e:
        # re-scan for the message only: the first row np.loadtxt cannot take
        for line, cells in csv_rows(path, READINGS_HEADER):
            if (problem := _row_problem(cells)) is not None:
                raise DataError(problem, path=str(path), line=line) from None
        raise DataError(f"unreadable readings: {e}", path=str(path)) from None

    bad = np.isnat(rows["time"]) | (rows["time"].view(np.int64) % 10**9 != 0)
    if bad.any():
        raise fault(np.argmax(bad),
                    lambda cells: f"bad timestamp {cells[0]!r} (naive ISO-8601 to the second expected)")
    roster = {node: i for i, node in enumerate(sorted(snapshot.nodes))}
    sensor = np.fromiter((roster.get(s, -1) for s in rows["sensor"]), np.intp, count=rows.size)
    if np.any(sensor < 0):
        row = np.argmax(sensor < 0)
        raise fault(row, f"unknown sensor {rows['sensor'][row]!r} (not in adjacency graph)")
    # index the sensors that have readings, so a node without any is reported by PeriodDataset
    present = np.bincount(sensor, minlength=len(roster)) > 0
    nodes = [node for node, seen in zip(roster, present) if seen]
    sensor = (np.cumsum(present) - 1)[sensor]

    times, t = np.unique(rows["time"], return_inverse=True)
    n, width = len(nodes), len(times)
    cell = sensor * width + t
    per_cell = np.bincount(cell, minlength=n * width)
    if np.any(per_cell != 1):  # report the earliest time that is not one reading per sensor
        k, i = divmod(int(np.argmax((per_cell != 1).reshape(n, width).T)), n)
        at = np.datetime_as_string(times[k], unit="s")
        if per_cell[i * width + k] > 1:
            raise fault(np.flatnonzero(cell == i * width + k)[1], f"sensor {nodes[i]!r}: second reading at {at}")
        own = np.flatnonzero(sensor == i)  # point at the reading after the gap, else the last one
        later = own[t[own] > k]
        row = later[np.argmin(t[later])] if later.size else own[np.argmax(t[own])]
        raise fault(row, f"sensor {nodes[i]!r}: timestamp gap, no reading at {at} on the shared "
                         f"{STEP_SECONDS}s axis")
    values = np.empty((n * width, len(CHANNELS)))
    for c, name in enumerate(CHANNELS):
        values[cell, c] = rows[name]
    row_of = np.empty((n, width), dtype=np.intp)
    row_of.flat[cell] = np.arange(rows.size)
    del rows

    try:
        return PeriodDataset(period=period, snapshot=snapshot, nodes=tuple(nodes),
                             times=times.astype("datetime64[s]"),
                             values=values.reshape(n, width, len(CHANNELS)), splits=compute_splits(width))
    except ReadingError as e:
        if e.t is not None:
            raise fault(row_of[nodes.index(e.node), e.t] if e.node is not None else row_of[:, e.t].min(),
                        str(e)) from None
        declared = ((adjacency_path, ["from", "to"]), (nodes_path, ["node_id"]))
        for graph_file, header in declared:  # a node without readings: point where it is declared
            if graph_file is not None and Path(graph_file).exists():
                for line, cells in csv_rows(graph_file, header):
                    if e.node in cells:
                        raise DataError(f"{e} in {path.name}", path=str(graph_file), line=line) from None
        raise DataError(str(e), path=str(path)) from None
    except ValueError as e:  # too short to split
        raise DataError(str(e), path=str(path)) from None


def write_period(dataset: PeriodDataset, readings_path, adjacency_path, nodes_path=None) -> None:
    """Write a period back to CSV; the inverse of load_period, bit-exact.

    Rows are blocked by sensor in sorted id order, each block in time
    order; floats are written with shortest round-trip repr.
    """
    write_adjacency(dataset.snapshot, adjacency_path, nodes_path=nodes_path)
    stamps = np.datetime_as_string(dataset.times, unit="s").tolist()
    with open(Path(readings_path), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(READINGS_HEADER)
        for sid, block in zip(dataset.nodes, dataset.values):
            writer.writerows(zip(stamps, repeat(sid), *(map(repr, col) for col in block.T.tolist())))


@dataclass(frozen=True)
class DriftSpec:
    """A planted regime shift: from `period` onward, `node`'s mean flow moves by `magnitude`."""

    node: str
    period: int
    magnitude: float


@dataclass(frozen=True)
class GeneratorConfig:
    """Synthetic-stream shape: topology growth, diurnal profile, noise, drift."""

    periods: int = 3
    initial_nodes: int = 20
    growth_per_period: int = 4
    profile_base: float = 20.0
    profile_peak: float = 120.0
    noise_sigma: float = 4.0
    drift: tuple[DriftSpec, ...] = ()
    steps_per_period: int = 2016
    phase_jitter_steps: float = 0.0
    amplitude_jitter: float = 0.0
    harmonic_mix: float = 0.0
    edges_per_new_node: int = 2
    start_period: int = 1

    def __post_init__(self):
        if self.periods < 1:
            raise ValueError(f"periods must be >= 1, got {self.periods}")
        if self.initial_nodes < 1:
            raise ValueError(f"initial_nodes must be >= 1, got {self.initial_nodes}")
        if self.growth_per_period < 0:
            raise ValueError("growth_per_period must be >= 0")
        if self.steps_per_period < 5:
            raise ValueError("steps_per_period must be >= 5 (6:2:2 split needs it)")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if not 0 < self.profile_base <= self.profile_peak:
            raise ValueError("require 0 < profile_base <= profile_peak")
        if not 0 <= self.harmonic_mix <= 1:
            raise ValueError("harmonic_mix must lie in [0, 1]")
        if self.edges_per_new_node < 1:
            raise ValueError("edges_per_new_node must be >= 1")


DAY_STEPS = 288  # 5-min steps per day
FREE_SPEED = 65.0  # mph, congestion-free reference


def _node_name(i: int) -> str:
    return f"s{i:04d}"


def _diurnal(steps: np.ndarray, phase: float) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * (steps + phase) / DAY_STEPS))


def generate_synthetic(config: GeneratorConfig, seed: int) -> list[PeriodDataset]:
    """Deterministically synthesize a multi-period streaming dataset.

    Flow follows a diurnal sinusoid between profile_base and profile_peak
    plus Gaussian noise; speed decreases with flow and occupancy increases
    with it (both exactly functional at noise 0). Per-node phase/amplitude
    jitters are drawn once at node creation, so a node's profile is stable
    across periods unless a DriftSpec shifts it.
    """
    rng = np.random.default_rng([int(seed), 0xF10])
    drift_by_node: dict[str, DriftSpec] = {}
    last_period = config.start_period + config.periods - 1
    for d in config.drift:
        if d.node in drift_by_node:
            raise ValueError(f"multiple drift specs for node {d.node!r}")
        if not config.start_period <= d.period <= last_period:
            raise ValueError(
                f"drift spec for node {d.node!r} targets period {d.period}, outside "
                f"[{config.start_period}, {last_period}]"
            )
        drift_by_node[d.node] = d

    # Topology for the first period: random tree plus extra chords.
    n0 = config.initial_nodes
    names = [_node_name(i) for i in range(n0)]
    edges: set[tuple[str, str]] = set()
    for i in range(1, n0):
        j = int(rng.integers(0, i))
        edges.add(canonical_edge(names[i], names[j]))
        extra = min(config.edges_per_new_node - 1, i)
        for k in rng.choice(i, size=extra, replace=False):
            e = canonical_edge(names[i], names[int(k)])
            edges.add(e)
    snapshot = GraphSnapshot.build(config.start_period, names, edges)

    # Per-node profile attributes, fixed at creation time.
    phases: dict[str, float] = {}
    amps: dict[str, float] = {}
    phases2: dict[str, float] = {}

    def _create_attrs(node: str) -> None:
        phases[node] = float(rng.uniform(-config.phase_jitter_steps, config.phase_jitter_steps))
        amps[node] = float(1.0 + rng.uniform(-config.amplitude_jitter, config.amplitude_jitter))
        phases2[node] = float(rng.uniform(0.0, DAY_STEPS))

    for name in names:
        _create_attrs(name)

    datasets: list[PeriodDataset] = []
    total_nodes = n0
    for pi in range(config.periods):
        period = config.start_period + pi
        if pi > 0:
            added = [_node_name(total_nodes + k) for k in range(config.growth_per_period)]
            existing = sorted(snapshot.nodes)
            new_edges = set()
            for name in added:
                picks = rng.choice(len(existing), size=min(config.edges_per_new_node, len(existing)), replace=False)
                for k in picks:
                    new_edges.add(canonical_edge(name, existing[int(k)]))
                _create_attrs(name)
            snapshot = apply_delta(
                snapshot, GraphDelta.build(added_nodes=added, added_edges=new_edges)
            )
            total_nodes += len(added)

        for d in drift_by_node.values():
            if d.period == period and d.node not in snapshot.nodes:
                raise ValueError(
                    f"drift spec targets node {d.node!r} absent from the period-{period} graph"
                )

        steps = np.arange(config.steps_per_period, dtype=float)
        times = np.datetime64(datetime(2000 + period, 1, 1), "s") + np.arange(
            config.steps_per_period) * np.timedelta64(STEP_SECONDS, "s")
        nodes = tuple(sorted(snapshot.nodes))
        values = np.empty((len(nodes), config.steps_per_period, len(CHANNELS)))
        for i, node in enumerate(nodes):
            peak = config.profile_base + (config.profile_peak - config.profile_base) * amps[node]
            shape = _diurnal(steps, phases[node])
            if config.harmonic_mix > 0:
                # per-node half-day harmonic: same daily mean, node-specific shape
                half = 0.5 * (1.0 - np.cos(4.0 * np.pi * (steps + phases2[node]) / DAY_STEPS))
                shape = (1.0 - config.harmonic_mix) * shape + config.harmonic_mix * half
            flow = config.profile_base + (peak - config.profile_base) * shape
            d = drift_by_node.get(node)
            if d is not None and period >= d.period:
                flow = flow + d.magnitude
            if config.noise_sigma > 0:
                flow = flow + rng.normal(0.0, config.noise_sigma, size=flow.shape)
            flow = np.clip(flow, 0.0, None)

            congestion = np.clip(flow / config.profile_peak, 0.0, 1.0)
            speed = FREE_SPEED * (1.0 - 0.65 * congestion)
            occ = 0.02 + 0.55 * congestion
            if config.noise_sigma > 0:
                speed = speed + rng.normal(0.0, 0.05 * config.noise_sigma, size=flow.shape)
                occ = occ + rng.normal(0.0, 0.001 * config.noise_sigma, size=flow.shape)
            values[i, :, 0] = flow
            values[i, :, 1] = np.clip(speed, 0.0, None)
            values[i, :, 2] = np.clip(occ, 0.0, 1.0)
        datasets.append(
            PeriodDataset(
                period=period,
                snapshot=snapshot,
                nodes=nodes,
                times=times,
                values=values,
                splits=compute_splits(config.steps_per_period),
            )
        )
    return datasets
