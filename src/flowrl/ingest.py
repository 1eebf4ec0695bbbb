"""Sensor time-series ingestion: CSV loading, writing, and synthetic streams.

Readings are 5-minute aggregates of (flow, speed, occupancy) per sensor.
The synthetic generator produces multi-period streams with a growing
topology and optionally planted regime shifts, for desk-scale experiments.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timedelta
from math import isfinite
from pathlib import Path

import numpy as np

from .errors import DataError
from .graph import GraphDelta, GraphSnapshot, apply_delta, canonical_edge, load_adjacency, write_adjacency

STEP_SECONDS = 300  # 5-minute aggregates
READINGS_HEADER = ["timestamp", "sensor_id", "flow", "speed", "occupancy"]


@dataclass(eq=False)
class SensorSeries:
    """One sensor's aligned (flow, speed, occupancy) channels."""

    sensor_id: str
    timestamps: tuple[str, ...]  # ISO-8601, strictly increasing, 5-min spacing
    flow: np.ndarray
    speed: np.ndarray
    occupancy: np.ndarray

    def __post_init__(self):
        n = len(self.timestamps)
        self.flow = np.asarray(self.flow, dtype=float)
        self.speed = np.asarray(self.speed, dtype=float)
        self.occupancy = np.asarray(self.occupancy, dtype=float)
        if not (len(self.flow) == len(self.speed) == len(self.occupancy) == n):
            raise ValueError(
                f"sensor {self.sensor_id!r}: channel lengths differ from timestamps ({n})"
            )
        if n == 0:
            raise ValueError(f"sensor {self.sensor_id!r}: empty series")
        for name in ("flow", "speed", "occupancy"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"sensor {self.sensor_id!r}: non-finite {name}")
        if np.any(self.flow < 0) or np.any(self.speed < 0):
            raise ValueError(f"sensor {self.sensor_id!r}: negative flow or speed")
        if np.any(self.occupancy < 0) or np.any(self.occupancy > 1):
            raise ValueError(f"sensor {self.sensor_id!r}: occupancy outside [0, 1]")
        prev = None
        for ts in self.timestamps:
            t = datetime.fromisoformat(ts)
            if prev is not None and (t - prev).total_seconds() != STEP_SECONDS:
                raise ValueError(
                    f"sensor {self.sensor_id!r}: timestamp gap between {prev.isoformat()} "
                    f"and {ts} (expected {STEP_SECONDS}s spacing)"
                )
            prev = t

    def __len__(self) -> int:
        return len(self.timestamps)


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
    """One period of the stream: snapshot, per-sensor series, split bounds."""

    period: int
    snapshot: GraphSnapshot
    series: dict[str, SensorSeries]
    splits: SplitBounds

    def __post_init__(self):
        lengths = {len(s) for s in self.series.values()}
        if len(lengths) > 1:
            raise ValueError(f"series lengths differ across sensors: {sorted(lengths)}")
        for sid in self.series:
            if sid not in self.snapshot.nodes:
                raise ValueError(f"series sensor {sid!r} is not a node of the period-{self.period} snapshot")
        if lengths and self.splits.length != lengths.pop():
            raise ValueError("split bounds do not match series length")

    @property
    def length(self) -> int:
        return self.splits.length

    def flows_in(self, split: str) -> np.ndarray:
        """All sensors' flow values inside a split, pooled."""
        lo, hi = self.splits.range_of(split)
        return np.concatenate([self.series[sid].flow[lo:hi] for sid in sorted(self.series)])


def load_period(readings_path, adjacency_path, period: int, nodes_path=None) -> PeriodDataset:
    """Load one period from a readings CSV plus its adjacency CSV.

    Readings schema: ``timestamp,sensor_id,flow,speed,occupancy`` with
    ISO-8601 timestamps. Every malformed row raises a DataError carrying
    the file and line number. Sensors that are not nodes of the adjacency
    graph are rejected.
    """
    snapshot = load_adjacency(adjacency_path, period, nodes_path=nodes_path)
    readings_path = Path(readings_path)
    if not readings_path.exists():
        raise DataError("readings file not found", path=str(readings_path))

    per_sensor: dict[str, dict[str, list]] = {}
    with open(readings_path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != READINGS_HEADER:
            raise DataError(
                f"expected header {','.join(READINGS_HEADER)!r}, got {header!r}",
                path=str(readings_path),
                line=1,
            )
        rows = 0
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 5:
                raise DataError(
                    f"expected 5 columns, got {len(row)}", path=str(readings_path), line=lineno
                )
            ts_raw, sid, flow_raw, speed_raw, occ_raw = (c.strip() for c in row)
            try:
                datetime.fromisoformat(ts_raw)
            except ValueError:
                raise DataError(
                    f"bad timestamp {ts_raw!r}", path=str(readings_path), line=lineno
                ) from None
            if sid not in snapshot.nodes:
                raise DataError(
                    f"unknown sensor {sid!r} (not in adjacency graph)",
                    path=str(readings_path),
                    line=lineno,
                )
            try:
                flow = float(flow_raw)
                speed = float(speed_raw)
                occ = float(occ_raw)
            except ValueError:
                raise DataError("bad numeric value", path=str(readings_path), line=lineno) from None
            if not (isfinite(flow) and isfinite(speed) and isfinite(occ)):
                name, value = next((name, value) for name, value in
                                   (("flow", flow), ("speed", speed), ("occupancy", occ))
                                   if not isfinite(value))
                raise DataError(f"non-finite {name} {value}", path=str(readings_path), line=lineno)
            if flow < 0:
                raise DataError(f"negative flow {flow}", path=str(readings_path), line=lineno)
            if speed < 0:
                raise DataError(f"negative speed {speed}", path=str(readings_path), line=lineno)
            if not 0 <= occ <= 1:
                raise DataError(
                    f"occupancy {occ} outside [0, 1]", path=str(readings_path), line=lineno
                )
            bucket = per_sensor.setdefault(
                sid, {"ts": [], "flow": [], "speed": [], "occ": [], "lines": []}
            )
            bucket["ts"].append(ts_raw)
            bucket["flow"].append(flow)
            bucket["speed"].append(speed)
            bucket["occ"].append(occ)
            bucket["lines"].append(lineno)
            rows += 1
    if rows == 0:
        raise DataError("readings file contains no data rows", path=str(readings_path))

    series: dict[str, SensorSeries] = {}
    for sid, b in per_sensor.items():
        prev = None
        for ts, lineno in zip(b["ts"], b["lines"]):
            t = datetime.fromisoformat(ts)
            if prev is not None:
                gap = (t - prev[0]).total_seconds()
                if gap != STEP_SECONDS:
                    raise DataError(
                        f"sensor {sid!r}: timestamp gap of {gap:.0f}s after {prev[0].isoformat()} "
                        f"(expected {STEP_SECONDS}s)",
                        path=str(readings_path),
                        line=lineno,
                    )
            prev = (t, lineno)
        series[sid] = SensorSeries(
            sensor_id=sid,
            timestamps=tuple(b["ts"]),
            flow=np.array(b["flow"]),
            speed=np.array(b["speed"]),
            occupancy=np.array(b["occ"]),
        )

    lengths = {len(s) for s in series.values()}
    if len(lengths) > 1:
        raise DataError(
            f"sensors have differing series lengths: {sorted(lengths)}", path=str(readings_path)
        )
    length = lengths.pop()
    try:
        splits = compute_splits(length)
    except ValueError as e:
        raise DataError(str(e), path=str(readings_path)) from None
    return PeriodDataset(period=period, snapshot=snapshot, series=series, splits=splits)


def write_period(dataset: PeriodDataset, readings_path, adjacency_path, nodes_path=None) -> None:
    """Write a period back to CSV; the inverse of load_period, bit-exact.

    Rows are blocked by sensor in sorted id order, each block in time
    order; floats are written with shortest round-trip repr.
    """
    write_adjacency(dataset.snapshot, adjacency_path, nodes_path=nodes_path)
    with open(Path(readings_path), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(READINGS_HEADER)
        for sid in sorted(dataset.series):
            s = dataset.series[sid]
            for i, ts in enumerate(s.timestamps):
                writer.writerow(
                    [ts, sid, repr(float(s.flow[i])), repr(float(s.speed[i])), repr(float(s.occupancy[i]))]
                )


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
        start = datetime(2000 + period, 1, 1)
        timestamps = tuple(
            (start + timedelta(seconds=STEP_SECONDS * int(t))).isoformat() for t in range(config.steps_per_period)
        )
        series: dict[str, SensorSeries] = {}
        for node in sorted(snapshot.nodes):
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
            speed = np.clip(speed, 0.0, None)
            occ = np.clip(occ, 0.0, 1.0)
            series[node] = SensorSeries(
                sensor_id=node, timestamps=timestamps, flow=flow, speed=speed, occupancy=occ
            )
        datasets.append(
            PeriodDataset(
                period=period,
                snapshot=snapshot,
                series=series,
                splits=compute_splits(config.steps_per_period),
            )
        )
    return datasets
