"""Sensor time-series ingestion: the period tensor, CSV loading and
writing, and synthetic streams.

Readings are 5-minute aggregates of (flow, speed, occupancy) per sensor.
A period holds them as one (N, T, 3) float64 array: N sensors in sorted id
order, every node of the period's graph, on one shared axis of T
timestamps 300 s apart. `PeriodDataset`'s constructor is the one place
that checks readings. `load_period` reads a CSV once, in blocks of whole
records that `np.loadtxt` parses into compact columns, places each row on
the (sensor, time) grid and maps any fault back to its file and line. It
holds the text and its Python objects one block at a time, and rows in
`write_period`'s order become the tensor without a copy. The synthetic
generator produces multi-period streams with a growing topology and
optionally planted regime shifts, for desk-scale experiments.
"""

from __future__ import annotations

import csv
import io
import re
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
def _row_dtype(sensor) -> np.dtype:
    return np.dtype([("time", "M8[ns]"), ("sensor", sensor), ("flow", "f8"), ("speed", "f8"), ("occupancy", "f8")])


_ROW_DTYPE = _row_dtype(object)
# Parsing at ns drops any digit past the ninth of a fraction, so a
# timestamp with more is found in the text.
_PAST_NS = re.compile(rb":\d\d\.\d{10}")
# Characters of readings text parsed per block; a block grows to the end of
# the record it stops in.
READ_BLOCK = 1 << 18


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
    # np.loadtxt takes neither the non-ASCII digits ('١', '１') nor the digit
    # separators that float() takes; the Unicode whitespace it does take
    # around a number is stripped by csv_rows
    if not all(c.isascii() for c in cells[2:]):
        return "bad numeric value"
    try:
        [float(c.replace("_", "x")) for c in cells[2:]]
    except ValueError:
        return "bad numeric value"
    return None


def _record_end(text: str) -> int:
    """The index just past the last newline of `text` that ends a record,
    or 0. `text` starts at a record's start. As np.loadtxt reads a quote,
    it opens a quoted cell only at a cell's start, a doubled quote stays
    inside it and any other quote closes it."""
    safe, start = 0, 0  # start: where the text outside quotes resumes
    q = text.find('"')
    while q >= 0:
        if q and text[q - 1] not in ",\n":  # a literal quote inside a cell
            q = text.find('"', q + 1)
            continue
        safe = max(safe, text.rfind("\n", start, q) + 1)
        close = text.find('"', q + 1)
        while close >= 0 and text.startswith('"', close + 1):
            close = text.find('"', close + 2)
        if close < 0:  # the cell may go on past the text
            return safe
        start = close + 1
        q = text.find('"', start)
    return max(safe, text.rfind("\n", start) + 1)


def _blocks(path):
    """The readings after the header line, as np.loadtxt reads a path (the
    locale's encoding, universal newlines): (text, lines) of blocks of
    about READ_BLOCK characters that each end at a record's end."""
    with open(path) as f:
        f.readline()
        carry: list[str] = []
        while lines := f.readlines(READ_BLOCK):
            lines = carry + lines
            text = "".join(lines)
            end, keep, size = _record_end(text), len(lines), len(text)
            while size > end:  # the lines of a record that goes on in the next block
                keep -= 1
                size -= len(lines[keep])
            carry, lines, text = lines[keep:], lines[:keep], text[:end]
            if text.strip("\n"):
                yield text, lines
        if carry:  # the record the file ends in, never blank
            yield "".join(carry), carry


def _past_ns(text: str) -> bool:
    """Whether `text` matches _PAST_NS (a match may also lie in a sensor
    id). It is searched only if it holds a ':' three bytes before a '.', as
    every match does."""
    data = text.encode()
    buf = np.frombuffer(data, np.uint8)
    return bool(((buf[:-3] == ord(":")) & (buf[3:] == ord("."))).any()) and _PAST_NS.search(data) is not None


def _parse(source, dtype=_ROW_DTYPE, skiprows: int = 0) -> np.ndarray:
    """Readings rows of `source` as np.loadtxt parses them, any warning
    (numpy takes a zone suffix with only a warning) raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(source, dtype=dtype, delimiter=",", skiprows=skiprows,
                          comments=None, quotechar='"', ndmin=1)


def _parsed_blocks(path, id_width: int):
    """Each block of the readings text (`_blocks`) with its rows as
    np.loadtxt parses them, each sensor id cut to `id_width` characters.
    A file it cannot parse is a DataError at the first row that it cannot
    take."""
    compact = _row_dtype(f"U{id_width}")  # no Python object per row
    try:
        for text, lines in _blocks(path):
            # a U cell drops trailing NULs, so a block that holds a NUL keeps its ids whole
            yield text, _parse(lines, _ROW_DTYPE if "\x00" in text else compact)
    except (ValueError, Warning) as e:
        # re-scan for the message only: the first row np.loadtxt cannot take
        for line, cells in csv_rows(path, READINGS_HEADER):
            if (problem := _row_problem(cells)) is not None:
                raise DataError(problem, path=str(path), line=line) from None
        try:  # numpy's own words, with rows counted over the whole file
            _parse(path, skiprows=1)
        except (ValueError, Warning) as whole:
            e = whole
        raise DataError(f"unreadable readings: {e}", path=str(path)) from None


def load_period(readings_path, adjacency_path, period: int, nodes_path=None) -> PeriodDataset:
    """Load one period from a readings CSV plus its adjacency CSV.

    Readings schema: ``timestamp,sensor_id,flow,speed,occupancy``, rows in
    any order, timestamps naive ISO-8601 to the second. Every sensor must
    be a graph node, and every node needs one reading at each time of a
    shared 300 s axis. A fault raises a DataError with file and line.

    The file is read once, in blocks of whole records (`_blocks`). Each
    block is parsed by np.loadtxt into columns of time, roster index and
    the three channels, so the text and its Python objects are held one
    block at a time. The checks run once every block has parsed. Rows in
    (sensor, time) order, as `write_period` writes them, make the channel
    columns the period tensor as they stand; other orders are scattered
    onto the grid.
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

    roster = {node: i for i, node in enumerate(sorted(snapshot.nodes))}
    size = path.stat().st_size
    time, sensor, floats = np.empty(0, "M8[ns]"), np.empty(0, np.intp), np.empty((0, len(CHANNELS)))
    rows, read = 0, 0  # rows parsed and characters read so far
    bad_time = unknown = None  # the first row of each fault
    past_ns = False
    # an id longer than every roster id is cut to a width no roster id has
    for block, part in _parsed_blocks(path, max(map(len, roster), default=0) + 1):
        past_ns = past_ns or _past_ns(block)
        k, read = len(part), read + len(block)
        if rows + k > len(time):  # room for the rows that the file's size still promises
            cap = max(rows + k, (rows + k) * size // read) + k
            for column in (time, sensor, floats):
                column.resize((cap, *column.shape[1:]), refcheck=False)
        span = slice(rows, rows + k)
        time[span] = part["time"]
        ids = part["sensor"]  # looked up once per run of one id, as write_period writes them
        starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
        sensor[span] = np.repeat(np.fromiter(map(roster.get, ids[starts], repeat(-1)), np.intp, count=len(starts)),
                                 np.diff(starts, append=k))
        for c, name in enumerate(CHANNELS):
            floats[span, c] = part[name]
        if bad_time is None:
            bad = np.isnat(part["time"]) | (part["time"].view(np.int64) % 10**9 != 0)
            bad_time = rows + int(np.argmax(bad)) if bad.any() else None
        if unknown is None and (miss := sensor[span] < 0).any():
            j = int(np.argmax(miss))
            unknown = (rows + j, _parse(io.StringIO(block))["sensor"][j])  # the id uncut
        rows += k
        del block, part  # before the next block is read
    for column in (time, sensor, floats):
        column.resize((rows, *column.shape[1:]), refcheck=False)

    if past_ns:
        late = next((k for k, (_, cells) in enumerate(csv_rows(path, READINGS_HEADER))
                     if _PAST_NS.search(cells[0].encode())), None)
        if late is not None:
            bad_time = late if bad_time is None else min(bad_time, late)
    if bad_time is not None:
        raise fault(bad_time,
                    lambda cells: f"bad timestamp {cells[0]!r} (naive ISO-8601 to the second expected)")
    if unknown is not None:
        raise fault(unknown[0], f"unknown sensor {unknown[1]!r} (not in adjacency graph)")
    # index the sensors that have readings, so a node without any is reported by PeriodDataset
    present = np.bincount(sensor, minlength=len(roster)) > 0
    nodes = [node for node, seen in zip(roster, present) if seen]
    sensor = (np.cumsum(present) - 1)[sensor]

    n = len(nodes)
    width = rows // n
    cell = None  # the grid cell of each row, where row r does not hold cell r
    if (n * width == rows and np.all(time[1:width] > time[:width - 1])
            and np.all(sensor.reshape(n, width) == np.arange(n)[:, None])
            and np.all(time.reshape(n, width) == time[:width])):
        times = time[:width].copy()
        del time, sensor
    else:
        times, t = np.unique(time, return_inverse=True)
        del time
        width = len(times)
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
        del sensor, t, per_cell
        values = np.empty_like(floats)
        values[cell] = floats
        floats = values

    try:
        return PeriodDataset(period=period, snapshot=snapshot, nodes=tuple(nodes), times=times,
                             values=floats.reshape(n, width, len(CHANNELS)), splits=compute_splits(width))
    except ReadingError as e:
        if e.t is not None:
            row_of = np.empty((n, width), dtype=np.intp)
            row_of.flat[slice(None) if cell is None else cell] = np.arange(rows)
            raise fault(row_of[nodes.index(e.node), e.t] if e.node is not None else row_of[:, e.t].min(),
                        str(e)) from None
        declared = ((adjacency_path, ["from", "to"]), (nodes_path, ["node_id"]))
        for graph_file, header in declared:  # a node without readings: point where it is declared
            if graph_file is not None and Path(graph_file).exists():
                for line, cells in csv_rows(graph_file, header):
                    if e.node in map(str.strip, cells):
                        raise DataError(f"{e} in {path.name}", path=str(graph_file), line=line) from None
        raise DataError(str(e), path=str(path)) from None
    except ValueError as e:  # too short to split
        raise DataError(str(e), path=str(path)) from None


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it as one field of a longer row."""
    out = io.StringIO()
    csv.writer(out).writerow(["", text])  # not alone: a lone empty field is written as ""
    return out.getvalue()[1:-2]


def write_period(dataset: PeriodDataset, readings_path, adjacency_path, nodes_path=None) -> None:
    """Write a period back to CSV; the inverse of load_period, bit-exact.

    The bytes are those of csv.writer: CRLF line ends, the id quoted as
    csv quotes it, rows blocked by sensor in sorted id order, each block
    in time order, floats written with shortest round-trip repr. Each
    block is one string formatted from a per-sensor line template.
    """
    write_adjacency(dataset.snapshot, adjacency_path, nodes_path=nodes_path)
    stamps = np.datetime_as_string(dataset.times, unit="s").tolist()
    with open(Path(readings_path), "w", newline="") as f:
        f.write(",".join(READINGS_HEADER) + "\r\n")
        for sid, block in zip(dataset.nodes, dataset.values):
            line = "%s," + _csv_field(sid).replace("%", "%%") + ",%r,%r,%r\r\n"
            f.write("".join(map(line.__mod__, zip(stamps, *block.T.tolist()))))


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
        last_period = self.start_period + self.periods - 1
        for k, d in enumerate(self.drift):
            if any(other.node == d.node for other in self.drift[:k]):
                raise ValueError(f"multiple drift specs for node {d.node!r}")
            if not self.start_period <= d.period <= last_period:
                raise ValueError(f"drift spec for node {d.node!r} targets period {d.period}, "
                                 f"outside [{self.start_period}, {last_period}]")
            grown = self.initial_nodes + self.growth_per_period * (d.period - self.start_period)
            if d.node not in map(_node_name, range(grown)):
                raise ValueError(f"drift spec targets node {d.node!r} absent from the "
                                 f"period-{d.period} graph")


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
    drift_by_node = {d.node: d for d in config.drift}

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
