import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import flowrl.ingest as ingest
from _helpers import make_dataset, make_series, traced_peak
from _oracles import write_readings_reference
from flowrl.errors import DataError
from flowrl.graph import GraphSnapshot, NodeIdError, load_adjacency
from flowrl.ingest import (
    DriftSpec,
    GeneratorConfig,
    PeriodDataset,
    ReadingError,
    compute_splits,
    generate_synthetic,
    load_period,
    write_period,
)

DAY = 288


class TestSplits:
    def test_one_day_example(self):
        s = compute_splits(288)
        assert (s.train_end, s.val_end - s.train_end, s.length - s.val_end) == (172, 58, 58)
        assert s.train == (0, 172)
        assert s.val == (172, 230)
        assert s.test == (230, 288)

    def test_ratio_within_one_index(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = int(rng.integers(5, 5000))
            s = compute_splits(t)
            train = s.train_end
            val = s.val_end - s.train_end
            test = s.length - s.val_end
            assert train + val + test == t
            assert abs(train - 0.6 * t) <= 1
            assert abs(val - 0.2 * t) <= 1
            assert abs(test - 0.2 * t) <= 1
            assert train > 0 and val > 0 and test > 0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="length 4"):
            compute_splits(4)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("channel", ["flow", "speed", "occ"])
def test_sensor_series_rejects_non_finite(channel, value):
    values = {"flow": np.full(6, 30.0), "speed": np.full(6, 50.0), "occ": np.full(6, 0.1)}
    values[channel][3] = value
    with pytest.raises(ReadingError, match="non-finite") as err:
        make_dataset(1, ["s0"], [], {"s0": make_series("s0", **values)})
    assert (err.value.node, err.value.t) == ("s0", 3)


def small_config(**overrides):
    defaults = dict(
        periods=1, initial_nodes=3, growth_per_period=0, steps_per_period=DAY,
        noise_sigma=2.0, profile_base=20.0, profile_peak=120.0,
    )
    defaults.update(overrides)
    return GeneratorConfig(**defaults)


def write_dataset(ds, dirpath):
    readings = dirpath / f"readings_{ds.period}.csv"
    adjacency = dirpath / f"adjacency_{ds.period}.csv"
    nodes = dirpath / f"nodes_{ds.period}.csv"
    write_period(ds, readings, adjacency, nodes_path=nodes)
    return readings, adjacency, nodes


class TestLoadPeriod:
    def test_one_day_fixture_split(self, tmp_path):
        ds = generate_synthetic(small_config(), 1)[0]
        readings, adjacency, nodes = write_dataset(ds, tmp_path)
        loaded = load_period(readings, adjacency, ds.period, nodes_path=nodes)
        assert len(loaded.series) == 3
        assert loaded.splits.train == (0, 172)
        assert loaded.splits.val == (172, 230)
        assert loaded.splits.test == (230, 288)

    def test_round_trip_bit_identical(self, tmp_path):
        ds = generate_synthetic(small_config(periods=2, growth_per_period=2), 7)[1]
        readings, adjacency, nodes = write_dataset(ds, tmp_path)
        loaded = load_period(readings, adjacency, ds.period, nodes_path=nodes)
        assert loaded.period == ds.period
        assert loaded.snapshot.nodes == ds.snapshot.nodes
        assert loaded.snapshot.edges == ds.snapshot.edges
        assert set(loaded.series) == set(ds.series)
        for sid in ds.series:
            a, b = ds.series[sid], loaded.series[sid]
            assert np.array_equal(a.timestamps, b.timestamps)
            np.testing.assert_array_equal(a.flow, b.flow)
            np.testing.assert_array_equal(a.speed, b.speed)
            np.testing.assert_array_equal(a.occupancy, b.occupancy)
        # writing the loaded dataset again reproduces the files byte-for-byte
        out2 = tmp_path / "again"
        out2.mkdir()
        r2, a2, n2 = write_dataset(loaded, out2)
        assert r2.read_bytes() == readings.read_bytes()
        assert a2.read_bytes() == adjacency.read_bytes()
        assert n2.read_bytes() == nodes.read_bytes()

    def test_empty_readings_rejected(self, tmp_path):
        ds = generate_synthetic(small_config(), 1)[0]
        readings, adjacency, nodes = write_dataset(ds, tmp_path)
        readings.write_text("timestamp,sensor_id,flow,speed,occupancy\n")
        with pytest.raises(DataError, match="no data rows"):
            load_period(readings, adjacency, ds.period, nodes_path=nodes)

    def _broken_row_case(self, tmp_path, mutate, match):
        ds = generate_synthetic(small_config(), 1)[0]
        readings, adjacency, nodes = write_dataset(ds, tmp_path)
        lines = readings.read_text().splitlines()
        lines[5] = mutate(lines[5])
        readings.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=match) as err:
            load_period(readings, adjacency, ds.period, nodes_path=nodes)
        assert ":6:" in str(err.value)  # row 5 of data = line 6 of the file

    def test_occupancy_above_one_names_line(self, tmp_path):
        def mutate(line):
            parts = line.split(",")
            parts[4] = "1.5"
            return ",".join(parts)

        self._broken_row_case(tmp_path, mutate, match="occupancy 1.5")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column,channel", [(2, "flow"), (3, "speed"), (4, "occupancy")])
    def test_non_finite_value_names_line(self, tmp_path, column, channel, value):
        def mutate(line):
            parts = line.split(",")
            parts[column] = value
            return ",".join(parts)

        self._broken_row_case(tmp_path, mutate, match=f"non-finite {channel}")

    def test_bad_number_names_line(self, tmp_path):
        def mutate(line):
            parts = line.split(",")
            parts[2] = "not-a-number"
            return ",".join(parts)

        self._broken_row_case(tmp_path, mutate, match="bad numeric")

    def test_unknown_sensor_names_line(self, tmp_path):
        def mutate(line):
            parts = line.split(",")
            parts[1] = "rogue"
            return ",".join(parts)

        self._broken_row_case(tmp_path, mutate, match="rogue")

    def test_timestamp_gap_detected(self, tmp_path):
        ds = generate_synthetic(small_config(), 1)[0]
        readings, adjacency, nodes = write_dataset(ds, tmp_path)
        lines = readings.read_text().splitlines()
        del lines[5]  # drop one row -> 10-minute gap for that sensor
        readings.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="gap"):
            load_period(readings, adjacency, ds.period, nodes_path=nodes)

    def test_bad_header_rejected(self, tmp_path):
        ds = generate_synthetic(small_config(), 1)[0]
        readings, adjacency, nodes = write_dataset(ds, tmp_path)
        body = readings.read_text().splitlines()[1:]
        readings.write_text("time,station,flow,speed,occ\n" + "\n".join(body) + "\n")
        with pytest.raises(DataError, match="header"):
            load_period(readings, adjacency, ds.period, nodes_path=nodes)

    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_period(tmp_path / "nope.csv", tmp_path / "adj.csv", 1)

    # "{}" stands for the row's own timestamp; 1500 is outside datetime64[ns],
    # whose parser wraps it to a time with a fraction of a second; a tenth
    # fraction digit is past the ns that the parser keeps
    @pytest.mark.parametrize("stamp", ["not-a-time", "{}+00:00", "{}Z", "{}.5", "NaT", "",
                                       "1500-01-01T00:20:00", "{}.0000000005", "{}.0000000000"])
    def test_bad_timestamp_names_line(self, tmp_path, stamp):
        def mutate(line):
            old, rest = line.split(",", 1)
            return f"{stamp.format(old)},{rest}"

        self._broken_row_case(tmp_path, mutate, match="bad timestamp")

    def test_fraction_like_sensor_id_loads(self, tmp_path):
        """A sensor id that reads like a long fraction is no timestamp fault."""
        series = {v: make_series(v, np.arange(20.0) + i) for i, v in enumerate(("a", "x:12.0123456789"))}
        ds = make_dataset(1, list(series), [], series)
        readings, adjacency, nodes = write_dataset(ds, tmp_path)
        loaded = load_period(readings, adjacency, 1, nodes_path=nodes)
        assert loaded.nodes == ds.nodes
        np.testing.assert_array_equal(loaded.values, ds.values)

    def test_duplicate_reading_names_line(self, tmp_path):
        ds = generate_synthetic(small_config(), 1)[0]
        readings, adjacency, nodes = write_dataset(ds, tmp_path)
        lines = readings.read_text().splitlines()
        lines[5] = lines[4]  # line 6 repeats line 5's time
        readings.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="second reading") as err:
            load_period(readings, adjacency, ds.period, nodes_path=nodes)
        assert ":6:" in str(err.value)

    def test_shifted_sensor_rejected(self, tmp_path):
        ds = generate_synthetic(small_config(), 1)[0]
        readings, adjacency, nodes = write_dataset(ds, tmp_path)
        lines = readings.read_text().splitlines()
        for k, line in enumerate(lines):
            stamp, sid, rest = line.split(",", 2)
            if sid == "s0001":  # 5 h later than the other sensors
                lines[k] = f"{np.datetime64(stamp) + np.timedelta64(5, 'h')},{sid},{rest}"
        readings.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"gap, no reading at .* shared 300s axis") as err:
            load_period(readings, adjacency, ds.period, nodes_path=nodes)
        # the earliest hole: s0001 has nothing at 00:00; its first reading is on line 290
        assert "readings_1.csv:290: sensor 's0001'" in str(err.value)

    def test_graph_node_without_readings_named(self, tmp_path):
        ds = generate_synthetic(small_config(), 1)[0]
        readings, adjacency, nodes = write_dataset(ds, tmp_path)
        lines = readings.read_text().splitlines()
        readings.write_text("\n".join(l for l in lines if ",s0001," not in l) + "\n")
        with pytest.raises(DataError, match="node 's0001' of the period-1 snapshot has no readings") as err:
            load_period(readings, adjacency, ds.period, nodes_path=nodes)
        line = next(k for k, l in enumerate(adjacency.read_text().splitlines(), 1) if "s0001" in l)
        assert f"adjacency_1.csv:{line}:" in str(err.value)

    def test_isolated_node_without_readings_named(self, tmp_path):
        ds = generate_synthetic(small_config(), 1)[0]
        readings, adjacency, nodes = write_dataset(ds, tmp_path)
        nodes.write_text(nodes.read_text() + "s9999\n")
        with pytest.raises(DataError, match="'s9999'.*no readings") as err:
            load_period(readings, adjacency, ds.period, nodes_path=nodes)
        assert "nodes_1.csv:5:" in str(err.value)

    def test_time_major_rows_load_the_same(self, tmp_path):
        ds = generate_synthetic(small_config(periods=2, growth_per_period=2), 7)[1]
        readings, adjacency, nodes = write_dataset(ds, tmp_path)
        blocked = load_period(readings, adjacency, ds.period, nodes_path=nodes)
        header, *rows = readings.read_text().splitlines()
        rows.sort(key=lambda line: line.split(",")[:2])  # by time, then sensor
        readings.write_text("\n".join([header, *rows]) + "\n")
        interleaved = load_period(readings, adjacency, ds.period, nodes_path=nodes)
        assert interleaved.nodes == blocked.nodes
        assert np.array_equal(interleaved.times, blocked.times)
        assert interleaved.values.tobytes() == blocked.values.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3), length=st.integers(5, 12))
    def test_round_trip_arbitrary_values(self, data, n, length):
        finite = dict(allow_nan=False, allow_infinity=False)
        flow, speed = (data.draw(arrays(np.float64, (n, length), elements=st.floats(min_value=-0.0, **finite)))
                       for _ in range(2))
        occ = data.draw(arrays(np.float64, (n, length), elements=st.floats(-0.0, 1.0)))
        ids = [f"n{i}" for i in range(n)]
        ds = PeriodDataset(
            period=3, snapshot=GraphSnapshot.build(3, ids, []), nodes=ids,
            times=np.datetime64("2003-01-01T00:00:00") + 300 * np.arange(length),
            values=np.stack([flow, speed, occ], axis=-1), splits=compute_splits(length),
        )
        with tempfile.TemporaryDirectory() as tmp:
            first, again = Path(tmp, "a"), Path(tmp, "b")
            first.mkdir()
            again.mkdir()
            files = write_dataset(ds, first)
            loaded = load_period(files[0], files[1], 3, nodes_path=files[2])
            assert loaded.nodes == ds.nodes
            assert np.array_equal(loaded.times, ds.times)
            assert loaded.values.tobytes() == ds.values.tobytes()
            for a, b in zip(write_dataset(loaded, again), files):
                assert a.read_bytes() == b.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), length=st.integers(5, 8))
    def test_round_trip_any_buildable_period(self, data, length):
        """Every period that can be built loads back from what write_period
        writes with the same nodes, times and values, bit for bit."""
        ids = data.draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4, unique=True))
        pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        finite = dict(allow_nan=False, allow_infinity=False)
        flow, speed = (data.draw(arrays(np.float64, (len(ids), length),
                                        elements=st.floats(min_value=0.0, **finite))) for _ in range(2))
        occ = data.draw(arrays(np.float64, (len(ids), length), elements=st.floats(0.0, 1.0)))
        try:
            snapshot = GraphSnapshot.build(3, ids, edges)
        except NodeIdError:
            assume(False)
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ds = PeriodDataset(
            period=3, snapshot=snapshot, nodes=tuple(ids[i] for i in order),
            times=np.datetime64("2003-01-01T00:00:00") + 300 * np.arange(length),
            values=np.stack([flow, speed, occ], axis=-1)[order], splits=compute_splits(length),
        )
        with tempfile.TemporaryDirectory() as tmp:
            loaded = load_period(*write_dataset(ds, Path(tmp))[:2], 3, nodes_path=Path(tmp, "nodes_3.csv"))
        assert loaded.nodes == ds.nodes
        assert np.array_equal(loaded.times, ds.times)
        assert loaded.values.tobytes() == ds.values.tobytes()
        assert loaded.snapshot == ds.snapshot

    @pytest.mark.parametrize("bad", ["", " s 1 ", "s1 ", "\ts1", "s\n1", "s1\r", "\n", " "])
    def test_unreadable_node_id_rejected(self, bad):
        """An id that the period files cannot carry back (empty, padded with
        whitespace or holding a line break) is refused where a snapshot is
        built, before write_period could write it."""
        with pytest.raises(NodeIdError, match="node id"):
            GraphSnapshot.build(3, ["s0", bad], [])
        with pytest.raises(NodeIdError, match="node id"):
            GraphSnapshot(period=3, nodes=frozenset(["s0", bad]), edges=frozenset())

    def test_line_break_id_in_graph_file_names_line(self, tmp_path):
        adjacency = tmp_path / "adjacency.csv"
        adjacency.write_text('from,to\r\ns0,s1\r\n"s\n2",s0\r\n')
        # a record is named by the line it starts on, not the one it ends on
        with pytest.raises(DataError, match=r"adjacency.csv:3: node id 's\\n2'"):
            load_adjacency(adjacency, 1)
        nodes = tmp_path / "nodes.csv"
        nodes.write_text('node_id\r\n"s\r3"\r\n')
        adjacency.write_text("from,to\r\ns0,s1\r\n")
        with pytest.raises(DataError, match="nodes.csv:2: node id"):
            load_adjacency(adjacency, 1, nodes_path=nodes)

    def test_line_break_id_in_readings_names_line(self, tmp_path):
        adjacency, readings = tmp_path / "adjacency.csv", tmp_path / "readings.csv"
        adjacency.write_text("from,to\r\ns0,s1\r\n")
        rows = ["2001-01-01T00:00:00,s0,1.0,2.0,0.1", '2001-01-01T00:00:00,"s\n1",1.0,2.0,0.1',
                "2001-01-01T00:00:00,s1,1.0,2.0,0.1"]
        readings.write_text("timestamp,sensor_id,flow,speed,occupancy\r\n" + "\r\n".join(rows) + "\r\n")
        with pytest.raises(DataError, match=r"readings.csv:3: unknown sensor 's\\n1'"):
            load_period(readings, adjacency, 1)
        # a fault after the two-line record is named at its own line
        rows[2] = rows[2].replace("00:00:00", "00:00:00.5")
        readings.write_text("timestamp,sensor_id,flow,speed,occupancy\r\n" + "\r\n".join(rows) + "\r\n")
        with pytest.raises(DataError, match=r"readings.csv:5: bad timestamp"):
            load_period(readings, adjacency, 1)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), length=st.integers(5, 8))
    def test_readings_bytes_match_per_row_writer(self, data, length):
        ids = sorted(data.draw(st.lists(
            st.one_of(st.sampled_from(["a,b", 'say "hi"', "100%", "%s", "%%r", "s 1"]),
                      st.text(alphabet=',"% sr1', min_size=1, max_size=5).filter(lambda v: v == v.strip())),
            min_size=1, max_size=4, unique=True)))
        edge = [-0.0, 0.0, 5e-324, 1e-05, 0.0001]
        finite = dict(allow_nan=False, allow_infinity=False)
        flow, speed = (data.draw(arrays(np.float64, (len(ids), length), elements=st.one_of(
            st.sampled_from(edge + [1e16]), st.floats(min_value=0.0, **finite)))) for _ in range(2))
        occ = data.draw(arrays(np.float64, (len(ids), length), elements=st.one_of(
            st.sampled_from(edge + [1.0]), st.floats(0.0, 1.0))))
        ds = PeriodDataset(
            period=3, snapshot=GraphSnapshot.build(3, ids, []), nodes=ids,
            times=np.datetime64("2003-01-01T00:00:00") + 300 * np.arange(length),
            values=np.stack([flow, speed, occ], axis=-1), splits=compute_splits(length),
        )
        with tempfile.TemporaryDirectory() as tmp:
            readings, reference = Path(tmp, "readings.csv"), Path(tmp, "reference.csv")
            write_period(ds, readings, Path(tmp, "adjacency.csv"))
            write_readings_reference(ds, reference)
            assert readings.read_bytes() == reference.read_bytes()


def readings_text(rows, newline="\r\n", final=True):
    return newline.join(["timestamp,sensor_id,flow,speed,occupancy", *rows]) + (newline if final else "")


def load_fault(*args, **kwargs):
    """The DataError text load_period raises, or None if it loads."""
    try:
        load_period(*args, **kwargs)
    except DataError as e:
        return str(e)
    return None


class TestLoadPeriodBlocks:
    """load_period reads the file in blocks of READ_BLOCK characters; no block
    size may change what it returns or the fault it names."""

    TINY = [1, 7, 64, 97]

    def test_line_break_record_across_every_boundary(self, tmp_path, monkeypatch):
        adjacency, readings = tmp_path / "adjacency.csv", tmp_path / "readings.csv"
        adjacency.write_text("from,to\r\ns0,s1\r\n")
        rows = ["2001-01-01T00:00:00,s0,1.0,2.0,0.1", '2001-01-01T00:00:00,"s\n1",1.0,2.0,0.1',
                "2001-01-01T00:00:00,s1,1.0,2.0,0.1"]
        text = readings_text(rows)
        stamped = readings_text(rows[:2] + [rows[2].replace("00:00:00", "00:00:00.5")])
        for block in [*self.TINY, *range(30, 80)]:  # a first read of 35-57 characters ends inside the quoted cell
            monkeypatch.setattr(ingest, "READ_BLOCK", block)
            readings.write_text(text)
            assert load_fault(readings, adjacency, 1).endswith("readings.csv:3: unknown sensor 's\\n1' "
                                                               "(not in adjacency graph)")
            readings.write_text(stamped)
            assert "readings.csv:5: bad timestamp" in load_fault(readings, adjacency, 1)

    def test_quotes_inside_cells_at_every_boundary(self, tmp_path, monkeypatch):
        # np.loadtxt opens a quoted cell only at a cell's start, so the quote of s"0 is part of the
        # id, and a doubled quote stays inside its quoted cell; taken for opening or closing
        # quotes, either would end a block inside the quoted two-line record
        adjacency, readings = tmp_path / "adjacency.csv", tmp_path / "readings.csv"
        adjacency.write_text('from,to\r\n"s""0",s1\r\n')
        readings.write_text(readings_text(['2001-01-01T00:00:00,s"0,1.0,2.0,0.1',
                                           '2001-01-01T00:00:00,"s""\n1",1.0,2.0,0.1',
                                           "2001-01-01T00:00:00,s1,1.0,2.0,0.1"]))
        for block in [*self.TINY, *range(30, 130)]:
            monkeypatch.setattr(ingest, "READ_BLOCK", block)
            assert load_fault(readings, adjacency, 1).endswith("""readings.csv:3: unknown sensor 's"\\n1' """
                                                               "(not in adjacency graph)")

    @pytest.mark.parametrize("block", TINY)
    @pytest.mark.parametrize("newline", ["\r\n", "\n"])
    @pytest.mark.parametrize("final", [True, False])
    def test_same_tensor_at_any_block_size(self, tmp_path, monkeypatch, block, newline, final):
        ds = generate_synthetic(small_config(), 1)[0]
        readings, adjacency, nodes = write_dataset(ds, tmp_path)
        header, *rows = readings.read_text().splitlines()
        readings.write_bytes(readings_text(rows, newline, final).encode())
        monkeypatch.setattr(ingest, "READ_BLOCK", block)
        loaded = load_period(readings, adjacency, ds.period, nodes_path=nodes)
        assert loaded.nodes == ds.nodes
        assert np.array_equal(loaded.times, ds.times)
        assert loaded.values.tobytes() == ds.values.tobytes()

    @pytest.mark.parametrize("block", TINY)
    @pytest.mark.parametrize("mutate,match", [
        (lambda cells: cells[:2] + ["not-a-number"] + cells[3:], "readings_1.csv:{line}: bad numeric value"),
        (lambda cells: ["2001-01-01T00:00:00.0000000005"] + cells[1:], "readings_1.csv:{line}: bad timestamp"),
        (lambda cells: cells[:1] + ["rogue"] + cells[2:], "readings_1.csv:{line}: unknown sensor 'rogue'"),
        (lambda cells: cells[:4] + ["1.5"], "readings_1.csv:{line}: occupancy 1.5 outside"),
        # np.loadtxt refuses a trailing space, and the re-scan checks the cell as it sees it
        (lambda cells: [cells[0] + " "] + cells[1:], "readings_1.csv:{line}: bad timestamp '{stamp} '"),
        # a digit that float() takes and np.loadtxt does not
        pytest.param(lambda cells: cells[:2] + ["\u0661"] + cells[3:], "readings_1.csv:{line}: bad numeric value",
                     id="non-ascii-digit"),
    ])
    def test_fault_in_last_block_same_at_any_block_size(self, tmp_path, monkeypatch, block, mutate, match):
        ds = generate_synthetic(small_config(), 1)[0]
        readings, adjacency, nodes = write_dataset(ds, tmp_path)
        lines = readings.read_text().splitlines()
        lines[-2] = ",".join(mutate(lines[-2].split(",")))
        readings.write_text("\n".join(lines) + "\n")
        default = load_fault(readings, adjacency, ds.period, nodes_path=nodes)
        stamp = lines[-2].split(",")[0].strip()
        assert match.format(line=len(lines) - 1, stamp=stamp) in default
        monkeypatch.setattr(ingest, "READ_BLOCK", block)
        assert load_fault(readings, adjacency, ds.period, nodes_path=nodes) == default

    @pytest.mark.parametrize("block", TINY)
    def test_row_the_rescan_passes_is_reparsed_whole(self, tmp_path, monkeypatch, block):
        """A row np.loadtxt refuses and the re-scan passes still fails as a
        DataError, in numpy's words with its row counted over the whole file,
        at any block size."""
        ds = generate_synthetic(small_config(), 1)[0]
        readings, adjacency, nodes = write_dataset(ds, tmp_path)
        lines = readings.read_text().splitlines()
        cells = lines[-2].split(",")
        lines[-2] = ",".join(cells[:2] + ["\u0661"] + cells[3:])
        readings.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(ingest, "_row_problem", lambda cells: None)
        monkeypatch.setattr(ingest, "READ_BLOCK", block)
        assert load_fault(readings, adjacency, ds.period, nodes_path=nodes) == (
            f"{readings}: unreadable readings: could not convert string '\u0661' to float64 "
            f"at row {len(lines) - 3}, column 3.")

    @pytest.mark.parametrize("block", TINY)
    @pytest.mark.parametrize("mutate,match", [
        (lambda cells: ["2001-01-01T00:00:00.5"] + cells[1:], "readings_1.csv:2: bad timestamp"),
        (lambda cells: cells[:1] + ["rogue"] + cells[2:], "readings_1.csv:2: unknown sensor 'rogue'"),
    ])
    def test_fault_in_first_block_kept_past_clean_blocks(self, tmp_path, monkeypatch, block, mutate, match):
        ds = generate_synthetic(small_config(), 1)[0]
        readings, adjacency, nodes = write_dataset(ds, tmp_path)
        lines = readings.read_text().splitlines()
        lines[1] = ",".join(mutate(lines[1].split(",")))
        readings.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(ingest, "READ_BLOCK", block)
        assert match in load_fault(readings, adjacency, ds.period, nodes_path=nodes)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), length=st.integers(5, 7), block=st.integers(1, 120))
    def test_any_buildable_period_at_any_block_size(self, data, length, block):
        ids = data.draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4, unique=True))
        try:
            snapshot = GraphSnapshot.build(3, ids, [])
        except NodeIdError:
            assume(False)
        ids = sorted(ids)
        values = data.draw(arrays(np.float64, (len(ids), length, 3), elements=st.floats(0.0, 1.0)))
        ds = PeriodDataset(period=3, snapshot=snapshot, nodes=ids,
                           times=np.datetime64("2003-01-01T00:00:00") + 300 * np.arange(length),
                           values=values, splits=compute_splits(length))
        with tempfile.TemporaryDirectory() as tmp:
            files = write_dataset(ds, Path(tmp))
            previous, ingest.READ_BLOCK = ingest.READ_BLOCK, block
            try:
                loaded = load_period(files[0], files[1], 3, nodes_path=files[2])
            finally:
                ingest.READ_BLOCK = previous
        assert loaded.nodes == ds.nodes
        assert loaded.values.tobytes() == ds.values.tobytes()


class TestSensorIds:
    """Ids that a fixed-width or prefix match would confuse load back as
    themselves, and a readings id outside the graph is named in full."""

    def _case(self, tmp_path, graph_ids, reading_ids):
        """Readings of `reading_ids` at 5 times each, sensor-blocked, under
        a graph of `graph_ids`."""
        ds = make_dataset(1, graph_ids, [], {v: make_series(v, np.arange(5.0) + i)
                                             for i, v in enumerate(graph_ids)})
        readings, adjacency, nodes = write_dataset(ds, tmp_path)
        if reading_ids != graph_ids:
            stand_in = make_dataset(1, reading_ids, [], {v: make_series(v, np.arange(5.0) + i)
                                                         for i, v in enumerate(reading_ids)})
            write_period(stand_in, readings, tmp_path / "unused_adjacency.csv")
        return ds, (readings, adjacency, 1), {"nodes_path": nodes}

    @pytest.mark.parametrize("block", [None, 7, 64])
    @pytest.mark.parametrize("ids", [["s1", "s10"], ["s", "s\x00"], ["s\x00", "t"], ["é", "ß1", "s"],
                                     ["s1", "s1\x00\x00", "s10"]])
    def test_round_trip(self, tmp_path, monkeypatch, ids, block):
        if block:
            monkeypatch.setattr(ingest, "READ_BLOCK", block)
        ds, args, kwargs = self._case(tmp_path, ids, ids)
        loaded = load_period(*args, **kwargs)
        assert loaded.nodes == ds.nodes
        assert loaded.values.tobytes() == ds.values.tobytes()

    @pytest.mark.parametrize("block", [None, 7, 64])
    @pytest.mark.parametrize("graph,readings,unknown", [
        (["s1", "s2"], ["s10", "s2"], "s10"),  # a known id is a prefix of it
        (["s10", "s2"], ["s1", "s2"], "s1"),  # it is a prefix of a known id
        (["s1", "s2"], ["s1", "s2000000000000000"], "s2000000000000000"),  # longer than every id
        (["s", "t"], ["s\x00", "t"], "s\x00"),  # a trailing NUL
        (["s", "t"], ["s", "tü"], "tü"),  # not ASCII
    ])
    def test_unknown_id_named_in_full(self, tmp_path, monkeypatch, graph, readings, unknown, block):
        if block:
            monkeypatch.setattr(ingest, "READ_BLOCK", block)
        _, args, kwargs = self._case(tmp_path, graph, readings)
        line = 2 + 5 * sorted(readings).index(unknown)  # the first row of its sensor block
        with pytest.raises(DataError) as err:
            load_period(*args, **kwargs)
        assert str(err.value).endswith(f"readings_1.csv:{line}: unknown sensor {unknown!r} (not in adjacency graph)")


def test_load_period_memory_is_bounded_by_its_tensor(tmp_path):
    """Set-up memory: loading a period holds less than 4x the tensor it
    returns (a whole-file parse held 7x, in rows of Python objects)."""
    ds = generate_synthetic(small_config(initial_nodes=60, steps_per_period=2000), 3)[0]
    assert ds.values.nbytes > 2e6
    files = write_dataset(ds, tmp_path)
    loaded, peak = traced_peak(lambda: load_period(files[0], files[1], ds.period, nodes_path=files[2]))
    assert loaded.values.tobytes() == ds.values.tobytes()
    assert peak <= 4 * loaded.values.nbytes, peak / loaded.values.nbytes


class TestGenerator:
    def test_deterministic_for_fixed_seed(self):
        cfg = small_config(periods=2, growth_per_period=1, noise_sigma=3.0, phase_jitter_steps=10.0)
        a = generate_synthetic(cfg, 99)
        b = generate_synthetic(cfg, 99)
        for da, db in zip(a, b):
            assert da.snapshot.nodes == db.snapshot.nodes
            assert da.snapshot.edges == db.snapshot.edges
            for sid in da.series:
                np.testing.assert_array_equal(da.series[sid].flow, db.series[sid].flow)
                np.testing.assert_array_equal(da.series[sid].speed, db.series[sid].speed)
                np.testing.assert_array_equal(da.series[sid].occupancy, db.series[sid].occupancy)

    def test_zero_noise_flow_equals_configured_profile(self):
        cfg = small_config(initial_nodes=5, noise_sigma=0.0)
        ds = generate_synthetic(cfg, 3)[0]
        t = np.arange(DAY)
        expected = 20.0 + (120.0 - 20.0) * 0.5 * (1.0 - np.cos(2 * np.pi * t / DAY))
        for sid in ds.series:
            np.testing.assert_allclose(ds.series[sid].flow, expected, atol=1e-12)

    def test_speed_negative_occupancy_positive_correlation(self):
        ds = generate_synthetic(small_config(noise_sigma=1.0, steps_per_period=DAY * 2), 5)[0]
        for s in ds.series.values():
            assert np.corrcoef(s.flow, s.speed)[0, 1] < -0.9
            assert np.corrcoef(s.flow, s.occupancy)[0, 1] > 0.9

    def test_drift_shifts_period_mean_by_magnitude(self):
        magnitude = 30.0
        sigma = 3.0
        steps = 1000
        cfg = small_config(
            periods=2, initial_nodes=6, steps_per_period=steps, noise_sigma=sigma,
            drift=(DriftSpec("s0002", 2, magnitude),),
        )
        ds1, ds2 = generate_synthetic(cfg, 21)
        tol = 6 * sigma * math.sqrt(2.0 / steps)
        for sid in ds1.series:
            diff = ds2.series[sid].flow.mean() - ds1.series[sid].flow.mean()
            if sid == "s0002":
                assert abs(diff - magnitude) < tol
            else:
                assert abs(diff) < tol

    def test_snapshot_growth(self):
        cfg = small_config(periods=3, initial_nodes=4, growth_per_period=2)
        dss = generate_synthetic(cfg, 1)
        assert [d.snapshot.node_count for d in dss] == [4, 6, 8]
        assert [d.period for d in dss] == [1, 2, 3]
        for prev, curr in zip(dss, dss[1:]):
            assert prev.snapshot.nodes < curr.snapshot.nodes
            assert prev.snapshot.edges < curr.snapshot.edges

    def test_drift_on_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="'ghost' absent from the period-2 graph"):
            small_config(periods=2, drift=(DriftSpec("ghost", 2, 10.0),))
        with pytest.raises(ValueError, match="'s0003' absent from the period-1 graph"):
            small_config(periods=2, growth_per_period=1, drift=(DriftSpec("s0003", 1, 10.0),))
        grown = small_config(periods=2, growth_per_period=1, drift=(DriftSpec("s0003", 2, 10.0),))
        assert generate_synthetic(grown, 1)[1].nodes[-1] == "s0003"

    def test_drift_period_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="period 9"):
            small_config(periods=2, drift=(DriftSpec("s0000", 9, 10.0),))

    def test_degenerate_configs_rejected(self):
        with pytest.raises(ValueError, match="periods"):
            GeneratorConfig(periods=0)
        with pytest.raises(ValueError):
            GeneratorConfig(steps_per_period=3)
        with pytest.raises(ValueError):
            GeneratorConfig(noise_sigma=-1)

    def test_channels_respect_ranges(self):
        ds = generate_synthetic(small_config(noise_sigma=8.0), 13)[0]
        for s in ds.series.values():
            assert np.all(s.flow >= 0)
            assert np.all(s.speed >= 0)
            assert np.all((s.occupancy >= 0) & (s.occupancy <= 1))


class TestHarmonicMix:
    def test_preserves_daily_mean(self):
        base = small_config(initial_nodes=4, noise_sigma=0.0, steps_per_period=DAY * 4)
        mixed = GeneratorConfig(
            **{**base.__dict__, "harmonic_mix": 0.6, "phase_jitter_steps": 50.0}
        )
        plain = GeneratorConfig(**{**base.__dict__, "phase_jitter_steps": 50.0})
        ds_mixed = generate_synthetic(mixed, 31)[0]
        ds_plain = generate_synthetic(plain, 31)[0]
        for sid in ds_mixed.series:
            # both harmonics average to half amplitude over whole days
            assert abs(ds_mixed.series[sid].flow.mean() - ds_plain.series[sid].flow.mean()) < 1e-9

    def test_changes_waveform_shape(self):
        base = small_config(initial_nodes=3, noise_sigma=0.0)
        mixed = GeneratorConfig(**{**base.__dict__, "harmonic_mix": 0.5})
        ds_mixed = generate_synthetic(mixed, 31)[0]
        ds_plain = generate_synthetic(base, 31)[0]
        sid = sorted(ds_mixed.series)[0]
        assert not np.allclose(ds_mixed.series[sid].flow, ds_plain.series[sid].flow)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="harmonic_mix"):
            GeneratorConfig(harmonic_mix=1.5)
