import math

import numpy as np
import pytest

from _helpers import make_series
from flowrl.errors import DataError
from flowrl.ingest import (
    DriftSpec,
    GeneratorConfig,
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
    with pytest.raises(ValueError, match="non-finite"):
        make_series("s0", **values)


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
            assert a.timestamps == b.timestamps
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
        cfg = small_config(periods=2, drift=(DriftSpec("ghost", 2, 10.0),))
        with pytest.raises(ValueError, match="ghost"):
            generate_synthetic(cfg, 1)

    def test_drift_period_out_of_range_rejected(self):
        cfg = small_config(periods=2, drift=(DriftSpec("s0000", 9, 10.0),))
        with pytest.raises(ValueError, match="period 9"):
            generate_synthetic(cfg, 1)

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
