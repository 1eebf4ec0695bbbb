import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from _helpers import make_dataset, make_series
from flowrl.graph import neighbors
from flowrl.env import (
    Calibration,
    RewardWeights,
    StateAssembler,
    build_state,
    classify,
    compute_reward,
    compute_rewards,
    fit_calibration,
    fit_discretizer,
    representative_flow,
)


def percentile_oracle(sorted_values, q):
    """Linear-interpolation percentile on an already-sorted list."""
    pos = q / 100.0 * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    frac = pos - lo
    if lo + 1 >= len(sorted_values):
        return float(sorted_values[-1])
    return float(sorted_values[lo] + frac * (sorted_values[lo + 1] - sorted_values[lo]))


class TestDiscretizer:
    def test_uniform_flows_edges(self):
        flows = np.arange(100, dtype=float)
        d = fit_discretizer(flows)
        expected = [percentile_oracle(sorted(flows), q) for q in (20, 40, 60, 80)]
        assert np.allclose(d.edges, expected)
        assert np.allclose(d.edges, [19.8, 39.6, 59.4, 79.2])
        assert classify(d, 50.0) == 2

    def test_minimum_flow_is_class_zero(self):
        rng = np.random.default_rng(4)
        flows = rng.uniform(5, 200, 500)
        d = fit_discretizer(flows)
        assert classify(d, flows.min()) == 0

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_discretizer(np.full(50, 7.0))
        with pytest.raises(ValueError, match="distinct"):
            fit_discretizer([1.0, 2.0, 3.0, 4.0] * 10)
        with pytest.raises(ValueError, match="degenerate"):
            fit_discretizer([0.0] * 96 + [1.0, 2.0, 3.0, 4.0])

    def test_classify_boundaries(self):
        d = fit_discretizer(np.arange(100, dtype=float))
        assert classify(d, 0.0) == 0
        assert classify(d, 1e9) == 4
        assert classify(d, d.edges[0]) == 1  # bins are [edge_{k-1}, edge_k)

    def test_classify_matches_linear_scan(self):
        rng = np.random.default_rng(12)
        d = fit_discretizer(rng.uniform(0, 300, 1000))
        flows = rng.uniform(-5, 400, 500)
        for f in flows:
            expected = sum(1 for e in d.edges if f >= e)
            assert classify(d, f) == expected

    def test_classify_monotone(self):
        rng = np.random.default_rng(13)
        d = fit_discretizer(rng.uniform(0, 100, 200))
        flows = np.sort(rng.uniform(0, 150, 300))
        classes = classify(d, flows)
        assert np.all(np.diff(classes) >= 0)
        assert np.all((classes >= 0) & (classes <= 4))

    def test_representatives_live_in_their_bins(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            d = fit_discretizer(rng.uniform(0, 500, 400))
            for k in range(5):
                assert classify(d, d.representatives[k]) == k

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(5, 300), elements=st.floats(0.0, 1e6)))
    def test_fit_on_arbitrary_flows_is_consistent(self, flows):
        assume(np.unique(flows).size >= 5)
        try:
            d = fit_discretizer(flows)
        except ValueError as e:  # ties at a percentile, or an empty bin
            assert "degenerate binning" in str(e)
            return
        assert np.all(np.diff(d.edges) > 0)
        for k in range(5):
            assert classify(d, d.representatives[k]) == k

    def test_representative_flow_lookup(self):
        d = fit_discretizer(np.arange(100, dtype=float))
        np.testing.assert_array_equal(
            representative_flow(d, [0, 4]), d.representatives[[0, 4]]
        )


class TestReward:
    def test_exact_match_prediction_weight_only(self):
        w = RewardWeights(1.0, 0.0, 0.0)
        assert compute_reward(2, 2, 0.5, 0.5, w) == 1.0

    def test_maximal_gap(self):
        w = RewardWeights(1.0, 0.0, 0.0)
        assert compute_reward(0, 4, 0.5, 0.5, w) == 0.0

    def test_worked_example(self):
        w = RewardWeights(1.0, 0.1, 0.1)
        r = compute_reward(1, 2, 0.5, 0.05, w)
        assert abs(r - 0.9) < 1e-12

    def test_reward_bounds_and_peak(self):
        rng = np.random.default_rng(21)
        w = RewardWeights(1.0, 0.3, 0.2)
        for _ in range(300):
            pred = int(rng.integers(0, 5))
            actual = int(rng.integers(0, 5))
            r = compute_reward(pred, actual, float(rng.random()), float(rng.random()), w)
            assert 0.0 <= r <= w.total + 1e-12
        # the prediction term is maximal iff pred == actual
        base = compute_reward(3, 3, 0.0, 1.0, RewardWeights(1.0, 0.0, 0.0))
        for pred in range(5):
            r = compute_reward(pred, 3, 0.0, 1.0, RewardWeights(1.0, 0.0, 0.0))
            assert (r == base) == (pred == 3)

    def test_occupancy_reciprocal_clamped(self):
        w = RewardWeights(0.0, 0.0, 1.0)
        assert compute_reward(0, 0, 0.0, 0.0, w) == 1.0  # clamp at epsilon
        assert abs(compute_reward(0, 0, 0.0, 0.5, w) - 0.1) < 1e-12

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(31)
        w = RewardWeights(1.0, 0.1, 0.1)
        pred = rng.integers(0, 5, 50)
        actual = rng.integers(0, 5, 50)
        sp = rng.random(50)
        occ = rng.random(50)
        vec = compute_rewards(pred, actual, sp, occ, w)
        for i in range(50):
            assert vec[i] == compute_reward(int(pred[i]), int(actual[i]), float(sp[i]), float(occ[i]), w)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            RewardWeights(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            RewardWeights(0.0, 0.0, 0.0)

    def test_range_validation(self):
        w = RewardWeights()
        with pytest.raises(ValueError):
            compute_reward(0, 9, 0.5, 0.5, w)
        with pytest.raises(ValueError):
            compute_reward(0, 0, 1.5, 0.5, w)


def star_dataset(flows_by_node, length=12):
    """Hub 'h' connected to every other node."""
    nodes = list(flows_by_node)
    edges = [("h", n) for n in nodes if n != "h"]
    series = {n: make_series(n, f) for n, f in flows_by_node.items()}
    return make_dataset(1, nodes, edges, series)


CAL = Calibration(flow_max=100.0, speed_max=60.0)


class TestBuildState:
    def test_dimension_and_layout(self):
        ds = star_dataset({"h": np.arange(12), "a": np.arange(12) + 1})
        s = build_state(ds, "h", 4, window=4, calibration=CAL)
        assert s.shape == (6 * 4 + 1,)
        np.testing.assert_allclose(s[0:4], np.arange(0, 4) / 100.0)

    def test_isolated_node_zero_neighbor_block(self):
        ds = make_dataset(
            1, ["a", "b"], [], {"a": make_series("a", np.arange(12)), "b": make_series("b", np.arange(12))}
        )
        s = build_state(ds, "a", 4, window=4, calibration=CAL)
        np.testing.assert_array_equal(s[12:24], np.zeros(12))
        assert s[-1] == 0.0

    def test_single_neighbor_block_equals_neighbor_window(self):
        ds = star_dataset({"h": np.arange(12), "a": 2.0 * np.arange(12)})
        sa = build_state(ds, "a", 6, window=3, calibration=CAL)
        sh_own = build_state(ds, "h", 6, window=3, calibration=CAL)[0:9]
        np.testing.assert_array_equal(sa[9:18], sh_own)

    def test_three_neighbor_hand_average(self):
        flows = {
            "h": np.arange(12),
            "a": np.arange(12) * 2.0,
            "b": np.arange(12) + 10.0,
            "c": np.full(12, 30.0),
        }
        speeds = {n: np.full(12, 30.0 + i * 6) for i, n in enumerate(flows)}
        occs = {n: np.full(12, 0.05 * (i + 1)) for i, n in enumerate(flows)}
        series = {n: make_series(n, flows[n], speeds[n], occs[n]) for n in flows}
        ds = make_dataset(1, list(flows), [("h", "a"), ("h", "b"), ("h", "c")], series)
        W, t = 4, 7
        s = build_state(ds, "h", t, window=W, calibration=CAL)
        win = slice(t - W, t)
        expected_flow = (flows["a"][win] / 100 + flows["b"][win] / 100 + flows["c"][win] / 100) / 3
        expected_speed = (speeds["a"][win] / 60 + speeds["b"][win] / 60 + speeds["c"][win] / 60) / 3
        expected_occ = (occs["a"][win] + occs["b"][win] + occs["c"][win]) / 3
        np.testing.assert_allclose(s[3 * W : 4 * W], expected_flow, atol=1e-15)
        np.testing.assert_allclose(s[4 * W : 5 * W], expected_speed, atol=1e-15)
        np.testing.assert_allclose(s[5 * W : 6 * W], expected_occ, atol=1e-15)
        assert s[-1] == 1.0  # hub has the max degree

    def test_neighbor_order_irrelevant(self):
        flows = {"h": np.arange(12), "a": np.arange(12) * 1.5, "b": np.arange(12) + 3.0}
        series = {n: make_series(n, f) for n, f in flows.items()}
        ds1 = make_dataset(1, ["h", "a", "b"], [("h", "a"), ("h", "b")], series)
        ds2 = make_dataset(1, ["b", "a", "h"], [("b", "h"), ("a", "h")], dict(reversed(series.items())))
        s1 = build_state(ds1, "h", 5, window=3, calibration=CAL)
        s2 = build_state(ds2, "h", 5, window=3, calibration=CAL)
        np.testing.assert_array_equal(s1, s2)

    def test_dimension_constant_across_nodes_and_times(self):
        ds = star_dataset({"h": np.arange(20) % 7, "a": np.arange(20) % 5, "b": np.arange(20) % 3}, length=20)
        dims = {
            build_state(ds, v, t, window=5, calibration=CAL).shape
            for v in ("h", "a", "b")
            for t in (5, 9, 14)
        }
        assert dims == {(31,)}

    def test_insufficient_history_rejected(self):
        ds = star_dataset({"h": np.arange(12), "a": np.arange(12)})
        with pytest.raises(ValueError, match="history"):
            build_state(ds, "h", 3, window=4, calibration=CAL)

    def test_missing_neighbor_series_rejected(self):
        series = {"h": make_series("h", np.arange(12))}
        with pytest.raises(ValueError, match="'a'"):
            make_dataset(1, ["h", "a"], [("h", "a")], series)

    def test_normalized_entries_bounded(self):
        rng = np.random.default_rng(77)
        flows = {f"n{i}": rng.uniform(0, 500, 16) for i in range(4)}
        series = {
            n: make_series(n, f, rng.uniform(0, 120, 16), rng.uniform(0, 1, 16))
            for n, f in flows.items()
        }
        ds = make_dataset(1, list(flows), [("n0", "n1"), ("n1", "n2")], series)
        asm = StateAssembler(ds, window=4, calibration=Calibration(100.0, 60.0))
        for v in flows:
            s = asm.state(v, 8)
            assert np.all(np.isfinite(s))
            assert np.all(s >= 0) and np.all(s <= 1)


def test_neighbor_means_equal_sorted_loop_reference():
    """The per-node loop the assembler replaced, kept as the reference: a
    neighbor mean adds the neighbors' normalized channels in sorted-id
    order. Flows over many magnitudes make another order round differently."""
    rng = np.random.default_rng(21)
    nodes = [f"n{i:02d}" for i in range(30)]
    edges = {tuple(map(str, rng.choice(nodes, 2, replace=False))) for _ in range(90)}
    series = {n: make_series(n, rng.uniform(0, 100, 40) * 10.0 ** rng.integers(-12, 1, 40),
                             rng.uniform(0, 120, 40), rng.uniform(0, 1, 40)) for n in nodes}
    ds = make_dataset(1, nodes, edges, series)
    asm = StateAssembler(ds, window=4, calibration=CAL)
    ts = np.arange(4, 41)
    for v in nodes:
        acc = np.zeros((40, 3))
        nbrs = sorted(neighbors(ds.snapshot, v))
        for u in nbrs:
            acc += asm.node_channels(u)
        expected = acc / len(nbrs) if nbrs else acc
        windows = np.lib.stride_tricks.sliding_window_view(expected, 4, axis=0)[ts - 4]
        np.testing.assert_array_equal(asm.states(v, ts)[:, 12:24], windows.reshape(len(ts), 12))


def test_fit_calibration_uses_training_split():
    flows = {"a": np.concatenate([np.full(6, 10.0), np.full(6, 999.0)])}
    series = {"a": make_series("a", flows["a"], np.concatenate([np.full(6, 30.0), np.full(6, 500.0)]))}
    ds = make_dataset(1, ["a"], [], series)
    cal = fit_calibration(ds)  # train split is the first 7 indices -> one 999 leaks in
    assert cal.flow_max <= 999.0
    assert cal.speed_max <= 500.0
    assert cal.flow_max > 0 and cal.speed_max > 0
