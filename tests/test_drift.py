import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from _helpers import make_dataset, make_series
from _oracles import drift_scores_reference
from flowrl.drift import _kl, _masses, detect
from flowrl.graph import GraphSnapshot
from flowrl.ingest import DriftSpec, GeneratorConfig, PeriodDataset, compute_splits, generate_synthetic


def masses(flows, edges, smoothing):
    """The smoothed masses `detect` bins one node's flows into."""
    return _masses(np.asarray(flows, dtype=float)[None], np.asarray(edges, dtype=float)[None], smoothing)[0]


class TestMasses:
    def test_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            values = rng.uniform(0, 100, int(rng.integers(5, 200)))
            edges = np.sort(rng.uniform(0, 100, 7))
            edges[0], edges[-1] = 0.0, 100.0
            if np.any(np.diff(edges) <= 0):
                continue
            lam = float(rng.uniform(0.1, 2))
            got = masses(values, edges, lam)
            counts = np.zeros(edges.size - 1)
            for v in values:  # brute-force binning, last bin closed above
                for k in range(edges.size - 1):
                    upper_ok = v < edges[k + 1] or (k == edges.size - 2 and v <= edges[-1])
                    if edges[k] <= v and upper_ok:
                        counts[k] += 1
                        break
            expected = (counts + lam) / (values.size + (edges.size - 1) * lam)
            np.testing.assert_allclose(got, expected, atol=1e-12)
            assert abs(got.sum() - 1) < 1e-9

    def test_single_bin_mass_approaches_one(self):
        got = masses(np.full(100, 5.0), np.array([0.0, 4.0, 6.0, 10.0]), smoothing=1e-9)
        assert got[1] > 0.999999

    def test_one_value_per_bin_with_unit_smoothing_is_uniform(self):
        got = masses(np.array([0.5, 1.5, 2.5, 3.5, 4.5]), np.arange(6, dtype=float), smoothing=1.0)
        np.testing.assert_allclose(got, 0.2)


class TestKL:
    def test_identical_histograms_zero(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(8))
        assert _kl(p, p) == 0.0

    def test_two_term_hand_value(self):
        assert abs(_kl(np.array([0.5, 0.5]), np.array([0.9, 0.1])) - 0.5108) < 1e-4

    def test_direct_sum_oracle_and_nonnegativity(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            bins = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(bins))
            q = rng.dirichlet(np.ones(bins))
            got = _kl(p, q)
            expected = sum(p[k] * math.log(p[k] / q[k]) for k in range(bins))
            assert abs(got - expected) < 1e-12
            assert got >= -1e-15

    def test_zero_mass_q_rejected(self):
        with pytest.raises(ValueError, match="zero-mass"):
            _kl(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


def two_periods(nodes, flows1, flows2, extra_nodes2=(), length=40):
    series1 = {n: make_series(n, flows1[n]) for n in nodes}
    ds1 = make_dataset(1, nodes, [(nodes[0], n) for n in nodes[1:]], series1)
    nodes2 = list(nodes) + list(extra_nodes2)
    series2 = {n: make_series(n, flows2[n]) for n in nodes2}
    ds2 = make_dataset(2, nodes2, [(nodes2[0], n) for n in nodes2[1:]], series2)
    return ds1, ds2


class TestDetect:
    def test_identical_periods_all_zero_kl(self):
        rng = np.random.default_rng(3)
        nodes = [f"n{i}" for i in range(6)]
        flows = {n: rng.uniform(0, 50, 40) for n in nodes}
        ds1, ds2 = two_periods(nodes, flows, flows)
        report = detect(ds1, ds2)
        assert all(v == 0.0 for v in report.scores.values())
        # ceil(0.1 * 6) = 1, ties resolve to the lowest node id
        assert report.top_kl_nodes == ("n0",)
        assert report.candidates == ("n0",)
        assert report.new_nodes == ()

    def test_new_nodes_always_candidates(self):
        rng = np.random.default_rng(4)
        nodes = [f"n{i}" for i in range(4)]
        flows1 = {n: rng.uniform(0, 50, 40) for n in nodes}
        flows2 = {n: flows1[n] for n in nodes}
        flows2["extra"] = rng.uniform(0, 50, 40)
        _, ds2 = two_periods(nodes, flows1, flows2, extra_nodes2=["extra"])
        ds1, _ = two_periods(nodes, flows1, flows1)
        report = detect(ds1, ds2)
        assert "extra" in report.candidates
        assert report.new_nodes == ("extra",)

    def test_single_survivor_is_candidate(self):
        rng = np.random.default_rng(5)
        flows = {"solo": rng.uniform(0, 50, 40)}
        ds1, ds2 = two_periods(["solo"], flows, flows)
        report = detect(ds1, ds2)
        assert report.candidates == ("solo",)  # ceil(0.1 * 1) = 1

    def test_candidate_count_identity(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            n = int(rng.integers(2, 15))
            nodes = [f"n{i:02d}" for i in range(n)]
            flows1 = {v: rng.uniform(0, 50, 40) for v in nodes}
            flows2 = {v: rng.uniform(0, 50, 40) for v in nodes}
            extra = [f"x{i}" for i in range(int(rng.integers(0, 4)))]
            for v in extra:
                flows2[v] = rng.uniform(0, 50, 40)
            ds1, ds2 = two_periods(nodes, flows1, flows2, extra_nodes2=extra)
            report = detect(ds1, ds2, fraction=0.10)
            assert len(report.candidates) == len(extra) + math.ceil(0.10 * n)

    def test_removed_nodes_excluded(self):
        rng = np.random.default_rng(7)
        nodes = ["keep0", "keep1", "gone"]
        flows1 = {v: rng.uniform(0, 50, 40) for v in nodes}
        series1 = {v: make_series(v, flows1[v]) for v in nodes}
        ds1 = make_dataset(1, nodes, [("keep0", "gone")], series1)
        series2 = {v: make_series(v, flows1[v]) for v in ("keep0", "keep1")}
        ds2 = make_dataset(2, ["keep0", "keep1"], [("keep0", "keep1")], series2)
        report = detect(ds1, ds2)
        assert "gone" not in report.candidates
        assert "gone" not in report.scores

    def test_relabeling_equivariance(self):
        rng = np.random.default_rng(8)
        nodes = [f"n{i}" for i in range(8)]
        flows1 = {v: rng.uniform(0, 50, 60) for v in nodes}
        flows2 = {v: f + rng.uniform(0, 3, 60) for v, f in flows1.items()}
        flows2["n3"] = flows1["n3"] + 40.0  # distinct drift so ranking has no ties
        ds1, ds2 = two_periods(nodes, flows1, flows2)
        report = detect(ds1, ds2)

        mapping = {v: f"z{9 - i}" for i, v in enumerate(nodes)}
        r_flows1 = {mapping[v]: flows1[v] for v in nodes}
        r_flows2 = {mapping[v]: flows2[v] for v in nodes}
        rds1, rds2 = two_periods([mapping[v] for v in nodes], r_flows1, r_flows2)
        r_report = detect(rds1, rds2)
        assert {mapping[v] for v in report.candidates} == set(r_report.candidates)

    def test_planted_shift_dominates_ranking(self):
        cfg = GeneratorConfig(
            periods=2, initial_nodes=10, growth_per_period=0, steps_per_period=400,
            noise_sigma=4.0, drift=(DriftSpec("s0004", 2, 45.0),), phase_jitter_steps=20.0,
        )
        ds1, ds2 = generate_synthetic(cfg, 11)
        report = detect(ds1, ds2)
        assert report.top_kl_nodes == ("s0004",)
        ranked = sorted(report.scores, key=lambda v: -report.scores[v])
        assert ranked[0] == "s0004"
        assert report.scores["s0004"] > 5 * report.scores[ranked[1]]

    def test_unsmoothed_empty_bin_rejected(self):
        flows = {"a": np.r_[np.zeros(20), np.full(20, 10.0)]}  # the middle bins stay empty
        ds1, ds2 = two_periods(["a"], flows, flows)
        with pytest.raises(ValueError, match="zero-mass"):
            detect(ds1, ds2, smoothing=0.0)
        assert detect(ds1, ds2, smoothing=0.5).scores == {"a": 0.0}

    def test_non_consecutive_rejected(self):
        rng = np.random.default_rng(9)
        flows = {"a": rng.uniform(0, 10, 40)}
        ds1 = make_dataset(1, ["a"], [], {"a": make_series("a", flows["a"])})
        ds3 = make_dataset(3, ["a"], [], {"a": make_series("a", flows["a"])})
        with pytest.raises(ValueError, match="consecutive"):
            detect(ds1, ds3)

    def test_json_schema(self):
        rng = np.random.default_rng(10)
        nodes = ["a", "b"]
        flows = {v: rng.uniform(0, 10, 40) for v in nodes}
        ds1, ds2 = two_periods(nodes, flows, flows)
        payload = detect(ds1, ds2).to_json_dict()
        assert set(payload) == {"period", "scores", "candidates"}
        assert payload["period"] == 2
        assert all(set(entry) == {"node", "kl"} for entry in payload["scores"])
        assert isinstance(payload["candidates"], list)


def drawn_period(data, period, nodes, length):
    """A period of `nodes` whose flows lie on a 0.25 grid, so that many land
    exactly on bin edges; some rows are constant."""
    values = np.full((len(nodes), length, 3), 0.1)
    values[..., 0] = data.draw(arrays(np.int64, (len(nodes), length), elements=st.integers(0, 12))) / 4
    constant = data.draw(arrays(np.bool_, len(nodes)))
    values[constant, :, 0] = values[constant, :1, 0]
    return PeriodDataset(period=period, snapshot=GraphSnapshot.build(period, nodes, []), nodes=nodes,
                         times=np.datetime64("2001-01-01T00:00:00") + 300 * np.arange(length),
                         values=values, splits=compute_splits(length))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), survivors=st.integers(1, 40), removed=st.integers(0, 3), added=st.integers(0, 3),
       lengths=st.tuples(st.integers(5, 30), st.integers(5, 30)), bins=st.integers(2, 30),
       smoothing=st.sampled_from([1.0, 0.5, 0.01]))
def test_tensor_scores_match_per_node_histograms(data, survivors, removed, added, lengths, bins, smoothing):
    # removed ("a…") and added ("b…") ids sort before the survivors, so a
    # survivor's row differs between the two periods
    kept = [f"n{i:02d}" for i in range(survivors)]
    prev = drawn_period(data, 1, [f"a{i}" for i in range(removed)] + kept, lengths[0])
    curr = drawn_period(data, 2, [f"b{i}" for i in range(added)] + kept, lengths[1])
    scores = detect(prev, curr, bins=bins, smoothing=smoothing).scores
    want = drift_scores_reference(prev, curr, bins, smoothing)
    assert list(scores) == list(want) == kept
    assert np.array(list(scores.values())).tobytes() == np.array(list(want.values())).tobytes()


def test_drift_config_validation():
    from flowrl.drift import DriftConfig

    with pytest.raises(ValueError):
        DriftConfig(fraction=1.5)
    with pytest.raises(ValueError):
        DriftConfig(bins=1)
    with pytest.raises(ValueError):
        DriftConfig(smoothing=-0.1)
