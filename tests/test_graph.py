import itertools

import numpy as np
import pytest

from flowrl.graph import GraphSnapshot, node_diff


def test_yearly_growth_example():
    # 655 nodes / 1577 edges, then +60 nodes and +352 edges -> 715 / 1929
    names = [f"n{i:04d}" for i in range(655)]
    edges = list(itertools.islice(itertools.combinations(names, 2), 1577))
    g2011 = GraphSnapshot.build(2011, names, edges)
    assert (len(g2011.nodes), len(g2011.edges)) == (655, 1577)

    new_names = [f"m{i:04d}" for i in range(60)]
    new_edges = [(new_names[i % 60], names[i]) for i in range(352)]
    g2012 = GraphSnapshot.build(2012, names + new_names, edges + new_edges)
    assert (g2012.period, len(g2012.nodes), len(g2012.edges)) == (2012, 715, 1929)
    assert g2011.nodes < g2012.nodes and g2011.edges < g2012.edges


def test_build_canonicalizes_edge_order():
    g = GraphSnapshot.build(1, ["a", "b", "c"], [("b", "a"), ("a", "b"), ("c", "b")])
    assert g.edges == {("a", "b"), ("b", "c")}
    with pytest.raises(ValueError, match="canonical order"):
        GraphSnapshot(period=1, nodes=frozenset({"a", "b"}), edges=frozenset({("b", "a")}))


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        GraphSnapshot.build(1, ["a"], [("a", "a")])


def test_edge_endpoint_must_be_member():
    with pytest.raises(ValueError, match="outside"):
        GraphSnapshot(period=1, nodes=frozenset({"a"}), edges=frozenset({("a", "b")}))
    with pytest.raises(ValueError, match="'ghost'.*outside"):
        GraphSnapshot.build(1, ["a", "b", "c"], [("a", "b"), ("a", "ghost")])


def test_node_diff_identical_and_disjoint():
    g1 = GraphSnapshot.build(1, ["a", "b"], [])
    g2 = GraphSnapshot.build(2, ["a", "b"], [])
    assert node_diff(g1, g2) == (set(), {"a", "b"}, set())
    g3 = GraphSnapshot.build(2, ["c", "d"], [])
    new, surviving, removed = node_diff(g1, g3)
    assert (new, surviving, removed) == ({"c", "d"}, set(), {"a", "b"})


def test_node_diff_matches_set_algebra():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = {f"n{i}" for i in range(20) if rng.random() < 0.5}
        b = {f"n{i}" for i in range(20) if rng.random() < 0.5}
        g1 = GraphSnapshot.build(1, a, [])
        g2 = GraphSnapshot.build(2, b, [])
        new, surviving, removed = node_diff(g1, g2)
        assert new == b - a
        assert surviving == a & b
        assert removed == a - b
        # disjoint partitions covering both snapshots
        assert not (new & surviving) and not (surviving & removed) and not (new & removed)
        assert new | surviving == b
        assert surviving | removed == a

