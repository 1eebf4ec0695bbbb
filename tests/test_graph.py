import itertools

import numpy as np
import pytest

from flowrl.graph import (
    GraphDelta,
    GraphSnapshot,
    apply_delta,
    canonical_edge,
    neighbors,
    node_diff,
)


def random_snapshot(rng, n_nodes, edge_prob=0.2, period=1):
    names = [f"n{i:03d}" for i in range(n_nodes)]
    edges = {
        canonical_edge(a, b)
        for a, b in itertools.combinations(names, 2)
        if rng.random() < edge_prob
    }
    return GraphSnapshot.build(period, names, edges)


def test_yearly_growth_example():
    # 655 nodes / 1577 edges, then +60 nodes and +352 edges -> 715 / 1929
    names = [f"n{i:04d}" for i in range(655)]
    edges = list(itertools.islice(itertools.combinations(names, 2), 1577))
    g2011 = GraphSnapshot.build(2011, names, edges)
    assert (g2011.node_count, g2011.edge_count) == (655, 1577)

    new_names = [f"m{i:04d}" for i in range(60)]
    new_edges = [(new_names[i % 60], names[i]) for i in range(352)]
    delta = GraphDelta.build(added_nodes=new_names, added_edges=new_edges)
    g2012 = apply_delta(g2011, delta)
    assert (g2012.period, g2012.node_count, g2012.edge_count) == (2012, 715, 1929)


def test_empty_delta_bumps_period_only():
    g = GraphSnapshot.build(3, ["a", "b"], [("a", "b")])
    g2 = apply_delta(g, GraphDelta())
    assert g2.period == 4
    assert g2.nodes == g.nodes
    assert g2.edges == g.edges


def test_node_removal_matches_bruteforce_filter():
    rng = np.random.default_rng(101)
    for _ in range(20):
        g = random_snapshot(rng, 20)
        victim = sorted(g.nodes)[int(rng.integers(0, 20))]
        g2 = apply_delta(g, GraphDelta.build(removed_nodes=[victim]))
        expected = {e for e in g.edges if victim not in e}
        assert g2.edges == expected
        assert g2.nodes == g.nodes - {victim}


def test_apply_delta_counts_match_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_snapshot(rng, 15)
        nodes = sorted(g.nodes)
        removed = set(nodes[:2])
        added = {"x001", "x002"}
        added_edges = {canonical_edge("x001", "x002"), canonical_edge("x001", nodes[5])}
        removable = [e for e in g.edges if not (e[0] in removed or e[1] in removed)]
        removed_edges = set(removable[:1])
        d = GraphDelta.build(
            added_nodes=added, removed_nodes=removed,
            added_edges=added_edges, removed_edges=removed_edges,
        )
        g2 = apply_delta(g, d)
        expected_nodes = (set(nodes) - removed) | added
        expected_edges = {
            e for e in g.edges - removed_edges
            if e[0] not in removed and e[1] not in removed
        } | added_edges
        assert g2.nodes == expected_nodes
        assert g2.edges == expected_edges


def test_apply_delta_rejects_unknown_references():
    g = GraphSnapshot.build(1, ["a", "b", "c"], [("a", "b")])
    with pytest.raises(ValueError, match="ghost"):
        apply_delta(g, GraphDelta.build(removed_nodes=["ghost"]))
    with pytest.raises(ValueError, match="ghost"):
        apply_delta(g, GraphDelta.build(added_edges=[("a", "ghost")]))
    with pytest.raises(ValueError, match="'a'"):
        apply_delta(g, GraphDelta.build(added_nodes=["a"]))
    with pytest.raises(ValueError):
        apply_delta(g, GraphDelta.build(removed_edges=[("a", "c")]))


def test_delta_overlap_rejected():
    with pytest.raises(ValueError, match="added and removed"):
        GraphDelta.build(added_nodes=["a"], removed_nodes=["a"])


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        GraphSnapshot.build(1, ["a"], [("a", "a")])


def test_edge_endpoint_must_be_member():
    with pytest.raises(ValueError, match="outside"):
        GraphSnapshot(period=1, nodes=frozenset({"a"}), edges=frozenset({("a", "b")}))


def test_neighbors_path_graph():
    g = GraphSnapshot.build(1, ["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert neighbors(g, "b") == {"a", "c"}
    assert neighbors(g, "a") == {"b"}


def test_neighbors_isolated_node():
    g = GraphSnapshot.build(1, ["a", "b", "c"], [("a", "b")])
    assert neighbors(g, "c") == set()


def test_neighbors_unknown_node():
    g = GraphSnapshot.build(1, ["a"], [])
    with pytest.raises(ValueError, match="ghost"):
        neighbors(g, "ghost")


def test_neighbors_match_edge_scan_and_symmetry():
    rng = np.random.default_rng(23)
    g = random_snapshot(rng, 18)
    for v in sorted(g.nodes):
        scanned = set()
        for a, b in g.edges:
            if a == v:
                scanned.add(b)
            if b == v:
                scanned.add(a)
        got = neighbors(g, v)
        assert got == scanned
        assert v not in got
        for u in got:
            assert v in neighbors(g, u)


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

