"""Streaming network snapshots: grow, shrink, and diff a sensor graph.

The network is a sequence of immutable period-stamped snapshots; each
year-over-year change is a delta of node/edge additions and removals.
"""

from flowrl import GraphDelta, GraphSnapshot, apply_delta, neighbors, node_diff

g1 = GraphSnapshot.build(
    2011,
    nodes=["s01", "s02", "s03", "s04"],
    edges=[("s01", "s02"), ("s02", "s03"), ("s03", "s04")],
)
print(f"period {g1.period}: {g1.node_count} nodes, {g1.edge_count} edges")
print("  neighbors of s02:", sorted(neighbors(g1, "s02")))

# the city grows: two new sensors come online, one is decommissioned
delta = GraphDelta.build(
    added_nodes=["s05", "s06"],
    added_edges=[("s04", "s05"), ("s05", "s06"), ("s02", "s06")],
    removed_nodes=["s01"],
)
g2 = apply_delta(g1, delta)
print(f"period {g2.period}: {g2.node_count} nodes, {g2.edge_count} edges")

new, surviving, removed = node_diff(g1, g2)
print(f"  new={sorted(new)} surviving={sorted(surviving)} removed={sorted(removed)}")
