"""Streaming network snapshots: grow, shrink, and diff a sensor graph.

The network is a sequence of immutable period-stamped snapshots, one per
year; a year-over-year change is read off two snapshots with `node_diff`.
"""

from flowrl import GraphSnapshot, node_diff

g1 = GraphSnapshot.build(
    2011,
    nodes=["s01", "s02", "s03", "s04"],
    edges=[("s01", "s02"), ("s02", "s03"), ("s03", "s04")],
)
print(f"period {g1.period}: {len(g1.nodes)} nodes, {len(g1.edges)} edges")

# the city grows: two new sensors come online, one is decommissioned
g2 = GraphSnapshot.build(
    2012,
    nodes=["s02", "s03", "s04", "s05", "s06"],
    edges=[("s02", "s03"), ("s03", "s04"), ("s04", "s05"), ("s05", "s06"), ("s02", "s06")],
)
print(f"period {g2.period}: {len(g2.nodes)} nodes, {len(g2.edges)} edges")

new, surviving, removed = node_diff(g1, g2)
print(f"  new={sorted(new)} surviving={sorted(surviving)} removed={sorted(removed)}")
