"""Streaming sensor-network topology: period-stamped snapshots and deltas.

The long-term network is a sequence of yearly (or otherwise period-labelled)
snapshots; each transition is described by a delta of node/edge additions and
removals. Snapshots are immutable and safe to share across workers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError

Edge = tuple[str, str]


def canonical_edge(u: str, v: str) -> Edge:
    """Return the unordered pair (u, v) in canonical (sorted) order."""
    if u == v:
        raise ValueError(f"self-loop edge on node {u!r} is not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class GraphSnapshot:
    """One period of the streaming network: a node set plus undirected edges."""

    period: int
    nodes: frozenset[str]
    edges: frozenset[Edge]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop edge on node {u!r}")
            if u > v:
                raise ValueError(f"edge {(u, v)!r} is not in canonical order")
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"edge {(u, v)!r} references a node outside the snapshot")

    @staticmethod
    def build(period: int, nodes, edges) -> "GraphSnapshot":
        """Construct a snapshot, canonicalizing edge order."""
        return GraphSnapshot(
            period=period,
            nodes=frozenset(nodes),
            edges=frozenset(canonical_edge(u, v) for u, v in edges),
        )

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class GraphDelta:
    """Per-period change set applied on top of the previous snapshot."""

    added_nodes: frozenset[str] = field(default_factory=frozenset)
    removed_nodes: frozenset[str] = field(default_factory=frozenset)
    added_edges: frozenset[Edge] = field(default_factory=frozenset)
    removed_edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self):
        overlap = self.added_nodes & self.removed_nodes
        if overlap:
            raise ValueError(f"nodes both added and removed: {sorted(overlap)}")
        overlap_e = self.added_edges & self.removed_edges
        if overlap_e:
            raise ValueError(f"edges both added and removed: {sorted(overlap_e)}")

    @staticmethod
    def build(added_nodes=(), removed_nodes=(), added_edges=(), removed_edges=()) -> "GraphDelta":
        return GraphDelta(
            added_nodes=frozenset(added_nodes),
            removed_nodes=frozenset(removed_nodes),
            added_edges=frozenset(canonical_edge(u, v) for u, v in added_edges),
            removed_edges=frozenset(canonical_edge(u, v) for u, v in removed_edges),
        )



def apply_delta(g: GraphSnapshot, d: GraphDelta) -> GraphSnapshot:
    """Apply a change set to a snapshot, producing the next period's snapshot.

    Removing a node drops all its incident edges. Removals must reference
    existing members; added edges must reference nodes present after the
    node updates. Violations raise ValueError naming the offending id.
    """
    for n in d.removed_nodes:
        if n not in g.nodes:
            raise ValueError(f"delta removes unknown node {n!r}")
    for n in d.added_nodes:
        if n in g.nodes:
            raise ValueError(f"delta adds node {n!r} already present")
    for e in d.removed_edges:
        if e not in g.edges:
            raise ValueError(f"delta removes unknown edge {e!r}")

    nodes = (g.nodes - d.removed_nodes) | d.added_nodes

    for u, v in d.added_edges:
        if u not in nodes:
            raise ValueError(f"added edge references unknown node {u!r}")
        if v not in nodes:
            raise ValueError(f"added edge references unknown node {v!r}")

    kept = {
        e for e in g.edges - d.removed_edges
        if e[0] not in d.removed_nodes and e[1] not in d.removed_nodes
    }
    edges = kept | set(d.added_edges)
    return GraphSnapshot(period=g.period + 1, nodes=frozenset(nodes), edges=frozenset(edges))


def inverse_delta(g: GraphSnapshot, d: GraphDelta) -> GraphDelta:
    """The delta that undoes d when applied after it.

    Needs the pre-delta snapshot because removing a node implicitly drops
    its incident edges, which the inverse must restore explicitly.
    """
    implicit = {
        e for e in g.edges
        if (e[0] in d.removed_nodes or e[1] in d.removed_nodes) and e not in d.removed_edges
    }
    return GraphDelta(
        added_nodes=d.removed_nodes,
        removed_nodes=d.added_nodes,
        added_edges=d.removed_edges | frozenset(implicit),
        removed_edges=frozenset(e for e in d.added_edges
                                if e[0] not in d.added_nodes and e[1] not in d.added_nodes),
    )


def neighbors(g: GraphSnapshot, v: str) -> set[str]:
    """All nodes sharing an edge with v, excluding v itself."""
    if v not in g.nodes:
        raise ValueError(f"unknown node {v!r}")
    out = set()
    for a, b in g.edges:
        if a == v:
            out.add(b)
        elif b == v:
            out.add(a)
    return out


def node_diff(g_prev: GraphSnapshot, g_curr: GraphSnapshot):
    """Partition nodes into (new, surviving, removed) across two snapshots."""
    new = g_curr.nodes - g_prev.nodes
    surviving = g_curr.nodes & g_prev.nodes
    removed = g_prev.nodes - g_curr.nodes
    return new, surviving, removed


def degree_map(g: GraphSnapshot) -> dict[str, int]:
    """Node id -> degree, with isolated nodes present at degree 0."""
    deg = {n: 0 for n in g.nodes}
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def csv_rows(path, header: list[str]):
    """(line, stripped cells) of each non-empty line of a CSV file after its
    header; a header other than `header` is a DataError."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        got = next(reader, None)
        if got is None or [h.strip() for h in got] != header:
            raise DataError(f"expected header {','.join(header)!r}, got {got!r}", path=str(path), line=1)
        yield from ((reader.line_num, [c.strip() for c in cells]) for cells in reader if cells)


def load_adjacency(adjacency_path, period: int, nodes_path=None) -> GraphSnapshot:
    """Load one period's snapshot from CSV.

    The adjacency file has header ``from,to`` with one undirected edge per
    row; the node roster is the union of edge endpoints plus the optional
    ``nodes`` file (header ``node_id``) for isolated sensors.
    """
    adjacency_path = Path(adjacency_path)
    if not adjacency_path.exists():
        raise DataError("adjacency file not found", path=str(adjacency_path))
    nodes: set[str] = set()
    edges: set[Edge] = set()
    for line, cells in csv_rows(adjacency_path, ["from", "to"]):
        if not any(cells):
            continue
        if len(cells) != 2:
            raise DataError(f"expected 2 columns, got {len(cells)}", path=str(adjacency_path), line=line)
        u, v = cells
        if not u or not v:
            raise DataError("empty node id", path=str(adjacency_path), line=line)
        if u == v:
            raise DataError(f"self-loop edge on {u!r}", path=str(adjacency_path), line=line)
        nodes.update((u, v))
        edges.add(canonical_edge(u, v))
    if nodes_path is not None and Path(nodes_path).exists():
        for line, cells in csv_rows(nodes_path, ["node_id"]):
            if cells[0]:
                nodes.add(cells[0])
            elif any(cells):
                raise DataError("empty node id", path=str(nodes_path), line=line)
    return GraphSnapshot(period=period, nodes=frozenset(nodes), edges=frozenset(edges))


def write_adjacency(g: GraphSnapshot, adjacency_path, nodes_path=None) -> None:
    """Write a snapshot back to CSV in a deterministic (sorted) order."""
    adjacency_path = Path(adjacency_path)
    with open(adjacency_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["from", "to"])
        for u, v in sorted(g.edges):
            writer.writerow([u, v])
    if nodes_path is not None:
        with open(Path(nodes_path), "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["node_id"])
            for n in sorted(g.nodes):
                writer.writerow([n])
