"""Streaming sensor-network topology: one period-stamped snapshot per period.

The long-term network is a sequence of yearly (or otherwise period-labelled)
immutable snapshots. A period's change is read off two snapshots: `node_diff`
splits their nodes into new, surviving and removed. Snapshots load from and
write to the period's adjacency and nodes CSVs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError

Edge = tuple[str, str]


def canonical_edge(u: str, v: str) -> Edge:
    """Return the unordered pair (u, v) in canonical (sorted) order."""
    if u == v:
        raise ValueError(f"self-loop edge on node {u!r} is not allowed")
    return (u, v) if u < v else (v, u)


class NodeIdError(ValueError):
    """A node id that the period files cannot carry back: empty, padded
    with whitespace, or holding a line break."""


def check_node_id(v: str) -> None:
    """Raise NodeIdError unless `v` reads back from a CSV cell as itself:
    the loaders strip the graph files' cells, and a line break ends a
    readings row."""
    if not v or v != v.strip() or "\n" in v or "\r" in v:
        raise NodeIdError(f"node id {v!r} is empty, padded with whitespace or holds a line break")


@dataclass(frozen=True)
class GraphSnapshot:
    """One period of the streaming network: a node set plus undirected edges."""

    period: int
    nodes: frozenset[str]
    edges: frozenset[Edge]

    def __post_init__(self):
        for v in self.nodes:
            check_node_id(v)
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


def node_diff(g_prev: GraphSnapshot, g_curr: GraphSnapshot):
    """Partition nodes into (new, surviving, removed) across two snapshots."""
    new = g_curr.nodes - g_prev.nodes
    surviving = g_curr.nodes & g_prev.nodes
    removed = g_prev.nodes - g_curr.nodes
    return new, surviving, removed


def csv_rows(path, header: list[str]):
    """(line, cells as written) of each non-empty record of a CSV file after
    its header; a header other than `header` is a DataError. The line is
    the one a record starts on, also when a quoted cell spans lines."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        got = next(reader, None)
        if got is None or [h.strip() for h in got] != header:
            raise DataError(f"expected header {','.join(header)!r}, got {got!r}", path=str(path), line=1)
        start = reader.line_num + 1
        for cells in reader:  # reader.line_num is the line a record ends on
            if cells:
                yield start, cells
            start = reader.line_num + 1


def _node_cell(cell: str, path, line: int) -> str:
    """A graph file's node-id cell, checked; a bad one is a DataError at its line."""
    try:
        check_node_id(cell)
    except NodeIdError as e:
        raise DataError(str(e), path=str(path), line=line) from None
    return cell


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
        cells = [c.strip() for c in cells]
        if not any(cells):
            continue
        if len(cells) != 2:
            raise DataError(f"expected 2 columns, got {len(cells)}", path=str(adjacency_path), line=line)
        u, v = (_node_cell(cell, adjacency_path, line) for cell in cells)
        if u == v:
            raise DataError(f"self-loop edge on {u!r}", path=str(adjacency_path), line=line)
        nodes.update((u, v))
        edges.add(canonical_edge(u, v))
    if nodes_path is not None and Path(nodes_path).exists():
        for line, cells in csv_rows(nodes_path, ["node_id"]):
            cells = [c.strip() for c in cells]
            if any(cells):
                nodes.add(_node_cell(cells[0], nodes_path, line))
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
