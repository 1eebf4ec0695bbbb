"""Output checks made apart from the program.

Everything here uses numpy and the standard library only: it reads the
period CSVs, the reports and the checkpoint arrays itself and recomputes
counts, drift scores, forecasts and baselines from the definitions in the
program's documentation. Each check returns a list of failure messages,
empty when the outputs are right.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

N_CLASSES = 5
CALIBRATION_PERCENTILE = 99.5
PARAMS = ("w1", "b1", "w2", "b2", "wv", "bv", "wa", "ba")


def split_ranges(steps: int) -> dict[str, tuple[int, int]]:
    """6:2:2 chronological split with boundaries at floor(0.6 T) and floor(0.8 T)."""
    a, b = 6 * steps // 10, 8 * steps // 10
    return {"train": (0, a), "val": (a, b), "test": (b, steps)}


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def read_readings(path, wanted=None) -> dict[str, np.ndarray]:
    """Sensor id -> (T, 3) array of flow, speed, occupancy in file order."""
    rows: dict[str, list] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        for _, sid, flow, speed, occ in reader:
            if wanted is None or sid in wanted:
                rows.setdefault(sid, []).append((float(flow), float(speed), float(occ)))
    return {sid: np.array(v) for sid, v in rows.items()}


def read_roster(data_dir, period: int) -> tuple[set, set]:
    """(nodes, undirected edges as sorted pairs) of one period's graph files."""
    data_dir = Path(data_dir)
    nodes, edges = set(), set()
    with open(data_dir / f"adjacency_{period}.csv", newline="") as f:
        reader = csv.reader(f)
        next(reader)
        for u, v in reader:
            nodes.update((u, v))
            edges.add((min(u, v), max(u, v)))
    roster = data_dir / f"nodes_{period}.csv"
    if roster.exists():
        with open(roster, newline="") as f:
            reader = csv.reader(f)
            next(reader)
            nodes.update(row[0] for row in reader if row)
    return nodes, edges


def finite_and_ordered(metrics: dict, where: str) -> list[str]:
    """Every metric finite, MAE <= RMSE, accuracy in [0, 1]."""
    fails = []
    for split, per_h in metrics.items():
        for h, m in per_h.items():
            tag = f"{where} {split} h={h}"
            values = [m["mae"], m["rmse"], m["mape"], m["class_accuracy"]]
            if not all(math.isfinite(v) for v in values):
                fails.append(f"{tag}: non-finite metric {values}")
            elif m["mae"] > m["rmse"] * (1 + 1e-12):
                fails.append(f"{tag}: MAE {m['mae']} > RMSE {m['rmse']}")
            if not 0.0 <= m["class_accuracy"] <= 1.0:
                fails.append(f"{tag}: accuracy {m['class_accuracy']} outside [0, 1]")
    return fails


def metric_counts(metrics: dict, sensors: int, steps: int, horizons, where: str) -> list[str]:
    """count = sensors x (split length - h + 1) for every split and horizon."""
    fails = []
    ranges = split_ranges(steps)
    for split in ("val", "test"):
        lo, hi = ranges[split]
        for h in horizons:
            want = sensors * (hi - lo - h + 1)
            got = metrics.get(split, {}).get(str(h), {}).get("count")
            if got != want:
                fails.append(f"{where} {split} h={h}: count {got}, expected {want}")
    return fails


def train_reports(reports: dict, rosters: dict, steps: int, window: int, epochs: int,
                  batch: int, horizons, fraction: float, planted=()) -> list[str]:
    """Counts and candidate sets of every period report of a `train` run."""
    fails = []
    per_node = split_ranges(steps)["train"][1] - window
    prev = None
    for period in sorted(rosters):
        r = reports.get(period)
        where = f"period {period}"
        if r is None:
            fails.append(f"{where}: no report")
            continue
        nodes = rosters[period][0]
        cand = r["candidates"]
        if prev is None:
            new, k = sorted(nodes), 0
        else:
            new = sorted(nodes - prev)
            k = ceil_div(len(nodes & prev) * round(fraction * 100), 100)
        if cand["new"] != new:
            fails.append(f"{where}: new sensors {cand['new']}, roster difference {new}")
        if len(cand["drifted"]) != k:
            fails.append(f"{where}: {len(cand['drifted'])} drifted sensors, expected {k}")
        if cand["nodes"] != sorted(set(new) | set(cand["drifted"])):
            fails.append(f"{where}: candidates are not new | drifted")
        for node, p in planted:
            if p == period and node not in cand["drifted"]:
                fails.append(f"{where}: planted drift sensor {node} not flagged")
        generated = r["experiences"]["generated"]
        if generated != len(cand["nodes"]) * per_node:
            fails.append(f"{where}: {generated} experiences, expected "
                         f"{len(cand['nodes'])} x {per_node}")
        updates = epochs * ceil_div(generated, batch)
        if r["updates"] != updates:
            fails.append(f"{where}: {r['updates']} updates, expected {updates}")
        fails += metric_counts(r["metrics"], len(nodes), steps, horizons, where)
        fails += finite_and_ordered(r["metrics"], where)
        prev = nodes
    return fails


def kl_score(prev_flow: np.ndarray, curr_flow: np.ndarray, bins: int = 20,
             smoothing: float = 1.0) -> float:
    """KL(current || previous) over `bins` equal bins of the pooled range,
    Laplace-smoothed; the top bin is closed."""
    lo = min(prev_flow.min(), curr_flow.min())
    hi = max(prev_flow.max(), curr_flow.max())
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)

    def masses(x):
        idx = np.minimum(np.searchsorted(edges, x, side="right") - 1, bins - 1)
        return (np.bincount(idx, minlength=bins) + smoothing) / (x.size + bins * smoothing)

    p, q = masses(curr_flow), masses(prev_flow)
    return float(np.sum(p * np.log(p / q)))


def drift_scores(scores: dict, prev: dict, curr: dict, where: str) -> list[str]:
    """Reported KL of each sensor in `curr` against one computed here."""
    fails = []
    for node in sorted(curr):
        want = kl_score(prev[node][:, 0], curr[node][:, 0])
        got = scores.get(node)
        if got is None or not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
            fails.append(f"{where}: KL of {node} reported {got}, computed {want}")
    return fails


class PeriodModel:
    """Calibration, discretizer and state windows of one period, from its CSV data."""

    def __init__(self, readings: dict, roster: tuple, steps: int, window: int):
        self.readings = readings
        self.window = window
        nodes, edges = roster
        self.nbrs = {v: [] for v in nodes}
        for u, v in sorted(edges):
            self.nbrs[u].append(v)
            self.nbrs[v].append(u)
        self.max_degree = max((len(n) for n in self.nbrs.values()), default=0)
        hi = split_ranges(steps)["train"][1]
        pooled = np.concatenate([readings[s][:hi] for s in sorted(readings)])
        self.flow_max = max(float(np.percentile(pooled[:, 0], CALIBRATION_PERCENTILE)), 1e-9)
        self.speed_max = max(float(np.percentile(pooled[:, 1], CALIBRATION_PERCENTILE)), 1e-9)
        self.edges = np.percentile(pooled[:, 0], [20, 40, 60, 80])
        cls = np.searchsorted(self.edges, pooled[:, 0], side="right")
        self.reps = np.array([np.median(pooled[cls == k, 0]) for k in range(N_CLASSES)])

    def channels(self, node: str) -> np.ndarray:
        r = self.readings[node]
        return np.stack([np.clip(r[:, 0] / self.flow_max, 0.0, 1.0),
                         np.clip(r[:, 1] / self.speed_max, 0.0, 1.0), r[:, 2]], axis=1)

    def states(self, node: str, anchors: np.ndarray) -> np.ndarray:
        """Rows [own flow, speed, occupancy windows, neighbour-mean windows, degree]."""
        w = self.window
        own = self.channels(node)
        nbr = np.zeros_like(own)
        for u in sorted(self.nbrs[node]):
            nbr += self.channels(u)
        if self.nbrs[node]:
            nbr /= len(self.nbrs[node])
        idx = anchors[:, None] + np.arange(-w, 0)[None, :]  # (n, W), oldest first
        blocks = [own[idx, c] for c in range(3)] + [nbr[idx, c] for c in range(3)]
        deg = len(self.nbrs[node]) / self.max_degree if self.max_degree else 0.0
        return np.concatenate(blocks + [np.full((anchors.size, 1), deg)], axis=1)

    def forecast(self, params: dict, node: str, anchors: np.ndarray, horizon: int):
        """Greedy autoregressive forecast: (classes, q-value margins), each (n, horizon).

        Each step's class maps to its representative flow, which enters the
        own-flow window; speed and occupancy repeat their last value and the
        neighbour block stays at the anchor.
        """
        w = self.window
        x = self.states(node, anchors)
        classes = np.empty((anchors.size, horizon), dtype=int)
        margins = np.empty((anchors.size, horizon))
        for j in range(horizon):
            q = q_values(params, x)
            top2 = np.sort(q, axis=1)[:, -2:]
            classes[:, j] = np.argmax(q, axis=1)
            margins[:, j] = top2[:, 1] - top2[:, 0]
            step = np.clip(self.reps[classes[:, j]] / self.flow_max, 0.0, 1.0)
            x[:, 0:w] = np.concatenate([x[:, 1:w], step[:, None]], axis=1)
            x[:, w:2 * w - 1] = x[:, w + 1:2 * w]
            x[:, 2 * w:3 * w - 1] = x[:, 2 * w + 1:3 * w]
        return classes, margins


def load_params(checkpoint) -> dict:
    """The network arrays of an agent checkpoint."""
    with np.load(checkpoint) as data:
        params = {k: np.array(data["net_" + k], dtype=float) for k in PARAMS}
        params["dueling"] = bool(int(data["net_dueling"]))
    return params


def q_values(params: dict, x: np.ndarray) -> np.ndarray:
    """Two rectifier layers, then V + A - mean(A) (or A alone without dueling)."""
    h1 = np.maximum(x @ params["w1"].T + params["b1"], 0.0)
    h2 = np.maximum(h1 @ params["w2"].T + params["b2"], 0.0)
    adv = h2 @ params["wa"].T + params["ba"]
    if not params["dueling"]:
        return adv
    value = h2 @ params["wv"].T + params["bv"]
    return value + (N_CLASSES * adv - adv.sum(axis=1, keepdims=True)) / N_CLASSES


def node_test_mae(model: PeriodModel, params: dict, nodes, reported: dict, steps: int,
                  horizon: int, where: str) -> list[str]:
    """Each node's test MAE at `horizon`, recomputed over every test anchor."""
    fails = []
    lo, hi = split_ranges(steps)["test"]
    anchors = np.arange(max(model.window, lo), hi - horizon + 1)
    for node in nodes:
        classes, _ = model.forecast(params, node, anchors, horizon)
        actual = model.readings[node][anchors + horizon - 1, 0]
        want = float(np.mean(np.abs(model.reps[classes[:, -1]] - actual)))
        got = reported.get(node)
        if got is None or not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
            fails.append(f"{where}: test MAE of {node} reported {got}, recomputed {want}")
    return fails


def same_classes(model: PeriodModel, params: dict, pairs: dict, program: dict, horizon: int,
                 where: str) -> list[str]:
    """The program's greedy classes equal ours at every step, for each
    (sensor, anchors) pair; a step whose top two Q-values differ by less
    than 1e-9 may go either way."""
    fails = []
    for node, anchors in pairs.items():
        ours, margins = model.forecast(params, node, anchors, horizon)
        bad = (ours != program[node]) & (margins > 1e-9)
        for i, j in zip(*np.nonzero(bad)):
            fails.append(f"{where}: {node} anchor {anchors[i]} step {j + 1}: program class "
                         f"{program[node][i, j]}, recomputed {ours[i, j]}")
    return fails


def beats_middle_class(model: PeriodModel, mae: float, steps: int, horizon: int,
                       where: str, ratio: float = 0.5) -> list[str]:
    """Test MAE at `horizon` is at most `ratio` x the MAE of always forecasting
    the middle class's representative flow."""
    lo, hi = split_ranges(steps)["test"]
    targets = np.concatenate(
        [model.readings[s][max(model.window, lo) + horizon - 1:hi, 0] for s in sorted(model.readings)]
    )
    baseline = float(np.mean(np.abs(model.reps[N_CLASSES // 2] - targets)))
    if not mae <= ratio * baseline:
        return [f"{where}: test MAE {mae} not below {ratio} x middle-class MAE {baseline}"]
    return []


def same_metrics(report: dict, evaluated: dict, where: str) -> list[str]:
    """`flowrl evaluate` gives exactly the report's metrics and per-node MAEs."""
    fails = []
    if report["metrics"] != evaluated["metrics"]:
        fails.append(f"{where}: evaluate metrics differ from the report's")
    if report["per_node_test_mae"] != evaluated["per_node_test_mae"]:
        fails.append(f"{where}: evaluate per-node MAEs differ from the report's")
    return fails


def same_series(loaded: dict, generated: dict, where: str) -> list[str]:
    """Loaded (timestamps, flow, speed, occupancy) equal the generator's, bit for bit."""
    if sorted(loaded) != sorted(generated):
        return [f"{where}: loaded sensors differ from generated"]
    fails = []
    for sid in sorted(generated):
        a, b = loaded[sid], generated[sid]
        if tuple(a.timestamps) != tuple(b.timestamps):
            fails.append(f"{where}: timestamps of {sid} differ")
        for ch in ("flow", "speed", "occupancy"):
            if getattr(a, ch).tobytes() != getattr(b, ch).tobytes():
                fails.append(f"{where}: {ch} of {sid} differs from the generator's")
    return fails
