"""Tests of the benchmark itself: tiny-config smoke runs of each workload
kind, and for every output check an altered output that makes it fail.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
sys.path[:0] = [str(ROOT / "perfbench"), str(SRC)]

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Workload, clear, setup  # noqa: E402

SEED = 5
SHAPE = {"noise_sigma": 4.0, "phase_jitter_steps": 40.0, "amplitude_jitter": 0.25}
TINY_TRAIN = Workload(
    name="tiny-train",
    kind="train",
    generator={"periods": 3, "initial_nodes": 10, "growth_per_period": 2,
               "steps_per_period": 400, **SHAPE},
    trainer={"epochs": 30, "horizons": "3,12", "eps_decay_steps": 500},
    planted=(("s0003", 2), ("s0007", 3)),
)
TINY_EVALUATE = replace(
    WORKLOADS["forecast"],
    name="tiny-evaluate",
    generator={"periods": 2, "initial_nodes": 12, "growth_per_period": 3,
               "steps_per_period": 400, **SHAPE},
    ckpt_generator={"periods": 1, "initial_nodes": 10, "growth_per_period": 0,
                    "steps_per_period": 400, **SHAPE},
    ckpt_trainer={"epochs": 30, "eps_decay_steps": 500},
)


def _prepare(wl, base: Path, trace=False):
    work = base / wl.name
    clear(work)
    datasets = setup(wl, SEED, work)
    result = run.run_round(wl, work, SRC, 0, trace=trace)
    return work, datasets, result


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    return _prepare(TINY_TRAIN, tmp_path_factory.mktemp("bench"), trace=True)


@pytest.fixture(scope="module")
def evaluate_run(tmp_path_factory):
    return _prepare(TINY_EVALUATE, tmp_path_factory.mktemp("bench"))


@pytest.fixture
def train_copy(train_run, tmp_path):
    work, datasets, result = train_run
    copy = tmp_path / work.name
    shutil.copytree(work, copy)
    return copy


@pytest.fixture
def evaluate_copy(evaluate_run, tmp_path):
    work, datasets, result = evaluate_run
    copy = tmp_path / work.name
    shutil.copytree(work, copy)
    return copy, datasets


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _fails(wl, work, datasets=None):
    return run.check_outputs(wl, SEED, work, datasets)


def _has(fails, text):
    assert any(text in f for f in fails), fails


def test_train_smoke_checks_pass(train_run):
    work, datasets, result = train_run
    assert all(c["exit"] == 0 for c in result["calls"])
    assert _fails(TINY_TRAIN, work) == []


def test_evaluate_smoke_checks_pass(evaluate_run):
    work, datasets, result = evaluate_run
    assert all(c["exit"] == 0 for c in result["calls"])
    assert result["scored"] > 0 and result["rows"] == 12 * 400 + 15 * 400
    assert _fails(TINY_EVALUATE, work, datasets) == []


def test_trace_counts_match_reports(train_run):
    work, _, result = train_run
    layers = result["layers"]
    reports = [json.loads((work / "out" / f"report_{p}.json").read_text()) for p in (1, 2, 3)]
    assert layers["trainer.experiences"] == sum(r["experiences"]["generated"] for r in reports)
    assert layers["trainer.updates"] == sum(r["updates"] for r in reports)
    assert layers["trainer.forecasts"] == sum(
        m["count"] for r in reports for per_h in r["metrics"].values() for m in per_h.values())
    assert layers["drift.nodes_scored"] == 10 + 12
    assert 0.0 < layers["trace.coverage"] <= 1.0
    spans = json.loads((work / "trace.json").read_text())["spans"]
    assert all(end >= start for _, _, start, end in spans)


# --- each check fails on an altered output ----------------------------------

REPORT_EDITS = {
    "experiences": (2, lambda r: r["experiences"].update(generated=r["experiences"]["generated"] + 1)),
    "updates": (3, lambda r: r.update(updates=r["updates"] - 1)),
    "count": (1, lambda r: r["metrics"]["val"]["3"].update(count=r["metrics"]["val"]["3"]["count"] + 1)),
    "new sensors": (2, lambda r: r["candidates"]["new"].pop()),
    "drifted sensors": (3, lambda r: r["candidates"]["drifted"].pop()),
    "planted drift": (2, lambda r: r["candidates"].update(drifted=["s0000"])),
    "KL of": (3, lambda r: r["drift_scores"].update(
        {k: v * 1.001 for k, v in r["drift_scores"].items()})),
    "MAE": (1, lambda r: r["metrics"]["test"]["12"].update(mae=r["metrics"]["test"]["12"]["rmse"] * 1.01)),
    "non-finite": (2, lambda r: r["metrics"]["val"]["12"].update(rmse=float("inf"))),
    "accuracy": (2, lambda r: r["metrics"]["val"]["3"].update(class_accuracy=1.5)),
    "test MAE of": (3, lambda r: r["per_node_test_mae"].update(
        {k: v * 1.0001 for k, v in r["per_node_test_mae"].items()})),
    "evaluate metrics differ": (3, lambda r: r["metrics"]["val"]["3"].update(
        mape=r["metrics"]["val"]["3"]["mape"] * (1 + 1e-12))),
    "middle-class": (3, lambda r: r["metrics"]["test"]["3"].update(mae=1e6, rmse=2e6)),
}


@pytest.mark.parametrize("expect", sorted(REPORT_EDITS))
def test_train_check_fails_on_altered_report(train_copy, expect):
    period, edit = REPORT_EDITS[expect]
    _edit_json(train_copy / "out" / f"report_{period}.json", edit)
    _has(_fails(TINY_TRAIN, train_copy), expect)


def test_flipped_forecast_class_fails(train_copy, monkeypatch):
    honest = run.program_forecasts

    def flipped(*args):
        classes = honest(*args)
        node = sorted(classes)[0]
        classes[node][2, 5] = (classes[node][2, 5] + 1) % oracle.N_CLASSES
        return classes

    monkeypatch.setattr(run, "program_forecasts", flipped)
    _has(_fails(TINY_TRAIN, train_copy), "program class")


def test_loader_differing_from_csv_fails(train_copy, monkeypatch):
    import flowrl.ingest

    honest = flowrl.ingest.load_period

    def altered(*args, **kwargs):
        ds = honest(*args, **kwargs)
        ds.series[sorted(ds.series)[0]].speed[7] += 1e-9
        return ds

    monkeypatch.setattr(flowrl.ingest, "load_period", altered)
    _has(_fails(TINY_TRAIN, train_copy), "loaded series")


def test_evaluate_count_and_mae_checks_fail(evaluate_copy):
    work, datasets = evaluate_copy
    _edit_json(work / "out" / "evaluate_1.json",
               lambda r: r["metrics"]["test"]["3"].update(count=r["metrics"]["test"]["3"]["count"] - 1))
    _edit_json(work / "out" / "evaluate_2.json",
               lambda r: r["per_node_test_mae"].update({k: v + 1e-6 for k, v in r["per_node_test_mae"].items()}))
    fails = _fails(TINY_EVALUATE, work, datasets)
    _has(fails, "count")
    _has(fails, "test MAE of")


def test_loaded_series_must_equal_generator(evaluate_copy):
    work, datasets = evaluate_copy
    series = datasets[1].series
    sid = sorted(series)[0]
    altered = {**series, sid: replace(series[sid], flow=series[sid].flow + 1e-12)}
    _has(oracle.same_series(altered, series, "period 2"), "flow of")


def test_oracle_kl_matches_hand_computed_case():
    prev = np.array([0.0, 1.0, 1.0, 2.0])
    curr = np.array([2.0, 2.0, 2.0, 1.0])
    # two bins over [0, 2]: prev counts (1, 3), curr counts (0, 4); smoothing 1
    p = np.array([1.0, 5.0]) / 6.0
    q = np.array([2.0, 4.0]) / 6.0
    assert oracle.kl_score(prev, curr, bins=2) == pytest.approx(float(np.sum(p * np.log(p / q))))
