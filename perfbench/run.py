"""CPU-time benchmark of flowrl's continual loop.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 5 --trace 0

The run writes the workload's inputs (timed as set-up, three times), runs
whole rounds of the workload's CLI calls, each round in a fresh process,
until their CPU time reaches --seconds, checks the outputs against
computations made here, and prints one JSON object as its last line. With
--trace 1 it runs one untraced and one traced round instead and reports
per-layer figures. Every time is process CPU time with BLAS pinned to one
thread; wall times are printed for reference only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import zipfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}
SETUPS = 3
ROUND_TIMEOUT_S = 170
WALL_BUDGET_S = 150  # start no round that could end the run past this
MB = 1024.0 * 1024.0

END_TO_END = {
    "setup_s": "s", "run_s": "s", "last_period_s": "s", "forecasts_per_s": "forecasts/s",
    "ingest_rows_per_s": "rows/s", "peak_rss_mb": "MB", "checkpoint_mb": "MB",
}


def steal_seconds() -> float:
    """Steal time the hypervisor has accrued, all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{k: os.environ.get(k) for k in PINNED},
    }


def run_round(wl, work: Path, src: Path, index: int, trace: bool) -> dict:
    """One round of the workload's CLI calls in a fresh process."""
    from workloads import job_calls

    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    spec = {
        "src": str(src),
        "kind": wl.kind,
        "calls": job_calls(wl, work),
        "trace": str(work / "trace.json") if trace else "",
        "result": str(work / f"round_{index}.json"),
    }
    spec_path = work / f"round_{index}.spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(HERE / "job.py"), str(spec_path)],
                          capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"round {index} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(Path(spec["result"]).read_text())


def sample_nodes(nodes, k: int, seed: int, salt: int) -> list[str]:
    import numpy as np

    nodes = sorted(nodes)
    rng = np.random.default_rng([seed, salt])
    return sorted(nodes[i] for i in rng.choice(len(nodes), size=min(k, len(nodes)), replace=False))


def program_forecasts(checkpoint: Path, dataset, pairs: dict, horizon: int, window: int) -> dict:
    """The program's greedy classes for each (sensor, anchors) pair."""
    import numpy as np
    from flowrl.env import StateAssembler, fit_calibration, fit_discretizer
    from flowrl.qnet import network_from_state_dict
    from flowrl.trainer import predict_horizon_block

    with np.load(checkpoint) as data:
        net = network_from_state_dict(data, prefix="net_")
    assembler = StateAssembler(dataset, window=window, calibration=fit_calibration(dataset))
    discretizer = fit_discretizer(dataset.flows_in("train"))
    return {node: predict_horizon_block(net, assembler, discretizer, node, anchors, horizon)[0]
            for node, anchors in pairs.items()}


def check_outputs(wl, seed: int, work: Path, datasets) -> list[str]:
    """Every output check of the workload's last round."""
    import numpy as np
    from flowrl.cli import main as cli_main
    from flowrl.ingest import load_period

    import oracle
    from workloads import ADJACENCY, NODES, READINGS, checkpoint_path

    data, out = work / "data", work / "out"
    window = 12
    horizons = [int(h) for h in str(wl.trainer.get("horizons", "3,12")).split(",")]
    h0, hmax = horizons[0], max(horizons)
    steps, periods = wl.steps, wl.periods
    final = periods[-1]
    rosters = {p: oracle.read_roster(data, p) for p in periods}
    fails: list[str] = []

    def load(p):
        return load_period(data / READINGS.format(p), data / ADJACENCY.format(p), p,
                           nodes_path=data / NODES.format(p))

    if wl.kind == "train":
        reports = {p: json.loads((out / f"report_{p}.json").read_text())
                   for p in periods if (out / f"report_{p}.json").exists()}
        fails += oracle.train_reports(
            reports, rosters, steps, window, int(wl.trainer.get("epochs", 3)),
            int(wl.trainer.get("batch_size", 128)), horizons, 0.1, wl.planted)
        if final not in reports:
            return fails
        final_report = reports[final]
        checkpoint = out / f"checkpoint_{final}.npz"
        readings = oracle.read_readings(data / READINGS.format(final))
        survivors = rosters[final][0] & rosters[final - 1][0]
        scored = sorted(set(sample_nodes(survivors, 6, seed, 1))
                        | {n for n, p in wl.planted if p == final})
        before = oracle.read_readings(data / READINGS.format(final - 1), wanted=set(scored))
        fails += oracle.drift_scores(final_report.get("drift_scores", {}), before,
                                     {n: readings[n] for n in scored}, f"period {final}")
        loaded = load(final)
        for sid, r in readings.items():
            s = loaded.series[sid]
            if (s.flow.tobytes(), s.speed.tobytes(), s.occupancy.tobytes()) != tuple(
                    np.ascontiguousarray(r[:, c]).tobytes() for c in range(3)):
                fails.append(f"period {final}: loaded series of {sid} differ from the CSV")
        evaluated = out / "evaluate_check.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["evaluate", "--config", str(work / "job.ini"), "--data-dir", str(data),
                             "--checkpoint", str(checkpoint), "--period", str(final),
                             "--out", str(evaluated)])
        if code != 0:
            fails.append(f"flowrl evaluate of period {final} exited with {code}")
        else:
            fails += oracle.same_metrics(final_report, json.loads(evaluated.read_text()),
                                         f"period {final}")
        final_metrics, per_node = final_report["metrics"], final_report["per_node_test_mae"]
    else:
        checkpoint = checkpoint_path(wl, work)
        loaded = None
        for p in periods:
            payload = json.loads((out / f"evaluate_{p}.json").read_text())
            where = f"evaluate period {p}"
            fails += oracle.metric_counts(payload["metrics"], len(rosters[p][0]), steps, horizons, where)
            fails += oracle.finite_and_ordered(payload["metrics"], where)
            loaded = load(p)
            fails += oracle.same_series(loaded.series, datasets[p - 1].series, f"period {p}")
        final_metrics, per_node = payload["metrics"], payload["per_node_test_mae"]
        readings = oracle.read_readings(data / READINGS.format(final))

    where = f"period {final}"
    model = oracle.PeriodModel(readings, rosters[final], steps, window)
    params = oracle.load_params(checkpoint)
    nodes = sample_nodes(rosters[final][0], 6, seed, 2)
    fails += oracle.node_test_mae(model, params, nodes, per_node, steps, h0, where)
    rng = np.random.default_rng([seed, 3])
    lo = oracle.split_ranges(steps)["val"][0]
    pairs = {n: np.sort(rng.choice(np.arange(lo, steps - hmax + 1), size=5, replace=False))
             for n in sample_nodes(rosters[final][0], 4, seed, 4)}
    program = program_forecasts(checkpoint, loaded, pairs, hmax, window)
    fails += oracle.same_classes(model, params, pairs, program, hmax, where)
    fails += oracle.beats_middle_class(model, final_metrics["test"][str(h0)]["mae"], steps, h0, where)
    return fails


def report_sha256(wl, work: Path) -> str:
    name = "report_{}.json" if wl.kind == "train" else "evaluate_{}.json"
    digest = hashlib.sha256()
    for p in wl.periods:
        digest.update((work / "out" / name.format(p)).read_bytes())
    return digest.hexdigest()


def checkpoint_stats(wl, work: Path) -> tuple[float, float]:
    """(MB of the largest checkpoint written or read, replay-buffer share of its bytes)."""
    from workloads import checkpoint_path

    if wl.kind == "train":
        paths = list((work / "out").glob("checkpoint_*.npz"))
    else:
        paths = [checkpoint_path(wl, work)]
    biggest = max(paths, key=lambda p: p.stat().st_size)
    size = biggest.stat().st_size
    with zipfile.ZipFile(biggest) as z:
        buffered = sum(i.compress_size for i in z.infolist() if i.filename.startswith("buf_"))
    return size / MB, buffered / size


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "flowrl" / "__init__.py").is_file():
        print(f"error: {root} is not a flowrl checkout (no src/flowrl)", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED.items()):
        # thread counts and the hash seed only take effect in a fresh interpreter
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED})
    sys.path[:0] = [str(HERE), str(src)]
    import flowrl

    from probe import Probe
    from spans import Tracer, install_setup_spans
    from workloads import WORKLOADS, clear, setup

    if Path(flowrl.__file__).resolve().parent != (src / "flowrl").resolve():
        print(f"error: flowrl imported from {flowrl.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = root / ".perfbench_runs" / wl.name
    wall0, steal0 = time.perf_counter(), steal_seconds()
    print("env " + json.dumps(environment(), sort_keys=True))

    setup_tracer = Tracer()
    if args.trace:
        install_setup_spans(setup_tracer)
    setup_s, setup_raw = [], []
    for _ in range(1 if args.trace else SETUPS):
        datasets = None
        clear(work)
        gc.collect()
        with Probe() as probe, contextlib.redirect_stdout(io.StringIO()):
            cpu0 = time.process_time()
            datasets = setup(wl, args.seed, work)
            cpu = time.process_time() - cpu0
        setup_raw.append(cpu)
        setup_s.append(cpu * probe.scale())
    setup_tracer.restore()
    if wl.kind == "train":
        datasets = None  # the checks read the CSVs; only `forecast` compares with the generator
    print(f"setup cpu_s {[round(s, 4) for s in setup_raw]} scaled {[round(s, 4) for s in setup_s]}")

    rounds = []
    while True:
        rounds.append(run_round(wl, work, src, len(rounds), trace=False))
        elapsed = time.perf_counter() - wall0
        longest = max(r["wall_s"] for r in rounds)
        if args.trace or sum(r["run_cpu_s"] for r in rounds) >= args.seconds \
                or elapsed + 1.5 * longest > WALL_BUDGET_S:
            break
    traced = run_round(wl, work, src, len(rounds), trace=True) if args.trace else None
    for i, r in enumerate(rounds + ([traced] if traced else [])):
        print(f"round {i}{' traced' if r is traced else ''}: run cpu_s {r['run_cpu_s']:.4f} "
              f"wall_s {r['wall_s']:.4f} probe scale {r['scale']:.4f} run_s {r['run_s']:.4f} "
              f"last_period cpu_s {r['last_period_cpu_s']:.4f} peak_rss_mb {r['peak_rss_mb']:.1f}")

    try:
        fails = check_outputs(wl, args.seed, work, datasets)
    except (OSError, KeyError, ValueError) as e:  # an output is missing or malformed
        fails = [f"checks could not run: {type(e).__name__}: {e}"]
    for msg in fails[:20]:
        print(f"CHECK FAILED: {msg}")
    print(f"checks: {'all passed' if not fails else f'{len(fails)} failed'}")
    print(f"report_sha256 {report_sha256(wl, work)}")
    ckpt_mb, buffer_share = checkpoint_stats(wl, work)

    # an operation is one period trained or evaluated; a failed call fails all of its periods
    done = rounds + ([traced] if traced else [])
    per_call = len(wl.periods) // len(done[0]["calls"])
    failed = sum(per_call for r in done for c in r["calls"] if c["exit"] != 0)
    attempted = len(wl.periods) * len(done)
    if args.trace:
        layers = dict(traced["layers"])
        incl, _, _ = setup_tracer.totals()
        setup_scale = setup_s[0] / setup_raw[0]
        layers["ingest.write_period.cpu_s"] = incl.get("ingest.write_period", 0.0) * setup_scale
        layers["ingest.generate.cpu_s"] = incl.get("ingest.generate", 0.0) * setup_scale
        layers["trainer.checkpoint_buffer_share"] = buffer_share
        layers["trace.overhead_s"] = traced["run_s"] - rounds[0]["run_s"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        med = statistics.median
        values = {
            "setup_s": med(setup_s),
            "run_s": med(r["run_s"] for r in rounds),
            "last_period_s": med(r["last_period_s"] for r in rounds),
            "forecasts_per_s": med(r["scored"] / r["eval_s"] for r in rounds),
            "ingest_rows_per_s": med(r["rows"] / r["load_s"] for r in rounds),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
            "checkpoint_mb": ckpt_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    print(f"run wall_s {time.perf_counter() - wall0:.2f} host steal_s {steal_seconds() - steal0:.2f}")
    print(json.dumps({"correct": not fails and not failed, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("cpu_s") or name == "trace.overhead_s":
        return "s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("share") or name.endswith("coverage") or name.endswith("per_forecast"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
