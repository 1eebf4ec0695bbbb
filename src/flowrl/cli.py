"""Command-line front end.

Subcommands: generate (synthetic dataset files), train (continual loop
over a period sequence), evaluate (score a checkpoint on one period),
detect (drift inspection between consecutive periods), export-figures
(CSV tables from written reports). Exit codes: 0 success, 1 usage error,
2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import zipfile
from dataclasses import replace
from pathlib import Path

from .atomic import atomic_write
from .config import RunConfig, config_to_ini, load_config
from .drift import detect
from .errors import ConfigError, DataError
from .env import StateAssembler, fit_calibration, fit_discretizer
from .ingest import generate_synthetic, load_period, write_period
from .trainer import evaluate_period, init_agent, load_agent, run_period, save_agent

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

CONFIG_ECHO_NAME = "config_echo.ini"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that for data errors
        raise UsageError(message)


def _readings_name(period: int) -> str:
    return f"readings_{period}.csv"


def _adjacency_name(period: int) -> str:
    return f"adjacency_{period}.csv"


def _nodes_name(period: int) -> str:
    return f"nodes_{period}.csv"


def _discover_periods(data_dir: Path) -> list[int]:
    periods = []
    for path in data_dir.glob("readings_*.csv"):
        m = re.fullmatch(r"readings_(-?\d+)\.csv", path.name)
        if m:
            periods.append(int(m.group(1)))
    if not periods:
        raise DataError(f"no readings_<period>.csv files found in {data_dir}")
    periods.sort()
    for a, b in zip(periods, periods[1:]):
        if b != a + 1:
            raise DataError(f"period sequence has a gap between {a} and {b} in {data_dir}")
    return periods


def _load_dataset(data_dir: Path, period: int):
    return load_period(
        data_dir / _readings_name(period),
        data_dir / _adjacency_name(period),
        period,
        nodes_path=data_dir / _nodes_name(period),
    )


def _echo_config(config: RunConfig, out_dir: Path) -> None:
    (out_dir / CONFIG_ECHO_NAME).write_text(config_to_ini(config))


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    with atomic_write(path) as f:
        f.write(text.encode())


def _load_checkpoint(path: Path, config: RunConfig):
    """The agent saved at `path`; a file that is unreadable, inconsistent or
    made for another state size is a DataError."""
    try:
        agent = load_agent(path)
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as e:
        raise DataError(f"corrupt checkpoint {path}: {e}") from None
    dim = 6 * config.trainer.window + 1
    if agent.net.input_dim != dim:
        raise DataError(
            f"checkpoint {path} takes states of {agent.net.input_dim} values, "
            f"but window {config.trainer.window} builds {dim}"
        )
    return agent


def _resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    return config


def cmd_generate(args) -> int:
    config = _resolve_config(args)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot create output directory: {e}") from None
    datasets = generate_synthetic(config.generator, config.seed)
    for ds in datasets:
        write_period(
            ds,
            out_dir / _readings_name(ds.period),
            out_dir / _adjacency_name(ds.period),
            nodes_path=out_dir / _nodes_name(ds.period),
        )
    _echo_config(config, out_dir)
    print(f"wrote {len(datasets)} periods to {out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _resolve_config(args)
    data_dir = Path(args.data_dir)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(config, out_dir)
    periods = _discover_periods(data_dir)

    start_index = 0
    agent = None
    if args.resume:
        done = sorted(
            int(m.group(1))
            for p in out_dir.glob("checkpoint_*.npz")
            if (m := re.fullmatch(r"checkpoint_(-?\d+)\.npz", p.name))
        )
        if done:
            last = done[-1]
            if last not in periods:
                raise DataError(f"checkpoint for period {last} has no matching data in {data_dir}")
            agent = _load_checkpoint(out_dir / f"checkpoint_{last}.npz", config)
            start_index = periods.index(last) + 1
            print(f"resuming after period {last}")
    if agent is None:
        agent = init_agent(
            6 * config.trainer.window + 1,
            hidden=config.qnet.hidden,
            dueling=config.qnet.dueling,
            seed=config.seed,
            learning_rate=config.trainer.learning_rate,
            optimizer=config.qnet.optimizer,
        )

    prev = _load_dataset(data_dir, periods[start_index - 1]) if start_index > 0 else None
    for period in periods[start_index:]:
        curr = _load_dataset(data_dir, period)
        cfg = config.trainer
        if config.freeze_after_first_period and period != periods[0]:
            cfg = replace(cfg, epochs=0)
        report = run_period(prev, curr, agent, cfg, config.weights, config.seed,
                            drift_cfg=config.drift)
        _write_json(out_dir / f"report_{period}.json", report.to_report_dict())
        _write_json(out_dir / f"timings_{period}.json", report.to_timings_dict())
        save_agent(agent, out_dir / f"checkpoint_{period}.npz")
        test_summary = report.metrics.get("test", {})
        first = min(test_summary) if test_summary else None
        mae = f"{test_summary[first].mae:.3f}" if first is not None else "n/a"
        print(
            f"period {period}: {len(report.candidates)} candidates, "
            f"{report.experiences_generated} experiences, test mae[h={first}]={mae}"
        )
        prev = curr
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _resolve_config(args)
    data_dir = Path(args.data_dir)
    checkpoint = Path(args.checkpoint)
    if not checkpoint.exists():
        raise DataError(f"checkpoint not found: {checkpoint}")
    agent = _load_checkpoint(checkpoint, config)
    dataset = _load_dataset(data_dir, args.period)
    calibration = fit_calibration(dataset)
    discretizer = fit_discretizer(dataset.flows_in("train"))
    assembler = StateAssembler(dataset, window=config.trainer.window, calibration=calibration)
    metrics, per_node = evaluate_period(
        dataset, agent.net, discretizer, assembler, config.trainer.horizons
    )
    payload = {
        "period": args.period,
        "metrics": {
            split: {str(h): ms.as_dict() for h, ms in per_split.items()}
            for split, per_split in metrics.items()
        },
        "per_node_test_mae": per_node,
    }
    if args.out:
        _write_json(Path(args.out), payload)
    print(json.dumps(payload["metrics"], sort_keys=True, indent=2))
    return EXIT_OK


def cmd_detect(args) -> int:
    config = _resolve_config(args)
    data_dir = Path(args.data_dir)
    prev = _load_dataset(data_dir, args.period - 1)
    curr = _load_dataset(data_dir, args.period)
    report = detect(
        prev, curr,
        fraction=config.drift.fraction,
        bins=config.drift.bins,
        smoothing=config.drift.smoothing,
    )
    payload = report.to_json_dict()
    if args.out:
        _write_json(Path(args.out), payload)
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


METRIC_COLUMNS = ("mae", "rmse", "mape", "class_accuracy")


def cmd_export_figures(args) -> int:
    report_dir = Path(args.report_dir)
    out_dir = Path(args.out_dir) if args.out_dir else report_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    for path in report_dir.glob("report_*.json"):
        m = re.fullmatch(r"report_(-?\d+)\.json", path.name)
        if m:
            reports.append((int(m.group(1)), path))
    if not reports:
        raise DataError(f"no report_<period>.json files found in {report_dir}")
    reports.sort()

    metrics_path = out_dir / "figures_metrics.csv"
    with open(metrics_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["period", "horizon", "metric", "value"])
        for period, path in reports:
            report = json.loads(path.read_text())
            test = report.get("metrics", {}).get("test", {})
            for horizon in sorted(test, key=int):
                for metric in METRIC_COLUMNS:
                    writer.writerow([period, horizon, metric, repr(float(test[horizon][metric]))])

    timings_path = out_dir / "figures_timings.csv"
    with open(timings_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["period", "total_seconds", "per_epoch_seconds"])
        for period, _ in reports:
            tpath = report_dir / f"timings_{period}.json"
            if not tpath.exists():
                raise DataError(f"missing timings file for period {period}: {tpath}")
            timing = json.loads(tpath.read_text())
            writer.writerow(
                [period, repr(float(timing["total_seconds"])), repr(float(timing["per_epoch_seconds"]))]
            )
    print(f"wrote {metrics_path} and {timings_path}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="flowrl", description="Continual RL traffic-flow forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize dataset files")
    p.add_argument("--config", help="config file (defaults apply if omitted)")
    p.add_argument("--seed", type=int, help="override [run] seed")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="run the continual loop over all periods")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resume", action="store_true", help="continue from the last checkpoint in out-dir")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on one period")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--out", help="write the evaluation JSON here as well")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("detect", help="drift report for one period transition")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--period", type=int, required=True, help="current period (compared to period-1)")
    p.add_argument("--out", help="write the drift report JSON here as well")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("export-figures", help="CSV tables from written reports")
    p.add_argument("--report-dir", required=True)
    p.add_argument("--out-dir", help="defaults to the report dir")
    p.set_defaults(func=cmd_export_figures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # noqa: BLE001 - boundary: map anything else to the internal code
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
