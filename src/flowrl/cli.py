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
import io
import json
import re
import sys
import zipfile
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

from .atomic import atomic_write
from .config import RunConfig, config_to_ini, load_config
from .drift import detect
from .errors import ConfigError, DataError
# fit_calibration and fit_discretizer are unused here; perfbench/spans.py wraps cli.fit_*
from .env import fit_calibration, fit_discretizer, state_dim  # noqa: F401
from .ingest import ReadingError, generate_synthetic, load_period, write_period
from .metrics import metrics_dict
from .trainer import evaluate_period, fit_period, init_agent, load_agent, run_period, save_agent

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


def _period_files(data_dir: Path, period: int) -> list[Path]:
    """The readings, adjacency and nodes CSVs of one period."""
    return [data_dir / f"{kind}_{period}.csv" for kind in ("readings", "adjacency", "nodes")]


def _numbered(directory: Path, kind: str, suffix: str) -> list[tuple[int, Path]]:
    """(n, path) of each <kind>_<n><suffix> file in `directory`, by n."""
    found = []
    for path in directory.glob(f"{kind}_*{suffix}"):
        if m := re.fullmatch(rf"{kind}_(-?\d+){re.escape(suffix)}", path.name):
            found.append((int(m.group(1)), path))
    return sorted(found)


def _discover_periods(data_dir: Path) -> list[int]:
    found = _numbered(data_dir, "readings", ".csv")
    if not found:
        raise DataError(f"no readings_<period>.csv files found in {data_dir}")
    if found[0][0] < 0:  # a period seeds its generators, which take no negative number
        raise DataError("a period must be >= 0", path=str(found[0][1]))
    periods = [n for n, _ in found]
    for a, b in zip(periods, periods[1:]):
        if b != a + 1:
            raise DataError(f"period sequence has a gap between {a} and {b} in {data_dir}")
    return periods


def _load_dataset(data_dir: Path, period: int):
    readings, adjacency, nodes = _period_files(data_dir, period)
    return load_period(readings, adjacency, period, nodes_path=nodes)


@contextmanager
def _readings_of(data_dir: Path, period: int):
    """Turn a ReadingError raised inside (readings that load but cannot be
    binned or scored) into a DataError naming the period's readings file."""
    try:
        yield
    except ReadingError as e:
        raise DataError(str(e), path=str(_period_files(data_dir, period)[0])) from None


def _make_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot create output directory: {e}") from None
    return path


@contextmanager
def _writing(path: Path):
    """Yield `path`; an OSError raised inside is a DataError naming it."""
    try:
        yield path
    except OSError as e:
        raise DataError(f"cannot write {path}: {e}") from None


def _write_text(path: Path, text: str) -> None:
    with _writing(path), atomic_write(path) as f:
        f.write(text.encode())


def _echo_config(config: RunConfig, out_dir: Path) -> None:
    _write_text(out_dir / CONFIG_ECHO_NAME, config_to_ini(config))


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _read_json(path: Path, read):
    """read(payload) of the JSON file at `path`; a file that is unreadable,
    malformed or lacks what `read` looks up is a DataError naming it."""
    try:
        return read(json.loads(path.read_text()))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        raise DataError(f"cannot read {path}: {type(e).__name__}: {e}") from None


def _load_checkpoint(path: Path, config: RunConfig):
    """The agent saved at `path`; a file that is unreadable, inconsistent or
    made for another state size is a DataError."""
    try:
        agent = load_agent(path)
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as e:
        raise DataError(f"corrupt checkpoint {path}: {e}") from None
    dim = state_dim(config.trainer.window)
    if agent.net.input_dim != dim:
        raise DataError(
            f"checkpoint {path} takes states of {agent.net.input_dim} values, "
            f"but window {config.trainer.window} builds {dim}"
        )
    return agent


def _check_resumable(agent, config: RunConfig, path: Path, period: int) -> None:
    """Reject resuming the checkpoint of `period` if the config contradicts its
    network or optimizer, or if its memory holds a later period."""
    cfg = config.trainer
    for key, saved, configured in (
        ("[qnet] hidden", agent.net.hidden_dim, cfg.hidden),
        ("[qnet] dueling", agent.net.dueling, cfg.dueling),
        ("[qnet] optimizer", agent.opt.method, cfg.optimizer),
        ("[trainer] learning_rate", agent.opt.learning_rate, cfg.learning_rate),
    ):
        if saved != configured:
            raise DataError(
                f"checkpoint {path} was made with {key} = {saved}, but the config sets {configured}"
            )
    held = agent.memory.periods()
    if held and held[-1] > period:
        raise DataError(f"checkpoint {path} is named for period {period}, "
                        f"but its memory already holds period {held[-1]}")


def _resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        try:
            config = replace(config, seed=args.seed)
        except ValueError as e:
            raise ConfigError(f"--seed {args.seed}: {e}") from None
    return config


def cmd_generate(args) -> int:
    config = _resolve_config(args)
    try:
        datasets = generate_synthetic(config.generator, config.seed)
    except (ReadingError, OverflowError) as e:  # the stream is a function of the config alone
        raise ConfigError(f"[generator] settings make a stream that cannot be written: {e}") from None
    out_dir = _make_dir(Path(args.out_dir))
    for ds in datasets:
        readings, adjacency, nodes = _period_files(out_dir, ds.period)
        with _writing(out_dir):
            write_period(ds, readings, adjacency, nodes_path=nodes)
    _echo_config(config, out_dir)
    print(f"wrote {len(datasets)} periods to {out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _resolve_config(args)
    data_dir = Path(args.data_dir)
    out_dir = _make_dir(Path(args.out_dir))
    periods = _discover_periods(data_dir)

    start_index = 0
    agent = None
    if args.resume:
        done = _numbered(out_dir, "checkpoint", ".npz")
        if done:
            last, checkpoint = done[-1]
            if last not in periods:
                raise DataError(f"checkpoint for period {last} has no matching data in {data_dir}")
            agent = _load_checkpoint(checkpoint, config)
            _check_resumable(agent, config, checkpoint, last)
            start_index = periods.index(last) + 1
            print(f"resuming after period {last}")
    if agent is None:
        agent = init_agent(config.trainer, config.seed)
    _echo_config(config, out_dir)

    # the period before the first one left to run; a finished run loads none
    prev = _load_dataset(data_dir, periods[start_index - 1]) if 0 < start_index < len(periods) else None
    for period in periods[start_index:]:
        curr = _load_dataset(data_dir, period)
        with _readings_of(data_dir, period):
            report = run_period(prev, curr, agent, config.trainer, config.weights, config.seed,
                                drift_cfg=config.drift)
        _write_json(out_dir / f"report_{period}.json", report.to_report_dict())
        _write_json(out_dir / f"timings_{period}.json", report.to_timings_dict())
        with _writing(out_dir / f"checkpoint_{period}.npz") as path:
            save_agent(agent, path)
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
    with _readings_of(data_dir, args.period):
        discretizer, assembler = fit_period(dataset, config.trainer.window)
        metrics, per_node = evaluate_period(
            dataset, agent.net, discretizer, assembler, config.trainer.horizons
        )
    payload = {"period": args.period, "metrics": metrics_dict(metrics), "per_node_test_mae": per_node}
    if args.out:
        _write_json(Path(args.out), payload)
    print(json.dumps(payload["metrics"], sort_keys=True, indent=2))
    return EXIT_OK


def cmd_detect(args) -> int:
    config = _resolve_config(args)
    data_dir = Path(args.data_dir)
    prev = _load_dataset(data_dir, args.period - 1)
    curr = _load_dataset(data_dir, args.period)
    report = detect(prev, curr, **asdict(config.drift))
    payload = report.to_json_dict()
    if args.out:
        _write_json(Path(args.out), payload)
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


METRIC_COLUMNS = ("mae", "rmse", "mape", "class_accuracy")


def _test_metric_rows(period: int, report: dict) -> list[list]:
    """One [period, horizon, metric, value] row per test-split metric of a report."""
    test = report.get("metrics", {}).get("test", {})
    return [[period, h, m, repr(float(test[h][m]))] for h in sorted(test, key=int) for m in METRIC_COLUMNS]


def cmd_export_figures(args) -> int:
    report_dir = Path(args.report_dir)
    out_dir = _make_dir(Path(args.out_dir) if args.out_dir else report_dir)
    reports = _numbered(report_dir, "report", ".json")
    if not reports:
        raise DataError(f"no report_<period>.json files found in {report_dir}")

    metric_rows = [["period", "horizon", "metric", "value"]]
    timing_rows = [["period", "total_seconds", "per_epoch_seconds"]]
    for period, path in reports:
        metric_rows += _read_json(path, lambda report: _test_metric_rows(period, report))
        timing_rows.append(_read_json(report_dir / f"timings_{period}.json", lambda timing: [
            period, repr(float(timing["total_seconds"])), repr(float(timing["per_epoch_seconds"]))
        ]))
    metrics_path = out_dir / "figures_metrics.csv"
    timings_path = out_dir / "figures_timings.csv"
    for path, rows in ((metrics_path, metric_rows), (timings_path, timing_rows)):
        text = io.StringIO(newline="")
        csv.writer(text).writerows(rows)
        _write_text(path, text.getvalue())
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
