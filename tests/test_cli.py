import json
import shutil

import numpy as np
import pytest

from flowrl.cli import _write_json, _write_text, main
from flowrl.ingest import load_period
from flowrl.trainer import init_agent, save_agent

TINY_CONFIG = """
[run]
seed = 12

[env]
window = 6

[trainer]
epochs = 2
batch_size = 32
horizons = 1,3
eps_decay_steps = 400

[generator]
periods = 2
initial_nodes = 5
growth_per_period = 1
steps_per_period = 120
noise_sigma = 2.0
phase_jitter_steps = 15.0
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(TINY_CONFIG)
    return path


def dir_bytes(d, pattern):
    return {p.name: p.read_bytes() for p in sorted(d.glob(pattern))}


class TestGenerate:
    def test_files_exist_and_reload(self, tmp_path, tiny_config):
        out = tmp_path / "data"
        assert main(["generate", "--config", str(tiny_config), "--out-dir", str(out)]) == 0
        for period in (1, 2):
            ds = load_period(
                out / f"readings_{period}.csv",
                out / f"adjacency_{period}.csv",
                period,
                nodes_path=out / f"nodes_{period}.csv",
            )
            assert ds.period == period
        assert (out / "config_echo.ini").exists()

    def test_same_seed_identical_bytes(self, tmp_path, tiny_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", str(tiny_config), "--out-dir", str(out1)]) == 0
        assert main(["generate", "--config", str(tiny_config), "--out-dir", str(out2)]) == 0
        assert dir_bytes(out1, "*.csv") == dir_bytes(out2, "*.csv")

    def test_config_echo_reproduces(self, tmp_path, tiny_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", str(tiny_config), "--out-dir", str(out1)])
        assert main(["generate", "--config", str(out1 / "config_echo.ini"), "--out-dir", str(out2)]) == 0
        assert dir_bytes(out1, "*.csv") == dir_bytes(out2, "*.csv")

    def test_zero_periods_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[generator]\nperiods = 0\n")
        assert main(["generate", "--config", str(bad), "--out-dir", str(tmp_path / "x")]) == 1

    def test_seed_flag_overrides(self, tmp_path, tiny_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", str(tiny_config), "--out-dir", str(out1), "--seed", "77"])
        main(["generate", "--config", str(tiny_config), "--out-dir", str(out2)])
        assert dir_bytes(out1, "readings_1.csv") != dir_bytes(out2, "readings_1.csv")


@pytest.fixture()
def generated(tmp_path, tiny_config):
    data = tmp_path / "data"
    main(["generate", "--config", str(tiny_config), "--out-dir", str(data)])
    return data, tiny_config


class TestTrain:
    def test_reports_and_checkpoints_per_period(self, tmp_path, generated):
        data, config = generated
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(out)]) == 0
        for period in (1, 2):
            assert (out / f"report_{period}.json").exists()
            assert (out / f"checkpoint_{period}.npz").exists()
            assert (out / f"timings_{period}.json").exists()
            report = json.loads((out / f"report_{period}.json").read_text())
            for split in ("val", "test"):
                for h in ("1", "3"):
                    mae = report["metrics"][split][h]["mae"]
                    assert np.isfinite(mae) and mae >= 0

    def test_two_runs_byte_identical_reports(self, tmp_path, generated):
        data, config = generated
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(out1)])
        main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(out2)])
        assert dir_bytes(out1, "report_*.json") == dir_bytes(out2, "report_*.json")

    def test_resume_reproduces_second_period_bitwise(self, tmp_path, generated):
        data, config = generated
        full = tmp_path / "full"
        main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(full)])
        resumed = tmp_path / "resumed"
        resumed.mkdir()
        shutil.copy(full / "checkpoint_1.npz", resumed / "checkpoint_1.npz")
        assert main([
            "train", "--config", str(config), "--data-dir", str(data),
            "--out-dir", str(resumed), "--resume",
        ]) == 0
        assert (resumed / "report_2.json").read_bytes() == (full / "report_2.json").read_bytes()

    @pytest.mark.parametrize("section,key,value,saved,configured", [
        ("qnet", "hidden", "16", "64", "16"),
        ("qnet", "dueling", "false", "True", "False"),
        ("qnet", "optimizer", "sgd", "adam", "sgd"),
        ("trainer", "learning_rate", "0.01", "0.001", "0.01"),
    ])
    def test_resume_with_another_model_config_is_data_error(
            self, tmp_path, generated, capsys, section, key, value, saved, configured):
        data, config = generated
        out = tmp_path / "out"
        out.mkdir()
        save_agent(init_agent(6 * 6 + 1, seed=12), out / "checkpoint_1.npz")
        (out / "config_echo.ini").write_text("previous\n")
        text = config.read_text()
        header = f"[{section}]\n"
        text = text.replace(header, header + f"{key} = {value}\n") if header in text else (
            text + header + f"{key} = {value}\n")
        changed = tmp_path / "changed.ini"
        changed.write_text(text)
        capsys.readouterr()
        code = main(["train", "--config", str(changed), "--data-dir", str(data),
                     "--out-dir", str(out), "--resume"])
        assert code == 2
        assert f"[{section}] {key} = {saved}, but the config sets {configured}" in capsys.readouterr().err
        assert (out / "config_echo.ini").read_text() == "previous\n"
        assert not (out / "report_2.json").exists()

    def test_graph_node_without_readings_is_data_error(self, tmp_path, generated, capsys):
        data, config = generated
        readings = data / "readings_2.csv"
        lines = readings.read_text().splitlines()
        readings.write_text("\n".join(line for line in lines if ",s0001," not in line) + "\n")
        code = main(["train", "--config", str(config), "--data-dir", str(data),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "adjacency_2.csv:" in err
        assert "node 's0001' of the period-2 snapshot has no readings in readings_2.csv" in err

    def test_zoned_timestamp_is_data_error(self, tmp_path, generated, capsys):
        data, config = generated
        readings = data / "readings_2.csv"
        lines = readings.read_text().splitlines()
        stamp, rest = lines[7].split(",", 1)
        lines[7] = f"{stamp}+00:00,{rest}"
        readings.write_text("\n".join(lines) + "\n")
        code = main(["train", "--config", str(config), "--data-dir", str(data),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert f"readings_2.csv:8: bad timestamp '{stamp}+00:00'" in capsys.readouterr().err

    def test_shifted_sensor_is_data_error(self, tmp_path, generated, capsys):
        data, config = generated
        readings = data / "readings_2.csv"
        lines = readings.read_text().splitlines()
        for k, line in enumerate(lines):
            stamp, sid, rest = line.split(",", 2)
            if sid == "s0002":
                lines[k] = f"{np.datetime64(stamp) + np.timedelta64(5, 'h')},{sid},{rest}"
        readings.write_text("\n".join(lines) + "\n")
        code = main(["train", "--config", str(config), "--data-dir", str(data),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "sensor 's0002': timestamp gap, no reading at" in capsys.readouterr().err

    def test_missing_data_dir_is_data_error(self, tmp_path, tiny_config):
        code = main([
            "train", "--config", str(tiny_config),
            "--data-dir", str(tmp_path / "nope"), "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_missing_period_is_data_error(self, tmp_path, generated):
        data, config = generated
        (data / "readings_2.csv").rename(data / "readings_9.csv")
        code = main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(tmp_path / "out")])
        assert code == 2

    def test_corrupt_checkpoint_is_data_error(self, tmp_path, generated, capsys):
        data, config = generated
        out = tmp_path / "out"
        out.mkdir()
        save_agent(init_agent(6 * 6 + 1), out / "checkpoint_1.npz")
        whole = (out / "checkpoint_1.npz").read_bytes()
        for content in (b"garbage", whole[: len(whole) // 2]):  # the second: a half-written save
            (out / "checkpoint_1.npz").write_bytes(content)
            capsys.readouterr()
            code = main([
                "train", "--config", str(config), "--data-dir", str(data),
                "--out-dir", str(out), "--resume",
            ])
            assert code == 2
            assert "data error: corrupt checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key", [
        ("evaluate", "net_b2"), ("train", "opt_v_wa"), ("train", "mem_states"),
    ])
    def test_misshaped_checkpoint_is_data_error(self, tmp_path, generated, capsys, command, key):
        data, config = generated
        out = tmp_path / "out"
        main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(out)])
        (out / "checkpoint_2.npz").unlink()
        checkpoint = out / "checkpoint_1.npz"
        with np.load(checkpoint) as saved:
            payload = dict(saved)
        payload[key] = payload[key][..., :-1]
        np.savez(checkpoint, **payload)
        capsys.readouterr()
        if command == "evaluate":
            args = ["evaluate", "--checkpoint", str(checkpoint), "--period", "1"]
        else:
            args = ["train", "--out-dir", str(out), "--resume"]
        code = main([*args, "--config", str(config), "--data-dir", str(data)])
        assert code == 2
        assert f"{key} has shape" in capsys.readouterr().err

    def test_checkpoint_for_another_window_is_data_error(self, tmp_path, generated, capsys):
        data, config = generated
        out = tmp_path / "out"
        main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(out)])
        other = tmp_path / "window5.ini"
        other.write_text(config.read_text().replace("window = 6", "window = 5"))
        capsys.readouterr()
        code = main(["evaluate", "--config", str(other), "--data-dir", str(data),
                     "--checkpoint", str(out / "checkpoint_2.npz"), "--period", "2"])
        assert code == 2
        assert "takes states of 37 values, but window 5 builds 31" in capsys.readouterr().err

    @pytest.mark.parametrize("broken", ["grad", "loss"])
    def test_divergence_is_internal_error_naming_period_and_update(
            self, tmp_path, generated, capsys, monkeypatch, broken):
        import flowrl.trainer as trainer_mod

        data, config = generated
        honest = trainer_mod.loss_and_gradients
        calls = []

        def diverging(*args):
            loss, grad = honest(*args)
            calls.append(1)
            if len(calls) == 3:
                if broken == "grad":
                    grad[5] = np.nan
                else:
                    loss = float("nan")
            return loss, grad

        monkeypatch.setattr(trainer_mod, "loss_and_gradients", diverging)
        out = tmp_path / "out"
        code = main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "internal error: DivergenceError: training diverged in period 1 at update 3" in err
        assert not (out / "report_1.json").exists()
        assert not (out / "checkpoint_1.npz").exists()

    def test_version_1_checkpoint_is_data_error(self, tmp_path, generated, capsys):
        data, config = generated
        out = tmp_path / "out"
        main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(out)])
        (out / "checkpoint_2.npz").unlink()
        with np.load(out / "checkpoint_1.npz") as saved:
            payload = dict(saved)
        payload["version"] = np.array(1)
        np.savez(out / "checkpoint_1.npz", **payload)
        capsys.readouterr()
        code = main([
            "train", "--config", str(config), "--data-dir", str(data),
            "--out-dir", str(out), "--resume",
        ])
        assert code == 2
        assert "unsupported agent checkpoint version 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flow_is_data_error(self, tmp_path, generated, capsys, value):
        data, config = generated
        readings = data / "readings_2.csv"
        lines = readings.read_text().splitlines()
        parts = lines[7].split(",")
        parts[2] = value
        lines[7] = ",".join(parts)
        readings.write_text("\n".join(lines) + "\n")
        code = main(["train", "--config", str(config), "--data-dir", str(data),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert f"readings_2.csv:8: non-finite flow {value}" in capsys.readouterr().err


class TestEvaluateAndDetect:
    def test_evaluate_runs_on_checkpoint(self, tmp_path, generated, capsys):
        data, config = generated
        out = tmp_path / "run"
        main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(out)])
        eval_out = tmp_path / "eval.json"
        code = main([
            "evaluate", "--config", str(config), "--data-dir", str(data),
            "--checkpoint", str(out / "checkpoint_2.npz"), "--period", "2",
            "--out", str(eval_out),
        ])
        assert code == 0
        payload = json.loads(eval_out.read_text())
        assert "test" in payload["metrics"]

    def test_detect_writes_spec_schema(self, tmp_path, generated):
        data, config = generated
        out = tmp_path / "drift.json"
        code = main([
            "detect", "--config", str(config), "--data-dir", str(data),
            "--period", "2", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"period", "scores", "candidates"}
        assert payload["period"] == 2
        assert all(set(s) == {"node", "kl"} for s in payload["scores"])


def fake_reports(report_dir, periods=3, horizons=("1", "3")):
    report_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(0)
    for period in range(1, periods + 1):
        metrics = {
            split: {
                h: {
                    "mae": float(rng.uniform(1, 9)),
                    "rmse": float(rng.uniform(9, 20)),
                    "mape": float(rng.uniform(5, 60)),
                    "class_accuracy": float(rng.uniform(0, 1)),
                    "count": 100,
                }
                for h in horizons
            }
            for split in ("val", "test")
        }
        (report_dir / f"report_{period}.json").write_text(
            json.dumps({"period": period, "metrics": metrics}, sort_keys=True, indent=2)
        )
        (report_dir / f"timings_{period}.json").write_text(
            json.dumps({
                "period": period,
                "total_seconds": float(rng.uniform(1, 5)),
                "per_epoch_seconds": float(rng.uniform(0.1, 1)),
            })
        )


class TestExportFigures:
    def test_row_counts(self, tmp_path):
        fake_reports(tmp_path / "reports")
        assert main(["export-figures", "--report-dir", str(tmp_path / "reports")]) == 0
        rows = (tmp_path / "reports" / "figures_metrics.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3 * 2 * 4  # header + periods x horizons x metrics
        timing_rows = (tmp_path / "reports" / "figures_timings.csv").read_text().strip().splitlines()
        assert len(timing_rows) == 1 + 3

    def test_idempotent_and_exact(self, tmp_path):
        rep = tmp_path / "reports"
        fake_reports(rep)
        main(["export-figures", "--report-dir", str(rep)])
        first = (rep / "figures_metrics.csv").read_bytes()
        main(["export-figures", "--report-dir", str(rep)])
        assert (rep / "figures_metrics.csv").read_bytes() == first
        # every exported value equals the source-report value exactly
        import csv as csv_mod

        with open(rep / "figures_metrics.csv") as f:
            for row in csv_mod.DictReader(f):
                report = json.loads((rep / f"report_{row['period']}.json").read_text())
                source = report["metrics"]["test"][row["horizon"]][row["metric"]]
                assert float(row["value"]) == source

    def test_failed_export_keeps_previous_files(self, tmp_path):
        rep = tmp_path / "reports"
        fake_reports(rep)
        assert main(["export-figures", "--report-dir", str(rep)]) == 0
        before = dir_bytes(rep, "figures_*.csv")
        report = json.loads((rep / "report_1.json").read_text())
        report["metrics"]["test"]["3"]["mae"] += 1.0
        (rep / "report_1.json").write_text(json.dumps(report))
        (rep / "timings_2.json").unlink()
        assert main(["export-figures", "--report-dir", str(rep)]) == 2
        assert dir_bytes(rep, "figures_*.csv") == before
        assert not list(rep.glob("*.tmp"))

    def test_no_reports_is_data_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["export-figures", "--report-dir", str(empty)]) == 2

    def test_missing_timings_is_data_error(self, tmp_path):
        rep = tmp_path / "reports"
        fake_reports(rep)
        (rep / "timings_2.json").unlink()
        assert main(["export-figures", "--report-dir", str(rep)]) == 2


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert main(["generate"]) == 1

    def test_removed_threads_flag_is_usage_error(self, tmp_path):
        assert main(["train", "--threads", "2", "--data-dir", str(tmp_path),
                     "--out-dir", str(tmp_path / "out")]) == 1

    def test_bad_config_path_is_usage_error(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "none.ini"), "--out-dir", str(tmp_path)]) == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[trainer]\nturbo = yes\n")
        assert main(["generate", "--config", str(bad), "--out-dir", str(tmp_path / "x")]) == 1


def test_freeze_after_first_period(tmp_path, generated):
    data, _ = generated
    frozen_cfg = tmp_path / "frozen.ini"
    frozen_cfg.write_text(
        TINY_CONFIG.replace("[trainer]", "[trainer]\nfreeze_after_first_period = true")
    )
    out = tmp_path / "frozen_run"
    assert main(["train", "--config", str(frozen_cfg), "--data-dir", str(data), "--out-dir", str(out)]) == 0
    report1 = json.loads((out / "report_1.json").read_text())
    report2 = json.loads((out / "report_2.json").read_text())
    assert report1["updates"] > 0
    assert report2["updates"] == 0  # frozen model still evaluates but never trains


def test_export_figures_from_real_run(tmp_path, generated):
    data, config = generated
    out = tmp_path / "run"
    main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(out)])
    assert main(["export-figures", "--report-dir", str(out)]) == 0
    rows = (out / "figures_metrics.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 2 * 4  # 2 periods x 2 horizons x 4 metrics
    timing_rows = (out / "figures_timings.csv").read_text().strip().splitlines()
    assert len(timing_rows) == 1 + 2


def test_internal_error_exit_code(monkeypatch, tmp_path):
    import flowrl.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "generate_synthetic", boom)
    assert main(["generate", "--out-dir", str(tmp_path / "x")]) == 3


def test_json_writes_are_atomic_and_reject_non_finite(tmp_path):
    path = tmp_path / "report_1.json"
    _write_json(path, {"mae": 1.5})
    before = path.read_bytes()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="JSON compliant"):
            _write_json(path, {"mae": bad})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report_1.json"]


def test_text_writes_are_atomic(tmp_path):
    path = tmp_path / "config_echo.ini"
    _write_text(path, "[run]\nseed = 1\n")
    with pytest.raises(UnicodeEncodeError):
        _write_text(path, "[run]\nseed = \ud800\n")
    assert path.read_text() == "[run]\nseed = 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config_echo.ini"]
