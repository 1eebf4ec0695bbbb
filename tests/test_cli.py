import errno
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowrl.cli as cli
from flowrl.cli import _write_json, _write_text, main
from flowrl.ingest import load_period
from flowrl.trainer import init_agent, load_agent, save_agent

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


# sha256 of every file `generate` writes for 2 periods of 40 steps, 5 sensors
# (+1 in period 2), seed 0: any change to the bytes written shows here.
GOLDEN_SHA256 = {
    "adjacency_1.csv": "d17c50742e56e06435703c1ad85345ae041c67249e7c332a6d50d37a7c409400",
    "adjacency_2.csv": "43dcadc2660e48bd5cd1eb168f479a10fe160da72435c6aef5683f0838714b2a",
    "config_echo.ini": "0c81580187a645c57d9d43d7f0a7cbbf5afa3eb5d6f315a7af3c84c28f2ec0a7",
    "nodes_1.csv": "e2202a158bdf23643085f6109a2880ea4a7ca970987e5d5e06ec028325826f5c",
    "nodes_2.csv": "6508e5a06b851657e9ac6aebab7d1e52caf664ccfda60d745d481539960c5d5f",
    "readings_1.csv": "15c99e5c839fbc996bb387b282f5d69edcee01d52764cdeaa980fcfb87e3d093",
    "readings_2.csv": "db49f52222e89b1f24ac5d78e33a42538dbeb9feb57ff321a2b06e34ea027fda",
}


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

    def test_golden_file_hashes(self, tmp_path):
        config = tmp_path / "golden.ini"
        config.write_text("[run]\nseed = 0\n\n[generator]\nperiods = 2\ninitial_nodes = 5\n"
                          "growth_per_period = 1\nsteps_per_period = 40\n")
        out = tmp_path / "data"
        assert main(["generate", "--config", str(config), "--out-dir", str(out)]) == 0
        got = {name: hashlib.sha256(data).hexdigest() for name, data in dir_bytes(out, "*").items()}
        assert got == GOLDEN_SHA256

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

    def test_resume_after_failed_checkpoint_save(self, tmp_path, generated, monkeypatch, capsys):
        """The disk fills up while period 2's checkpoint is written, after its
        report: the run fails and leaves no checkpoint for period 2, and
        --resume redoes period 2 as an uninterrupted run does."""
        data, config = generated
        full, out = tmp_path / "full", tmp_path / "out"
        main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(full)])
        real_save = cli.save_agent
        failed = []

        def disk_full_once(agent, path):
            if path.name != "checkpoint_2.npz" or failed:
                return real_save(agent, path)
            failed.append(path)

            def partial_savez(f, **arrays):
                f.write(b"PK\x03\x04")  # a zip's first bytes, then nothing fits
                raise OSError(errno.ENOSPC, "No space left on device")

            with monkeypatch.context() as m:
                m.setattr(np, "savez", partial_savez)
                return real_save(agent, path)

        monkeypatch.setattr(cli, "save_agent", disk_full_once)
        train = ["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(out)]
        capsys.readouterr()
        assert main(train) != 0
        assert "No space left on device" in capsys.readouterr().err
        assert failed == [out / "checkpoint_2.npz"]
        assert (out / "report_2.json").exists()
        assert not (out / "checkpoint_2.npz").exists()
        assert not (out / "checkpoint_2.npz.tmp").exists()

        assert main(train + ["--resume"]) == 0
        assert "resuming after period 1" in capsys.readouterr().out
        assert (out / "report_2.json").read_bytes() == (full / "report_2.json").read_bytes()
        with np.load(out / "checkpoint_2.npz") as got, np.load(full / "checkpoint_2.npz") as want:
            assert sorted(got.files) == sorted(want.files)
            for name in want.files:
                np.testing.assert_array_equal(got[name], want[name], err_msg=name, strict=True)

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
        ("evaluate", "net_b2"), ("train", "opt_v_wa"), ("train", "mem_steps"),
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

    @pytest.mark.parametrize("command,key", [
        ("evaluate", "net_w1"), ("train", "net_w1"), ("train", "opt_m_wa"), ("evaluate", "opt_v_b1"),
        ("train", "mem_steps"), ("evaluate", "mem_reward"),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_checkpoint_is_data_error(self, tmp_path, generated, capsys, command, key, bad):
        data, config = generated
        out = tmp_path / "out"
        main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(out)])
        for name in ("checkpoint_2.npz", "report_2.json"):
            (out / name).unlink()
        checkpoint = out / "checkpoint_1.npz"
        with np.load(checkpoint) as saved:
            payload = dict(saved)
        assert payload[key].size > 0
        payload[key].flat[0] = bad
        np.savez(checkpoint, **payload)
        capsys.readouterr()
        if command == "evaluate":
            args = ["evaluate", "--checkpoint", str(checkpoint), "--period", "1"]
        else:
            args = ["train", "--out-dir", str(out), "--resume"]
        code = main([*args, "--config", str(config), "--data-dir", str(data)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"corrupt checkpoint {checkpoint}: {key} holds non-finite values" in captured.err
        assert captured.out == ""  # no metrics printed, no period trained
        assert not (out / "report_2.json").exists()

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
        """Versions 1 and 2 (state rows in mem_states) are both rejected."""
        data, config = generated
        out = tmp_path / "out"
        main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(out)])
        (out / "checkpoint_2.npz").unlink()
        with np.load(out / "checkpoint_1.npz") as saved:
            payload = dict(saved)
        for version in (1, 2):
            payload["version"] = np.array(version)
            np.savez(out / "checkpoint_1.npz", **payload)
            capsys.readouterr()
            code = main([
                "train", "--config", str(config), "--data-dir", str(data),
                "--out-dir", str(out), "--resume",
            ])
            assert code == 2
            assert f"unsupported agent checkpoint version {version}" in capsys.readouterr().err

    def test_version_3_checkpoint_is_data_error(self, tmp_path, generated, capsys):
        """A format-3 file, whose memory keeps one (6, W + 1) window per
        transition in mem_windows, is rejected by its version."""
        data, config = generated
        out = tmp_path / "out"
        main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(out)])
        for name in ("checkpoint_2.npz", "report_2.json"):
            (out / name).unlink()
        checkpoint = out / "checkpoint_1.npz"
        memory = load_agent(checkpoint).memory
        with np.load(checkpoint) as saved:
            payload = {key: saved[key] for key in saved.files if key not in ("mem_steps", "mem_start")}
        payload["mem_windows"] = memory.window_columns(np.arange(len(memory)))[0]
        payload["version"] = np.array(3)
        np.savez(checkpoint, **payload)
        capsys.readouterr()
        code = main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(out),
                     "--resume"])
        assert code == 2
        assert f"corrupt checkpoint {checkpoint}: unsupported agent checkpoint version 3" in capsys.readouterr().err
        assert not (out / "report_2.json").exists()

    @pytest.mark.parametrize("key,change,message", [
        ("mem_reward", lambda column: column[:-3], "mem_reward has shape"),
        ("mem_degree", lambda column: column[1:], "mem_degree has shape"),
        ("mem_start", lambda column: column[:-3], "mem_start has shape"),
        ("mem_steps", lambda column: column[:-2], "mem_start holds window starts outside [0, "),
        ("mem_steps", lambda column: column[:, :5], "mem_steps has shape"),
        ("mem_steps", lambda column: column.ravel(), "mem_steps has shape"),
        ("mem_start", lambda column: np.where(np.arange(len(column)) == 1, -1, column),
         "mem_start holds window starts outside [0, "),
        ("mem_start", lambda column: column + 1, "mem_start holds window starts outside [0, "),
        ("mem_action", lambda column: column + 5, "mem_action holds actions outside [0, 4]"),
        ("mem_action", lambda column: column - 5, "mem_action holds actions outside [0, 4]"),
    ], ids=["short-reward", "short-degree", "short-start", "narrow-windows", "five-channels",
            "flat-steps", "start-below", "start-past-end", "action-above", "action-below"])
    def test_inconsistent_memory_is_data_error(self, tmp_path, generated, capsys, key, change, message):
        """Memory columns of unequal length, a step table that is not
        (C, 6), windows that start outside it or run past its end (a table
        two steps short narrows the last window) and actions outside the
        action space are named when the checkpoint is read, before any
        period trains."""
        data, config = generated
        out = tmp_path / "out"
        main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(out)])
        for name in ("checkpoint_2.npz", "report_2.json"):
            (out / name).unlink()
        checkpoint = out / "checkpoint_1.npz"
        with np.load(checkpoint) as saved:
            payload = dict(saved)
        payload[key] = change(payload[key])
        np.savez(checkpoint, **payload)
        capsys.readouterr()
        code = main(["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(out),
                     "--resume"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"data error: corrupt checkpoint {checkpoint}: {message}" in captured.err
        assert not (out / "report_2.json").exists()

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

    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["generate", "--seed", "-1", "--out-dir", str(tmp_path / "x")]) == 1
        assert "--seed -1: seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("drift, message", [
        ("s0001:99:30.0", "drift spec for node 's0001' targets period 99, outside [1, 2]"),
        ("nosuch:2:30.0", "drift spec targets node 'nosuch' absent from the period-2 graph"),
        ("s0001:2:30.0, s0001:2:5.0", "multiple drift specs for node 's0001'"),
    ])
    def test_bad_drift_spec_is_config_error(self, tmp_path, capsys, drift, message):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[generator]\nperiods = 2\ninitial_nodes = 3\ndrift = {drift}\n")
        assert main(["generate", "--config", str(bad), "--out-dir", str(tmp_path / "x")]) == 1
        assert f"[generator] drift: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def set_flows(readings, value, steps=slice(None)):
    """Rewrite the flow of every reading at the time indices `steps` of the file's axis."""
    header, *rows = [line.split(",") for line in readings.read_text().splitlines()]
    chosen = set(sorted({row[0] for row in rows})[steps])
    rows = [[row[0], row[1], value, *row[3:]] if row[0] in chosen else row for row in rows]
    readings.write_text("".join(",".join(row) + "\n" for row in [header, *rows]))


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("fault,period,message", [
    ("constant-flows", 1, "degenerate binning: need >= 5 distinct training flow values, got 1"),
    ("tied-flows", 1, "degenerate binning: training-flow percentile edges not strictly increasing"),
    ("zero-test-flows", 2, "every actual flow of the test split at horizon 3 is zero"),
], ids=["constant-flows", "tied-flows", "zero-test-flows"])
def test_unscorable_readings_are_data_errors(tmp_path, capsys, command, fault, period, message):
    """Readings that load but whose training flows cannot be binned, or
    whose scored flows are all zero, end train and evaluate with a data
    error naming the period's readings file."""
    config = tmp_path / "smoke.ini"
    config.write_text("[generator]\nperiods = 2\ninitial_nodes = 5\ngrowth_per_period = 1\n"
                      "steps_per_period = 60\n")
    data = tmp_path / "data"
    main(["generate", "--config", str(config), "--seed", "3", "--out-dir", str(data)])
    readings = data / f"readings_{period}.csv"
    if fault == "constant-flows":
        set_flows(readings, "10.0")
    elif fault == "tied-flows":
        set_flows(readings, "10.0", slice(0, 30))  # 30 of the 36 training steps
    else:
        set_flows(readings, "0.0", slice(48, 60))  # the test split of 60 steps
    common = ["--config", str(config), "--seed", "3", "--data-dir", str(data)]
    if command == "train":
        argv = ["train", *common, "--out-dir", str(tmp_path / "out")]
    else:
        checkpoint = tmp_path / "checkpoint.npz"
        save_agent(init_agent(6 * 12 + 1), checkpoint)
        argv = ["evaluate", *common, "--checkpoint", str(checkpoint), "--period", str(period)]
    capsys.readouterr()
    assert main(argv) == 2
    assert f"data error: {readings}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out" / f"report_{period}.json").exists()


@pytest.mark.parametrize("fault", [
    "train-out-dir", "export-out-dir", "evaluate-out", "detect-out",
    "corrupt-report", "timings-without-total",
])
def test_path_fault_is_data_error_naming_the_file(tmp_path, generated, capsys, fault):
    data, config = generated
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory\n")
    reports = tmp_path / "reports"
    fake_reports(reports)
    if fault == "corrupt-report":
        (reports / "report_2.json").write_text("{truncated")
    if fault == "timings-without-total":
        (reports / "timings_2.json").write_text('{"period": 2, "per_epoch_seconds": 0.5}')
    checkpoint = tmp_path / "checkpoint_2.npz"
    save_agent(init_agent(6 * 6 + 1), checkpoint)
    common = ["--config", str(config), "--data-dir", str(data)]
    missing = tmp_path / "missing" / "out.json"
    argv, named = {
        "train-out-dir": (["train", *common, "--out-dir", str(blocker / "run")], blocker / "run"),
        "export-out-dir": (["export-figures", "--report-dir", str(reports),
                            "--out-dir", str(blocker / "figures")], blocker / "figures"),
        "evaluate-out": (["evaluate", *common, "--checkpoint", str(checkpoint), "--period", "2",
                          "--out", str(missing)], missing),
        "detect-out": (["detect", *common, "--period", "2", "--out", str(missing)], missing),
        "corrupt-report": (["export-figures", "--report-dir", str(reports)], reports / "report_2.json"),
        "timings-without-total": (["export-figures", "--report-dir", str(reports)],
                                  reports / "timings_2.json"),
    }[fault]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(named) in err
    assert not list(tmp_path.rglob("*.tmp"))


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


def test_reports_equal_across_blas_thread_counts(tmp_path, tiny_config):
    """One tiny generate + train gives the same report bytes with one BLAS
    thread and with two. The thread count is read when numpy loads, so
    each run is a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        data, out = tmp_path / f"data{threads}", tmp_path / f"out{threads}"
        for args in (["generate", "--out-dir", str(data)],
                     ["train", "--data-dir", str(data), "--out-dir", str(out)]):
            subprocess.run([sys.executable, "-m", "flowrl", *args, "--config", str(tiny_config)],
                           env=env, check=True, capture_output=True, timeout=300)
        reports.append(dir_bytes(out, "report_*.json"))
    assert sorted(reports[0]) == ["report_1.json", "report_2.json"]
    assert reports[0] == reports[1]
