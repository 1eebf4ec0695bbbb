"""Workload definitions of the benchmark and their set-up.

A workload is a config file for the program, the inputs set-up writes
from it, and the CLI calls that make up one timed round. Inputs come only
from the seed: the same seed writes the same files.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

# File layout that `flowrl generate` writes and `flowrl train/evaluate` read.
READINGS = "readings_{}.csv"
ADJACENCY = "adjacency_{}.csv"
NODES = "nodes_{}.csv"

# s0000-s0004 shift by +30 flow units in period 2 and s0005-s0010 in period 3:
# the drift of the criterion 7/8 stream of the acceptance suite.
STREAM_DRIFT = tuple((f"s{i:04d}", 2) for i in range(5)) + tuple(
    (f"s{i:04d}", 3) for i in range(5, 11)
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind "train" runs `flowrl train` over every period; kind "evaluate"
    runs `flowrl evaluate` of a checkpoint, made at set-up by training on
    the small separate stream `ckpt_generator`, on each period.
    """

    name: str
    kind: str
    generator: dict
    trainer: dict = field(default_factory=dict)
    planted: tuple = ()  # (sensor, period) pairs with a planted +30 flow shift
    ckpt_generator: dict | None = None
    ckpt_trainer: dict | None = None

    @property
    def periods(self) -> list[int]:
        return list(range(1, self.generator["periods"] + 1))

    @property
    def steps(self) -> int:
        return self.generator["steps_per_period"]


def _ini(seed: int, generator: dict, trainer: dict, planted=()) -> str:
    lines = ["[run]", f"seed = {seed}", "", "[trainer]"]
    lines += [f"{k} = {v}" for k, v in trainer.items()]
    lines += ["", "[generator]"]
    lines += [f"{k} = {v}" for k, v in generator.items()]
    if planted:
        lines.append("drift = " + ",".join(f"{node}:{period}:30.0" for node, period in planted))
    return "\n".join(lines) + "\n"


def job_config(wl: Workload, seed: int) -> str:
    return _ini(seed, wl.generator, wl.trainer, wl.planted)


def ckpt_config(wl: Workload, seed: int) -> str:
    return _ini(seed + 1, wl.ckpt_generator, wl.ckpt_trainer)


_SHAPE = {"noise_sigma": 4.0, "phase_jitter_steps": 40.0, "amplitude_jitter": 0.25}

WORKLOADS = {
    "stream": Workload(
        name="stream",
        kind="train",
        generator={"periods": 3, "initial_nodes": 50, "growth_per_period": 5,
                   "steps_per_period": 2000, **_SHAPE},
        trainer={"epochs": 8, "gamma": 0.85, "mix_rho": 0.25, "horizons": "3,12",
                 "batch_size": 128, "learning_rate": 0.001, "eps_decay_steps": 10000},
        planted=STREAM_DRIFT,
    ),
    # 117,600 bootstrap experiences against the 100,000-slot default buffer.
    "grow": Workload(
        name="grow",
        kind="train",
        generator={"periods": 3, "initial_nodes": 200, "growth_per_period": 20,
                   "steps_per_period": 1000, **_SHAPE},
        trainer={"epochs": 1},
    ),
    "forecast": Workload(
        name="forecast",
        kind="evaluate",
        generator={"periods": 2, "initial_nodes": 380, "growth_per_period": 20,
                   "steps_per_period": 1008, **_SHAPE},
        ckpt_generator={"periods": 1, "initial_nodes": 24, "growth_per_period": 0,
                        "steps_per_period": 1008, **_SHAPE},
        ckpt_trainer={"epochs": 2},
    ),
}


def job_calls(wl: Workload, work: Path) -> list[list[str]]:
    """The CLI argument lists of one timed round, in order."""
    if wl.kind == "train":
        return [["train", "--config", str(work / "job.ini"), "--data-dir", str(work / "data"),
                 "--out-dir", str(work / "out")]]
    return [
        ["evaluate", "--config", str(work / "job.ini"), "--data-dir", str(work / "data"),
         "--checkpoint", str(checkpoint_path(wl, work)), "--period", str(p),
         "--out", str(work / "out" / f"evaluate_{p}.json")]
        for p in wl.periods
    ]


def checkpoint_path(wl: Workload, work: Path) -> Path:
    """The checkpoint set-up trains for an evaluate workload."""
    return work / "ckpt_out" / "checkpoint_1.npz"


def clear(work: Path) -> None:
    """Remove the outputs of an earlier set-up or run."""
    if work.exists():
        shutil.rmtree(work)


def setup(wl: Workload, seed: int, work: Path):
    """Write the workload's inputs under an empty `work`; returns the generated datasets.

    This is the part of a run that `setup_s` times: the program generates
    and writes the period files and, for an evaluate workload, trains the
    checkpoint it will read.
    """
    from flowrl.cli import main as cli_main
    from flowrl.config import parse_config
    from flowrl.ingest import generate_synthetic, write_period

    data = work / "data"
    data.mkdir(parents=True)
    (work / "out").mkdir()
    text = job_config(wl, seed)
    (work / "job.ini").write_text(text)
    config = parse_config(text)
    datasets = generate_synthetic(config.generator, config.seed)
    for ds in datasets:
        write_period(ds, data / READINGS.format(ds.period), data / ADJACENCY.format(ds.period),
                     nodes_path=data / NODES.format(ds.period))
    if wl.kind == "evaluate":
        (work / "ckpt.ini").write_text(ckpt_config(wl, seed))
        ckpt_data = work / "ckpt_data"
        rc = cli_main(["generate", "--config", str(work / "ckpt.ini"), "--out-dir", str(ckpt_data)])
        if rc == 0:
            rc = cli_main(["train", "--config", str(work / "ckpt.ini"), "--data-dir", str(ckpt_data),
                           "--out-dir", str(work / "ckpt_out")])
        if rc != 0:
            raise RuntimeError(f"set-up of {wl.name} failed with exit code {rc}")
    return datasets
