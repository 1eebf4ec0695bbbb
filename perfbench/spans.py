"""Spans around the program's layer functions, recorded from outside it.

A Tracer replaces module and class attributes that the program looks up at
call time with wrappers that record (name, parent, CPU start, CPU end) and
a few counts, and puts the originals back on `restore`. Metric runs wrap
only the phase functions the end-to-end rates need; traced runs wrap every
layer function below.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# Parent span of a forward pass -> the part of the work it serves.
_FORWARD_ROLE = {
    "trainer.train": "qnet.forward.train",
    "trainer.horizon_rollout": "qnet.forward.eval",
    "trainer.rollout": "qnet.forward.rollout",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, cpu start, cpu end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def parent_name(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Record a span around every call of owner.attr.

        `name` is a span name or a function of the tracer that picks one at
        call time; `count(counts, args, result)` adds to the counters.
        """
        original = getattr(owner, attr)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.process_time
        pick = name if callable(name) else None

        def wrapper(*args, **kwargs):
            rec = [pick(self) if pick else name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = original(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, out)
            return out

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict, dict, float]:
        """(inclusive CPU s by name, self CPU s by name, CPU s in root spans)."""
        incl: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        roots = 0.0
        for name, parent, start, end in self.spans:
            incl[name] += end - start
            if parent < 0:
                roots += end - start
            else:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for (name, _, start, end), inner in zip(self.spans, child):
            own[name] += end - start - inner
        return incl, own, roots


def _rows(counts, args, out):
    counts["ingest.rows"] += sum(len(s) for s in out.series.values())


def _scored(counts, args, out):
    metrics, _ = out
    counts["eval.scored"] += sum(m.count for per_h in metrics.values() for m in per_h.values())


def install_phase_timers(tracer: Tracer) -> None:
    """The spans the end-to-end metrics need: ingest, evaluation, checkpoint."""
    import flowrl.cli as cli
    import flowrl.trainer as trainer

    tracer.wrap(cli, "load_period", "ingest.load_period", _rows)
    tracer.wrap(cli, "evaluate_period", "trainer.evaluate", _scored)
    tracer.wrap(trainer, "evaluate_period", "trainer.evaluate", _scored)
    tracer.wrap(cli, "save_agent", "trainer.save_agent")


def _forward_name(tracer: Tracer) -> str:
    return _FORWARD_ROLE.get(tracer.parent_name(), "qnet.forward.other")


def _extend(counts, args, out):
    buffer, items = args[0], args[1]
    counts["replay.generated"] += len(items)
    counts["replay.buffered"] += len(buffer)
    counts["replay.pool_size"] = max(counts["replay.pool_size"], len(buffer))


def _n(key, size):
    def count(counts, args, out):
        counts[key] += size(args, out)
    return count


def install_layer_spans(tracer: Tracer) -> None:
    """Phase timers plus a span around every layer function the loop calls."""
    import flowrl.cli as cli
    import flowrl.drift as drift
    import flowrl.env as env
    import flowrl.qnet as qnet
    import flowrl.replay as replay
    import flowrl.trainer as trainer

    def forward_rows(counts, args, out):
        counts["qnet.forward_rows"] += out.shape[0]
        if tracer.parent_name() == "trainer.horizon_rollout":
            counts["qnet.forward_rows.eval"] += out.shape[0]

    install_phase_timers(tracer)
    w = tracer.wrap
    w(cli, "load_agent", "trainer.load_agent")
    w(cli, "init_agent", "trainer.init_agent")
    w(cli, "run_period", "trainer.run_period")
    for module in (cli, trainer):
        w(module, "fit_calibration", "env.fit")
        w(module, "fit_discretizer", "env.fit")
    w(drift, "detect", "drift.detect", _n("drift.nodes_scored", lambda a, out: len(out.scores)))
    w(env.StateAssembler, "states", "env.states", _n("env.state_rows", lambda a, out: out.shape[0]))
    w(trainer, "compute_rewards", "env.compute_rewards")
    w(trainer, "generate_rollout", "trainer.rollout",
      _n("trainer.experiences", lambda a, out: len(out.experiences)))
    w(trainer, "train_on_buffer", "trainer.train")
    w(trainer, "mixed_batch", "replay.mixed_batch")
    w(replay, "sample", "replay.sample", _n("replay.draws", lambda a, out: len(out)))
    w(replay.ConsolidationMemory, "draw", "replay.memory_draw",
      _n("replay.draws", lambda a, out: len(out)))
    w(replay.ReplayBuffer, "extend", "replay.extend", _extend)
    w(trainer, "retain_top_fraction", "replay.retain")
    w(trainer, "forward_batch", _forward_name, forward_rows)
    w(qnet, "forward_batch", _forward_name, forward_rows)
    w(trainer, "loss_and_gradients", "qnet.loss_and_gradients")
    w(trainer, "apply_update", "qnet.apply_update", _n("trainer.updates", lambda a, out: 1))
    w(trainer, "predict_horizon_block", "trainer.horizon_rollout",
      _n("trainer.forecasts", lambda a, out: out[0].shape[0]))
    w(trainer, "compute_metrics", "metrics.compute_metrics")


def install_setup_spans(tracer: Tracer) -> None:
    """Spans around the generator and the CSV writer that set-up calls."""
    import flowrl.cli as cli
    import flowrl.ingest as ingest

    for module in (cli, ingest):
        tracer.wrap(module, "generate_synthetic", "ingest.generate")
        tracer.wrap(module, "write_period", "ingest.write_period")


def layer_metrics(tracer: Tracer, run_s: float, scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced round whose CLI calls took run_s CPU s;
    CPU seconds are multiplied by the probe's `scale`."""
    incl, own, roots = tracer.totals()
    c = tracer.counts
    train_s = incl.get("trainer.train", 0.0) * scale
    forecasts = c["trainer.forecasts"]
    eval_rows = c["qnet.forward_rows.eval"]
    out = {
        "ingest.load_period.cpu_s": incl.get("ingest.load_period", 0.0),
        "ingest.rows": c["ingest.rows"],
        "drift.detect.cpu_s": incl.get("drift.detect", 0.0),
        "drift.nodes_scored": c["drift.nodes_scored"],
        "env.states.cpu_s": incl.get("env.states", 0.0),
        "env.state_rows": c["env.state_rows"],
        "env.compute_rewards.cpu_s": incl.get("env.compute_rewards", 0.0),
        "env.fit.cpu_s": incl.get("env.fit", 0.0),
        "replay.mixed_batch.cpu_s": incl.get("replay.mixed_batch", 0.0),
        "replay.sample.cpu_s": incl.get("replay.sample", 0.0),
        "replay.memory_draw.cpu_s": incl.get("replay.memory_draw", 0.0),
        "replay.extend.cpu_s": incl.get("replay.extend", 0.0),
        "replay.retain.cpu_s": incl.get("replay.retain", 0.0),
        "replay.draws": c["replay.draws"],
        "replay.pool_size": c["replay.pool_size"],
        "replay.kept_share": c["replay.buffered"] / c["replay.generated"] if c["replay.generated"] else 0.0,
        "qnet.forward.train.cpu_s": incl.get("qnet.forward.train", 0.0),
        "qnet.forward.eval.cpu_s": incl.get("qnet.forward.eval", 0.0),
        "qnet.forward.rollout.cpu_s": incl.get("qnet.forward.rollout", 0.0),
        "qnet.forward_rows": c["qnet.forward_rows"],
        "qnet.loss_and_gradients.cpu_s": incl.get("qnet.loss_and_gradients", 0.0),
        "qnet.apply_update.cpu_s": incl.get("qnet.apply_update", 0.0),
        "trainer.rollout.self_cpu_s": own.get("trainer.rollout", 0.0),
        "trainer.experiences": c["trainer.experiences"],
        "trainer.train.self_cpu_s": own.get("trainer.train", 0.0),
        "trainer.updates": c["trainer.updates"],
        "trainer.updates_per_s": c["trainer.updates"] / train_s if train_s else 0.0,
        "trainer.evaluate.self_cpu_s": own.get("trainer.evaluate", 0.0),
        "trainer.horizon_rollout.self_cpu_s": own.get("trainer.horizon_rollout", 0.0),
        "trainer.forecasts": forecasts,
        "trainer.forward_rows_per_forecast": eval_rows / forecasts if forecasts else 0.0,
        "trainer.save_agent.cpu_s": incl.get("trainer.save_agent", 0.0),
        "trainer.load_agent.cpu_s": incl.get("trainer.load_agent", 0.0),
        "metrics.compute_metrics.cpu_s": incl.get("metrics.compute_metrics", 0.0),
        "cli.self_cpu_s": run_s - roots,
        "trace.coverage": roots / run_s if run_s else 0.0,
    }
    return {k: v * scale if k.endswith("cpu_s") else v for k, v in out.items()}
