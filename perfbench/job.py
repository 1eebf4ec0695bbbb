"""One timed round of a workload, run in a process of its own.

Usage: python3 perfbench/job.py SPEC.json

The spec names the program's source directory, the CLI calls of the round
and whether to trace. The process imports and warms up everything before
the first timed call, so its CPU time and peak RSS are those of the job
alone. It writes its figures to the spec's `result` path and, when traced,
its spans to the spec's `trace` path.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import numpy as np

    import flowrl.cli as cli
    from probe import Probe
    from spans import Tracer, install_layer_spans, install_phase_timers, layer_metrics

    np.ones((64, 73)) @ np.ones((73, 64))  # load BLAS before the clock starts
    tracer = Tracer()
    (install_layer_spans if spec["trace"] else install_phase_timers)(tracer)

    calls = []
    with Probe() as probe:
        for argv in spec["calls"]:
            gc.collect()
            cpu0, wall0 = time.process_time(), time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            calls.append({"start": cpu0, "cpu_s": time.process_time() - cpu0,
                          "wall_s": time.perf_counter() - wall0, "exit": code})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.restore()

    run_s = sum(c["cpu_s"] for c in calls)
    scale = probe.scale()

    def scaled(intervals):
        """CPU s inside the intervals, at the probe speed measured inside them."""
        return sum(b - a for a, b in intervals) * probe.scale(intervals)

    def spans(name):
        return [(s[2], s[3]) for s in tracer.spans if s[0] == name]

    if spec["kind"] == "train":
        # final period: from the start of its CSV load to the end of its checkpoint write
        start = max((a for a, _ in spans("ingest.load_period")), default=0.0)
        end = max((b for _, b in spans("trainer.save_agent")), default=0.0)
    else:
        start, end = calls[-1]["start"], calls[-1]["start"] + calls[-1]["cpu_s"]
    result = {
        "calls": calls,
        "run_cpu_s": run_s,
        "scale": scale,
        "run_s": run_s * scale,
        "wall_s": sum(c["wall_s"] for c in calls),
        "last_period_cpu_s": max(end - start, 0.0),
        "last_period_s": scaled([(start, max(end, start))]),
        "eval_s": scaled(spans("trainer.evaluate")),
        "scored": tracer.counts["eval.scored"],
        "load_s": scaled(spans("ingest.load_period")),
        "rows": tracer.counts["ingest.rows"],
        "peak_rss_mb": peak_rss_mb,
    }
    if spec["trace"]:
        result["layers"] = layer_metrics(tracer, run_s, scale)
        with open(spec["trace"], "w") as f:
            json.dump({"fields": ["name", "parent", "cpu_start", "cpu_end"],
                       "spans": tracer.spans, "counts": dict(tracer.counts)}, f)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
