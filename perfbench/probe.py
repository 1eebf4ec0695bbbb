"""Core-speed probe that turns CPU seconds into seconds at a reference speed.

On a shared host the CPU time of one fixed single-threaded task was seen to
swing between 1.0x and 1.6x from one few-second spell to the next, and
steal-time accounting does not see it, so CPU time alone is not steady. A
Probe times a fixed ~0.8 ms task shaped like the program's work (a
two-layer forward pass over 400 states into freshly allocated arrays, then
float repr/parse into a dict) every 0.1 s of wall time while the measured
code runs. It samples from a SIGALRM handler: with a CPU-time itimer armed,
the process CPU clock read in 4 ms ticks. `scale()` is REFERENCE_S over the
mean probe time, over a whole run or over the intervals of one phase; CPU
seconds times the scale are seconds at the speed at which the probe takes
REFERENCE_S, so most of a slow spell cancels out.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.0008  # about the probe's mean time on the reference machine (README)
INTERVAL_S = 0.1
EDGE_SAMPLES = 5  # taken on entry and exit, so even a short region has samples

_STATES = np.random.default_rng(0).random((400, 73))
_W1 = np.random.default_rng(1).random((64, 73))
_W2 = np.random.default_rng(2).random((64, 64))


def _task() -> None:
    hidden = np.maximum(_STATES @ _W1.T - 18.0, 0.0)
    np.argmax(np.maximum(hidden @ _W2.T - 10.0, 0.0), axis=1)
    table = {}
    for i in range(300):
        table[str(i)] = float(repr(i * 0.1))


class Probe:
    """Context manager sampling the probe while the code inside it runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (process CPU clock, probe CPU s)

    def _sample(self, *_):
        t0 = time.process_time()
        _task()
        self.samples.append((t0, time.process_time() - t0))

    def __enter__(self) -> "Probe":
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            self._sample()

    def scale(self, intervals=None) -> float:
        """REFERENCE_S over the mean probe time: of the samples taken inside the
        given (start, end) process-CPU-clock intervals when there are at least
        EDGE_SAMPLES of them, else of all samples.

        The mean, not the median: the core switches between a fast and a slow
        mode, and CPU time adds up the slow share, which the mean follows.
        """
        inside = [d for t, d in self.samples
                  if intervals is not None and any(a <= t <= b for a, b in intervals)]
        if len(inside) < EDGE_SAMPLES:
            inside = [d for _, d in self.samples]
        return REFERENCE_S / statistics.fmean(inside)
