"""End-to-end continual run, compared against a frozen first-period model.

Three periods of a growing, drifting stream. The continual agent retrains
only drift-flagged and new nodes each period, replaying consolidated
top-priority experiences; the frozen baseline never trains after period 1.
"""

import time
from dataclasses import replace

import numpy as np

from flowrl import (
    DriftSpec,
    GeneratorConfig,
    RewardWeights,
    TrainerConfig,
    generate_synthetic,
    historical_average_forecast,
    last_value_forecast,
    run_continual,
)

stream = GeneratorConfig(
    periods=3,
    initial_nodes=15,
    growth_per_period=3,
    steps_per_period=600,
    noise_sigma=3.0,
    phase_jitter_steps=30.0,
    amplitude_jitter=0.2,
    drift=(DriftSpec("s0001", 2, 40.0), DriftSpec("s0005", 3, 40.0)),
)
datasets = generate_synthetic(stream, seed=21)

cfg = TrainerConfig(
    epochs=10, batch_size=64, learning_rate=0.001, window=12,
    horizons=(3, 12), eps_decay_steps=4000, mix_rho=0.25,
)
weights = RewardWeights()

t0 = time.perf_counter()
_, continual = run_continual(datasets, cfg, weights, seed=21)
_, frozen = run_continual(datasets, replace(cfg, freeze_after_first_period=True), weights, seed=21)
print(f"two regimes trained in {time.perf_counter() - t0:.1f}s\n")

print("period | candidates | experiences |  continual mae (15m/60m) | frozen mae (15m/60m)")
for rc, rf in zip(continual, frozen):  # each report is the dict `flowrl train` writes
    c3, c12 = rc["metrics"]["test"]["3"]["mae"], rc["metrics"]["test"]["12"]["mae"]
    f3, f12 = rf["metrics"]["test"]["3"]["mae"], rf["metrics"]["test"]["12"]["mae"]
    print(
        f"   {rc['period']}   |    {rc['candidates']['count']:3d}     |"
        f"   {rc['experiences']['generated']:6d}    |"
        f"        {c3:6.2f} / {c12:6.2f}   |    {f3:6.2f} / {f12:6.2f}"
    )

last_c = continual[-1]["metrics"]["test"]["3"]
last_f = frozen[-1]["metrics"]["test"]["3"]
print(
    f"\nfinal period, 15-minute horizon: continual mae {last_c['mae']:.2f} "
    f"(accuracy {last_c['class_accuracy']:.2f}) vs frozen {last_f['mae']:.2f} "
    f"(accuracy {last_f['class_accuracy']:.2f})"
)

# learning-free reference forecasters on the same final period
final = datasets[-1]
h = 3
lo, hi = final.splits.test
anchors = np.arange(max(cfg.window, lo), hi - h + 1)
errors_last, errors_hist = [], []
for node in sorted(final.series):
    actual = final.series[node].flow[anchors + h - 1]
    errors_last.append(np.abs(last_value_forecast(final, node, anchors, h) - actual))
    errors_hist.append(np.abs(historical_average_forecast(final, node, anchors, h) - actual))
print(
    f"reference baselines at the same horizon: last-value mae "
    f"{np.concatenate(errors_last).mean():.2f}, historical-average mae "
    f"{np.concatenate(errors_hist).mean():.2f}"
)
