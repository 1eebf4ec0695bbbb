"""Synthesize a multi-period sensor stream with a planted regime shift.

Each sensor follows a diurnal flow profile with its own phase/amplitude;
speed falls and occupancy rises with flow. From period 2 onward, sensor
s0002's mean flow jumps by 45 vehicles per interval.
"""

import numpy as np

from flowrl import DriftSpec, GeneratorConfig, generate_synthetic

BLOCKS = " .:-=+*#%@"


def sparkline(values, width=72):
    idx = np.linspace(0, len(values) - 1, width).astype(int)
    v = np.asarray(values)[idx]
    scaled = (v - v.min()) / max(v.max() - v.min(), 1e-9)
    return "".join(BLOCKS[int(s * (len(BLOCKS) - 1))] for s in scaled)


config = GeneratorConfig(
    periods=2,
    initial_nodes=6,
    growth_per_period=2,
    steps_per_period=288 * 2,  # two days per period
    noise_sigma=3.0,
    phase_jitter_steps=25.0,
    amplitude_jitter=0.2,
    drift=(DriftSpec("s0002", 2, 45.0),),
)
periods = generate_synthetic(config, seed=11)

for ds in periods:
    flows = ds.flows_in("train")
    print(
        f"period {ds.period}: {len(ds.snapshot.nodes)} nodes, "
        f"{len(ds.snapshot.edges)} edges, {ds.length} steps, "
        f"train/val/test = {ds.splits.train_end}/"
        f"{ds.splits.val_end - ds.splits.train_end}/{ds.length - ds.splits.val_end}, "
        f"mean train flow {flows.mean():.1f}"
    )

print("\none day of s0002, before and after the regime shift:")
for ds in periods:
    day = ds.series["s0002"].flow[:288]
    print(f"  period {ds.period} [{day.min():6.1f} .. {day.max():6.1f}]  {sparkline(day)}")

before = periods[0].series["s0002"].flow.mean()
after = periods[1].series["s0002"].flow.mean()
print(f"\nmean flow of s0002: {before:.1f} -> {after:.1f} (shift {after - before:+.1f})")

s = periods[0].series["s0000"]
print(
    f"channel correlations on s0000: corr(flow, speed) = "
    f"{np.corrcoef(s.flow, s.speed)[0, 1]:+.2f}, corr(flow, occupancy) = "
    f"{np.corrcoef(s.flow, s.occupancy)[0, 1]:+.2f}"
)
