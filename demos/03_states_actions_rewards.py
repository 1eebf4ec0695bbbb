"""From raw readings to agent-facing states, discrete actions, and rewards.

Flow values are discretized into five classes at the training-set
20/40/60/80 percentiles; a state fuses the sensor's own recent window
with the mean window of its graph neighbors plus its normalized degree.
"""

import numpy as np

from flowrl import (
    GeneratorConfig,
    RewardWeights,
    StateAssembler,
    classify,
    compute_rewards,
    fit_discretizer,
    generate_synthetic,
)

dataset = generate_synthetic(
    GeneratorConfig(periods=1, initial_nodes=8, steps_per_period=288, noise_sigma=3.0,
                    phase_jitter_steps=30.0),
    seed=3,
)[0]

# --- five flow classes from training quantiles
disc = fit_discretizer(dataset.flows_in("train"))
print("class edges:         ", np.round(disc.edges, 1))
print("class representatives:", np.round(disc.representatives, 1))
for flow in (5.0, 40.0, 75.0, 999.0):
    k = int(classify(disc, flow))
    print(f"  flow {flow:6.1f} -> class {k} (representative {disc.representatives[k]:.1f})")

# --- fused state vector: own window + neighbor mean + degree
W = 12
assembler = StateAssembler(dataset, window=W)
node = sorted(dataset.series)[0]
state = assembler.states(node, [100])[0]
print(f"\nstate for {node} at t=100: dimension {state.shape[0]} (= 6W+1 with W={W})")
print("  own flow window (normalized):", np.round(state[:W], 2))
print("  neighbor-mean flow window:   ", np.round(state[3 * W : 4 * W], 2))
print("  normalized degree:           ", round(float(state[-1]), 3))

# --- reward: prediction closeness + speed bonus + inverse-occupancy bonus
weights = RewardWeights(lambda_p=1.0, lambda_c=0.1, lambda_o=0.1)
print("\nrewards under weights (1.0, 0.1, 0.1):")
cases = [(2, 2, 0.8, 0.1), (1, 2, 0.5, 0.05), (0, 4, 0.2, 0.9)]
rewards = compute_rewards(*zip(*cases), weights)
for (pred, actual, speed, occ), r in zip(cases, rewards):
    print(f"  pred={pred} actual={actual} speed_norm={speed} occupancy={occ} -> r = {r:.3f}")
