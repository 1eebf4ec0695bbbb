"""Continual reinforcement learning for streaming traffic-flow forecasting.

A single dueling Q-agent predicts discretized next-step flow for every
sensor of an expanding network. Each period, KL-divergence drift detection
picks the nodes to retrain, reward-prioritized replay drives the updates,
and a consolidation memory of top-priority experiences protects what was
learned on older nodes. The network is one `GraphSnapshot` per period, and
`node_diff` reads a period's change off two of them.

The package exports what the demos and the README's library example use;
everything else is imported from its module (`flowrl.replay`, ...).
"""

from .baselines import historical_average_forecast, last_value_forecast
from .drift import detect
from .env import RewardWeights, StateAssembler, classify, compute_rewards, fit_discretizer
from .graph import GraphSnapshot, node_diff
from .ingest import DriftSpec, GeneratorConfig, generate_synthetic
from .qnet import QNetwork, apply_update, forward_batch, init_optimizer, loss_and_gradients, param_views
from .trainer import TrainerConfig, run_continual, td_targets

__version__ = "0.1.0"
