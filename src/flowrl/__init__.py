"""Continual reinforcement learning for streaming traffic-flow forecasting.

A single dueling Q-agent predicts discretized next-step flow for every
sensor of an expanding network. Each period, KL-divergence drift detection
picks the nodes to retrain, reward-prioritized replay drives the updates,
and a consolidation memory of top-priority experiences protects what was
learned on older nodes.
"""

from .baselines import historical_average_forecast, last_value_forecast
from .config import QNetSettings, RunConfig, config_to_ini, load_config, parse_config
from .drift import (
    DriftConfig,
    DriftReport,
    NodeHistogram,
    build_histogram,
    detect,
    kl_divergence,
)
from .env import (
    Calibration,
    Discretizer,
    RewardWeights,
    StateAssembler,
    classify,
    compute_rewards,
    fit_calibration,
    fit_discretizer,
)
from .errors import ConfigError, DataError, DivergenceError, FlowRLError
from .graph import (
    GraphDelta,
    GraphSnapshot,
    NodeIdError,
    apply_delta,
    load_adjacency,
    neighbors,
    node_diff,
    write_adjacency,
)
from .ingest import (
    DriftSpec,
    GeneratorConfig,
    PeriodDataset,
    SensorSeries,
    SplitBounds,
    compute_splits,
    generate_synthetic,
    load_period,
    write_period,
)
from .metrics import MetricSet, compute_metrics
from .qnet import (
    OptimizerState,
    QNetwork,
    apply_update,
    dueling_aggregate,
    forward_batch,
    init_optimizer,
    loss_and_gradients,
    param_views,
    select_actions,
)
from .replay import (
    Batch,
    ConsolidationMemory,
    KeyedStates,
    ReplayBuffer,
    assign_priority,
    mixed_batch,
    retain_top_fraction,
    sample,
    sampling_probabilities,
)
from .trainer import (
    AgentState,
    EpisodeRollout,
    PeriodReport,
    TrainerConfig,
    epsilon_schedule,
    evaluate_period,
    generate_rollout,
    init_agent,
    load_agent,
    predict_horizon_block,
    run_continual,
    run_full_retrain,
    run_period,
    save_agent,
    td_targets,
    train_on_buffer,
)

__version__ = "0.1.0"
