import pytest

from flowrl.config import RunConfig, config_to_ini, parse_config
from flowrl.errors import ConfigError
from flowrl.ingest import DriftSpec


def test_empty_config_gives_defaults():
    assert parse_config("") == RunConfig()


def test_partial_sections_overlay_defaults():
    config = parse_config(
        """
[run]
seed = 17

[trainer]
gamma = 0.9
horizons = 1,3,12

[generator]
drift = s0003:2:40.0, s0007:3:35
"""
    )
    assert config.seed == 17
    assert config.trainer.gamma == 0.9
    assert config.trainer.horizons == (1, 3, 12)
    assert config.generator.drift == (
        DriftSpec("s0003", 2, 40.0),
        DriftSpec("s0007", 3, 35.0),
    )
    # untouched values stay default
    assert config.trainer.batch_size == RunConfig().trainer.batch_size


def test_full_round_trip():
    config = parse_config(
        """
[run]
seed = 5

[env]
window = 8
occ_epsilon = 0.07

[reward]
lambda_p = 1.0
lambda_c = 0.2
lambda_o = 0.3

[qnet]
hidden = 32
dueling = false
optimizer = sgd

[replay]
omega = 0.5
consolidation_fraction = 0.1

[trainer]
gamma = 0.8
learning_rate = 0.005
batch_size = 64
epochs = 2
eps_start = 0.9
eps_end = 0.1
eps_decay_steps = 500
sync_interval = 100
use_target_network = false
mix_rho = 0.5
horizons = 2,4
freeze_after_first_period = true

[drift]
fraction = 0.2
bins = 10
smoothing = 0.5

[generator]
periods = 2
initial_nodes = 7
growth_per_period = 1
profile_base = 10.0
profile_peak = 90.0
noise_sigma = 1.5
drift = s0001:2:25.0
steps_per_period = 300
phase_jitter_steps = 12.0
amplitude_jitter = 0.1
edges_per_new_node = 3
start_period = 1
"""
    )
    assert parse_config(config_to_ini(config)) == config


def test_echo_of_defaults_round_trips():
    config = RunConfig()
    assert parse_config(config_to_ini(config)) == config


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[mystery]\nx = 1\n")


@pytest.mark.parametrize("section,key", [
    ("run", "threads"), ("replay", "capacity"), ("trainer", "tabular_step_size"),
])
def test_removed_keys_rejected(section, key):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(f"[{section}]\n{key} = 2\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[trainer]\nwarp_speed = 9\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="trainer"):
        parse_config("[trainer]\nbatch_size = many\n")


def test_invariant_violations_become_config_errors():
    with pytest.raises(ConfigError, match="gamma"):
        parse_config("[trainer]\ngamma = 1.5\n")
    with pytest.raises(ConfigError, match="periods"):
        parse_config("[generator]\nperiods = 0\n")
    with pytest.raises(ConfigError):
        parse_config("[reward]\nlambda_p = 0\nlambda_c = 0\nlambda_o = 0\n")


def test_bad_drift_entry_rejected():
    with pytest.raises(ConfigError):
        parse_config("[generator]\ndrift = no-colons-here\n")


def test_bad_horizons_rejected():
    with pytest.raises(ConfigError):
        parse_config("[trainer]\nhorizons = 3;12\n")
    with pytest.raises(ConfigError, match="distinct"):
        parse_config("[trainer]\nhorizons = 3,3\n")


def test_malformed_ini_rejected():
    with pytest.raises(ConfigError):
        parse_config("this is not ini at all")


def test_default_section_rejected():
    with pytest.raises(ConfigError, match="DEFAULT"):
        parse_config("[DEFAULT]\nseed = 1\n")
