import dataclasses
from collections import Counter
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrl.config import KEYS, RunConfig, config_to_ini, parse_config
from flowrl.errors import ConfigError
from flowrl.ingest import DriftSpec, _node_name

# config_to_ini(RunConfig()), byte for byte as earlier releases echoed it.
DEFAULT_ECHO = """\
[run]
seed = 0

[env]
window = 12
occ_epsilon = 0.05

[reward]
lambda_p = 1.0
lambda_c = 0.1
lambda_o = 0.1

[qnet]
hidden = 64
dueling = true
optimizer = adam

[replay]
omega = 1.0
consolidation_fraction = 0.05

[trainer]
gamma = 0.5
learning_rate = 0.001
batch_size = 128
epochs = 3
eps_start = 1.0
eps_end = 0.05
eps_decay_steps = 10000
sync_interval = 500
use_target_network = true
mix_rho = 0.25
horizons = 3,12
freeze_after_first_period = false

[drift]
fraction = 0.1
bins = 20
smoothing = 1.0

[generator]
periods = 3
initial_nodes = 20
growth_per_period = 4
profile_base = 20.0
profile_peak = 120.0
noise_sigma = 4.0
drift = 
steps_per_period = 2016
phase_jitter_steps = 0.0
amplitude_jitter = 0.0
harmonic_mix = 0.0
edges_per_new_node = 2
start_period = 1

"""


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
harmonic_mix = 0.3
edges_per_new_node = 3
start_period = 1
"""
    )
    assert parse_config(config_to_ini(config)) == config


def test_echo_of_defaults_round_trips():
    config = RunConfig()
    assert parse_config(config_to_ini(config)) == config


def test_echo_of_defaults_is_pinned():
    assert config_to_ini(RunConfig()) == DEFAULT_ECHO


def test_key_table_names_every_field_once():
    base = RunConfig()
    owners = {None: base}
    owners.update({f.name: getattr(base, f.name) for f in dataclasses.fields(base)
                   if dataclasses.is_dataclass(getattr(base, f.name))})
    named = Counter((part, f) for _, _, part, f, _ in KEYS)
    assert max(named.values()) == 1
    expected = {(part, f.name) for part, owner in owners.items() for f in dataclasses.fields(owner)
                if not (part is None and f.name in owners)}
    assert set(named) == expected
    assert len({(section, key) for section, key, *_ in KEYS}) == len(KEYS)


_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_KIND_VALUES = {
    "integer": st.integers(5, 10**6),
    "number": _UNIT,
    "boolean": st.booleans(),
    "string": st.sampled_from(["adam", "sgd"]),
    "horizon list": st.lists(st.integers(1, 500), min_size=1, max_size=4, unique=True).map(tuple),
}


@st.composite
def _drift_spec(draw, generator):
    """A drift spec that the drawn generator admits: a period it makes, and
    a node of that period's graph (one of the first 10^4)."""
    first = generator["start_period"]
    period = draw(st.integers(first, first + generator["periods"] - 1))
    grown = generator["initial_nodes"] + generator["growth_per_period"] * (period - first)
    node = _node_name(draw(st.integers(0, min(grown, 10**4) - 1)))
    return DriftSpec(node, period, draw(st.floats(-1e6, 1e6, allow_nan=False)))


def _last_year(steps: int) -> int:
    """The last year whose 1 January starts a period of `steps` 300 s steps
    that datetime64[ns] holds to its end (2262-04-11T23:47:16)."""
    span = timedelta(seconds=300 * (steps - 1))
    return max(y for y in range(2000, 2263) if datetime(y, 1, 1) + span <= datetime(2262, 4, 11, 23, 47, 16))


# Keys whose valid range depends on keys drawn before them, drawn last.
# Period p starts in year 2000 + p, so the last period must start by the
# last year that its steps leave.
_DEPENDENT = {
    "profile_peak": lambda g: st.floats(g["profile_base"], 1.0, exclude_max=True),
    "periods": lambda g: st.integers(5, _last_year(g["steps_per_period"]) - 1999),
    "start_period": lambda g: st.integers(0, _last_year(g["steps_per_period"]) - 1999 - g["periods"]),
    "drift": lambda g: st.lists(_drift_spec(g), max_size=3, unique_by=lambda d: d.node).map(tuple),
}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_echo_round_trips_any_valid_config(data):
    """Every key drawn from its valid range, the generator's dependent keys
    from the range that the keys they depend on leave, echoes and parses
    back to the same config."""
    updates: dict = {}
    for _, key, part, f, (_, _, kind) in KEYS:
        if f not in _DEPENDENT:
            updates.setdefault(part, {})[f] = data.draw(_KIND_VALUES[kind], label=key)
    generator = updates["generator"]
    for f, strategy in _DEPENDENT.items():
        generator[f] = data.draw(strategy(generator), label=f)
    base = RunConfig()
    parts = {part: dataclasses.replace(getattr(base, part), **values)
             for part, values in updates.items() if part is not None}
    config = dataclasses.replace(base, **updates[None], **parts)
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
    # every float must be finite, so nan and inf fail before any range check
    for section, key, raw in (
        ("trainer", "learning_rate", "nan"),
        ("reward", "lambda_p", "nan"),
        ("drift", "smoothing", "nan"),
        ("generator", "noise_sigma", "inf"),
        ("trainer", "gamma", "-inf"),
        ("generator", "drift", "s0001:2:nan"),
        ("trainer", "horizons", ""),
    ):
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} = '{raw}' is not a valid"):
            parse_config(f"[{section}]\n{key} = {raw}\n")


def test_invariant_violations_become_config_errors():
    with pytest.raises(ConfigError, match="gamma"):
        parse_config("[trainer]\ngamma = 1.5\n")
    with pytest.raises(ConfigError, match="periods"):
        parse_config("[generator]\nperiods = 0\n")
    with pytest.raises(ConfigError):
        parse_config("[reward]\nlambda_p = 0\nlambda_c = 0\nlambda_o = 0\n")
    for section, key, raw in (
        ("run", "seed", "-3"),
        ("replay", "consolidation_fraction", "0"),
        ("replay", "consolidation_fraction", "1.5"),
        ("replay", "omega", "-1"),
        ("trainer", "learning_rate", "-0.1"),
        ("trainer", "learning_rate", "0"),
        ("env", "occ_epsilon", "0"),
        ("env", "window", "0"),
        ("drift", "bins", "1"),
        ("trainer", "eps_start", "2"),
        ("reward", "lambda_c", "-1"),
        ("qnet", "hidden", "0"),
        ("qnet", "optimizer", "rmsprop"),
    ):
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: "):
            parse_config(f"[{section}]\n{key} = {raw}\n")


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
