"""Run configuration: strict INI-style parsing with full-config echoing.

Sections mirror the module layout. Every key is one row of `KEYS`, which
parsing, validation and the echo all read. Unknown sections or keys are
errors; every value must parse or the run aborts before any computation.
"""

from __future__ import annotations

import configparser
import io
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .drift import DriftConfig
from .env import RewardWeights
from .errors import ConfigError
from .ingest import DriftSpec, GeneratorConfig
from .trainer import TrainerConfig


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, assembled from one config file."""

    seed: int = 0
    weights: RewardWeights = field(default_factory=RewardWeights)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    drift: DriftConfig = field(default_factory=DriftConfig)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _yes_no(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered not in ("true", "yes", "1", "on", "false", "no", "0", "off"):
        raise ValueError(raw)
    return lowered in ("true", "yes", "1", "on")


def _horizons(raw: str) -> tuple[int, ...]:
    horizons = tuple(int(p) for p in raw.split(",") if p.strip())
    if not horizons:
        raise ValueError(raw)
    return horizons


def _drifts(raw: str) -> tuple[DriftSpec, ...]:
    """Comma- or newline-separated node:period:magnitude entries."""
    specs = []
    for chunk in raw.replace("\n", ",").split(","):
        if chunk.strip():
            node, period, magnitude = chunk.split(":")
            specs.append(DriftSpec(node=node.strip(), period=int(period), magnitude=_finite(magnitude)))
    return tuple(specs)


# Each kind of value is (parse, echo, name), with parse(echo(value)) == value.
_INT = (int, str, "integer")
_FLOAT = (_finite, repr, "number")
_BOOL = (_yes_no, lambda b: str(b).lower(), "boolean")
_STR = (str, str, "string")
_HORIZONS = (_horizons, lambda hs: ",".join(str(h) for h in hs), "horizon list")
_DRIFTS = (_drifts, lambda ds: ",".join(f"{d.node}:{d.period}:{d.magnitude!r}" for d in ds), "drift list")

# One row per config key, in echo order: (section, key, part, field, kind), where `part` is
# the RunConfig field holding the key's dataclass, or None for RunConfig's own fields.
KEYS = (
    ("run", "seed", None, "seed", _INT),
    ("env", "window", "trainer", "window", _INT),
    ("env", "occ_epsilon", "trainer", "occ_epsilon", _FLOAT),
    ("reward", "lambda_p", "weights", "lambda_p", _FLOAT),
    ("reward", "lambda_c", "weights", "lambda_c", _FLOAT),
    ("reward", "lambda_o", "weights", "lambda_o", _FLOAT),
    ("qnet", "hidden", "trainer", "hidden", _INT),
    ("qnet", "dueling", "trainer", "dueling", _BOOL),
    ("qnet", "optimizer", "trainer", "optimizer", _STR),
    ("replay", "omega", "trainer", "sampling_omega", _FLOAT),
    ("replay", "consolidation_fraction", "trainer", "consolidation_fraction", _FLOAT),
    ("trainer", "gamma", "trainer", "gamma", _FLOAT),
    ("trainer", "learning_rate", "trainer", "learning_rate", _FLOAT),
    ("trainer", "batch_size", "trainer", "batch_size", _INT),
    ("trainer", "epochs", "trainer", "epochs", _INT),
    ("trainer", "eps_start", "trainer", "eps_start", _FLOAT),
    ("trainer", "eps_end", "trainer", "eps_end", _FLOAT),
    ("trainer", "eps_decay_steps", "trainer", "eps_decay_steps", _INT),
    ("trainer", "sync_interval", "trainer", "sync_interval", _INT),
    ("trainer", "use_target_network", "trainer", "use_target_network", _BOOL),
    ("trainer", "mix_rho", "trainer", "mix_rho", _FLOAT),
    ("trainer", "horizons", "trainer", "horizons", _HORIZONS),
    ("trainer", "freeze_after_first_period", "trainer", "freeze_after_first_period", _BOOL),
    ("drift", "fraction", "drift", "fraction", _FLOAT),
    ("drift", "bins", "drift", "bins", _INT),
    ("drift", "smoothing", "drift", "smoothing", _FLOAT),
    ("generator", "periods", "generator", "periods", _INT),
    ("generator", "initial_nodes", "generator", "initial_nodes", _INT),
    ("generator", "growth_per_period", "generator", "growth_per_period", _INT),
    ("generator", "profile_base", "generator", "profile_base", _FLOAT),
    ("generator", "profile_peak", "generator", "profile_peak", _FLOAT),
    ("generator", "noise_sigma", "generator", "noise_sigma", _FLOAT),
    ("generator", "drift", "generator", "drift", _DRIFTS),
    ("generator", "steps_per_period", "generator", "steps_per_period", _INT),
    ("generator", "phase_jitter_steps", "generator", "phase_jitter_steps", _FLOAT),
    ("generator", "amplitude_jitter", "generator", "amplitude_jitter", _FLOAT),
    ("generator", "harmonic_mix", "generator", "harmonic_mix", _FLOAT),
    ("generator", "edges_per_new_node", "generator", "edges_per_new_node", _INT),
    ("generator", "start_period", "generator", "start_period", _INT),
)


def _replace(base, part, values: dict, source: str):
    """dataclasses.replace; a failed range check names the keys of `part` it mentions."""
    try:
        return replace(base, **values)
    except ValueError as e:
        named = [f"[{s}] {k}: " for s, k, p, f, _ in KEYS if p == part and re.search(rf"\b{f}\b", str(e))]
        raise ConfigError(f"{source}: {''.join(named)}{e}") from None


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse and fully validate a config file's contents."""
    parser = configparser.ConfigParser(interpolation=None, default_section="__default__")
    try:
        parser.read_string(text, source=source)
    except configparser.Error as e:
        raise ConfigError(f"{source}: {e}") from None
    if parser.defaults():
        raise ConfigError(f"{source}: default section is not supported")

    rows = {(section, key): (part, f, kind) for section, key, part, f, kind in KEYS}
    updates: dict[str | None, dict] = {}
    for name in parser.sections():
        if not any(section == name for section, _ in rows):
            raise ConfigError(f"{source}: unknown section [{name}]")
        for key, raw in parser.items(name):
            if (name, key) not in rows:
                raise ConfigError(f"{source}: unknown key {key!r} in section [{name}]")
            part, f, (parse, _, kind) = rows[name, key]
            try:
                updates.setdefault(part, {})[f] = parse(raw)
            except ValueError:
                raise ConfigError(f"[{name}] {key} = {raw!r} is not a valid {kind}") from None

    base = RunConfig()
    parts = {part: _replace(getattr(base, part), part, values, source)
             for part, values in updates.items() if part is not None}
    return _replace(base, None, {**updates.get(None, {}), **parts}, source)


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    return parse_config(text, source=str(path))


def config_to_ini(config: RunConfig) -> str:
    """Render the effective config (every key explicit) as INI text.

    Re-parsing the result reproduces the same RunConfig, which is what
    makes the echoed config in an output directory rerunnable.
    """
    sections: dict[str, dict[str, str]] = {}
    for section, key, part, f, (_, echo, _) in KEYS:
        holder = config if part is None else getattr(config, part)
        sections.setdefault(section, {})[key] = echo(getattr(holder, f))
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
