"""Run configuration: strict INI-style parsing with full-config echoing.

Sections mirror the module layout ([run], [env], [reward], [qnet],
[replay], [trainer], [drift], [generator]). Unknown sections or keys are
errors; every value must parse or the run aborts before any computation.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field

from .drift import DriftConfig
from .env import RewardWeights
from .errors import ConfigError
from .ingest import DriftSpec, GeneratorConfig
from .trainer import TrainerConfig


@dataclass(frozen=True)
class QNetSettings:
    hidden: int = 64
    dueling: bool = True
    optimizer: str = "adam"

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, assembled from one config file."""

    seed: int = 0
    weights: RewardWeights = field(default_factory=RewardWeights)
    qnet: QNetSettings = field(default_factory=QNetSettings)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    drift: DriftConfig = field(default_factory=DriftConfig)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    freeze_after_first_period: bool = False


_SCHEMA: dict[str, tuple[str, ...]] = {
    "run": ("seed",),
    "env": ("window", "occ_epsilon"),
    "reward": ("lambda_p", "lambda_c", "lambda_o"),
    "qnet": ("hidden", "dueling", "optimizer"),
    "replay": ("omega", "consolidation_fraction"),
    "trainer": (
        "gamma",
        "learning_rate",
        "batch_size",
        "epochs",
        "eps_start",
        "eps_end",
        "eps_decay_steps",
        "sync_interval",
        "use_target_network",
        "mix_rho",
        "horizons",
        "freeze_after_first_period",
    ),
    "drift": ("fraction", "bins", "smoothing"),
    "generator": (
        "periods",
        "initial_nodes",
        "growth_per_period",
        "profile_base",
        "profile_peak",
        "noise_sigma",
        "drift",
        "steps_per_period",
        "phase_jitter_steps",
        "amplitude_jitter",
        "harmonic_mix",
        "edges_per_new_node",
        "start_period",
    ),
}


class _Section:
    def __init__(self, name: str, values: dict[str, str]):
        self.name = name
        self.values = values

    def _fetch(self, key: str, convert, kind: str):
        raw = self.values.get(key)
        if raw is None:
            return None
        try:
            return convert(raw)
        except (ValueError, TypeError):
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not a valid {kind}") from None

    def get_int(self, key: str):
        return self._fetch(key, int, "integer")

    def get_float(self, key: str):
        return self._fetch(key, float, "number")

    def get_str(self, key: str):
        return self._fetch(key, str, "string")

    def get_bool(self, key: str):
        def conv(raw: str) -> bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)

        return self._fetch(key, conv, "boolean")


def _parse_horizons(raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError(raw)
    return tuple(int(p) for p in parts)


def _parse_drift_list(raw: str) -> tuple[DriftSpec, ...]:
    specs = []
    for chunk in raw.replace("\n", ",").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = chunk.split(":")
        if len(fields) != 3:
            raise ValueError(chunk)
        specs.append(DriftSpec(node=fields[0].strip(), period=int(fields[1]), magnitude=float(fields[2])))
    return tuple(specs)


def _overlay(base, **maybe):
    """dataclasses.replace with None-valued entries dropped."""
    from dataclasses import replace

    updates = {k: v for k, v in maybe.items() if v is not None}
    return replace(base, **updates) if updates else base


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse and fully validate a config file's contents."""
    parser = configparser.ConfigParser(interpolation=None, default_section="__default__")
    try:
        parser.read_string(text, source=source)
    except configparser.Error as e:
        raise ConfigError(f"{source}: {e}") from None
    if parser.defaults():
        raise ConfigError(f"{source}: default section is not supported")

    sections: dict[str, _Section] = {}
    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"{source}: unknown section [{name}]")
        values = dict(parser.items(name))
        for key in values:
            if key not in _SCHEMA[name]:
                raise ConfigError(f"{source}: unknown key {key!r} in section [{name}]")
        sections[name] = _Section(name, values)

    def sec(name: str) -> _Section:
        return sections.get(name, _Section(name, {}))

    run = sec("run")
    env = sec("env")
    reward = sec("reward")
    qnet = sec("qnet")
    replay = sec("replay")
    trainer = sec("trainer")
    drift = sec("drift")
    generator = sec("generator")

    try:
        weights = _overlay(
            RewardWeights(),
            lambda_p=reward.get_float("lambda_p"),
            lambda_c=reward.get_float("lambda_c"),
            lambda_o=reward.get_float("lambda_o"),
        )
        qnet_settings = _overlay(
            QNetSettings(),
            hidden=qnet.get_int("hidden"),
            dueling=qnet.get_bool("dueling"),
            optimizer=qnet.get_str("optimizer"),
        )
        horizons_raw = trainer.get_str("horizons")
        drift_raw = generator.get_str("drift")
        trainer_cfg = _overlay(
            TrainerConfig(),
            gamma=trainer.get_float("gamma"),
            learning_rate=trainer.get_float("learning_rate"),
            batch_size=trainer.get_int("batch_size"),
            epochs=trainer.get_int("epochs"),
            eps_start=trainer.get_float("eps_start"),
            eps_end=trainer.get_float("eps_end"),
            eps_decay_steps=trainer.get_int("eps_decay_steps"),
            sync_interval=trainer.get_int("sync_interval"),
            use_target_network=trainer.get_bool("use_target_network"),
            mix_rho=trainer.get_float("mix_rho"),
            sampling_omega=replay.get_float("omega"),
            consolidation_fraction=replay.get_float("consolidation_fraction"),
            horizons=_parse_horizons(horizons_raw) if horizons_raw is not None else None,
            window=env.get_int("window"),
            occ_epsilon=env.get_float("occ_epsilon"),
        )
        drift_cfg = _overlay(
            DriftConfig(),
            fraction=drift.get_float("fraction"),
            bins=drift.get_int("bins"),
            smoothing=drift.get_float("smoothing"),
        )
        generator_cfg = _overlay(
            GeneratorConfig(),
            periods=generator.get_int("periods"),
            initial_nodes=generator.get_int("initial_nodes"),
            growth_per_period=generator.get_int("growth_per_period"),
            profile_base=generator.get_float("profile_base"),
            profile_peak=generator.get_float("profile_peak"),
            noise_sigma=generator.get_float("noise_sigma"),
            drift=_parse_drift_list(drift_raw) if drift_raw is not None else None,
            steps_per_period=generator.get_int("steps_per_period"),
            phase_jitter_steps=generator.get_float("phase_jitter_steps"),
            amplitude_jitter=generator.get_float("amplitude_jitter"),
            harmonic_mix=generator.get_float("harmonic_mix"),
            edges_per_new_node=generator.get_int("edges_per_new_node"),
            start_period=generator.get_int("start_period"),
        )
        config = RunConfig(
            seed=run.get_int("seed") if run.get_int("seed") is not None else 0,
            weights=weights,
            qnet=qnet_settings,
            trainer=trainer_cfg,
            drift=drift_cfg,
            generator=generator_cfg,
            freeze_after_first_period=trainer.get_bool("freeze_after_first_period") or False,
        )
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{source}: {e}") from None
    return config


def load_config(path) -> RunConfig:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    return parse_config(text, source=str(path))


def config_to_ini(config: RunConfig) -> str:
    """Render the effective config (every key explicit) as INI text.

    Re-parsing the result reproduces the same RunConfig, which is what
    makes the echoed config in an output directory rerunnable.
    """
    t = config.trainer
    g = config.generator
    parser = configparser.ConfigParser(interpolation=None)
    parser["run"] = {"seed": str(config.seed)}
    parser["env"] = {"window": str(t.window), "occ_epsilon": repr(t.occ_epsilon)}
    parser["reward"] = {
        "lambda_p": repr(config.weights.lambda_p),
        "lambda_c": repr(config.weights.lambda_c),
        "lambda_o": repr(config.weights.lambda_o),
    }
    parser["qnet"] = {
        "hidden": str(config.qnet.hidden),
        "dueling": str(config.qnet.dueling).lower(),
        "optimizer": config.qnet.optimizer,
    }
    parser["replay"] = {
        "omega": repr(t.sampling_omega),
        "consolidation_fraction": repr(t.consolidation_fraction),
    }
    parser["trainer"] = {
        "gamma": repr(t.gamma),
        "learning_rate": repr(t.learning_rate),
        "batch_size": str(t.batch_size),
        "epochs": str(t.epochs),
        "eps_start": repr(t.eps_start),
        "eps_end": repr(t.eps_end),
        "eps_decay_steps": str(t.eps_decay_steps),
        "sync_interval": str(t.sync_interval),
        "use_target_network": str(t.use_target_network).lower(),
        "mix_rho": repr(t.mix_rho),
        "horizons": ",".join(str(h) for h in t.horizons),
        "freeze_after_first_period": str(config.freeze_after_first_period).lower(),
    }
    parser["drift"] = {
        "fraction": repr(config.drift.fraction),
        "bins": str(config.drift.bins),
        "smoothing": repr(config.drift.smoothing),
    }
    parser["generator"] = {
        "periods": str(g.periods),
        "initial_nodes": str(g.initial_nodes),
        "growth_per_period": str(g.growth_per_period),
        "profile_base": repr(g.profile_base),
        "profile_peak": repr(g.profile_peak),
        "noise_sigma": repr(g.noise_sigma),
        "drift": ",".join(f"{d.node}:{d.period}:{repr(d.magnitude)}" for d in g.drift),
        "steps_per_period": str(g.steps_per_period),
        "phase_jitter_steps": repr(g.phase_jitter_steps),
        "amplitude_jitter": repr(g.amplitude_jitter),
        "harmonic_mix": repr(g.harmonic_mix),
        "edges_per_new_node": str(g.edges_per_new_node),
        "start_period": str(g.start_period),
    }
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
