"""Experiment configuration: JSON schema, defaults, and validation.

The config file is a JSON tree with the sections below. Unknown keys are
rejected anywhere in the tree; omitted keys take the defaults, which
mirror the reference full-scale setup (1500-wide, 7-deep network, batch
50, 100k iterations, learning rate 1e-4, 500 m cells, 8 pairs per cell,
8 channels, 0.25 W power cap, -130 dBW noise floor). Each default is
written once, as a field default of the typed config the section builds;
only the evaluation section, which has none, is a literal here.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import MISSING, dataclass, fields

from .channel import ChannelParams
from .errors import ConfigurationError
from .network import NetworkConfig
from .objective import ConstraintConfig
from .topology import TopologyConfig
from .training import TrainConfig


def _field_defaults(cls, *skip) -> dict:
    """The default of each field of dataclass cls that has one, by name,
    less the fields named in skip."""
    return {
        f.name: f.default for f in fields(cls) if f.default is not MISSING and f.name not in skip
    }


DEFAULTS = {
    "seed": TrainConfig.seed,
    "out_dir": "out",
    "threads": None,
    "topology": _field_defaults(TopologyConfig),
    "channel": _field_defaults(ChannelParams),
    # the input size is fixed by the pair coordinates; the output size is
    # the channel count, and the running-statistics momentum a training field
    "network": {
        "n_channels" if k == "output_size" else k: v
        for k, v in _field_defaults(NetworkConfig, "input_size").items()
    } | {"bn_momentum": TrainConfig.bn_momentum},
    "constraints": _field_defaults(ConstraintConfig),
    "training": _field_defaults(TrainConfig, "seed", "bn_momentum"),
    # the one section with no typed config
    "evaluation": {
        "n_drops": 1000,
        "grid_step_m": 10.0,
        "rx_offset_m": 50.0,
        "oracle_levels": 35,
        "oracle_direct_iters": 2000,
        "oracle_direct_lr": 2.0,
    },
}

# The keys whose default is null, with the type a value set for them
# takes; every other key takes the type of its default.
_NULLABLE = {"threads": int, "enb_l1_db": float, "enb_l2_db": float}


def _check_value(path: str, key: str, default, value):
    if value is None:
        if key in _NULLABLE:
            return None
        raise ConfigurationError(f"{path}: null is not allowed")
    kind = _NULLABLE.get(key) or type(default)
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigurationError(f"{path}: expected a boolean, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigurationError(f"{path}: expected a string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{path}: expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        # json reads NaN, Infinity and -Infinity as floats
        raise ConfigurationError(f"{path}: expected a finite number, got {value!r}")
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigurationError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    return float(value)


def _merge(defaults: dict, user: dict, prefix: str = "") -> dict:
    out = {}
    for key, default in defaults.items():
        path = f"{prefix}{key}"
        if isinstance(default, dict):
            sub = user.get(key, {})
            if not isinstance(sub, dict):
                raise ConfigurationError(f"{path}: expected an object")
            out[key] = _merge(default, sub, prefix=f"{path}.")
        elif key in user:
            out[key] = _check_value(path, key, default, user[key])
        else:
            out[key] = copy.deepcopy(default)
    unknown = set(user) - set(defaults)
    if unknown:
        raise ConfigurationError(
            f"unknown config key(s) at {prefix or 'top level'}: {sorted(unknown)}"
        )
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved, validated experiment configuration."""

    resolved: dict

    @property
    def seed(self) -> int:
        return self.resolved["seed"]

    @property
    def out_dir(self) -> str:
        return self.resolved["out_dir"]

    @property
    def evaluation(self) -> dict:
        return self.resolved["evaluation"]

    def topology(self) -> TopologyConfig:
        return TopologyConfig(**self.resolved["topology"])

    def channel(self) -> ChannelParams:
        return ChannelParams(**self.resolved["channel"])

    def network(self) -> NetworkConfig:
        n = dict(self.resolved["network"])
        del n["bn_momentum"]  # a TrainConfig field
        return NetworkConfig(output_size=n.pop("n_channels"), **n)

    def constraints(self) -> ConstraintConfig:
        return ConstraintConfig(**self.resolved["constraints"])

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            network=self.network(),
            constraints=self.constraints(),
            channel=self.channel(),
            topology=self.topology(),
            bn_momentum=self.resolved["network"]["bn_momentum"],
            seed=self.seed,
            **self.resolved["training"],
        )

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """This config with each top-level key set to a non-None override."""
        return parse_config(self.resolved | {k: v for k, v in overrides.items() if v is not None})

    def validate(self) -> None:
        """Construct every typed sub-config so invalid values fail here."""
        self.train_config()  # and with it the topology, channel, network and constraints
        e = self.evaluation
        if e["n_drops"] < 1:
            raise ConfigurationError("evaluation.n_drops must be >= 1")
        if e["grid_step_m"] <= 0:
            raise ConfigurationError("evaluation.grid_step_m must be positive")
        if e["oracle_levels"] < 2:
            raise ConfigurationError("evaluation.oracle_levels must be >= 2")
        if e["oracle_direct_iters"] < 0:
            raise ConfigurationError("evaluation.oracle_direct_iters must be >= 0")
        if e["oracle_direct_lr"] <= 0:
            raise ConfigurationError("evaluation.oracle_direct_lr must be positive")
        th = self.resolved["threads"]
        if th is not None and th < 1:
            raise ConfigurationError("threads must be >= 1 when set")


def parse_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a JSON object")
    cfg = ExperimentConfig(_merge(DEFAULTS, data))
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"config file {path} is not valid JSON: {e}")
    return parse_config(data)


def dump_config(cfg: ExperimentConfig, path) -> None:
    """Echo the fully resolved config; re-running from this file (with no
    overrides) reproduces the run."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(cfg.resolved, f, indent=2, sort_keys=True)
        f.write("\n")
