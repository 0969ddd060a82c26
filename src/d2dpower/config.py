"""Experiment configuration: JSON schema, defaults, and validation.

The config file is a JSON tree with the sections below. Unknown keys are
rejected anywhere in the tree; omitted keys take the defaults, which
mirror the reference full-scale setup (1500-wide, 7-deep network, batch
50, 100k iterations, learning rate 1e-4, 500 m cells, 8 pairs per cell,
8 channels, 0.25 W power cap, -130 dBW noise floor).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

from .channel import ChannelParams
from .errors import ConfigurationError
from .network import NetworkConfig
from .objective import ConstraintConfig
from .topology import TopologyConfig
from .training import TrainConfig

DEFAULTS = {
    "seed": 0,
    "out_dir": "out",
    "threads": None,
    "topology": {
        "cells": 7,
        "radius_m": 500.0,
        "pairs_per_cell": 8,
        "dmax_m": 100.0,
    },
    "channel": {
        "l1_db": 30.0,
        "l2_db": 40.0,
        "d0_m": 1.0,
        "shadow_sigma_db": 8.0,
        "shadowing_enabled": True,
        "per_channel_shadowing": False,
        "noise_dbw": -130.0,
        "enb_l1_db": None,
        "enb_l2_db": None,
    },
    "network": {
        "width": 1500,
        "depth": 7,
        "n_channels": 8,
        "bn_epsilon": 1e-5,
        "bn_momentum": 0.99,
        "out_min_dbm": -150.0,
        "out_max_dbm": 20.0,
        "dtype": "float64",
    },
    "constraints": {
        "p_max_w": 0.25,
        "q_max_dbw": -130.0,
        "c_p": 10.0,
        "c_if": 10.0,
    },
    "training": {
        "n_epoch": 100_000,
        "batch_size": 50,
        "lr": 1e-4,
        "beta1": 0.9,
        "beta2": 0.999,
        "adam_epsilon": 1e-8,
        "log_every": 1,
    },
    "evaluation": {
        "n_drops": 1000,
        "grid_step_m": 10.0,
        "rx_offset_m": 50.0,
        "oracle_levels": 35,
        "oracle_direct_iters": 2000,
        "oracle_direct_lr": 2.0,
    },
}

_BOOL_KEYS = {"shadowing_enabled", "per_channel_shadowing"}
_INT_KEYS = {
    "seed",
    "threads",
    "cells",
    "pairs_per_cell",
    "width",
    "depth",
    "n_channels",
    "n_epoch",
    "batch_size",
    "log_every",
    "n_drops",
    "oracle_levels",
    "oracle_direct_iters",
}
_STR_KEYS = {"out_dir", "dtype"}
_NULLABLE_KEYS = {"threads", "enb_l1_db", "enb_l2_db"}


def _check_value(path: str, key: str, value):
    if value is None:
        if key in _NULLABLE_KEYS:
            return None
        raise ConfigurationError(f"{path}: null is not allowed")
    if key in _BOOL_KEYS:
        if not isinstance(value, bool):
            raise ConfigurationError(f"{path}: expected a boolean, got {value!r}")
        return value
    if key in _STR_KEYS:
        if not isinstance(value, str):
            raise ConfigurationError(f"{path}: expected a string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{path}: expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        # json reads NaN, Infinity and -Infinity as floats
        raise ConfigurationError(f"{path}: expected a finite number, got {value!r}")
    if key in _INT_KEYS:
        if float(value) != int(value):
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
            out[key] = _check_value(path, key, user[key])
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
    def threads(self):
        return self.resolved["threads"]

    @property
    def log_every(self) -> int:
        return self.resolved["training"]["log_every"]

    @property
    def evaluation(self) -> dict:
        return self.resolved["evaluation"]

    def topology(self) -> TopologyConfig:
        t = self.resolved["topology"]
        return TopologyConfig(
            cells=t["cells"],
            radius_m=t["radius_m"],
            pairs_per_cell=t["pairs_per_cell"],
            dmax_m=t["dmax_m"],
        )

    def channel(self) -> ChannelParams:
        c = self.resolved["channel"]
        return ChannelParams(
            l1_db=c["l1_db"],
            l2_db=c["l2_db"],
            d0_m=c["d0_m"],
            shadow_sigma_db=c["shadow_sigma_db"],
            shadowing_enabled=c["shadowing_enabled"],
            noise_dbw=c["noise_dbw"],
            enb_l1_db=c["enb_l1_db"],
            enb_l2_db=c["enb_l2_db"],
            per_channel_shadowing=c["per_channel_shadowing"],
        )

    def network(self) -> NetworkConfig:
        n = self.resolved["network"]
        return NetworkConfig(
            width=n["width"],
            depth=n["depth"],
            output_size=n["n_channels"],
            bn_epsilon=n["bn_epsilon"],
            out_min_dbm=n["out_min_dbm"],
            out_max_dbm=n["out_max_dbm"],
            dtype=n["dtype"],
        )

    def constraints(self) -> ConstraintConfig:
        c = self.resolved["constraints"]
        return ConstraintConfig(
            p_max_w=c["p_max_w"],
            q_max_dbw=c["q_max_dbw"],
            c_p=c["c_p"],
            c_if=c["c_if"],
        )

    def train_config(self) -> TrainConfig:
        t = self.resolved["training"]
        return TrainConfig(
            network=self.network(),
            constraints=self.constraints(),
            channel=self.channel(),
            topology=self.topology(),
            n_epoch=t["n_epoch"],
            batch_size=t["batch_size"],
            lr=t["lr"],
            beta1=t["beta1"],
            beta2=t["beta2"],
            adam_epsilon=t["adam_epsilon"],
            bn_momentum=self.resolved["network"]["bn_momentum"],
            seed=self.seed,
        )

    def with_overrides(self, seed=None, out_dir=None, threads=None) -> "ExperimentConfig":
        resolved = copy.deepcopy(self.resolved)
        if seed is not None:
            resolved["seed"] = int(seed)
        if out_dir is not None:
            resolved["out_dir"] = str(out_dir)
        if threads is not None:
            resolved["threads"] = int(threads)
        return ExperimentConfig(resolved)

    def validate(self) -> None:
        """Construct every typed sub-config so invalid values fail here."""
        self.train_config()  # and with it the topology, channel, network and constraints
        t = self.resolved["training"]
        if t["log_every"] < 1:
            raise ConfigurationError("training.log_every must be >= 1")
        mom = self.resolved["network"]["bn_momentum"]
        if not 0.0 < mom < 1.0:
            raise ConfigurationError("network.bn_momentum must be in (0, 1)")
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
