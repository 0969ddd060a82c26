"""The float32 compute policy (network.dtype): bounded disagreement with
the float64 reference, no silent promotion back to float64, the output
range under saturation, float64 checkpoints on disk, CLI determinism,
and the gradient gate, which runs in float64 whatever the dtype.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from d2dpower import cli
from d2dpower.channel import build_gain_table
from d2dpower.config import load_config, parse_config
from d2dpower.network import (
    NetworkConfig,
    NetworkParams,
    backward,
    forward,
    init_params,
    init_stats,
    load_checkpoint,
    save_checkpoint,
)
from d2dpower.topology import build_hex_layout, flatten_batch, sample_batch
from d2dpower.training import adam_step, cost_and_grad, finite_difference_check, init_adam

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TINY_CONFIG = {
    "seed": 5,
    "topology": {"cells": 1, "pairs_per_cell": 2, "dmax_m": 100.0},
    "network": {"width": 8, "depth": 2, "n_channels": 2, "dtype": "float32"},
    "constraints": {"q_max_dbw": -140.0},
    "training": {"n_epoch": 25, "batch_size": 4, "lr": 0.001},
}


def _shipped(name, **network):
    data = json.loads((CONFIGS / name).read_text())
    data["network"].update(network)
    return parse_config(data)


def _batch(cfg, seed):
    rng = np.random.default_rng(seed)
    topo = cfg.topology()
    layout = build_hex_layout(topo.cells, topo.radius_m)
    batch_size = cfg.resolved["training"]["batch_size"]
    drops = sample_batch(layout, topo.pairs_per_cell, topo.dmax_m, batch_size, rng)
    return rng, drops, build_gain_table(drops, cfg.channel(), rng)


def _run_cli(*args):
    env = dict(os.environ)
    env.pop("D2DPOWER_SEED", None)
    return subprocess.run(
        [sys.executable, "-m", "d2dpower", *map(str, args)],
        capture_output=True, text=True, env=env,
    )


@pytest.mark.parametrize(
    "name, network",
    [("desk.json", {}), ("full_scale.json", {"width": 256})],
    ids=["desk", "seven_cell_width_256"],
)
def test_float32_tracks_float64(name, network):
    cfg = _shipped(name, dtype="float64", **network)
    rng, drops, gains = _batch(cfg, 0)
    p64 = init_params(cfg.network(), rng)
    p32 = NetworkParams(replace(p64.config, dtype="float32"), p64.flat)
    args = (drops, gains, cfg.constraints(), cfg.channel().noise_dbw)
    c64, g64, _ = cost_and_grad(p64, None, *args)
    c32, g32, _ = cost_and_grad(p32, None, *args)
    x = flatten_batch(drops)
    out64, _ = forward(p64, x, "train")
    out32, _ = forward(p32, x, "train")
    assert out32.dtype == np.float64
    assert abs(c32 - c64) <= 1e-4 * abs(c64)
    assert np.linalg.norm(g32.flat - g64.flat) <= 1e-3 * np.linalg.norm(g64.flat)
    assert np.abs(out32 - out64).max() <= 0.05


def test_float32_buffers_are_not_promoted():
    cfg = _shipped("desk.json", dtype="float32")
    rng, drops, _ = _batch(cfg, 1)
    params = init_params(cfg.network(), rng)
    stats = init_stats(cfg.network())
    x = flatten_batch(drops)
    p, cache = forward(params, x, "train", stats)
    assert params.flat.dtype == np.float32 and p.dtype == np.float64
    for c in cache:  # the arrays each entry holds; x_in is layer 0's only
        held = (c.x_in, c.a_hat, c.inv_std, c.y)
        assert {a.dtype for a in held if a is not None} == {np.dtype(np.float32)}
    # the running statistics stay float64, as on disk
    assert {a.dtype for a in stats.mean + stats.var} == {np.dtype(np.float64)}
    grads = backward(params, cache, rng.normal(size=p.shape))
    assert grads.flat.dtype == np.float32
    # numpy float64 hyperparameters must not promote the step either
    adam = init_adam(params, np.float64(1e-3), np.float64(0.9), np.float64(0.999))
    new, adam = adam_step(adam, params, grads)
    assert {a.dtype for a in (new.flat, adam.m, adam.v)} == {np.dtype(np.float32)}
    # one step from zero moments, every operation rounded to float32
    f = np.float32
    g = grads.flat
    m = f(1.0 - 0.9) * g
    v = f(1.0 - 0.999) * g * g
    step = m / f(1.0 - 0.9) * f(1e-3) / (np.sqrt(v / f(1.0 - 0.999)) + f(1e-8))
    assert np.array_equal(adam.m, m) and np.array_equal(adam.v, v)
    assert np.array_equal(new.flat, params.flat - step)
    p_infer, _ = forward(new, x, "infer", stats)
    assert p_infer.dtype == np.float64


def test_float32_saturation_stays_inside_range():
    # criterion 8 with float32 compute: a float32 sigmoid saturates to
    # exactly 1.0 (and 0.0) far sooner than a float64 one
    rng = np.random.default_rng(123)
    coords = rng.uniform(-1000.0, 1000.0, (100_000, 4))
    cfg = NetworkConfig(width=32, depth=3, output_size=4, dtype="float32")
    params = init_params(cfg, rng)
    stats = init_stats(cfg)
    saturated = NetworkParams(cfg, params.flat.copy())
    for layer in saturated.layers:
        layer.w[...] *= 100.0
        layer.s[...] *= 100.0
        layer.z[...] += 50.0
    out_sat, _ = forward(saturated, coords, "infer", stats)
    for out in (
        forward(params, coords, "infer", stats)[0],
        forward(params, coords, "train", None)[0],
        out_sat,
    ):
        assert ((out > -150.0) & (out < 20.0)).all()
    assert out_sat.max() > 20.0 - 1e-6  # the clip is what keeps it inside


def test_float32_checkpoint_round_trips_bytes(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(path), "--out-dir", str(out)]) == cli.EXIT_OK
    ckpt = out / "checkpoint.bin"
    params, stats = load_checkpoint(ckpt, load_config(path).network())
    assert params.flat.dtype == np.float32
    assert stats.mean[0].dtype == np.float64
    save_checkpoint(params, stats, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == ckpt.read_bytes()
    # the stored float64 weights are float32 values: training ran in float32
    stored, _ = load_checkpoint(ckpt)
    assert stored.flat.dtype == np.float64
    assert np.array_equal(stored.flat.astype(np.float32), params.flat)


def test_float32_cli_is_byte_deterministic(tmp_path):
    # criterion 7's config with float32 compute
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    runs = []
    for name in ("a", "b"):
        result = _run_cli("train", "--config", path, "--out-dir", tmp_path / name)
        assert result.returncode == 0, result.stderr
        runs.append(
            [(tmp_path / name / f).read_bytes() for f in ("metrics.csv", "checkpoint.bin")]
        )
    assert runs[0] == runs[1]


def test_gradcheck_runs_in_float64_for_float32_config(tmp_path):
    data = json.loads((CONFIGS / "gradcheck.json").read_text())
    data["network"]["dtype"] = "float32"
    path = tmp_path / "gradcheck32.json"
    path.write_text(json.dumps(data))
    lines = []
    for config in (CONFIGS / "gradcheck.json", path):
        result = _run_cli("gradcheck", "--config", config, "--out-dir", tmp_path / "gc")
        assert result.returncode == 0, result.stderr
        lines.append(result.stdout)
    assert lines[0] == lines[1]
    assert "max relative error 8.046e-10 (PASS" in lines[0]


def test_finite_difference_check_casts_float32_params_to_float64():
    cfg = _shipped("gradcheck.json", dtype="float32")
    rng, drops, gains = _batch(cfg, 0)
    p32 = init_params(cfg.network(), rng)
    p64 = NetworkParams(replace(p32.config, dtype="float64"), p32.flat)
    args = (drops, gains, cfg.constraints(), cfg.channel().noise_dbw)
    err32 = finite_difference_check(p32, *args)
    assert err32 == finite_difference_check(p64, *args)
    assert err32[0] < 1e-4
    assert p32.flat.dtype == np.float32
