"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (visible with pytest -s). The trend runs (criteria 4-6) share one
session fixture: the sweep scripts/run_qmax_trend.py ships, run once.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracle_reference import scalar_drop_cost

from d2dpower.channel import ChannelParams, GainTable, build_gain_table, dbw_to_watt
from d2dpower.config import load_config
from d2dpower.evaluation import oracle_grid_search, power_map
from d2dpower.network import (
    NetworkConfig, NetworkParams, forward, init_params, init_stats, load_checkpoint,
)
from d2dpower.objective import ConstraintConfig, stacked_cost
from d2dpower.topology import Drop, build_hex_layout, sample_batch, sample_drop
from d2dpower.training import adam_stepper, cost_and_grad, finite_difference_check, init_adam

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from run_qmax_trend import CONFIG, SWEEP_QMAX_DBW, SWEEP_SEEDS, run_dir, sweep  # noqa: E402

NO_SHADOW = ChannelParams(shadowing_enabled=False)


def _report(name, ok, detail=""):
    suffix = f": {detail}" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_gradient_gate():
    # width 8, depth 2, K=2, N=2, BN=4, shadowing off, h=1e-5
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    layout = build_hex_layout(1, 500.0)
    batch = sample_batch(layout, 2, 100.0, 4, rng)
    gains = build_gain_table(batch, NO_SHADOW, rng)
    params = init_params(NetworkConfig(width=8, depth=2, output_size=2), rng)
    max_err, n_entries = finite_difference_check(
        params, batch, gains, ConstraintConfig(), NO_SHADOW.noise_dbw, h=1e-5
    )
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (gradient gate)",
        max_err < 1e-4 and elapsed < 60.0,
        f"max rel err {max_err:.3e} over {n_entries} entries in {elapsed:.1f}s",
    )


def _random_instance(rng):
    k = int(rng.integers(1, 5))
    n = int(rng.integers(1, 5))
    layout = build_hex_layout(1, 500.0)
    rows = []
    for _ in range(k):
        tx = rng.uniform(-400, 400, 2)
        rx = tx + rng.uniform(-100, 100, 2)
        rows.append([tx[0], tx[1], rx[0], rx[1]])
    drop = Drop(layout, rows)
    gains = build_gain_table(drop, ChannelParams(), rng)
    p = rng.uniform(-60.0, 20.0, (k, n))
    return gains, p


def test_criterion_2_cost_oracle_equivalence():
    rng = np.random.default_rng(42)
    cfg = ConstraintConfig(p_max_w=0.05, q_max_dbw=-135.0, c_p=7.0, c_if=3.0)
    noise_dbw = -130.0
    worst = 0.0
    for _ in range(100):
        gains, p = _random_instance(rng)
        got = stacked_cost(p[None], gains.g_d2d_db[None], gains.g_enb_db[None], cfg, noise_dbw)
        want = scalar_drop_cost(
            p.tolist(),
            gains.g_d2d_db.tolist(),
            gains.g_enb_db.tolist(),
            cfg.p_max_w,
            cfg.q_max_w,
            cfg.c_p,
            cfg.c_if,
            dbw_to_watt(noise_dbw),
        )
        have = (got.sum_throughput[0], got.ct_p[0], got.ct_if[0], got.total[0])
        for a, b in zip(have, want):
            worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
    ok_scalar = worst < 1e-12

    worst_batch = 0.0
    layout = build_hex_layout(1, 500.0)
    for bn in (1, 2, 8, 50):
        batch = sample_batch(layout, 4, 100.0, bn, rng)
        gains = build_gain_table(batch, ChannelParams(), rng)
        ps = np.stack([rng.uniform(-60, 20, (4, 3)) for _ in range(bn)])
        vec = float(stacked_cost(ps, gains.g_d2d_db, gains.g_enb_db, cfg, noise_dbw).total.mean())
        ref = np.mean(
            [
                stacked_cost(
                    ps[i][None], gains.g_d2d_db[i][None], gains.g_enb_db[i][None],
                    cfg, noise_dbw,
                ).total[0]
                for i in range(bn)
            ]
        )
        worst_batch = max(worst_batch, abs(vec - ref) / max(1.0, abs(ref)))
    ok_batch = worst_batch < 1e-9
    _report(
        "criterion 2 (cost-oracle equivalence)",
        ok_scalar and ok_batch,
        f"scalar worst rel err {worst:.2e}, batch-mean worst rel err {worst_batch:.2e}",
    )


def test_criterion_3_tiny_instance_optimality():
    # one fixed seeded drop: C=1, K=2, N=1, shadowing off, Q=-140 dBW
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    layout = build_hex_layout(1, 500.0)
    drop = sample_drop(layout, 2, 100.0, rng)
    gains = build_gain_table(drop, NO_SHADOW)
    cons = ConstraintConfig(q_max_dbw=-140.0, c_p=3000.0, c_if=100.0)
    levels = np.linspace(-150.0, 20.0, 35)
    _, grid_cost = oracle_grid_search(gains, cons, NO_SHADOW.noise_dbw, levels, 1)

    batch = Drop(layout, np.stack([drop.pairs, drop.pairs]))
    twice = GainTable(
        np.stack([gains.g_d2d_db, gains.g_d2d_db]), np.stack([gains.g_enb_db, gains.g_enb_db])
    )
    params = init_params(NetworkConfig(width=32, depth=2, output_size=1), np.random.default_rng(0))
    stats = init_stats(NetworkConfig(width=32, depth=2, output_size=1))
    # beta2=0.9: the second-moment window must forget the large early
    # gradients quickly or the low-power output stays frozen
    adam = init_adam(params, lr=0.02, beta2=0.9)
    for _ in range(2000):
        cost_and_grad(
            params, stats, batch, twice, cons, NO_SHADOW.noise_dbw,
            step=adam_stepper(adam, params.flat),
        )
    final_cost, _ = cost_and_grad(params, None, batch, twice, cons, NO_SHADOW.noise_dbw)
    gap = abs(final_cost - grid_cost) / abs(grid_cost)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 3 (tiny-instance optimality)",
        gap <= 0.05 and elapsed < 300.0,
        f"trained {final_cost:.4f} vs grid {grid_cost:.4f} (gap {gap:.2%}) in {elapsed:.1f}s",
    )


@pytest.fixture(scope="session")
def trend_runs(tmp_path_factory):
    """The shipped QMAX sweep over configs/desk.json (3 caps x 3 seeds),
    each run's held-out report keyed by (cap, seed)."""
    config = json.loads(CONFIG.read_text(encoding="utf-8"))
    config["out_dir"] = str(tmp_path_factory.mktemp("trend"))
    t0 = time.perf_counter()
    runs = {(q, seed): report for q, seed, report, _ in sweep(config)}
    runs["elapsed"] = time.perf_counter() - t0
    runs["config"] = config
    return runs


def test_criterion_4_qmax_trend(trend_runs):
    caps = sorted(SWEEP_QMAX_DBW, reverse=True)  # loosest first
    medians = {q: sorted(trend_runs[(q, s)].mean_eta for s in SWEEP_SEEDS)[1] for q in caps}
    ordered = all(medians[a] > medians[b] for a, b in zip(caps, caps[1:]))
    under_budget = trend_runs["elapsed"] < 1800.0
    _report(
        "criterion 4 (QMAX trend)",
        ordered and under_budget,
        "median eta " + " > ".join(f"{medians[q]:.3f}@{q:g}" for q in caps)
        + f", trained in {trend_runs['elapsed']:.0f}s",
    )


def test_criterion_5_constraint_satisfaction(trend_runs):
    worst_p = max(trend_runs[(q, s)].pmax_violation_rate for q in SWEEP_QMAX_DBW for s in SWEEP_SEEDS)
    worst_q = max(trend_runs[(q, s)].q_exceed_rate for q in SWEEP_QMAX_DBW for s in SWEEP_SEEDS)
    _report(
        "criterion 5 (constraint satisfaction)",
        worst_p <= 0.01 and worst_q <= 0.05,
        f"worst pmax violation rate {worst_p:.4f} (<=0.01), worst q exceed rate {worst_q:.4f} (<=0.05)",
    )


def test_criterion_6_edge_allocation(trend_runs):
    # the run whose held-out eta is the median among the tightest cap's seeds
    tight = min(SWEEP_QMAX_DBW)
    etas = {s: trend_runs[(tight, s)].mean_eta for s in SWEEP_SEEDS}
    med_seed = sorted(etas, key=lambda s: etas[s])[1]
    out = run_dir(trend_runs["config"], tight, med_seed)
    cfg = load_config(out / "config_resolved.json")
    params, stats = load_checkpoint(out / "checkpoint.bin", cfg.network())
    layout = build_hex_layout(1, 500.0)
    raster = power_map(params, stats, layout, grid_step=10.0, rx_offset=50.0)
    pts = np.array(list(raster.iter_points()))
    dist = np.hypot(pts[:, 0], pts[:, 1])
    annulus = pts[dist > 0.75 * 500.0, 2].mean()
    center = pts[dist < 0.25 * 500.0, 2].mean()
    gap = annulus - center
    _report(
        "criterion 6 (edge allocation)",
        gap >= 3.0,
        f"annulus {annulus:.2f} dBm vs center {center:.2f} dBm (gap {gap:.2f} dB >= 3)",
    )


def test_criterion_7_cli_determinism(tmp_path):
    config = {
        "seed": 5,
        "topology": {"cells": 1, "pairs_per_cell": 2, "dmax_m": 100.0},
        "network": {"width": 8, "depth": 2, "n_channels": 2},
        "constraints": {"q_max_dbw": -140.0},
        "training": {"n_epoch": 25, "batch_size": 4, "lr": 0.001},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    env = dict(os.environ)
    env.pop("D2DPOWER_SEED", None)
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "d2dpower", "train", "--config", str(cfg_path),
             "--out-dir", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(out)
    same_metrics = (outputs[0] / "metrics.csv").read_bytes() == (outputs[1] / "metrics.csv").read_bytes()
    same_ckpt = (outputs[0] / "checkpoint.bin").read_bytes() == (outputs[1] / "checkpoint.bin").read_bytes()
    _report(
        "criterion 7 (determinism)",
        same_metrics and same_ckpt,
        "metrics.csv and checkpoint.bin byte-identical across reruns",
    )


def test_criterion_8_output_range_fuzz():
    rng = np.random.default_rng(123)
    coords = rng.uniform(-1000.0, 1000.0, (100_000, 4))
    cfg = NetworkConfig(width=32, depth=3, output_size=4)
    params = init_params(cfg, rng)
    stats = init_stats(cfg)
    out_infer, _ = forward(params, coords, "infer", stats)
    out_train, _ = forward(params, coords, "train", None)
    # saturation-forcing variant: huge scale/shift slams every sigmoid
    saturated = NetworkParams(cfg, params.flat.copy())
    for layer in saturated.layers:
        layer.w[...] *= 100.0
        layer.s[...] *= 100.0
        layer.z[...] += 50.0
    out_sat, _ = forward(saturated, coords, "infer", stats)
    violations = 0
    for out in (out_infer, out_train, out_sat):
        violations += int((out <= -150.0).sum() + (out >= 20.0).sum())
    _report(
        "criterion 8 (output-range invariant)",
        violations == 0,
        f"{violations} violations over 3x100000 forward outputs",
    )


def test_criterion_9_full_scale_script_documented():
    script = ROOT / "scripts" / "run_full_scale.py"
    _report(
        "criterion 9 (full-scale reproduction, optional)",
        script.is_file(),
        "provided as scripts/run_full_scale.py (long-running CPU reproduction, not gating)",
    )
