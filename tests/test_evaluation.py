import itertools

import numpy as np
import pytest

from d2dpower import evaluation
from d2dpower.channel import ChannelParams, build_gain_table
from d2dpower.errors import SearchSpaceTooLargeError
from d2dpower.evaluation import (
    _EVAL_CHUNK,
    EvalReport,
    evaluate,
    oracle_direct_opt,
    oracle_grid_search,
    power_map,
)
from d2dpower.network import (
    NetworkConfig,
    NetworkParams,
    forward,
    init_params,
    init_stats,
)
from d2dpower.objective import ConstraintConfig, stacked_cost
from d2dpower.topology import Drop, build_hex_layout, sample_batch, sample_drop

NO_SHADOW = ChannelParams(shadowing_enabled=False)


def _total(gains, p, cfg):
    """Total cost of one drop's allocation, via stacked_cost."""
    comp = stacked_cost(
        np.asarray(p, dtype=float)[None], gains.g_d2d_db[None], gains.g_enb_db[None],
        cfg, NO_SHADOW.noise_dbw,
    )
    return comp.total[0]


def _constant_net(n_channels=4, width=8, depth=2):
    # all-zero weights emit the range midpoint (-65 dBm) everywhere
    cfg = NetworkConfig(width=width, depth=depth, output_size=n_channels)
    params = NetworkParams(cfg)
    for layer in params.layers:
        layer.s[...] = 1.0
    return params, init_stats(cfg)


def test_evaluate_midpoint_network_never_violates():
    params, stats = _constant_net()
    layout = build_hex_layout(1, 500.0)
    report = evaluate(
        params, stats, layout, NO_SHADOW, ConstraintConfig(),
        pairs_per_cell=4, dmax=100.0, n_drops=50, rng=np.random.default_rng(0),
    )
    assert report.n_drops == 50
    assert report.pmax_violation_rate == 0.0
    # 4 channels at -65 dBm each
    assert report.mean_total_power_per_tx_w == pytest.approx(4.0 * 10.0**-9.5, rel=1e-9)
    assert report.mean_eta >= 0.0


def test_evaluate_rejects_empty():
    params, stats = _constant_net()
    layout = build_hex_layout(1, 500.0)
    with pytest.raises(ValueError):
        evaluate(
            params, stats, layout, NO_SHADOW, ConstraintConfig(),
            pairs_per_cell=2, dmax=100.0, n_drops=0, rng=np.random.default_rng(0),
        )


def test_evaluate_deterministic():
    cfg = NetworkConfig(width=8, depth=2, output_size=2)
    params = init_params(cfg, np.random.default_rng(1))
    stats = init_stats(cfg)
    layout = build_hex_layout(3, 500.0)
    kwargs = dict(
        layout=layout, channel=ChannelParams(), constraints=ConstraintConfig(),
        pairs_per_cell=2, dmax=100.0, n_drops=40,
    )
    a = evaluate(params, stats, rng=np.random.default_rng(42), **kwargs)
    b = evaluate(params, stats, rng=np.random.default_rng(42), **kwargs)
    assert a == b


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_evaluate_matches_a_chunk_by_chunk_loop(dtype):
    # two full chunks and a ragged one of 37 drops, each through a forward
    # of its own with no workspace
    cfg = NetworkConfig(width=16, depth=2, output_size=3, dtype=dtype)
    rng = np.random.default_rng(5)
    params = init_params(cfg, rng)
    stats = init_stats(cfg)
    forward(params, rng.uniform(-500, 500, (32, 4)), "train", stats)  # non-trivial statistics
    layout = build_hex_layout(3, 500.0)
    channel, constraints = ChannelParams(), ConstraintConfig(p_max_w=1.2e-9, q_max_dbw=-220.0)
    n_drops, pairs, n = 2 * _EVAL_CHUNK + 37, 2, cfg.output_size
    got = evaluate(
        params, stats, layout, channel, constraints, pairs_per_cell=pairs, dmax=100.0,
        n_drops=n_drops, rng=np.random.default_rng(44),
    )
    rng = np.random.default_rng(44)
    k = pairs * layout.cell_count
    etas, power, pmax_hits, q_hits, q_entries = [], 0.0, 0, 0, 0
    for m in (_EVAL_CHUNK, _EVAL_CHUNK, 37):
        drops = sample_batch(layout, pairs, 100.0, m, rng)
        gains = build_gain_table(drops, channel, rng, n)
        p, _ = forward(params, drops.pairs.reshape(-1, 4), "infer", stats)
        comp = stacked_cost(
            p.reshape(m, k, n), gains.g_d2d_db, gains.g_enb_db, constraints, channel.noise_dbw
        )
        etas.append(comp.sum_throughput / (k * n))
        power += float(comp.total_power_w.sum())
        pmax_hits += int((comp.total_power_w > constraints.p_max_w).sum())
        q_hits += int((comp.enb_interference_w > constraints.q_max_w).sum())
        q_entries += comp.enb_interference_w.size
    eta = np.concatenate(etas)
    want = EvalReport(
        float(eta.mean()), float(eta.std()), power / (n_drops * k), pmax_hits / (n_drops * k),
        q_hits / q_entries, n_drops,
    )
    assert got == want
    # caps this net's powers cross at times, so both rates are compared off zero
    assert 0.0 < got.pmax_violation_rate < 1.0 and 0.0 < got.q_exceed_rate < 1.0


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_evaluate_sub_chunks_match_whole_stream_chunks(dtype, monkeypatch):
    # the full-scale layout, 56 pairs a drop: 80 drops are one stream chunk
    # but three sub-chunks of 36, 36 and 8 drops; the report equals the one
    # from a forward and a cost over the whole stream chunk
    cfg = NetworkConfig(width=16, depth=2, output_size=8, dtype=dtype)
    rng = np.random.default_rng(7)
    params = init_params(cfg, rng)
    stats = init_stats(cfg)
    forward(params, rng.uniform(-1500, 1500, (64, 4)), "train", stats)  # non-trivial statistics
    layout, pairs, n_drops = build_hex_layout(7, 500.0), 8, 80
    k = pairs * layout.cell_count
    rows = []

    def counted(p, x, mode, s, work):
        rows.append(len(x))
        return forward(p, x, mode, s, work=work)

    monkeypatch.setattr(evaluation, "forward", counted)

    def report():
        return evaluate(
            params, stats, layout, ChannelParams(),
            ConstraintConfig(p_max_w=1.4e-6, q_max_dbw=-200.0), pairs_per_cell=pairs,
            dmax=100.0, n_drops=n_drops, rng=np.random.default_rng(45),
        )

    got = report()
    assert rows == [36 * k, 36 * k, 8 * k]
    rows.clear()
    monkeypatch.setattr(evaluation, "_EVAL_ROWS", _EVAL_CHUNK * k)
    want = report()
    assert rows == [n_drops * k]
    assert got == want
    assert 0.0 < got.pmax_violation_rate < 1.0 and 0.0 < got.q_exceed_rate < 1.0


def test_power_map_constant_network_is_flat():
    params, stats = _constant_net()
    layout = build_hex_layout(1, 500.0)
    raster = power_map(params, stats, layout, grid_step=50.0, rx_offset=50.0)
    inside = raster.values[np.isfinite(raster.values)]
    assert inside.size > 0
    assert np.allclose(inside, -65.0)
    # corners of the bounding box are outside the hexagon
    assert np.isnan(raster.values[0, 0])


def test_power_map_bounds_and_coverage():
    cfg = NetworkConfig(width=8, depth=2, output_size=4)
    params = init_params(cfg, np.random.default_rng(2))
    stats = init_stats(cfg)
    layout = build_hex_layout(7, 500.0)
    raster = power_map(params, stats, layout, grid_step=100.0, rx_offset=50.0)
    inside = raster.values[np.isfinite(raster.values)]
    assert inside.size > 100
    assert (inside >= -150.0).all() and (inside <= 20.0).all()
    pts = list(raster.iter_points())
    assert len(pts) == inside.size


def test_power_map_workspace_matches_plain_forward(monkeypatch):
    # 7 cells at a 10 m step: about 43.6k probes, so five full 8192-row
    # chunks and a ragged one share the workspace
    cfg = NetworkConfig(width=8, depth=2, output_size=4)
    rng = np.random.default_rng(6)
    params = init_params(cfg, rng)
    stats = init_stats(cfg)
    forward(params, rng.uniform(-1500, 1500, (32, 4)), "train", stats)  # non-trivial statistics
    layout = build_hex_layout(7, 500.0)
    got = power_map(params, stats, layout, grid_step=10.0, rx_offset=50.0)
    assert np.isfinite(got.values).sum() > 5 * 8192
    monkeypatch.setattr(
        evaluation, "forward", lambda p, x, mode, s, work: forward(p, x, mode, s)
    )
    want = power_map(params, stats, layout, grid_step=10.0, rx_offset=50.0)
    assert np.array_equal(got.values, want.values, equal_nan=True)


def test_grid_search_monotone_single_pair():
    # no interferers and no penalties: the best level is the largest
    rng = np.random.default_rng(3)
    layout = build_hex_layout(1, 500.0)
    drop = sample_drop(layout, 1, 100.0, rng)
    gains = build_gain_table(drop, NO_SHADOW)
    cfg = ConstraintConfig(c_p=0.0, c_if=0.0)
    levels = np.linspace(-150.0, 20.0, 35)
    best, cost = oracle_grid_search(gains, cfg, NO_SHADOW.noise_dbw, levels, 1)
    assert best[0, 0] == pytest.approx(20.0)
    assert cost < 0.0


def test_grid_search_matches_brute_enumeration():
    rng = np.random.default_rng(4)
    layout = build_hex_layout(1, 500.0)
    drop = sample_drop(layout, 2, 100.0, rng)
    gains = build_gain_table(drop, NO_SHADOW)
    cfg = ConstraintConfig(q_max_dbw=-140.0)
    levels = [-150.0, -65.0, 0.0, 20.0]
    best, cost = oracle_grid_search(gains, cfg, NO_SHADOW.noise_dbw, levels, 2)
    brute = min(
        _total(gains, np.array(c, dtype=float).reshape(2, 2), cfg)
        for c in itertools.product(levels, repeat=4)
    )
    assert cost == pytest.approx(brute, rel=1e-12)
    assert cost <= _total(gains, best, cfg) + 1e-12


def test_grid_search_beats_random_allocations():
    rng = np.random.default_rng(5)
    layout = build_hex_layout(1, 500.0)
    drop = sample_drop(layout, 2, 100.0, rng)
    gains = build_gain_table(drop, NO_SHADOW)
    cfg = ConstraintConfig(q_max_dbw=-140.0)
    levels = np.linspace(-150.0, 20.0, 9)
    _, best_cost = oracle_grid_search(gains, cfg, NO_SHADOW.noise_dbw, levels, 1)
    for _ in range(20):
        p = rng.choice(levels, size=(2, 1))
        assert best_cost <= _total(gains, p, cfg) + 1e-12


def test_grid_search_budget_guard():
    rng = np.random.default_rng(6)
    layout = build_hex_layout(1, 500.0)
    drop = sample_drop(layout, 4, 100.0, rng)
    gains = build_gain_table(drop, NO_SHADOW)
    with pytest.raises(SearchSpaceTooLargeError):
        oracle_grid_search(
            gains, ConstraintConfig(), NO_SHADOW.noise_dbw, np.linspace(-150, 20, 35), 8
        )


def test_direct_opt_zero_iters_returns_init():
    rng = np.random.default_rng(7)
    layout = build_hex_layout(1, 500.0)
    drop = sample_drop(layout, 2, 100.0, rng)
    gains = build_gain_table(drop, NO_SHADOW)
    p, cost = oracle_direct_opt(gains, ConstraintConfig(), NO_SHADOW.noise_dbw, 2, 0, 1.0)
    assert np.array_equal(p, np.full((2, 2), -65.0))
    assert cost == pytest.approx(
        _total(gains, p, ConstraintConfig()), rel=1e-12
    )


def test_direct_opt_unconstrained_reaches_cap():
    rng = np.random.default_rng(8)
    layout = build_hex_layout(1, 500.0)
    drop = sample_drop(layout, 1, 100.0, rng)
    gains = build_gain_table(drop, NO_SHADOW)
    cfg = ConstraintConfig(c_p=0.0, c_if=0.0)
    p, _ = oracle_direct_opt(gains, cfg, NO_SHADOW.noise_dbw, 1, 1000, 1.0)
    assert p[0, 0] > 19.0


# The pair rows that sample_drop(build_hex_layout(1, 500.0), 2, 100.0,
# default_rng(seed)) drew with the rejection sampler, kept as the instances
# these seeds name
_ORACLE_DROPS = {
    0: [[136.9616873214543, 37.78035084893554, 110.43664413117165, 119.92169612428853],
        [-230.2132862361297, 376.78377148627635, -278.09553934559295, 402.064047740654]],
    4: [[11.327552814361582, 38.05436933906236, 53.8493837814758, 125.11873026601161],
        [-419.1639761043978, -19.785628742202903, -491.17211284806217, -78.48595697254899]],
    8: [[-173.0277233944393, -340.388170320687, -193.3209177727395, -355.98109536793004],
        [487.2768433379256, -18.21645105215532, 451.60752638950413, -65.32655220549626]],
    10: [[456.0017096289754, -64.51110060066281, 465.28947197499264, -53.3768253121494],
         [328.44488527453075, 281.7465616162599, 390.5100690847683, 240.43298673336398]],
}


@pytest.mark.parametrize("seed", [0, 4, 8, 10])
def test_oracles_agree_on_seeded_instances(seed):
    # grid resolution is 5 dB; on these instances the continuous optimum
    # sits close enough that the two references agree tightly
    drop = Drop(build_hex_layout(1, 500.0), np.array(_ORACLE_DROPS[seed]))
    gains = build_gain_table(drop, NO_SHADOW)
    cfg = ConstraintConfig(q_max_dbw=-140.0, c_p=1000.0, c_if=100.0)
    levels = np.linspace(-150.0, 20.0, 35)
    _, grid_cost = oracle_grid_search(gains, cfg, NO_SHADOW.noise_dbw, levels, 1)
    _, direct_cost = oracle_direct_opt(gains, cfg, NO_SHADOW.noise_dbw, 1, 2000, 1.0)
    assert abs(direct_cost - grid_cost) <= 0.01 * abs(grid_cost) + 0.01
