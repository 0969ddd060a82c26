import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_reference import scalar_drop_cost

from d2dpower.channel import ChannelParams, GainTable, build_gain_table, dbw_to_watt
from d2dpower.errors import ShapeError
from d2dpower.objective import ConstraintConfig, stacked_cost
from d2dpower.topology import Drop, build_hex_layout, sample_batch, sample_drop

NOISE_DBW = -130.0
NO_SHADOW = ChannelParams(shadowing_enabled=False)


def _random_instance(rng, k=None, n=None, c=1):
    k = k or int(rng.integers(1, 5))
    n = n or int(rng.integers(1, 5))
    layout = build_hex_layout(c, 500.0)
    rows = []
    for i in range(k):
        tx = rng.uniform(-400, 400, 2)
        rx = tx + rng.uniform(-100, 100, 2)
        rows.append([tx[0], tx[1], rx[0], rx[1]])
    drop = Drop(layout, rows)
    gains = build_gain_table(drop, ChannelParams(), rng)
    p = rng.uniform(-60.0, 20.0, (k, n))
    return drop, gains, p


def _cost(gains, p_dbm, cfg=None, noise_dbw=NOISE_DBW):
    """stacked_cost on one drop, as a stack of one."""
    return stacked_cost(
        np.asarray(p_dbm, dtype=float)[None],
        np.asarray(gains.g_d2d_db)[None],
        np.asarray(gains.g_enb_db)[None],
        cfg or ConstraintConfig(),
        noise_dbw,
    )


def _unit_gains(k, c=1):
    """0 dB on every link: the penalty terms then see the raw powers."""
    return GainTable(np.zeros((k, k)), np.zeros((k, c)))


def test_throughput_hand_value():
    # one pair, 50 m apart, 0 dBm on a single channel
    layout = build_hex_layout(1, 500.0)
    drop = Drop(layout, [[0.0, 0.0, 50.0, 0.0]])
    gains = build_gain_table(drop, NO_SHADOW)
    t = _cost(gains, np.array([[0.0]])).throughput_per_pair[0]
    pl = 30.0 + 40.0 * math.log10(50.0)
    sinr = 10.0 ** ((0.0 - pl - 30.0) / 10.0) / 1e-13
    expected = math.log2(1.0 + sinr)
    assert t[0] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.38, abs=0.01)


def test_throughput_floor_power_is_negligible():
    layout = build_hex_layout(1, 500.0)
    drop = Drop(layout, [[0.0, 0.0, 50.0, 0.0]])
    gains = build_gain_table(drop, NO_SHADOW)
    t = _cost(gains, np.full((1, 4), -150.0)).throughput_per_pair[0]
    assert (t >= 0).all()
    assert t.sum() < 1e-8


def test_colocated_pairs_symmetric_throughput():
    layout = build_hex_layout(1, 500.0)
    pair = [10.0, 20.0, 40.0, 60.0]
    drop = Drop(layout, [pair, pair])
    gains = build_gain_table(drop, NO_SHADOW)
    p = np.full((2, 3), -10.0)
    t = _cost(gains, p).throughput_per_pair[0]
    assert t[0] == pytest.approx(t[1], rel=1e-12)


def _ct_p(p_dbm, p_max_w):
    k = np.shape(p_dbm)[0]
    return _cost(_unit_gains(k), p_dbm, ConstraintConfig(p_max_w=p_max_w)).ct_p[0]


def test_power_penalty_dead_zone():
    # -10 dBm x 4 channels = 0.4 mW total, far below 0.25 W
    assert _ct_p(np.full((3, 4), -10.0), 0.25) == 0.0


def test_power_penalty_doubling_gives_one():
    # one transmitter at exactly twice the cap
    p = np.array([[10.0 * math.log10(500.0)]])  # 0.5 W in dBm
    assert _ct_p(p, 0.25) == pytest.approx(1.0, rel=1e-12)


def test_power_penalty_additive_over_transmitters():
    p_w = 0.5  # per transmitter, cap 0.25
    p = np.full((5, 1), 10.0 * math.log10(p_w * 1000.0))
    assert _ct_p(p, 0.25) == pytest.approx(5.0, rel=1e-12)


def test_enb_interference_hand_value():
    layout = build_hex_layout(1, 500.0)
    drop = Drop(layout, [[100.0, 0.0, 110.0, 0.0]])
    gains = build_gain_table(drop, NO_SHADOW)
    agg = _cost(gains, np.array([[0.0]])).enb_interference_w[0]
    # 1 mW through 110 dB path loss
    assert agg[0, 0] == pytest.approx(1e-14, rel=1e-12)


def test_enb_interference_linear_in_power():
    rng = np.random.default_rng(0)
    drop, gains, p = _random_instance(rng, k=3, n=2)
    base = _cost(gains, p).enb_interference_w[0]
    doubled = _cost(gains, p + 10.0 * math.log10(2.0)).enb_interference_w[0]
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_enb_interference_floor_effectively_zero():
    rng = np.random.default_rng(1)
    drop, gains, _ = _random_instance(rng, k=4, n=2)
    agg = _cost(gains, np.full((4, 2), -150.0)).enb_interference_w[0]
    assert (agg < 1e-15).all()


def _ct_if(enb_if_w, q_max_dbw):
    """ct_if when eNB c sees enb_if_w[c, n] watts on channel n: one 1 W
    (30 dBm) transmitter whose per-channel eNB gains are those watts."""
    enb_if_w = np.asarray(enb_if_w, dtype=float)
    c, n = enb_if_w.shape
    gains = GainTable(np.zeros((1, 1, n)), 10.0 * np.log10(enb_if_w)[None])
    comp = _cost(gains, np.full((1, n), 30.0), ConstraintConfig(q_max_dbw=q_max_dbw))
    assert comp.enb_interference_w[0] == pytest.approx(enb_if_w, rel=1e-12)
    return comp.ct_if[0]


def test_interference_penalty_examples():
    q = dbw_to_watt(-140.0)
    below = np.full((2, 3), 0.5 * q)
    assert _ct_if(below, -140.0) == 0.0
    one_over = below.copy()
    one_over[1, 2] = 2.0 * q
    assert _ct_if(one_over, -140.0) == pytest.approx(1.0, rel=1e-12)
    all_over = np.full((2, 3), 2.0 * q)
    assert _ct_if(all_over, -140.0) == pytest.approx(6.0, rel=1e-12)


def test_drop_cost_unconstrained_reduction():
    rng = np.random.default_rng(2)
    drop, gains, p = _random_instance(rng, k=3, n=3)
    cfg = ConstraintConfig(c_p=0.0, c_if=0.0)
    breakdown = _cost(gains, p, cfg)
    assert breakdown.total[0] == pytest.approx(-breakdown.sum_throughput[0], rel=1e-12)


def test_drop_cost_floor_powers_near_zero():
    rng = np.random.default_rng(3)
    drop, gains, _ = _random_instance(rng, k=2, n=2)
    cfg = ConstraintConfig()
    breakdown = _cost(gains, np.full((2, 2), -150.0), cfg)
    assert breakdown.ct_p[0] == 0.0
    assert breakdown.ct_if[0] == 0.0
    assert abs(breakdown.total[0]) < 1e-8


def test_drop_cost_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    cfg = ConstraintConfig(p_max_w=0.05, q_max_dbw=-135.0, c_p=7.0, c_if=3.0)
    for _ in range(30):
        drop, gains, p = _random_instance(rng)
        got = _cost(gains, p, cfg)
        want = scalar_drop_cost(
            p.tolist(),
            gains.g_d2d_db.tolist(),
            gains.g_enb_db.tolist(),
            cfg.p_max_w,
            cfg.q_max_w,
            cfg.c_p,
            cfg.c_if,
            dbw_to_watt(NOISE_DBW),
        )
        have = (got.sum_throughput[0], got.ct_p[0], got.ct_if[0], got.total[0])
        for a, b in zip(have, want):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def _mean_total(gains, p_stack, cfg):
    """Mean of the per-drop totals over a stack, as training reports it."""
    comp = stacked_cost(p_stack, gains.g_d2d_db, gains.g_enb_db, cfg, NOISE_DBW)
    return float(comp.total.mean())


def test_batch_cost_singleton_equals_drop_cost():
    rng = np.random.default_rng(5)
    layout = build_hex_layout(1, 500.0)
    batch = sample_batch(layout, 3, 100.0, 1, rng)
    gains = build_gain_table(batch, NO_SHADOW)
    p = rng.uniform(-60, 20, (3, 2))
    cfg = ConstraintConfig()
    single = build_gain_table(Drop(layout, batch.pairs[0]), NO_SHADOW)
    assert _mean_total(gains, p[None], cfg) == pytest.approx(
        _cost(single, p, cfg).total[0], rel=1e-12
    )


def test_batch_cost_mean_of_identical_drops():
    rng = np.random.default_rng(6)
    layout = build_hex_layout(1, 500.0)
    drop = sample_drop(layout, 2, 100.0, rng)
    gains = build_gain_table(drop, NO_SHADOW)
    p = rng.uniform(-60, 20, (2, 2))
    cfg = ConstraintConfig()
    twice = build_gain_table(Drop(layout, np.stack([drop.pairs, drop.pairs])), NO_SHADOW)
    value = _mean_total(twice, np.stack([p, p]), cfg)
    assert value == pytest.approx(_cost(gains, p, cfg).total[0], rel=1e-12)


@pytest.mark.parametrize("bn", [1, 2, 8, 50])
def test_batch_cost_equals_mean_of_drop_costs(bn):
    rng = np.random.default_rng(7 + bn)
    layout = build_hex_layout(1, 500.0)
    batch = sample_batch(layout, 4, 100.0, bn, rng)
    gains = build_gain_table(batch, ChannelParams(), rng)
    ps = np.stack([rng.uniform(-60, 20, (4, 3)) for _ in range(bn)])
    cfg = ConstraintConfig(p_max_w=0.05, q_max_dbw=-138.0)
    vectorized = _mean_total(gains, ps, cfg)
    per_drop = np.mean(
        [
            _cost(GainTable(gains.g_d2d_db[i], gains.g_enb_db[i]), ps[i], cfg).total[0]
            for i in range(bn)
        ]
    )
    assert abs(vectorized - per_drop) <= 1e-9 * max(1.0, abs(per_drop))


def test_batch_cost_misaligned_lengths():
    rng = np.random.default_rng(8)
    layout = build_hex_layout(1, 500.0)
    batch = sample_batch(layout, 2, 100.0, 3, rng)
    gains = build_gain_table(batch, NO_SHADOW)
    ps = np.zeros((2, 2, 2))
    with pytest.raises(ShapeError):
        _mean_total(gains, ps, ConstraintConfig())


def test_per_channel_gains_match_flat_when_equal():
    rng = np.random.default_rng(9)
    drop, gains, p = _random_instance(rng, k=3, n=4)
    flat = _cost(gains, p)
    repeated = GainTable(
        np.repeat(gains.g_d2d_db[:, :, None], 4, axis=2),
        np.repeat(gains.g_enb_db[:, :, None], 4, axis=2),
    )
    per_channel = _cost(repeated, p)
    assert per_channel.total[0] == pytest.approx(flat.total[0], rel=1e-12)


def test_raising_own_power_increases_own_throughput():
    rng = np.random.default_rng(10)
    drop, gains, p = _random_instance(rng, k=3, n=2)
    base_comp = _cost(gains, p)
    base, base_if = base_comp.throughput_per_pair[0], base_comp.enb_interference_w[0]
    bumped = p.copy()
    bumped[1, 0] += 3.0
    after_comp = _cost(gains, bumped)
    after, after_if = after_comp.throughput_per_pair[0], after_comp.enb_interference_w[0]
    assert after[1] > base[1]
    assert (after_if[:, 0] >= base_if[:, 0]).all()
    # the untouched channel is unaffected
    assert after_if[:, 1] == pytest.approx(base_if[:, 1], rel=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(deadline=None, max_examples=30)
def test_throughput_and_penalties_nonnegative(seed):
    rng = np.random.default_rng(seed)
    drop, gains, p = _random_instance(rng)
    cfg = ConstraintConfig(p_max_w=0.01, q_max_dbw=-145.0)
    comp = _cost(gains, p, cfg)
    t = comp.throughput_per_pair[0]
    assert (t >= 0).all()
    assert comp.ct_p[0] >= 0.0
    assert comp.ct_if[0] >= 0.0
    assert comp.total[0] == pytest.approx(
        -comp.sum_throughput[0] + cfg.c_if * comp.ct_if[0] + cfg.c_p * comp.ct_p[0],
        rel=1e-12,
    )


def test_penalties_zero_iff_constraints_hold():
    rng = np.random.default_rng(11)
    drop, gains, p = _random_instance(rng, k=2, n=2)
    cfg = ConstraintConfig(p_max_w=0.25, q_max_dbw=-120.0)
    pw_totals = (10.0 ** ((p - 30.0) / 10.0)).sum(axis=1)
    breakdown = _cost(gains, p, cfg)
    agg = breakdown.enb_interference_w[0]
    p_ok = (pw_totals <= cfg.p_max_w).all()
    q_ok = (agg <= cfg.q_max_w).all()
    assert (breakdown.ct_p[0] == 0.0) == p_ok
    assert (breakdown.ct_if[0] == 0.0) == q_ok


def _eta(gains, p_dbm, noise_dbw):
    """sum_k T_k / (K * N) in bits/s/Hz, as train and evaluate report it."""
    k, n = np.shape(p_dbm)
    return _cost(gains, p_dbm, noise_dbw=noise_dbw).sum_throughput[0] / (k * n)


def test_spectral_efficiency():
    # powers that underflow to 0 W carry no throughput at all
    assert _eta(_unit_gains(4), np.full((4, 8), -4000.0), 0.0) == 0.0
    # two isolated pairs at SINR 3 on both channels: 2 bits/s/Hz each
    isolated = GainTable(np.array([[0.0, -4000.0], [-4000.0, 0.0]]), np.zeros((2, 1)))
    p = np.full((2, 2), 10.0 * math.log10(3000.0))  # 3 W against a 1 W (0 dBW) floor
    assert _eta(isolated, p, 0.0) == pytest.approx(2.0)


def test_stacked_cost_shape_validation():
    with pytest.raises(ShapeError):
        stacked_cost(
            np.zeros((2, 3, 2)),
            np.zeros((2, 4, 4)),
            np.zeros((2, 3, 1)),
            ConstraintConfig(),
            NOISE_DBW,
        )
