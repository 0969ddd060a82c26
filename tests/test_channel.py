import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dpower.channel import ChannelParams, build_gain_table, dbw_to_watt
from d2dpower.errors import ConfigurationError
from d2dpower.objective import ConstraintConfig, stacked_cost
from d2dpower.topology import Drop, build_hex_layout, sample_batch, sample_drop

NO_SHADOW = ChannelParams(shadowing_enabled=False)


def _single_pair_drop(tx, rx, layout=None):
    layout = layout or build_hex_layout(1, 500.0)
    return Drop(layout, [[tx[0], tx[1], rx[0], rx[1]]])


def _loss_db(d, params=NO_SHADOW):
    """Path loss at distance d read back from an unshadowed gain table:
    a lone pair whose receiver sits d meters east of its transmitter."""
    gains = build_gain_table(_single_pair_drop((0.0, 0.0), (d, 0.0)), params)
    return -float(gains.g_d2d_db[0, 0])


def _tx_watts(p_dbm):
    """Per-transmitter watts of one-channel dBm powers, via stacked_cost."""
    p = np.asarray(p_dbm, dtype=float).reshape(1, -1, 1)
    k = p.shape[1]
    comp = stacked_cost(
        p, np.zeros((1, k, k)), np.zeros((1, k, 1)), ConstraintConfig(), -130.0
    )
    return comp.total_power_w[0]


def test_path_loss_at_clamp_distance_is_l1():
    # d0 = 1 m, so the clamp point evaluates to exactly L1
    assert _loss_db(1.0, NO_SHADOW) == pytest.approx(30.0)
    assert _loss_db(0.0, NO_SHADOW) == pytest.approx(30.0)
    assert _loss_db(0.5, NO_SHADOW) == _loss_db(1.0, NO_SHADOW)


def test_path_loss_formula():
    assert _loss_db(100.0, NO_SHADOW) == pytest.approx(30.0 + 40.0 * 2.0)


@given(d1=st.floats(0, 1e4), d2=st.floats(0, 1e4))
@settings(deadline=None)
def test_path_loss_monotone(d1, d2):
    lo, hi = sorted([d1, d2])
    assert _loss_db(lo, NO_SHADOW) <= _loss_db(hi, NO_SHADOW)


def test_channel_params_validation():
    with pytest.raises(ConfigurationError):
        ChannelParams(l2_db=0.0)
    for bad in (0.0, -40.0):
        with pytest.raises(ConfigurationError):
            ChannelParams(enb_l2_db=bad)
    with pytest.raises(ConfigurationError):
        ChannelParams(d0_m=0.0)
    with pytest.raises(ConfigurationError):
        ChannelParams(shadow_sigma_db=-1.0)


def test_gain_table_without_shadowing():
    drop = _single_pair_drop((0.0, 0.0), (50.0, 0.0))
    gains = build_gain_table(drop, NO_SHADOW)
    expected = -(30.0 + 40.0 * math.log10(50.0))
    assert gains.g_d2d_db[0, 0] == pytest.approx(expected, rel=1e-12)
    assert gains.g_enb_db.shape == (1, 1)
    # tx sits on the eNB -> clamped at d0
    assert gains.g_enb_db[0, 0] == pytest.approx(-30.0)


def test_gain_table_deterministic_without_shadowing():
    rng = np.random.default_rng(0)
    drop = sample_drop(build_hex_layout(3, 500.0), 4, 100.0, rng)
    a = build_gain_table(drop, NO_SHADOW)
    b = build_gain_table(drop, NO_SHADOW)
    assert np.array_equal(a.g_d2d_db, b.g_d2d_db)
    assert np.array_equal(a.g_enb_db, b.g_enb_db)


def test_gains_bounded_by_clamp_and_finite():
    rng = np.random.default_rng(1)
    drop = sample_drop(build_hex_layout(7, 500.0), 8, 100.0, rng)
    gains = build_gain_table(drop, NO_SHADOW)
    cap = -_loss_db(NO_SHADOW.d0_m, NO_SHADOW)
    assert np.isfinite(gains.g_d2d_db).all() and np.isfinite(gains.g_enb_db).all()
    assert (gains.g_d2d_db <= cap).all()
    assert (gains.g_enb_db <= cap).all()


def test_symmetric_pairs_see_equal_enb_gain():
    layout = build_hex_layout(1, 500.0)
    drop = Drop(layout, [[200.0, 0.0, 250.0, 0.0], [-200.0, 0.0, -250.0, 0.0]])
    gains = build_gain_table(drop, NO_SHADOW)
    assert gains.g_enb_db[0, 0] == pytest.approx(gains.g_enb_db[1, 0], rel=1e-12)


def test_shadowing_standard_deviation():
    # ~1e5 independent links in one table; residual vs the no-shadow table
    # recovers the configured sigma
    rng = np.random.default_rng(2)
    drop = sample_drop(build_hex_layout(1, 500.0), 320, 100.0, rng)
    shadowed = build_gain_table(drop, ChannelParams(), np.random.default_rng(3))
    clean = build_gain_table(drop, NO_SHADOW)
    residual = shadowed.g_d2d_db - clean.g_d2d_db
    assert residual.size >= 100_000
    assert residual.std() == pytest.approx(8.0, rel=0.02)
    assert abs(residual.mean()) < 0.1


def test_shadowing_requires_rng():
    drop = _single_pair_drop((0.0, 0.0), (10.0, 0.0))
    with pytest.raises(ValueError):
        build_gain_table(drop, ChannelParams())


def test_per_channel_shadowing_shape():
    params = ChannelParams(per_channel_shadowing=True)
    drop = _single_pair_drop((0.0, 0.0), (10.0, 0.0))
    gains = build_gain_table(drop, params, np.random.default_rng(4), n_channels=8)
    assert gains.g_d2d_db.shape == (1, 1, 8)
    assert gains.g_enb_db.shape == (1, 1, 8)
    with pytest.raises(ValueError):
        build_gain_table(drop, params, np.random.default_rng(4))


def test_enb_constants_override():
    params = ChannelParams(shadowing_enabled=False, enb_l1_db=40.0, enb_l2_db=20.0)
    drop = _single_pair_drop((100.0, 0.0), (110.0, 0.0))
    gains = build_gain_table(drop, params)
    assert gains.g_enb_db[0, 0] == pytest.approx(-(40.0 + 20.0 * 2.0))
    # device link still uses the base constants
    assert gains.g_d2d_db[0, 0] == pytest.approx(-(30.0 + 40.0 * 1.0))


def test_unit_conversion_examples():
    assert _tx_watts([30.0])[0] == pytest.approx(1.0, rel=1e-12)
    assert dbw_to_watt(-130.0) == pytest.approx(1e-13, rel=1e-12)
    # -100 dBm and -130 dBW are the same power
    assert _tx_watts([-100.0])[0] == pytest.approx(dbw_to_watt(-130.0), rel=1e-12)
    assert _tx_watts([10.0 * math.log10(250.0)])[0] == pytest.approx(0.25, rel=1e-12)
    assert dbw_to_watt(0.0) == pytest.approx(1.0, abs=1e-12)


@given(w=st.floats(1e-18, 1e3))
@settings(deadline=None)
def test_dbm_watt_roundtrip(w):
    back = _tx_watts([10.0 * math.log10(w) + 30.0])[0]
    assert abs(back - w) <= 1e-12 * w
    back_dbw = dbw_to_watt(10.0 * math.log10(w))
    assert abs(back_dbw - w) <= 1e-12 * w


def test_conversions_vectorized():
    p = np.array([-100.0, 0.0, 30.0])
    w = _tx_watts(p)
    assert w == pytest.approx([1e-13, 1e-3, 1.0], rel=1e-12)
    assert 10.0 * np.log10(w) + 30.0 == pytest.approx(p, rel=1e-12)
    assert dbw_to_watt(p - 30.0) == pytest.approx(w, rel=1e-12)
    assert isinstance(dbw_to_watt(-130.0), float)


def _rng_order_case(cells, pairs_per_cell, bn, channel, n_channels=None):
    layout = build_hex_layout(cells, 500.0)
    drops = sample_batch(layout, pairs_per_cell, 100.0, bn, np.random.default_rng(21))
    stacked = build_gain_table(drops, channel, np.random.default_rng(22), n_channels)
    rng = np.random.default_rng(22)
    singles = [
        build_gain_table(Drop(layout, rows), channel, rng, n_channels)
        for rows in drops.pairs
    ]
    assert np.array_equal(stacked.g_d2d_db, np.stack([t.g_d2d_db for t in singles]))
    assert np.array_equal(stacked.g_enb_db, np.stack([t.g_enb_db for t in singles]))
    return stacked


def test_stacked_gain_table_equals_sequential_drops():
    # one shadowing draw for a [B, K, 4] stack matches B single-drop calls
    # on the same generator bit for bit
    # desk layout, then the full-scale layout
    stacked = _rng_order_case(1, 4, 16, ChannelParams())
    assert stacked.g_d2d_db.shape == (16, 4, 4)
    assert stacked.g_enb_db.shape == (16, 4, 1)
    stacked = _rng_order_case(7, 8, 50, ChannelParams())
    assert stacked.g_d2d_db.shape == (50, 56, 56)
    assert stacked.g_enb_db.shape == (50, 56, 7)


def test_stacked_gain_table_equals_sequential_drops_per_channel():
    stacked = _rng_order_case(3, 4, 6, ChannelParams(per_channel_shadowing=True), 4)
    assert stacked.g_d2d_db.shape == (6, 12, 12, 4)
    assert stacked.g_enb_db.shape == (6, 12, 3, 4)
