import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dpower.errors import ConfigurationError, ShapeError
from d2dpower.topology import (
    CellLayout,
    Drop,
    TopologyConfig,
    build_hex_layout,
    flatten_batch,
    points_in_hexagon,
    sample_batch,
    sample_drop,
)

SQRT3 = math.sqrt(3.0)


def _inside(x, y, center, radius):
    """points_in_hexagon on a one-row array."""
    mask = points_in_hexagon(np.array([[x, y]]), center, radius)
    assert mask.shape == (1,)
    return bool(mask[0])


def test_single_cell_at_origin():
    layout = build_hex_layout(1, 500.0)
    assert layout.cell_count == 1
    assert np.array_equal(layout.cell_centers, [[0.0, 0.0]])


def test_seven_cell_ring():
    layout = build_hex_layout(7, 500.0)
    assert layout.cell_count == 7
    ring = layout.cell_centers[1:]
    dist = np.hypot(ring[:, 0], ring[:, 1])
    assert dist == pytest.approx(SQRT3 * 500.0)
    bearings = np.degrees(np.arctan2(ring[:, 1], ring[:, 0])) % 360.0
    assert sorted(bearings.round(6)) == [0.0, 60.0, 120.0, 180.0, 240.0, 300.0]


def test_three_cells_mutually_adjacent():
    layout = build_hex_layout(3, 500.0)
    c = layout.cell_centers
    for i in range(3):
        for j in range(i + 1, 3):
            d = np.hypot(*(c[i] - c[j]))
            assert d == pytest.approx(SQRT3 * 500.0)


@pytest.mark.parametrize("cells", [0, 2, 4, 6, 8])
def test_unsupported_cell_count(cells):
    with pytest.raises(ConfigurationError):
        build_hex_layout(cells, 500.0)


def test_invalid_radius():
    with pytest.raises(ConfigurationError):
        build_hex_layout(1, 0.0)
    with pytest.raises(ConfigurationError):
        TopologyConfig(cells=1, radius_m=-5.0)


def test_hexagon_contains_center_and_vertices():
    r = 500.0
    assert _inside(0.0, 0.0, (0.0, 0.0), r)
    for deg in range(0, 360, 60):
        vx = r * math.cos(math.radians(deg))
        vy = r * math.sin(math.radians(deg))
        # just inside a vertex is inside, just beyond is outside
        assert _inside(0.999 * vx, 0.999 * vy, (0.0, 0.0), r)
        assert not _inside(1.001 * vx, 1.001 * vy, (0.0, 0.0), r)


@given(
    x=st.floats(-600, 600),
    y=st.floats(-600, 600),
)
@settings(deadline=None)
def test_hexagon_distance_bounds(x, y):
    # inside the inscribed circle -> inside; outside the circumcircle -> outside
    r = 500.0
    d = math.hypot(x, y)
    inside = _inside(x, y, (0.0, 0.0), r)
    if d <= SQRT3 * r / 2.0:
        assert inside
    if d > r:
        assert not inside


def test_sampled_points_inside_hexagon():
    rng = np.random.default_rng(0)
    center = (100.0, -50.0)
    layout = CellLayout(np.array([center]), 300.0)
    pts = sample_drop(layout, 2000, 100.0, rng).pairs[:, :2]
    assert pts.shape == (2000, 2)
    assert points_in_hexagon(pts, center, 300.0).all()


def test_drop_transmitters_inside_home_cell():
    rng = np.random.default_rng(1)
    layout = build_hex_layout(7, 500.0)
    drop = sample_drop(layout, 8, 100.0, rng)
    assert drop.k == 56
    assert drop.pairs.shape == (56, 4)
    # pairs are laid out cell-major, 8 per cell
    for row, home_cell in zip(drop.pairs, np.repeat(np.arange(7), 8)):
        center = layout.cell_centers[home_cell]
        assert _inside(row[0], row[1], center, 500.0)


def test_pair_distance_within_dmax():
    rng = np.random.default_rng(2)
    layout = build_hex_layout(1, 500.0)
    drop = sample_drop(layout, 8, 100.0, rng)
    assert drop.k == 8
    c = drop.coords()
    d = np.hypot(c[:, 0] - c[:, 2], c[:, 1] - c[:, 3])
    assert (d <= 100.0).all()


def test_dmax_zero_colocates_receivers():
    rng = np.random.default_rng(3)
    layout = build_hex_layout(1, 500.0)
    drop = sample_drop(layout, 4, 0.0, rng)
    c = drop.coords()
    assert np.array_equal(c[:, 0:2], c[:, 2:4])


def test_mean_pair_distance_is_half_dmax():
    # Monte-Carlo check of the Uniform[0, dmax] radial law
    rng = np.random.default_rng(4)
    layout = build_hex_layout(1, 500.0)
    drop = sample_drop(layout, 100_000, 100.0, rng)
    c = drop.coords()
    d = np.hypot(c[:, 0] - c[:, 2], c[:, 1] - c[:, 3])
    assert d.mean() == pytest.approx(50.0, rel=0.01)


def test_fixed_seed_reproduces_drops():
    layout = build_hex_layout(3, 500.0)
    a = sample_batch(layout, 4, 100.0, 5, np.random.default_rng(7))
    b = sample_batch(layout, 4, 100.0, 5, np.random.default_rng(7))
    assert np.array_equal(a.coords(), b.coords())


def test_batch_and_flatten_shapes():
    rng = np.random.default_rng(5)
    layout = build_hex_layout(3, 500.0)
    batch = sample_batch(layout, 8, 100.0, 50, rng)
    assert batch.pairs.shape == (50, 24, 4)
    assert batch.k == 24
    flat = flatten_batch(batch)
    assert flat.shape == (1200, 4)


def test_flatten_row_ordering():
    rng = np.random.default_rng(6)
    layout = build_hex_layout(1, 500.0)
    batch = sample_batch(layout, 3, 100.0, 4, rng)
    flat = flatten_batch(batch)
    k = batch.k
    for i, rows in enumerate(batch.pairs):
        assert np.array_equal(flat[i * k : (i + 1) * k], rows)


def test_singleton_batch_flatten():
    rng = np.random.default_rng(8)
    layout = build_hex_layout(1, 500.0)
    batch = sample_batch(layout, 1, 100.0, 1, rng)
    flat = flatten_batch(batch)
    assert flat.shape == (1, 4)
    assert np.array_equal(flat[0], batch.pairs[0, 0])


@given(bn=st.integers(1, 6), k=st.integers(1, 5))
@settings(deadline=None, max_examples=25)
def test_flatten_unflatten_roundtrip(bn, k):
    # flatten_batch rows reshape back to the [B, K, 4] stack
    rng = np.random.default_rng(bn * 31 + k)
    flat = rng.uniform(-1000, 1000, (bn * k, 4))
    drops = Drop(build_hex_layout(1, 500.0), flat.reshape(bn, k, 4))
    assert drops.pairs.shape == (bn, k, 4)
    assert drops.k == k
    assert np.array_equal(flatten_batch(drops), flat)


def test_unflatten_shape_mismatch():
    # pair rows must be [K, 4] or [B, K, 4]
    layout = build_hex_layout(1, 500.0)
    for shape in ((5, 3), (2, 3, 5), (4,), (2, 2, 3, 4)):
        with pytest.raises(ShapeError):
            Drop(layout, np.zeros(shape))


def test_empty_batch_rejected():
    with pytest.raises(ShapeError):
        flatten_batch(Drop(build_hex_layout(1, 500.0), np.zeros((0, 3, 4))))
    with pytest.raises(ConfigurationError):
        sample_batch(build_hex_layout(1, 500.0), 1, 100.0, 0, np.random.default_rng(0))


def test_sample_batch_equals_sequential_sample_drop():
    # drop i of a batch consumes the generator as the i-th sample_drop call
    for cells, bn in ((1, 16), (3, 5), (7, 3)):
        layout = build_hex_layout(cells, 500.0)
        batch = sample_batch(layout, 4, 100.0, bn, np.random.default_rng(12))
        rng = np.random.default_rng(12)
        singles = [sample_drop(layout, 4, 100.0, rng) for _ in range(bn)]
        assert batch.pairs.shape == (bn, 4 * cells, 4)
        assert np.array_equal(batch.pairs, np.stack([d.pairs for d in singles]))


def test_transmitters_uniform_in_home_cell():
    # exact values for a uniform point in a hexagon of circumradius R: mean
    # squared distance from the center 5R^2/12, and 1/6 of the points in each
    # 60-degree sector between vertices (a rhombus holds two sectors)
    layout = build_hex_layout(7, 500.0)
    batch = sample_batch(layout, 8, 100.0, 2000, np.random.default_rng(20))
    offsets = batch.pairs[..., :2].reshape(2000, 7, 8, 2) - layout.cell_centers[:, None]
    for cell in range(7):
        assert points_in_hexagon(offsets[:, cell].reshape(-1, 2), (0.0, 0.0), 500.0).all()
    pts = offsets.reshape(-1, 2)
    r2 = (pts**2).sum(-1)
    assert r2.mean() == pytest.approx(5.0 * 500.0**2 / 12.0, rel=0.01)
    sector = (np.degrees(np.arctan2(pts[:, 1], pts[:, 0])) % 360.0 // 60.0).astype(int)
    shares = np.bincount(sector, minlength=6) / sector.size
    assert shares.shape == (6,)
    assert shares == pytest.approx(np.full(6, 1.0 / 6.0), abs=0.006)


@pytest.mark.parametrize("cells, pairs_per_cell, batch_size", [(1, 4, 16), (3, 13, 5), (7, 8, 50)])
def test_sample_batch_draws_five_doubles_per_pair(cells, pairs_per_cell, batch_size):
    # one rng.random call of B * C * n * 5 doubles, whatever the draws are
    rng, want = np.random.default_rng(cells), np.random.default_rng(cells)
    sample_batch(build_hex_layout(cells, 500.0), pairs_per_cell, 100.0, batch_size, rng)
    want.random(batch_size * cells * pairs_per_cell * 5)
    assert rng.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize(
    "radius, dmax",
    [(math.nan, 100.0), (-1.0, 100.0), (1e308, 100.0), (500.0, math.inf), (500.0, math.nan)],
)
def test_sample_batch_rejects_ranges_uniform_draws_cannot_span(radius, dmax):
    # a NaN, negative or overflowing radius or dmax has no uniform draw
    layout = CellLayout(np.zeros((1, 2)), radius)
    with pytest.raises(ConfigurationError):
        sample_batch(layout, 4, dmax, 2, np.random.default_rng(0))
