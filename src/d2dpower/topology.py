"""Hexagonal cell layouts and random device-pair drops.

Cells are regular hexagons with a vertex on the +x axis of each center
(vertices at bearings 0, 60, ..., 300 degrees) and center-to-vertex
radius R. Adjacent cell centers sit sqrt(3)*R apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError

SQRT3 = math.sqrt(3.0)

SUPPORTED_CELL_COUNTS = (1, 3, 7)

# (drop, cell) units drawn per speculative generator call in sample_batch.
# A unit whose first rejection round falls short discards the draws of the
# units after it in its window, so this trades calls against redrawn
# doubles; no output bit depends on it.
_WINDOW = 64


@dataclass(frozen=True)
class TopologyConfig:
    """Sampling parameters for one simulated environment."""

    cells: int = 7
    radius_m: float = 500.0
    pairs_per_cell: int = 8
    dmax_m: float = 100.0

    def __post_init__(self):
        if self.cells not in SUPPORTED_CELL_COUNTS:
            raise ConfigurationError(
                f"cells must be one of {SUPPORTED_CELL_COUNTS}, got {self.cells}"
            )
        if self.radius_m <= 0:
            raise ConfigurationError(f"radius_m must be positive, got {self.radius_m}")
        if self.pairs_per_cell < 1:
            raise ConfigurationError(
                f"pairs_per_cell must be >= 1, got {self.pairs_per_cell}"
            )
        if self.dmax_m < 0:
            raise ConfigurationError(f"dmax_m must be >= 0, got {self.dmax_m}")


@dataclass(frozen=True)
class CellLayout:
    """eNB cell-center coordinates [C, 2] plus the common hexagon radius."""

    cell_centers: np.ndarray
    radius: float

    @property
    def cell_count(self) -> int:
        return int(self.cell_centers.shape[0])


@dataclass(frozen=True)
class Drop:
    """Random placement of all device pairs in a layout.

    pairs holds one (tx_x, tx_y, rx_x, rx_y) row per pair: [K, 4] for a
    single drop, or [B, K, 4] for a stack of B drops sharing the layout.
    sample_batch lays pairs out cell-major, pairs_per_cell per cell.
    """

    layout: CellLayout
    pairs: np.ndarray

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=float)
        if pairs.ndim not in (2, 3) or pairs.shape[-1] != 4 or pairs.size == 0:
            raise ShapeError(
                f"pair rows must be a non-empty [K, 4] or [B, K, 4] array, "
                f"got shape {pairs.shape}"
            )
        object.__setattr__(self, "pairs", pairs)

    @property
    def k(self) -> int:
        return int(self.pairs.shape[-2])

    def coords(self) -> np.ndarray:
        """The (tx_x, tx_y, rx_x, rx_y) pair rows."""
        return self.pairs


def build_hex_layout(cells: int, radius: float) -> CellLayout:
    """Build the cell-center grid for 1, 3, or 7 hexagonal cells.

    C=1 is a single cell at the origin. C=3 is three mutually adjacent
    cells whose centers form an equilateral triangle of side sqrt(3)*R.
    C=7 is a center cell plus a ring of six neighbors at distance
    sqrt(3)*R, bearings 0, 60, ..., 300 degrees.
    """
    if cells not in SUPPORTED_CELL_COUNTS:
        raise ConfigurationError(
            f"cells must be one of {SUPPORTED_CELL_COUNTS}, got {cells}"
        )
    if radius <= 0:
        raise ConfigurationError(f"radius must be positive, got {radius}")
    spacing = SQRT3 * radius
    if cells == 1:
        centers = [(0.0, 0.0)]
    elif cells == 3:
        centers = [
            (0.0, 0.0),
            (spacing, 0.0),
            (spacing / 2.0, 1.5 * radius),
        ]
    else:
        centers = [(0.0, 0.0)]
        for i in range(6):
            ang = math.radians(60.0 * i)
            centers.append((spacing * math.cos(ang), spacing * math.sin(ang)))
    return CellLayout(np.array(centers, dtype=float), float(radius))


def points_in_hexagon(points: np.ndarray, center, radius: float) -> np.ndarray:
    """Boolean mask of points inside the hexagon centered at `center`.

    Uses the three half-plane pairs of a regular hexagon whose vertices
    sit at bearings 0, 60, ..., 300 degrees. Boundary points count as
    inside.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dx = pts[:, 0] - center[0]
    dy = pts[:, 1] - center[1]
    lim = SQRT3 * radius
    return (
        (np.abs(dy) <= lim / 2.0)
        & (np.abs(SQRT3 * dx + dy) <= lim)
        & (np.abs(SQRT3 * dx - dy) <= lim)
    )


def sample_drop(layout: CellLayout, pairs_per_cell: int, dmax: float, rng) -> Drop:
    """One drop: the [K, 4] pair rows of a sample_batch of one."""
    return Drop(layout, sample_batch(layout, pairs_per_cell, dmax, 1, rng).pairs[0])


def sample_batch(
    layout: CellLayout, pairs_per_cell: int, dmax: float, batch_size: int, rng
) -> Drop:
    """batch_size independent drops from one layout, stacked as [B, K, 4]
    pair rows, pairs_per_cell per cell, cell-major within a drop.

    Each (drop, cell) unit, in that order, takes its transmitters
    uniformly inside the hexagon by rejection from the bounding box: rounds
    of m = max(8, int(1.6 * missing)) x candidates, then m y candidates,
    keeping accepted points in order until pairs_per_cell are found. It
    then draws pairs_per_cell receiver distances ~ Uniform[0, dmax] and
    bearings ~ Uniform[0, 2*pi). Receivers may land outside the home cell.

    Units are drawn _WINDOW at a time in one generator call, as if each
    needed one rejection round. At the first unit whose round falls short,
    the generator is rewound to the end of that round and the unit draws
    its further rounds and receivers alone; the next window starts after
    it. So the generator is consumed exactly as by the unit-by-unit loop.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    if pairs_per_cell < 1:
        raise ConfigurationError(f"pairs_per_cell must be >= 1, got {pairs_per_cell}")
    if dmax < 0:
        raise ConfigurationError(f"dmax must be >= 0, got {dmax}")
    n = pairs_per_cell
    r = layout.radius
    apothem = SQRT3 * r / 2.0
    m = max(8, int(1.6 * n))
    span = 2 * m + 2 * n  # doubles one unit draws when its first round suffices
    units = batch_size * layout.cell_count
    reps = min(units, _WINDOW)
    lo = np.tile(np.repeat([-r, -apothem, 0.0, 0.0], [m, m, n, n]), reps)
    hi = np.tile(np.repeat([r, apothem, dmax, 2.0 * math.pi], [m, m, n, n]), reps)
    centers = np.tile(layout.cell_centers, (batch_size, 1))
    pairs = np.empty((units, n, 4))
    u = 0
    while u < units:
        w = min(_WINDOW, units - u)
        state = rng.bit_generator.state
        draw = rng.uniform(lo[: w * span], hi[: w * span]).reshape(w, span)
        cand = np.stack((draw[:, :m], draw[:, m : 2 * m]), axis=-1)
        inside = points_in_hexagon(cand.reshape(-1, 2), (0.0, 0.0), r).reshape(w, m)
        rank = np.cumsum(inside, axis=1)
        short = np.flatnonzero(rank[:, -1] < n)
        done = int(short[0]) if short.size else w
        keep = inside[:done] & (rank[:done] <= n)  # the first n accepted points
        _place_pairs(
            pairs[u : u + done],
            cand[:done][keep].reshape(done, n, 2) + centers[u : u + done, None],
            draw[:done, 2 * m : 2 * m + n],
            draw[:done, 2 * m + n :],
        )
        u += done
        if done == w:
            continue
        rng.bit_generator.state = state
        rng.random(done * span + 2 * m)  # up to the end of the short round
        found = [cand[done][inside[done]]]
        missing = n - len(found[0])
        while missing:
            k = max(8, int(1.6 * missing))
            more = np.column_stack([rng.uniform(-r, r, k), rng.uniform(-apothem, apothem, k)])
            found.append(more[points_in_hexagon(more, (0.0, 0.0), r)][:missing])
            missing -= len(found[-1])
        dist = rng.uniform(0.0, dmax, n)
        bearing = rng.uniform(0.0, 2.0 * math.pi, n)
        _place_pairs(pairs[u], np.concatenate(found) + centers[u], dist, bearing)
        u += 1
    return Drop(layout, pairs.reshape(batch_size, -1, 4))


def _place_pairs(out, tx, dist, bearing):
    """Write (tx_x, tx_y, rx_x, rx_y) rows into out, each receiver at
    dist along bearing from its transmitter."""
    out[..., :2] = tx
    np.multiply(dist, np.cos(bearing), out=out[..., 2])
    out[..., 2] += tx[..., 0]
    np.multiply(dist, np.sin(bearing), out=out[..., 3])
    out[..., 3] += tx[..., 1]


def flatten_batch(drops: Drop) -> np.ndarray:
    """[B*K, 4] network input rows; row i*K + j is pair j of drop i."""
    return drops.pairs.reshape(-1, 4)
