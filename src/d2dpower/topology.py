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
    of k = max(8, int(1.6 * missing)) x candidates, then k y candidates,
    keeping accepted points in order until pairs_per_cell are found. It
    then draws pairs_per_cell receiver distances ~ Uniform[0, dmax] and
    bearings ~ Uniform[0, 2*pi). Receivers may land outside the home cell.

    Every value is read from one pool of rng.random() doubles, since
    rng.uniform(lo, hi) is lo + (hi - lo) * rng.random() bit for bit. Once
    _walk has found the entries each unit reads, the generator is rewound
    and advanced by the doubles used, as the unit-by-unit loop leaves it.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    if pairs_per_cell < 1:
        raise ConfigurationError(f"pairs_per_cell must be >= 1, got {pairs_per_cell}")
    if not (0 <= dmax < math.inf and 0 <= 2 * layout.radius < math.inf):  # as rng.uniform
        raise ConfigurationError(f"dmax, 2 * radius must be finite, >= 0: {dmax}, {layout.radius}")
    n = pairs_per_cell
    units = batch_size * layout.cell_count
    span = 2 * max(8, int(1.6 * n)) + 2 * n  # doubles of a unit whose first round suffices
    state = rng.bit_generator.state
    pool = rng.random(units * span * 9 // 8)  # short units take at most about 10% more
    while (walk := _walk(pool, layout.radius, n, units)) is None:
        pool = np.concatenate((pool, rng.random(pool.size)))
    rng.bit_generator.state = state
    consumed, tx, rx = walk
    rng.random(consumed)
    dist, bearing = dmax * pool[rx], (2.0 * math.pi) * pool[rx + n]
    tx = tx.reshape(batch_size, -1, n, 2) + layout.cell_centers[:, None]
    rx = tx + np.stack((dist * np.cos(bearing), dist * np.sin(bearing)), -1).reshape(tx.shape)
    return Drop(layout, np.concatenate((tx, rx), -1).reshape(batch_size, -1, 4))


def _walk(pool, r, n, units):
    """(doubles used, [units * n, 2] transmitters, [units, n] receiver
    distance entries) of a sample_batch read from pool, or None if the units
    run past it. A width-k round at entry p reads x from entries p to
    p + k - 1, y from the k after them."""
    a = SQRT3 * r / 2.0
    xy = pool * np.array([[r - -r], [a - -a]]) + [[-r], [-a]]  # each entry as an x and a y
    sums = {}  # k -> s: candidates p to q - 1 of width-k rounds accept s[q] - s[p]

    def accepted(k):
        if k not in sums:  # pts row j: the x of entry j and the y of entry j + k, not copied
            pts = np.ndarray((pool.size - k, 2), buffer=xy, strides=(8, 8 * (pool.size + k)))
            sums[k] = np.zeros(pool.size - k + 1, dtype=np.intp)
            np.cumsum(points_in_hexagon(pts, (0.0, 0.0), r), out=sums[k][1:])
        return sums[k]

    m = max(8, int(1.6 * n))
    span = 2 * m + 2 * n
    s = accepted(m)
    # stop[p]: the first q >= p, q = p (mod span), where a unit falls short or passes the pool
    fits = pool.size - span + 1
    mark = np.arange((pool.size // span + 1) * span)
    mark[:fits][s[m : m + fits] - s[:fits] >= n] = mark.size
    stop = np.minimum.accumulate(mark.reshape(-1, span)[::-1], axis=0)[::-1].ravel()
    runs, extra = [], {}  # runs: (first round start - span * unit, units)
    p = u = 0
    while True:
        run = min((int(stop[p]) - p) // span, units - u)
        stopped = run < units - u  # at a unit that is short or runs past the pool
        runs.append((p - span * u, run + stopped))
        p, u = p + run * span, u + run
        if not stopped:
            break
        k, missing = m, n
        while missing:
            if p + 2 * k + 2 * n > pool.size:
                return None
            s = accepted(k)
            missing -= min(int(s[p + k] - s[p]), missing)
            p, k = p + 2 * k, max(8, int(1.6 * missing))
            if missing:
                extra.setdefault(k, []).append((p, missing))
        p, u = p + 2 * n, u + 1
    firsts = np.repeat(*np.array(runs).T) + span * np.arange(units)
    picks = []  # the x and the y entry of each transmitter
    for k, starts, missing in [(m, firsts, [n])] + [(k, *np.array(v).T) for k, v in extra.items()]:
        s, cand = sums[k], starts[:, None] + np.arange(k)
        hit = s[cand + 1]  # accepted count up to and including each candidate
        keep = (hit > s[cand]) & (hit - s[starts, None] <= np.array(missing)[:, None])
        picks.append(cand[keep] + [[0], [k]])
    picks = np.concatenate(picks, axis=1)
    xs, ys = picks[:, np.argsort(picks[0], kind="stable")]  # unit order, then round order
    rx = np.append(firsts[1:], p)[:, None] - np.arange(2 * n, n, -1)  # last 2n entries
    return p, np.stack((xy[0, xs], xy[1, ys]), -1), rx


def flatten_batch(drops: Drop) -> np.ndarray:
    """[B*K, 4] network input rows; row i*K + j is pair j of drop i."""
    return drops.pairs.reshape(-1, 4)
