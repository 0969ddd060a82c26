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
    sample_drop lays pairs out cell-major, pairs_per_cell per cell.
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


def sample_points_in_hexagon(center, radius: float, n: int, rng) -> np.ndarray:
    """Sample n points uniformly inside a hexagon by rejection from its
    bounding box (acceptance ratio ~0.75 per draw)."""
    out = np.empty((n, 2), dtype=float)
    apothem = SQRT3 * radius / 2.0
    filled = 0
    while filled < n:
        m = max(8, int(1.6 * (n - filled)))
        cand = np.column_stack(
            [rng.uniform(-radius, radius, m), rng.uniform(-apothem, apothem, m)]
        )
        keep = cand[points_in_hexagon(cand, (0.0, 0.0), radius)]
        take = min(len(keep), n - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out + np.asarray(center, dtype=float)


def sample_drop(layout: CellLayout, pairs_per_cell: int, dmax: float, rng) -> Drop:
    """Place pairs_per_cell transmitters uniformly inside every hexagon;
    each receiver sits at distance ~ Uniform[0, dmax] and bearing
    ~ Uniform[0, 2*pi) from its transmitter.

    Receivers may land outside the home cell; only the transmitter is
    constrained to it.
    """
    if pairs_per_cell < 1:
        raise ConfigurationError(f"pairs_per_cell must be >= 1, got {pairs_per_cell}")
    if dmax < 0:
        raise ConfigurationError(f"dmax must be >= 0, got {dmax}")
    rows = []
    for cell in range(layout.cell_count):
        center = layout.cell_centers[cell]
        tx = sample_points_in_hexagon(center, layout.radius, pairs_per_cell, rng)
        dist = rng.uniform(0.0, dmax, pairs_per_cell)
        bearing = rng.uniform(0.0, 2.0 * math.pi, pairs_per_cell)
        rx = tx + np.column_stack([dist * np.cos(bearing), dist * np.sin(bearing)])
        rows.append(np.concatenate([tx, rx], axis=1))
    return Drop(layout, np.concatenate(rows, axis=0))


def sample_batch(
    layout: CellLayout, pairs_per_cell: int, dmax: float, batch_size: int, rng
) -> Drop:
    """batch_size independent drops from one layout, stacked as [B, K, 4]
    pair rows; drop i consumes the generator exactly as the i-th of
    batch_size sequential sample_drop calls."""
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    return Drop(
        layout,
        np.stack(
            [sample_drop(layout, pairs_per_cell, dmax, rng).pairs for _ in range(batch_size)]
        ),
    )


def flatten_batch(drops: Drop) -> np.ndarray:
    """[B*K, 4] network input rows; row i*K + j is pair j of drop i."""
    return drops.pairs.reshape(-1, 4)
