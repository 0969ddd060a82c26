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

# E[j] / R: from a cell's center toward its vertices at bearings 0, 120, 240, 0 degrees
_VERTEX_ANGLES = np.radians(120.0 * np.arange(4))
_EDGE_DIRECTIONS = np.stack((np.cos(_VERTEX_ANGLES), np.sin(_VERTEX_ANGLES)), -1)


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

    One rng.random((B, C, n, 5)) call gives each pair five doubles. The
    hexagon is three rhombi meeting at its center, rhombus i spanned by the
    edges E[i] and E[i + 1], E[j] = R * (cos 120j deg, sin 120j deg). The
    first double picks the rhombus and the next two the transmitter's place
    in it, so transmitters are exactly uniform in the home cell without
    rejection. The last two are the receiver's distance ~ Uniform[0, dmax]
    and bearing ~ Uniform[0, 2*pi); receivers may land outside the cell.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    if pairs_per_cell < 1:
        raise ConfigurationError(f"pairs_per_cell must be >= 1, got {pairs_per_cell}")
    if not (0 <= dmax < math.inf and 0 <= 2 * layout.radius < math.inf):
        raise ConfigurationError(f"dmax, 2 * radius must be finite, >= 0: {dmax}, {layout.radius}")
    u = rng.random((batch_size, layout.cell_count, pairs_per_cell, 5))
    rhombus = (3.0 * u[..., 0]).astype(np.intp)  # at most 2: 3 * u < 3 for every double u < 1
    edges = layout.radius * _EDGE_DIRECTIONS
    tx = u[..., 1:2] * edges[rhombus] + u[..., 2:3] * edges[rhombus + 1]
    tx += layout.cell_centers[:, None]
    dist, bearing = dmax * u[..., 3], (2.0 * math.pi) * u[..., 4]
    rx = tx + np.stack((dist * np.cos(bearing), dist * np.sin(bearing)), -1)
    return Drop(layout, np.concatenate((tx, rx), -1).reshape(batch_size, -1, 4))


def flatten_batch(drops: Drop) -> np.ndarray:
    """[B*K, 4] network input rows; row i*K + j is pair j of drop i."""
    return drops.pairs.reshape(-1, 4)
