"""The per-drop, per-cell drop sampler, one generator call per draw.

topology.sample_batch must consume the generator exactly as this loop
does and return the same pair rows bit for bit; the tests compare the
two, the generator state afterwards included.
"""

import math

import numpy as np

from d2dpower.topology import SQRT3, points_in_hexagon


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


def sample_drop_pairs(layout, pairs_per_cell: int, dmax: float, rng) -> np.ndarray:
    """[K, 4] pair rows of one drop: per cell, the transmitters, then the
    receiver distances ~ Uniform[0, dmax] and bearings ~ Uniform[0, 2*pi)."""
    rows = []
    for center in layout.cell_centers:
        tx = sample_points_in_hexagon(center, layout.radius, pairs_per_cell, rng)
        dist = rng.uniform(0.0, dmax, pairs_per_cell)
        bearing = rng.uniform(0.0, 2.0 * math.pi, pairs_per_cell)
        rx = tx + np.column_stack([dist * np.cos(bearing), dist * np.sin(bearing)])
        rows.append(np.concatenate([tx, rx], axis=1))
    return np.concatenate(rows, axis=0)


def sample_batch_pairs(layout, pairs_per_cell: int, dmax: float, batch_size: int, rng):
    """[B, K, 4] pair rows of batch_size sequential drops."""
    return np.stack(
        [sample_drop_pairs(layout, pairs_per_cell, dmax, rng) for _ in range(batch_size)]
    )
