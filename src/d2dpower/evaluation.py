"""Held-out evaluation, the cell power-map raster, and independent
optimization oracles for validating trained policies.

The oracles sidestep the network entirely: grid search enumerates every
power matrix over a fixed dBm level set, and direct optimization runs
projected gradient descent on the drop cost itself. Both give reference
costs the learned policy can be compared against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelParams, GainTable, build_gain_table
from .errors import SearchSpaceTooLargeError
from .network import BatchNormStats, NetworkParams, forward
from .objective import (
    POWER_CEIL_DBM,
    POWER_FLOOR_DBM,
    ConstraintConfig,
    stacked_cost,
)
# evaluate samples through sample_batch. sample_drop is not called here but
# stays importable: perfbench/tracing.py wraps evaluation.sample_drop and
# would report the name as an absent layer.
from .topology import (  # noqa: F401
    CellLayout, flatten_batch, points_in_hexagon, sample_batch, sample_drop,
)
from .training import AdamState, adam_stepper

_GRID_SEARCH_BUDGET = 10_000_000
_GRID_CHUNK = 65_536
# drops per draw from the stream, and rows per forward and cost sub-chunk
# (which bounds the layer buffers and the [B, K, K, N] cost tensors)
_EVAL_CHUNK = 512
_EVAL_ROWS = 2048


class EvalReport(NamedTuple):
    """Aggregates over freshly sampled held-out drops (infer mode); the
    fields, in order, are the columns of the eval report."""

    mean_eta: float
    eta_std: float
    mean_total_power_per_tx_w: float
    pmax_violation_rate: float
    q_exceed_rate: float
    n_drops: int


@dataclass(frozen=True)
class PowerMapRaster:
    """Mean allocated power (dBm) on a grid sweep over the layout.

    values[iy, ix] corresponds to the point (x0 + ix*step, y0 + iy*step);
    grid cells outside every hexagon hold NaN.
    """

    x0: float
    y0: float
    step: float
    values: np.ndarray

    def iter_points(self):
        ny, nx = self.values.shape
        for iy in range(ny):
            for ix in range(nx):
                v = self.values[iy, ix]
                if np.isfinite(v):
                    yield self.x0 + ix * self.step, self.y0 + iy * self.step, float(v)


def evaluate(
    params: NetworkParams,
    stats: BatchNormStats,
    layout: CellLayout,
    channel: ChannelParams,
    constraints: ConstraintConfig,
    pairs_per_cell: int,
    dmax: float,
    n_drops: int,
    rng,
) -> EvalReport:
    """Sample n_drops fresh drops, run infer-mode forward passes, and
    aggregate spectral efficiency, power totals, and cap-exceedance rates.

    Drops and gains are drawn in stream chunks of _EVAL_CHUNK drops; the
    network and the cost run on sub-chunks of at most _EVAL_ROWS rows, or
    one drop where a drop has more pairs. Every row and drop is computed
    alone, and the powers are summed per stream chunk, so the report does
    not depend on the sub-chunk size.
    """
    if n_drops < 1:
        raise ValueError(f"n_drops must be >= 1, got {n_drops}")
    n = params.config.output_size
    k = pairs_per_cell * layout.cell_count
    etas = []
    power_sums = 0.0
    pmax_hits = 0
    q_hits = 0
    q_entries = 0
    q_w = constraints.q_max_w
    work = {}  # the layer buffers every sub-chunk's forward reuses
    step = max(1, _EVAL_ROWS // k)  # drops per sub-chunk
    done = 0
    while done < n_drops:
        m = min(_EVAL_CHUNK, n_drops - done)
        drops = sample_batch(layout, pairs_per_cell, dmax, m, rng)
        gains = build_gain_table(drops, channel, rng, n)
        x = flatten_batch(drops)
        powers = np.empty((m, k))  # each pair's total power, summed per stream chunk
        for lo in range(0, m, step):
            hi = min(lo + step, m)
            p_flat, _ = forward(params, x[lo * k : hi * k], "infer", stats, work=work)
            comp = stacked_cost(
                p_flat.reshape(hi - lo, k, n), gains.g_d2d_db[lo:hi], gains.g_enb_db[lo:hi],
                constraints, channel.noise_dbw,
            )
            etas.append(comp.sum_throughput / (k * n))
            powers[lo:hi] = comp.total_power_w
            q_hits += int((comp.enb_interference_w > q_w).sum())
            q_entries += comp.enb_interference_w.size
        power_sums += float(powers.sum())
        pmax_hits += int((powers > constraints.p_max_w).sum())
        done += m
    eta = np.concatenate(etas)
    return EvalReport(
        mean_eta=float(eta.mean()),
        eta_std=float(eta.std()),
        mean_total_power_per_tx_w=power_sums / (n_drops * k),
        pmax_violation_rate=pmax_hits / (n_drops * k),
        q_exceed_rate=q_hits / q_entries,
        n_drops=n_drops,
    )


def power_map(
    params: NetworkParams,
    stats: BatchNormStats,
    layout: CellLayout,
    grid_step: float,
    rx_offset: float,
) -> PowerMapRaster:
    """Sweep a probe pair over the layout and record its mean output power.

    At every grid point inside some cell hexagon, a lone pair is placed
    with the transmitter on the point and the receiver rx_offset meters
    due east; the raster stores the mean of that pair's per-channel
    powers from an infer-mode forward pass.
    """
    if grid_step <= 0:
        raise ValueError(f"grid_step must be positive, got {grid_step}")
    centers = layout.cell_centers
    r = layout.radius
    apothem = np.sqrt(3.0) * r / 2.0
    x0 = float(centers[:, 0].min() - r)
    x1 = float(centers[:, 0].max() + r)
    y0 = float(centers[:, 1].min() - apothem)
    y1 = float(centers[:, 1].max() + apothem)
    xs = x0 + grid_step * np.arange(int(np.floor((x1 - x0) / grid_step)) + 1)
    ys = y0 + grid_step * np.arange(int(np.floor((y1 - y0) / grid_step)) + 1)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    inside = np.zeros(len(pts), dtype=bool)
    for c in centers:
        inside |= points_in_hexagon(pts, c, r)
    values = np.full(pts.shape[0], np.nan)
    idx = np.flatnonzero(inside)
    work = {}
    for start in range(0, idx.size, 8192):
        sel = idx[start : start + 8192]
        probe = np.column_stack(
            [pts[sel, 0], pts[sel, 1], pts[sel, 0] + rx_offset, pts[sel, 1]]
        )
        p, _ = forward(params, probe, "infer", stats, work=work)
        values[sel] = p.mean(axis=1)
    return PowerMapRaster(
        x0=float(xs[0]), y0=float(ys[0]), step=float(grid_step),
        values=values.reshape(len(ys), len(xs)),
    )


def oracle_grid_search(
    gains: GainTable,
    cfg: ConstraintConfig,
    noise_dbw: float,
    levels,
    n_channels: int,
):
    """Exhaustive minimum of the drop cost over all power matrices with
    entries drawn from `levels`.

    Candidates are enumerated in lexicographic order of the flattened
    power vector (levels ascending), and ties keep the earliest
    candidate, so the argmin is reproducible. Raises
    SearchSpaceTooLargeError if len(levels)^(K*N) exceeds the budget.
    """
    g_d2d = np.asarray(gains.g_d2d_db, dtype=float)
    k = g_d2d.shape[0]
    slots = k * n_channels
    n_combos = len(levels) ** slots
    if n_combos > _GRID_SEARCH_BUDGET:
        raise SearchSpaceTooLargeError(
            f"{len(levels)}^{slots} = {n_combos} candidates exceed the "
            f"{_GRID_SEARCH_BUDGET} budget"
        )
    level_list = sorted(float(v) for v in levels)
    g_enb = np.asarray(gains.g_enb_db, dtype=float)
    best_cost = np.inf
    best = None
    combos = itertools.product(level_list, repeat=slots)
    while True:
        chunk = list(itertools.islice(combos, _GRID_CHUNK))
        if not chunk:
            break
        p = np.array(chunk, dtype=float).reshape(-1, k, n_channels)
        m = p.shape[0]
        comp = stacked_cost(
            p,
            np.broadcast_to(g_d2d, (m,) + g_d2d.shape),
            np.broadcast_to(g_enb, (m,) + g_enb.shape),
            cfg,
            noise_dbw,
        )
        i = int(np.argmin(comp.total))
        if comp.total[i] < best_cost:
            best_cost = float(comp.total[i])
            best = p[i].copy()
    return best, best_cost


def oracle_direct_opt(
    gains: GainTable,
    cfg: ConstraintConfig,
    noise_dbw: float,
    n_channels: int,
    iters: int,
    lr: float,
):
    """Projected descent on the drop cost directly over the power matrix
    (no network), starting from -65 dBm everywhere and projecting every
    entry onto [-150, 20] dBm after each step.

    Steps are Adam's (training.adam_stepper, epsilon 1e-12), adaptive per
    entry: the cost gradient with respect to a dBm entry scales with its
    linear power, so a fixed-step descent starting at -65 dBm would need
    ~1e7 iterations to move at all. lr is therefore roughly the
    per-iteration travel in dB.
    """
    g_d2d = np.asarray(gains.g_d2d_db, dtype=float)[None]
    g_enb = np.asarray(gains.g_enb_db, dtype=float)[None]
    k = g_d2d.shape[1]
    p = np.full((k, n_channels), -65.0)
    adam = AdamState(lr, np.zeros(p.size), np.zeros(p.size), 0.9, 0.999, epsilon=1e-12)
    for _ in range(iters):
        comp = stacked_cost(p[None], g_d2d, g_enb, cfg, noise_dbw, want_grad=True)
        adam_stepper(adam, p.reshape(-1))(0, comp.grad_p_dbm.reshape(-1))
        np.clip(p, POWER_FLOOR_DBM, POWER_CEIL_DBM, out=p)
    comp = stacked_cost(p[None], g_d2d, g_enb, cfg, noise_dbw)
    return p, float(comp.total[0])
