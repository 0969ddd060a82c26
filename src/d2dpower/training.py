"""Training loop: per-iteration simulation, reverse-mode gradients of the
batched cost through the network, and Adam updates.

Every iteration samples a fresh batch of drops (no dataset is ever
reused), runs a train-mode forward pass on the flattened pair
coordinates, evaluates the penalized cost, backpropagates, and steps the
optimizer. With a fixed seed the whole run is a pure function of its
configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, GainTable, build_gain_table
from .errors import ConfigurationError, NumericDivergenceError, NumericError
from .network import (
    BatchNormStats,
    Gradients,
    LayerParams,
    NetworkConfig,
    NetworkParams,
    backward,
    forward,
    init_params,
    init_stats,
)
from .objective import ConstraintConfig, StackedCost, stacked_cost
from .topology import Drop, TopologyConfig, build_hex_layout, flatten_batch, sample_batch


@dataclass
class AdamState:
    """First/second moment accumulators plus step counter."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


@dataclass(frozen=True)
class TrainConfig:
    network: NetworkConfig
    constraints: ConstraintConfig
    channel: ChannelParams
    topology: TopologyConfig
    n_epoch: int = 100_000
    batch_size: int = 50
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    bn_momentum: float = 0.99
    seed: int = 0

    def __post_init__(self):
        if self.n_epoch < 1:
            raise ConfigurationError(f"n_epoch must be >= 1, got {self.n_epoch}")
        if self.batch_size < 2:
            raise ConfigurationError(
                f"batch_size must be >= 2 for batch statistics, got {self.batch_size}"
            )
        if self.lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {self.lr}")


@dataclass(frozen=True)
class MetricsRecord:
    """One training iteration's summary (rates are over the train batch)."""

    iteration: int
    cost_total: float
    mean_eta: float
    ct_p: float
    ct_if: float
    pmax_violation_rate: float
    q_exceed_rate: float
    wall_ms: float


def init_adam(
    params: NetworkParams,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> AdamState:
    zeros = [
        LayerParams(np.zeros_like(l.w), np.zeros_like(l.s), np.zeros_like(l.z))
        for l in params.layers
    ]
    return AdamState(
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
        t=0,
        m=zeros,
        v=[LayerParams(np.zeros_like(l.w), np.zeros_like(l.s), np.zeros_like(l.z)) for l in params.layers],
    )


def adam_step(state: AdamState, params: NetworkParams, grads: Gradients):
    """One bias-corrected Adam update; returns (new_params, state).

    m <- b1*m + (1-b1)*g, v <- b2*v + (1-b2)*g^2, then
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) with
    m_hat = m/(1-b1^t), v_hat = v/(1-b2^t).
    """
    state.t += 1
    c1 = 1.0 - state.beta1**state.t
    c2 = 1.0 - state.beta2**state.t
    new_layers = []
    new_m = []
    new_v = []
    for layer, g, m, v in zip(params.layers, grads.layers, state.m, state.v):
        updated = []
        m_parts = []
        v_parts = []
        for p_arr, g_arr, m_arr, v_arr in (
            (layer.w, g.w, m.w, v.w),
            (layer.s, g.s, m.s, v.s),
            (layer.z, g.z, m.z, v.z),
        ):
            m_new = state.beta1 * m_arr + (1.0 - state.beta1) * g_arr
            v_new = state.beta2 * v_arr + (1.0 - state.beta2) * g_arr * g_arr
            step = state.lr * (m_new / c1) / (np.sqrt(v_new / c2) + state.epsilon)
            updated.append(p_arr - step)
            m_parts.append(m_new)
            v_parts.append(v_new)
        new_layers.append(LayerParams(*updated))
        new_m.append(LayerParams(*m_parts))
        new_v.append(LayerParams(*v_parts))
    state.m = new_m
    state.v = new_v
    return NetworkParams(tuple(new_layers), params.config), state


def _cost_and_grad(
    params: NetworkParams,
    stats: BatchNormStats | None,
    drops: Drop,
    gains: GainTable,
    constraints: ConstraintConfig,
    noise_dbw: float,
    update_stats: bool = True,
    want_grad: bool = True,
):
    """Shared core: train-mode forward, stacked cost, optional backward.

    drops is a [B, K, 4] stack and gains its stacked GainTable; stacked_cost
    raises ShapeError when the two do not match. Returns
    (cost, grads_or_None, StackedCost).
    """
    x = flatten_batch(drops)
    p_flat, cache = forward(params, x, "train", stats, update_stats=update_stats)
    bn, k = drops.pairs.shape[:2]
    n = params.config.output_size
    comp = stacked_cost(
        p_flat.reshape(bn, k, n), gains.g_d2d_db, gains.g_enb_db, constraints, noise_dbw,
        want_grad=want_grad,
    )
    cost = float(comp.total.mean())
    grads = None
    if want_grad:
        d_p = (comp.grad_p_dbm / bn).reshape(bn * k, n)
        grads = backward(params, cache, d_p)
        for idx, layer in enumerate(grads.layers):
            if not (
                np.isfinite(layer.w).all()
                and np.isfinite(layer.s).all()
                and np.isfinite(layer.z).all()
            ):
                raise NumericError(f"non-finite gradient in layer {idx}", layer=idx)
    return cost, grads, comp


def grad_batch_cost(
    params: NetworkParams,
    stats: BatchNormStats | None,
    drops: Drop,
    gains: GainTable,
    constraints: ConstraintConfig,
    noise_dbw: float,
    update_stats: bool = True,
):
    """Mean batch cost and its exact gradient with respect to every
    network parameter (train-mode batch statistics included)."""
    cost, grads, _ = _cost_and_grad(
        params, stats, drops, gains, constraints, noise_dbw, update_stats
    )
    return cost, grads


def batch_cost_value(
    params: NetworkParams,
    drops: Drop,
    gains: GainTable,
    constraints: ConstraintConfig,
    noise_dbw: float,
) -> float:
    """Train-mode batch cost without gradients (used by gradient checks)."""
    cost, _, _ = _cost_and_grad(
        params, None, drops, gains, constraints, noise_dbw,
        update_stats=False, want_grad=False,
    )
    return cost


def finite_difference_check(
    params: NetworkParams,
    drops: Drop,
    gains: GainTable,
    constraints: ConstraintConfig,
    noise_dbw: float,
    h: float = 1e-5,
):
    """Compare every analytic gradient entry against central differences.

    Error metric per entry: |a - n| / max(1, |a| + |n|). Returns
    (max_error, n_entries). Intended for small networks; the cost is two
    forward passes per parameter.
    """
    _, grads, _ = _cost_and_grad(
        params, None, drops, gains, constraints, noise_dbw,
        update_stats=False, want_grad=True,
    )
    arrays = []
    grad_arrays = []
    for layer, g in zip(params.layers, grads.layers):
        for p_arr, g_arr in ((layer.w, g.w), (layer.s, g.s), (layer.z, g.z)):
            arrays.append(np.array(p_arr, dtype=float))
            grad_arrays.append(np.asarray(g_arr, dtype=float))
    probe = NetworkParams(
        tuple(
            LayerParams(arrays[3 * i], arrays[3 * i + 1], arrays[3 * i + 2])
            for i in range(len(params.layers))
        ),
        params.config,
    )
    max_err = 0.0
    n_entries = 0
    for arr, g_arr in zip(arrays, grad_arrays):
        flat = arr.reshape(-1)
        g_flat = g_arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            c_plus = batch_cost_value(probe, drops, gains, constraints, noise_dbw)
            flat[i] = orig - h
            c_minus = batch_cost_value(probe, drops, gains, constraints, noise_dbw)
            flat[i] = orig
            numeric = (c_plus - c_minus) / (2.0 * h)
            analytic = g_flat[i]
            err = abs(analytic - numeric) / max(1.0, abs(analytic) + abs(numeric))
            if err > max_err:
                max_err = err
            n_entries += 1
    return max_err, n_entries


def train(cfg: TrainConfig):
    """Run the full training loop.

    Returns (params, stats, metrics) where metrics has one record per
    iteration. A non-finite cost aborts with NumericDivergenceError
    carrying the iteration index.
    """
    rng = np.random.default_rng(cfg.seed)
    layout = build_hex_layout(cfg.topology.cells, cfg.topology.radius_m)
    params = init_params(cfg.network, rng)
    stats = init_stats(cfg.network, momentum=cfg.bn_momentum)
    adam = init_adam(params, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_epsilon)
    n_channels = (
        cfg.network.output_size if cfg.channel.per_channel_shadowing else None
    )
    k_total = cfg.topology.pairs_per_cell * cfg.topology.cells
    p_max = cfg.constraints.p_max_w
    q_w = cfg.constraints.q_max_w
    metrics: list[MetricsRecord] = []
    for iteration in range(1, cfg.n_epoch + 1):
        t0 = time.perf_counter()
        drops = sample_batch(
            layout, cfg.topology.pairs_per_cell, cfg.topology.dmax_m, cfg.batch_size, rng
        )
        gains = build_gain_table(drops, cfg.channel, rng, n_channels)
        try:
            cost, grads, comp = _cost_and_grad(
                params, stats, drops, gains, cfg.constraints, cfg.channel.noise_dbw
            )
        except NumericError as e:
            raise NumericDivergenceError(
                iteration, f"aborted at iteration {iteration}: {e}"
            ) from e
        if not np.isfinite(cost):
            raise NumericDivergenceError(iteration)
        params, adam = adam_step(adam, params, grads)
        metrics.append(
            MetricsRecord(
                iteration=iteration,
                cost_total=cost,
                mean_eta=float(comp.sum_throughput.mean())
                / (k_total * cfg.network.output_size),
                ct_p=float(comp.ct_p.mean()),
                ct_if=float(comp.ct_if.mean()),
                pmax_violation_rate=float((comp.total_power_w > p_max).mean()),
                q_exceed_rate=float((comp.enb_interference_w > q_w).mean()),
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
    return params, stats, metrics
