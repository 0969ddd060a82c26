"""Training loop: per-iteration simulation, reverse-mode gradients of the
batched cost through the network, and Adam updates.

Every iteration samples a fresh batch of drops (no dataset is ever
reused), runs a train-mode forward pass on the flattened pair
coordinates, evaluates the penalized cost, backpropagates, and steps the
optimizer. With a fixed seed the whole run is a pure function of its
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channel import ChannelParams, GainTable, build_gain_table
from .errors import ConfigurationError, NumericDivergenceError, NumericError
from .network import (
    _ADAM_BLOCK,
    BatchNormStats,
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
    """First/second moment vectors, laid out like NetworkParams.flat, plus
    step counter."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    beta1: float
    beta2: float
    epsilon: float
    t: int = 0


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
    bn_momentum: float = BatchNormStats.momentum
    seed: int = 0
    log_every: int = 1

    def __post_init__(self):
        if self.n_epoch < 1:
            raise ConfigurationError(f"n_epoch must be >= 1, got {self.n_epoch}")
        if self.log_every < 1:
            raise ConfigurationError(f"log_every must be >= 1, got {self.log_every}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 2:
            raise ConfigurationError(
                f"batch_size must be >= 2 for batch statistics, got {self.batch_size}"
            )
        if self.lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {self.lr}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.adam_epsilon <= 0:
            raise ConfigurationError(f"adam_epsilon must be positive, got {self.adam_epsilon}")
        if not 0.0 < self.bn_momentum < 1.0:
            raise ConfigurationError(f"bn_momentum must be in (0, 1), got {self.bn_momentum}")


class MetricsRecord(NamedTuple):
    """One logged training iteration's summary, a metrics.csv row in
    column order (rates are over the train batch)."""

    iteration: int
    cost_total: float
    mean_eta: float
    ct_p: float
    ct_if: float
    pmax_violation_rate: float
    q_exceed_rate: float


def init_adam(
    params: NetworkParams,
    lr: float,
    beta1: float = TrainConfig.beta1,
    beta2: float = TrainConfig.beta2,
    epsilon: float = TrainConfig.adam_epsilon,
) -> AdamState:
    # Python floats: under NEP 50 an np.float64 would promote float32 steps
    return AdamState(
        lr=float(lr),
        m=np.zeros_like(params.flat),
        v=np.zeros_like(params.flat),
        beta1=float(beta1),
        beta2=float(beta2),
        epsilon=float(epsilon),
    )


def adam_stepper(state: AdamState, flat: np.ndarray):
    """Return step(lo, g), which takes state's next bias-corrected Adam
    step on flat[lo:lo + len(g)] and the same entries of the moments, in
    place, given their gradient g.

    m <- b1*m + (1-b1)*g, v <- b2*v + (1-b2)*g^2, then
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) with
    m_hat = m/(1-b1^t), v_hat = v/(1-b2^t). The first call advances
    state.t, once per stepper, so the calls must cover each entry at most
    once, and a stepper never called leaves state as it was. step runs
    over chunks of _ADAM_BLOCK entries, each through every operation while
    it is in cache; every entry's arithmetic is the same as over the whole
    vectors, however the calls split flat.
    """
    c1 = c2 = None

    def step(lo: int, g: np.ndarray) -> None:
        nonlocal c1, c2
        if c1 is None:
            state.t += 1
            c1 = 1.0 - state.beta1**state.t
            c2 = 1.0 - state.beta2**state.t
        run = slice(lo, lo + len(g))
        theta, m_run, v_run = flat[run], state.m[run], state.v[run]
        tmp = np.empty(min(len(g), _ADAM_BLOCK), flat.dtype)
        denom = np.empty_like(tmp)
        for i in range(0, len(g), _ADAM_BLOCK):
            block = slice(i, i + _ADAM_BLOCK)
            g_b, m, v, p = g[block], m_run[block], v_run[block], theta[block]
            upd, d = tmp[: len(g_b)], denom[: len(g_b)]
            np.multiply(1.0 - state.beta1, g_b, out=upd)
            m *= state.beta1
            m += upd
            np.multiply(1.0 - state.beta2, g_b, out=upd)
            upd *= g_b
            v *= state.beta2
            v += upd
            np.divide(m, c1, out=upd)
            upd *= state.lr
            np.divide(v, c2, out=d)
            np.sqrt(d, out=d)
            d += state.epsilon
            upd /= d
            p -= upd

    return step


def adam_step(state: AdamState, params: NetworkParams, grads: NetworkParams):
    """One adam_stepper step over the whole vector; returns
    (new_params, state). The moments are updated in place; params is left
    untouched."""
    new = params.flat.copy()
    adam_stepper(state, new)(0, grads.flat)
    return NetworkParams(params.config, new), state


def cost_and_grad(
    params: NetworkParams,
    stats: BatchNormStats | None,
    drops: Drop,
    gains: GainTable,
    constraints: ConstraintConfig,
    noise_dbw: float,
    want_grad: bool = True,
    step=None,
):
    """Mean train-mode batch cost and, if want_grad, its exact gradient
    with respect to every network parameter (batch statistics included).

    drops is a [B, K, 4] stack and gains its stacked GainTable; stacked_cost
    raises ShapeError when the two do not match. Returns
    (cost, grads_or_None, StackedCost); a non-finite gradient raises
    NumericError naming the layer where it entered (see network.backward).

    With step (an adam_stepper step), backward hands it the gradient run
    by run instead of returning it (grads is None), and runs only if the
    cost is finite: the caller checks the cost.
    """
    x = flatten_batch(drops)
    p_flat, cache = forward(params, x, "train", stats)
    bn, k = drops.pairs.shape[:2]
    n = params.config.output_size
    comp = stacked_cost(
        p_flat.reshape(bn, k, n), gains.g_d2d_db, gains.g_enb_db, constraints, noise_dbw,
        want_grad=want_grad,
    )
    cost = float(comp.total.mean())
    grads = None
    if want_grad and (step is None or np.isfinite(cost)):
        d_p = (comp.grad_p_dbm / bn).reshape(bn * k, n)
        grads = backward(params, cache, d_p, step)
    return cost, grads, comp


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
    forward passes per parameter. Runs in float64 whatever
    params.config.dtype says: differences at h = 1e-5 mean nothing in
    float32.
    """
    params = NetworkParams(replace(params.config, dtype="float64"), params.flat)
    _, grads, _ = cost_and_grad(params, None, drops, gains, constraints, noise_dbw)
    probe = NetworkParams(params.config, params.flat.copy())
    flat = probe.flat

    def cost():
        return cost_and_grad(
            probe, None, drops, gains, constraints, noise_dbw, want_grad=False
        )[0]

    max_err = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        c_plus = cost()
        flat[i] = orig - h
        c_minus = cost()
        flat[i] = orig
        numeric = (c_plus - c_minus) / (2.0 * h)
        analytic = grads.flat[i]
        err = abs(analytic - numeric) / max(1.0, abs(analytic) + abs(numeric))
        if err > max_err:
            max_err = err
    return max_err, flat.size


def train(cfg: TrainConfig):
    """Run the full training loop.

    Returns (params, stats, metrics) where metrics holds one MetricsRecord
    per logged iteration: the first, every cfg.log_every-th after it, and
    the last. Each iteration's Adam step runs inside backward, run by run
    (see network.backward), on the parameters and moments in place, so no
    whole-network gradient or second parameter vector is ever held. A
    non-finite cost aborts with NumericDivergenceError carrying the
    iteration index before any run is stepped, the parameters and Adam
    state as they were; a non-finite gradient aborts with it too, and
    leaves the runs above the failing layer's stepped.
    """
    rng = np.random.default_rng(cfg.seed)
    layout = build_hex_layout(cfg.topology.cells, cfg.topology.radius_m)
    params = init_params(cfg.network, rng)
    stats = init_stats(cfg.network, momentum=cfg.bn_momentum)
    adam = init_adam(params, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_epsilon)
    n = cfg.network.output_size
    k_total = cfg.topology.pairs_per_cell * cfg.topology.cells
    p_max = cfg.constraints.p_max_w
    q_w = cfg.constraints.q_max_w
    metrics: list[MetricsRecord] = []
    for iteration in range(1, cfg.n_epoch + 1):
        drops = sample_batch(
            layout, cfg.topology.pairs_per_cell, cfg.topology.dmax_m, cfg.batch_size, rng
        )
        gains = build_gain_table(drops, cfg.channel, rng, n)
        try:
            cost, _, comp = cost_and_grad(
                params, stats, drops, gains, cfg.constraints, cfg.channel.noise_dbw,
                step=adam_stepper(adam, params.flat),
            )
        except NumericError as e:
            raise NumericDivergenceError(
                iteration, f"aborted at iteration {iteration}: {e}"
            ) from e
        if not np.isfinite(cost):
            raise NumericDivergenceError(iteration)
        if (iteration - 1) % cfg.log_every == 0 or iteration == cfg.n_epoch:
            metrics.append(
                MetricsRecord(
                    iteration=iteration,
                    cost_total=cost,
                    mean_eta=float(comp.sum_throughput.mean()) / (k_total * n),
                    ct_p=float(comp.ct_p.mean()),
                    ct_if=float(comp.ct_if.mean()),
                    pmax_violation_rate=float((comp.total_power_w > p_max).mean()),
                    q_exceed_rate=float((comp.enb_interference_w > q_w).mean()),
                )
            )
    return params, stats, metrics
