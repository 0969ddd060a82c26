"""Whole-vector references of the package's Adam step, training loop and
direct-optimization oracle.

The Adam step runs each operation once over the whole flat vectors, in
the order of the textbook update. The training loop runs in two phases
per iteration: the whole gradient, collected from cost_and_grad's step,
then adam_step. The oracle writes Adam out over the whole power matrix,
each formula out of place. The tests assert that the package's chunked
step, its train that steps inside backward, and its oracle that steps
with adam_stepper match them bit for bit.
"""

import numpy as np
import whole_gradient

from d2dpower import training
from d2dpower.channel import build_gain_table
from d2dpower.errors import NumericDivergenceError
from d2dpower.network import NetworkParams, init_params, init_stats
from d2dpower.objective import POWER_CEIL_DBM, POWER_FLOOR_DBM, stacked_cost
from d2dpower.topology import build_hex_layout, sample_batch


def adam_step(state, params, grads):
    """Same contract as d2dpower.training.adam_step."""
    state.t += 1
    c1 = 1.0 - state.beta1**state.t
    c2 = 1.0 - state.beta2**state.t
    g = grads.flat
    tmp = (1.0 - state.beta1) * g
    state.m *= state.beta1
    state.m += tmp
    np.multiply(1.0 - state.beta2, g, out=tmp)
    tmp *= g
    state.v *= state.beta2
    state.v += tmp
    np.divide(state.m, c1, out=tmp)
    tmp *= state.lr
    denom = np.divide(state.v, c2)
    np.sqrt(denom, out=denom)
    denom += state.epsilon
    tmp /= denom
    return NetworkParams(params.config, np.subtract(params.flat, tmp, out=denom)), state


def train(cfg):
    """d2dpower.training.train as a two-phase loop; returns
    (params, stats, metrics, adam_state)."""
    rng = np.random.default_rng(cfg.seed)
    layout = build_hex_layout(cfg.topology.cells, cfg.topology.radius_m)
    params = init_params(cfg.network, rng)
    stats = init_stats(cfg.network, momentum=cfg.bn_momentum)
    adam = training.init_adam(params, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_epsilon)
    n = cfg.network.output_size
    k_total = cfg.topology.pairs_per_cell * cfg.topology.cells
    metrics = []
    for iteration in range(1, cfg.n_epoch + 1):
        drops = sample_batch(
            layout, cfg.topology.pairs_per_cell, cfg.topology.dmax_m, cfg.batch_size, rng
        )
        gains = build_gain_table(drops, cfg.channel, rng, n)
        cost, grads, comp = whole_gradient.cost_and_grad(
            params, stats, drops, gains, cfg.constraints, cfg.channel.noise_dbw
        )
        if not np.isfinite(cost):
            raise NumericDivergenceError(iteration)
        params, adam = training.adam_step(adam, params, grads)
        if (iteration - 1) % cfg.log_every == 0 or iteration == cfg.n_epoch:
            metrics.append(
                training.MetricsRecord(
                    iteration=iteration,
                    cost_total=cost,
                    mean_eta=float(comp.sum_throughput.mean()) / (k_total * n),
                    ct_p=float(comp.ct_p.mean()),
                    ct_if=float(comp.ct_if.mean()),
                    pmax_violation_rate=float(
                        (comp.total_power_w > cfg.constraints.p_max_w).mean()
                    ),
                    q_exceed_rate=float(
                        (comp.enb_interference_w > cfg.constraints.q_max_w).mean()
                    ),
                )
            )
    return params, stats, metrics, adam


def oracle_direct_opt(gains, cfg, noise_dbw, n_channels, iters, lr):
    """Same contract as d2dpower.evaluation.oracle_direct_opt."""
    g_d2d = np.asarray(gains.g_d2d_db, dtype=float)[None]
    g_enb = np.asarray(gains.g_enb_db, dtype=float)[None]
    k = g_d2d.shape[1]
    p = np.full((k, n_channels), -65.0)
    beta1, beta2, eps = 0.9, 0.999, 1e-12
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t in range(1, iters + 1):
        comp = stacked_cost(p[None], g_d2d, g_enb, cfg, noise_dbw, want_grad=True)
        g = comp.grad_p_dbm[0]
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        step = lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
        p = np.clip(p - step, POWER_FLOOR_DBM, POWER_CEIL_DBM)
    comp = stacked_cost(p[None], g_d2d, g_enb, cfg, noise_dbw)
    return p, float(comp.total[0])
