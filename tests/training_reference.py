"""Whole-vector references of the package's Adam step and training loop.

The Adam step runs each operation once over the whole flat vectors, in
the order of the textbook update. The training loop runs in two phases
per iteration: the whole gradient from cost_and_grad, then adam_step.
The training tests assert that the package's chunked step, and its train
that steps inside backward, match them bit for bit.
"""

import numpy as np

from d2dpower import training
from d2dpower.channel import build_gain_table
from d2dpower.errors import NumericDivergenceError
from d2dpower.network import NetworkParams, init_params, init_stats
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
        cost, grads, comp = training.cost_and_grad(
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
