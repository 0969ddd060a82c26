"""The whole gradient, gathered through the step that training takes.

network.backward hands each run of its gradient to a step; these helpers
pass one that copies every run into a NetworkParams laid out as
params.flat, so the tests check the same buffer and run bookkeeping that
train steps Adam from.
"""

import numpy as np

from d2dpower import network, training
from d2dpower.network import NetworkParams


def collector(grads: NetworkParams):
    """A step(lo, g) that copies each run g into grads.flat from lo."""

    def step(lo, g):
        grads.flat[lo : lo + len(g)] = g

    return step


def backward(params, cache, d_out):
    """network.backward's gradient as a NetworkParams."""
    grads = NetworkParams(params.config)
    network.backward(params, cache, d_out, collector(grads))
    return grads


def cost_and_grad(params, stats, drops, gains, constraints, noise_dbw):
    """(cost, grads, comp) of training.cost_and_grad; grads is None where
    the cost is not finite, since no backward runs then."""
    grads = NetworkParams(params.config)
    cost, comp = training.cost_and_grad(
        params, stats, drops, gains, constraints, noise_dbw, step=collector(grads)
    )
    return cost, grads if np.isfinite(cost) else None, comp
