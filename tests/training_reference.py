"""Whole-vector reference of the package's Adam step.

Each operation runs once over the whole flat vectors, in the order of
the textbook update. The training tests assert that the package's
chunked step matches it bit for bit.
"""

import numpy as np

from d2dpower.network import NetworkParams


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
