"""Unfused reference of the network's forward and backward passes.

Each formula is written once, out of place, with the textbook masked
sigmoid, so it shares no buffer or in-place step with the package's
fused hot path, and it works on whole arrays, never on row blocks. The
network tests assert that the package matches it bit for bit: the fused
code must evaluate the same operations in the same order, only into
arrays it already owns. The layers compute in config.dtype; where a
float64 running statistic meets a float32 activation, the result is
rounded back to float32, as the package stores it.
"""

import numpy as np

from d2dpower import network
from d2dpower.network import NetworkParams

CLIP = 1e-12


def masked_sigmoid(x):
    """Overflow-free logistic: 1/(1+exp(-x)) where x >= 0, exp(x)/(1+exp(x))
    elsewhere, selected with boolean indexing."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def forward(params, x, mode="train", stats=None):
    """Return (p_dbm, cache), cache a list of per-layer dicts with the keys
    x_in, mu (the batch mean), a_hat, inv_std, y, clip_mask (train mode
    only)."""
    cfg = params.config
    x = np.asarray(x, dtype=cfg.dtype)
    cache = [] if mode == "train" else None
    n_layers = len(params.layers)
    h = x
    out = None
    for idx, layer in enumerate(params.layers):
        a = h @ layer.w
        if mode == "train":
            mu = a.mean(axis=0)
            var = a.var(axis=0)
            if stats is not None:
                m = stats.momentum
                stats.mean[idx] = m * stats.mean[idx] + (1.0 - m) * mu
                stats.var[idx] = m * stats.var[idx] + (1.0 - m) * var
        else:
            mu = stats.mean[idx]
            var = stats.var[idx]
        inv_std = 1.0 / np.sqrt(var + cfg.bn_epsilon)
        a_hat = ((a - mu).astype(cfg.dtype) * inv_std).astype(cfg.dtype)
        hpre = layer.s * a_hat + layer.z
        y = masked_sigmoid(hpre)
        clip_mask = None
        if idx == n_layers - 1:  # the clip and rescale run in float64
            y64 = y.astype(np.float64)
            y_clipped = np.clip(y64, CLIP, 1.0 - CLIP)
            clip_mask = (y64 > CLIP) & (y64 < 1.0 - CLIP)
            out = y_clipped * (cfg.out_max_dbm - cfg.out_min_dbm) + cfg.out_min_dbm
        if cache is not None:
            cache.append(
                dict(x_in=h, mu=mu, a_hat=a_hat, inv_std=inv_std, y=y, clip_mask=clip_mask)
            )
        h = y
    return out, cache


def backward(params, cache, d_out):
    """Gradient of a scalar cost with respect to params, given
    d(cost)/d(p_dbm) and the cache of a train-mode reference forward."""
    cfg = params.config
    scale = cfg.out_max_dbm - cfg.out_min_dbm
    d_out = np.asarray(d_out, dtype=cfg.dtype)
    grads = NetworkParams(cfg)
    d_y = None
    for idx in reversed(range(len(params.layers))):
        layer = params.layers[idx]
        g = grads.layers[idx]
        c = cache[idx]
        if idx == len(params.layers) - 1:
            d_y = d_out * scale * c["clip_mask"]
        d_h = d_y * c["y"] * (1.0 - c["y"])
        g.s[...] = (d_h * c["a_hat"]).sum(axis=0)
        g.z[...] = d_h.sum(axis=0)
        d_ahat = d_h * layer.s
        d_a = c["inv_std"] * (
            d_ahat
            - d_ahat.mean(axis=0)
            - c["a_hat"] * (d_ahat * c["a_hat"]).mean(axis=0)
        )
        g.w[...] = c["x_in"].T @ d_a
        d_y = d_a @ layer.w.T
    return grads


def save_checkpoint(params, stats, path):
    """Format v1 written with one .tobytes() copy per array."""
    cfg = params.config
    with open(path, "wb") as f:
        f.write(
            network._HEADER.pack(
                network._MAGIC, network._FORMAT_VERSION, cfg.depth, cfg.width,
                cfg.input_size, cfg.output_size, cfg.bn_epsilon, cfg.out_min_dbm,
                cfg.out_max_dbm,
            )
        )
        for idx, layer in enumerate(params.layers):
            for arr in (layer.w, layer.s, layer.z, stats.mean[idx], stats.var[idx]):
                f.write(np.asarray(arr, dtype="<f8").tobytes())
