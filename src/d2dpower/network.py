"""Feed-forward network: Xavier-initialized dense layers, batch
normalization, sigmoid activations, and a final rescale to dBm.

Every layer, including the output layer, applies
    A = X @ W, normalize(A), H = S * A_hat + Z, Y = sigmoid(H)
and the last layer's Y in (0, 1) maps affinely onto
[out_min_dbm, out_max_dbm]. In train mode normalization uses the batch
mean/variance per feature (and refreshes the running statistics); in
infer mode it uses the running statistics, which makes every row
independent of the rest so a single device can run its own forward pass.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigurationError,
    NumericError,
    ShapeError,
)

# Final sigmoid outputs are clipped into [_CLIP, 1 - _CLIP] before
# rescaling: a saturated sigmoid rounds to exactly 1.0, which would emit
# the closed-interval endpoint instead of a power strictly inside the
# output range. Clip and rescale run in float64 whatever the compute
# dtype, since 1 - 1e-12 rounds to 1.0 in float32.
_CLIP = 1e-12

# Elements per row block of the elementwise passes in forward and
# backward, and per Xavier draw: 64 rows of a 1500-wide layer, so a block
# of each array a pass touches stays in a core's L2 cache, and more rows
# of a narrower one. Each pass computes every element exactly as on the
# whole array, so the bits do not depend on it.
_BLOCK = 64 * 1500

_MAGIC = b"D2DPWNET"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIIIIIddd")


@dataclass(frozen=True)
class NetworkConfig:
    width: int
    depth: int
    output_size: int
    input_size: int = 4
    bn_epsilon: float = 1e-5
    out_min_dbm: float = -150.0
    out_max_dbm: float = 20.0
    dtype: str = "float64"  # of the parameters, gradients and layer buffers

    def __post_init__(self):
        if self.width < 1:
            raise ConfigurationError(f"width must be >= 1, got {self.width}")
        if self.depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {self.depth}")
        if self.output_size < 1:
            raise ConfigurationError(f"output_size must be >= 1, got {self.output_size}")
        if self.input_size < 1:
            raise ConfigurationError(f"input_size must be >= 1, got {self.input_size}")
        if self.bn_epsilon <= 0:
            raise ConfigurationError(f"bn_epsilon must be positive, got {self.bn_epsilon}")
        if not self.out_min_dbm < self.out_max_dbm:
            raise ConfigurationError(
                f"out_min_dbm must be < out_max_dbm, got {self.out_min_dbm} and {self.out_max_dbm}"
            )
        if self.dtype not in ("float32", "float64"):
            raise ConfigurationError(f"dtype must be float32 or float64, got {self.dtype!r}")

    def layer_sizes(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per weight matrix: depth hidden layers of the
        configured width plus the output layer."""
        dims = [self.input_size] + [self.width] * self.depth + [self.output_size]
        return list(zip(dims[:-1], dims[1:]))


@dataclass(frozen=True)
class LayerParams:
    """One layer's weight matrix plus batch-norm scale/shift vectors."""

    w: np.ndarray
    s: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class NetworkParams:
    """Every weight, batch-norm scale and shift in one config.dtype vector.

    flat holds, layer by layer in config.layer_sizes() order, the
    row-major W, then s, then z; it defaults to zeros. layers is a tuple
    of LayerParams views into flat, so a write through either is seen by
    both. Gradients use the same type and layout.
    """

    config: NetworkConfig
    flat: np.ndarray | None = None
    layers: tuple[LayerParams, ...] = field(init=False, repr=False)

    def __post_init__(self):
        sizes = self.config.layer_sizes()
        n = sum((fan_in + 2) * fan_out for fan_in, fan_out in sizes)
        if self.flat is None:
            flat = np.zeros(n, dtype=self.config.dtype)
        else:
            flat = np.ascontiguousarray(self.flat, dtype=self.config.dtype)
            if flat.shape != (n,):
                raise ShapeError(f"expected a flat parameter vector of {n}, got {flat.shape}")
        layers = []
        off = 0
        for fan_in, fan_out in sizes:
            n_w = fan_in * fan_out
            w, s, z = np.split(flat[off : off + n_w + 2 * fan_out], [n_w, n_w + fan_out])
            layers.append(LayerParams(w.reshape(fan_in, fan_out), s, z))
            off += n_w + 2 * fan_out
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "layers", tuple(layers))


@dataclass
class BatchNormStats:
    """Exponential running mean/variance per layer, for infer mode."""

    mean: list[np.ndarray]
    var: list[np.ndarray]
    momentum: float = 0.99

    def copy(self) -> "BatchNormStats":
        return BatchNormStats(
            [m.copy() for m in self.mean], [v.copy() for v in self.var], self.momentum
        )


def xavier_init(fan_in: int, fan_out: int, rng, out: np.ndarray | None = None) -> np.ndarray:
    """Uniform(-r, r) weights with r = sqrt(6 / (fan_in + fan_out)),
    written into out (a new float64 [fan_in, fan_out] array by default).

    The rows are drawn one row block at a time: the same generator
    stream, so the same values, as one draw of the whole matrix, without a
    whole-matrix float64 temporary.
    """
    if fan_in < 1 or fan_out < 1:
        raise ConfigurationError("fan_in and fan_out must be >= 1")
    r = np.sqrt(6.0 / (fan_in + fan_out))
    if out is None:
        out = np.empty((fan_in, fan_out))
    for (block,) in _row_blocks(out):
        block[...] = rng.uniform(-r, r, block.shape)
    return out


def init_params(config: NetworkConfig, rng) -> NetworkParams:
    params = NetworkParams(config)
    for layer in params.layers:
        xavier_init(*layer.w.shape, rng, out=layer.w)
        layer.s[...] = 1.0
    return params


def init_stats(config: NetworkConfig, momentum: float = 0.99) -> BatchNormStats:
    if not 0.0 < momentum < 1.0:
        raise ConfigurationError(f"momentum must be in (0, 1), got {momentum}")
    sizes = [fan_out for _, fan_out in config.layer_sizes()]
    return BatchNormStats(
        mean=[np.zeros(n) for n in sizes],
        var=[np.ones(n) for n in sizes],
        momentum=momentum,
    )


def _sigmoid(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of h, into out (a new array by default); h's
    buffer is overwritten.

    With e = exp(-|h|) the result is 1/(1+e) where h >= 0 and e/(1+e)
    elsewhere: the two overflow-free branches of the textbook masked form,
    evaluated over the whole array without boolean indexing, so every bit
    matches that form. Since 0 <= e <= 1, max(e, h >= 0) is the numerator:
    exactly 1 where h >= 0 and e elsewhere.
    """
    pos = h >= 0
    e = np.copysign(h, -1.0, out=h)
    np.exp(e, out=e)
    out = np.add(e, 1.0, out=out)
    np.maximum(e, pos, out=e)
    return np.divide(e, out, out=out)


def _row_blocks(*arrays):
    """The 2-D arrays' row blocks of max(1, _BLOCK // width) rows, in step,
    as an iterable of tuples, the width being the first array's; arrays of
    at most _BLOCK elements come whole, without slicing."""
    if arrays[0].size <= _BLOCK:
        return (arrays,)
    n, width = arrays[0].shape
    rows = max(1, _BLOCK // width)
    return (tuple(a[i : i + rows] for a in arrays) for i in range(0, n, rows))


def _normalize_activate(a, inv_std, layer, scratch, idx):
    """Scale the centered pre-activations a by inv_std in place, making
    them a_hat, and return sigmoid(s * a_hat + z), one row block at a time
    while it is in cache; scratch holds hpre, then exp(-|hpre|)."""
    y = np.empty_like(a)
    for a_b, hpre, y_b in _row_blocks(a, scratch, y):
        a_b *= inv_std
        np.multiply(layer.s, a_b, out=hpre)
        hpre += layer.z
        if not np.isfinite(hpre).all():
            raise NumericError(f"non-finite activation in layer {idx}", layer=idx)
        _sigmoid(hpre, out=y_b)
    return y


@dataclass
class _LayerCache:
    x_in: np.ndarray
    a_hat: np.ndarray
    inv_std: np.ndarray
    y: np.ndarray
    clip_mask: np.ndarray | None = None


def forward(
    params: NetworkParams,
    x: np.ndarray,
    mode: str = "train",
    stats: BatchNormStats | None = None,
    update_stats: bool = True,
):
    """Map coordinate rows [B, input_size] to powers [B, output_size] dBm.

    Returns (p_dbm, cache); the cache holds the intermediates backward()
    needs and is only built in train mode (None in infer mode). Train
    mode requires B >= 2 (per-feature variance over the batch) and, when
    stats is given and update_stats is True, refreshes the running
    statistics in place. The layers compute in config.dtype; p_dbm is
    float64.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    cfg = params.config
    x = np.asarray(x, dtype=cfg.dtype)
    if x.ndim != 2 or x.shape[1] != cfg.input_size:
        raise ShapeError(f"expected input [B, {cfg.input_size}], got {x.shape}")
    if mode == "train" and x.shape[0] < 2:
        raise ShapeError("train mode needs at least 2 rows for batch statistics")
    if mode == "infer" and stats is None:
        raise ValueError("infer mode requires running statistics")
    if not np.isfinite(x).all():
        raise NumericError("non-finite network input")

    cache = [] if mode == "train" else None
    n_layers = len(params.layers)
    h = x
    out = None
    scratch = None
    for idx, layer in enumerate(params.layers):
        a = h @ layer.w
        if not np.isfinite(a).all():
            raise NumericError(f"non-finite pre-activation in layer {idx}", layer=idx)
        if scratch is None or scratch.shape != a.shape:
            scratch = np.empty_like(a)
        # a becomes a_hat in place; scratch holds a*a, then hpre, then exp(-|hpre|)
        if mode == "train":
            mu = a.mean(axis=0)
            a -= mu
            # the mean of the squared deviations: a.var(axis=0), bit for bit
            var = np.square(a, out=scratch).mean(axis=0)
            if stats is not None and update_stats:
                m = stats.momentum
                stats.mean[idx] = m * stats.mean[idx] + (1.0 - m) * mu
                stats.var[idx] = m * stats.var[idx] + (1.0 - m) * var
        else:
            a -= stats.mean[idx]
            var = stats.var[idx]
        inv_std = 1.0 / np.sqrt(var + cfg.bn_epsilon)
        a_hat = a
        y = _normalize_activate(a_hat, inv_std, layer, scratch, idx)
        clip_mask = None
        if idx == n_layers - 1:
            y64 = np.asarray(y, dtype=np.float64)
            y_clipped = np.clip(y64, _CLIP, 1.0 - _CLIP)
            clip_mask = (y64 > _CLIP) & (y64 < 1.0 - _CLIP)
            out = y_clipped * (cfg.out_max_dbm - cfg.out_min_dbm) + cfg.out_min_dbm
        if cache is not None:
            cache.append(_LayerCache(h, a_hat, inv_std, y, clip_mask))
        h = y
    return out, cache


def backward(params: NetworkParams, cache, d_out: np.ndarray) -> NetworkParams:
    """Reverse-mode derivative of a scalar cost through a train-mode
    forward pass, given d(cost)/d(p_dbm); the gradient has the layout of
    params.

    Backpropagates through the output rescale, sigmoids, the learned
    scale/shift, the batch statistics themselves (mean and variance are
    functions of the batch), and the weight products.
    """
    cfg = params.config
    scale = cfg.out_max_dbm - cfg.out_min_dbm
    last = len(params.layers) - 1
    grads = NetworkParams(cfg)
    # d_y is owned here: d_h, d_ahat and d_a are built in it in place, in
    # the operation order of the textbook formulas, so the bits match them
    d_y = np.multiply(np.asarray(d_out, dtype=cfg.dtype), scale)
    d_y *= cache[last].clip_mask
    scratch = None
    for idx in range(last, -1, -1):
        layer = params.layers[idx]
        g = grads.layers[idx]
        c = cache[idx]
        if scratch is None or scratch.shape != d_y.shape:
            scratch = np.empty_like(d_y)
        # elementwise steps run per row block; the column sums and means
        # run on the whole arrays, so their summation order is unchanged
        for d_b, y_b, a_b, s_b in _row_blocks(d_y, c.y, c.a_hat, scratch):
            d_b *= y_b
            d_b *= np.subtract(1.0, y_b, out=s_b)  # d_h = (d_y * y) * (1 - y)
            np.multiply(d_b, a_b, out=s_b)
        g.s[...] = scratch.sum(axis=0)
        g.z[...] = d_y.sum(axis=0)
        for d_b, a_b, s_b in _row_blocks(d_y, c.a_hat, scratch):
            d_b *= layer.s  # d_ahat
            np.multiply(d_b, a_b, out=s_b)
        m2 = scratch.mean(axis=0)
        d_mean = d_y.mean(axis=0)
        for d_b, a_b, s_b in _row_blocks(d_y, c.a_hat, scratch):
            d_b -= d_mean
            d_b -= np.multiply(a_b, m2, out=s_b)
            d_b *= c.inv_std  # d_a = inv_std * (d_ahat - mean(d_ahat) - a_hat * m2)
        np.matmul(c.x_in.T, d_y, out=g.w)
        if idx:
            d_y = d_y @ layer.w.T
    return grads


def save_checkpoint(params: NetworkParams, stats: BatchNormStats, path) -> None:
    """Write parameters and running statistics to a binary checkpoint.

    Layout: fixed header (magic, format version, depth, width,
    input_size, output_size, bn_epsilon, out range), then per layer the
    arrays W, S, Z, running mean, running variance as little-endian
    float64, row-major, whatever the compute dtype.
    """
    cfg = params.config
    header = _HEADER.pack(
        _MAGIC,
        _FORMAT_VERSION,
        cfg.depth,
        cfg.width,
        cfg.input_size,
        cfg.output_size,
        cfg.bn_epsilon,
        cfg.out_min_dbm,
        cfg.out_max_dbm,
    )
    with open(path, "wb") as f:
        f.write(header)
        for idx, layer in enumerate(params.layers):
            for arr in (layer.w, layer.s, layer.z, stats.mean[idx], stats.var[idx]):
                # through the buffer protocol: a float64 array is written without a copy
                f.write(np.ascontiguousarray(arr, dtype="<f8").data)


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise CheckpointTruncatedError(
            f"checkpoint ended while reading {what} ({len(data)}/{n} bytes)"
        )
    return data


def load_checkpoint(path, expect_config: NetworkConfig | None = None):
    """Read a checkpoint back into (NetworkParams, BatchNormStats).

    If expect_config is given, its structural fields must match the
    stored header, and the parameters come back in its dtype (float64
    otherwise). Running-statistics momentum is not persisted and comes
    back at the default.
    """
    with open(path, "rb") as f:
        raw = f.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise CheckpointTruncatedError("checkpoint shorter than its header")
        magic, version, depth, width, input_size, output_size, bn_eps, out_min, out_max = (
            _HEADER.unpack(raw)
        )
        if magic != _MAGIC:
            raise CheckpointFormatError(f"bad magic bytes {magic!r}")
        if version != _FORMAT_VERSION:
            raise CheckpointVersionError(
                f"unsupported checkpoint version {version} (expected {_FORMAT_VERSION})"
            )
        config = NetworkConfig(
            width=width,
            depth=depth,
            output_size=output_size,
            input_size=input_size,
            bn_epsilon=bn_eps,
            out_min_dbm=out_min,
            out_max_dbm=out_max,
            dtype=expect_config.dtype if expect_config is not None else "float64",
        )
        if expect_config is not None:
            expected = (
                expect_config.width,
                expect_config.depth,
                expect_config.input_size,
                expect_config.output_size,
            )
            stored = (width, depth, input_size, output_size)
            if expected != stored:
                raise CheckpointShapeError(
                    f"checkpoint layout (width, depth, in, out)={stored} does not "
                    f"match expected {expected}"
                )
        params = NetworkParams(config)
        means = []
        variances = []
        for idx, layer in enumerate(params.layers):
            for what, arr in (("weights", layer.w), ("scale", layer.s), ("shift", layer.z)):
                data = _read_exact(f, 8 * arr.size, f"layer {idx} {what}")
                arr[...] = np.frombuffer(data, "<f8").reshape(arr.shape)
            for what, out in (("running mean", means), ("running variance", variances)):
                data = _read_exact(f, 8 * layer.s.size, f"layer {idx} {what}")
                out.append(np.frombuffer(data, "<f8").copy())
        if f.read(1) != b"":
            raise CheckpointFormatError("unexpected trailing data after parameters")
    stats = BatchNormStats(means, variances)
    return params, stats
