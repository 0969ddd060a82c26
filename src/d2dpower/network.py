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

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

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
from .objective import POWER_CEIL_DBM, POWER_FLOOR_DBM

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

# Entries per chunk of an Adam step (training.adam_stepper): the chunk of
# each of the five vectors it touches, plus two temporaries, stays in a
# core's L2 cache. backward hands a step the gradient in runs of at least
# this many entries, so a net of fewer takes one step per iteration.
_ADAM_BLOCK = 1 << 16

_MAGIC = b"D2DPWNET"
_FORMAT_VERSION = 1
# The checkpoint header: the magic and the format version, then these
# NetworkConfig fields in file order, each with its struct code.
_HEADER_FIELDS = {
    "depth": "I", "width": "I", "input_size": "I", "output_size": "I",
    "bn_epsilon": "d", "out_min_dbm": "d", "out_max_dbm": "d",
}
_HEADER = struct.Struct("<8sI" + "".join(_HEADER_FIELDS.values()))


@dataclass(frozen=True)
class NetworkConfig:
    width: int = 1500
    depth: int = 7
    output_size: int = 8
    input_size: int = 4
    bn_epsilon: float = 1e-5
    out_min_dbm: float = POWER_FLOOR_DBM
    out_max_dbm: float = POWER_CEIL_DBM
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
        if not (self.bn_epsilon > 0 and math.isfinite(self.bn_epsilon)):
            raise ConfigurationError(
                f"bn_epsilon must be positive and finite, got {self.bn_epsilon}"
            )
        if not (math.isfinite(self.out_min_dbm) and math.isfinite(self.out_max_dbm)):
            raise ConfigurationError(
                f"the output range must be finite, got {self.out_min_dbm} and {self.out_max_dbm}"
            )
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
        offsets = _layer_offsets(sizes)
        n = offsets[-1]
        if self.flat is None:
            flat = np.zeros(n, dtype=self.config.dtype)
        else:
            flat = np.ascontiguousarray(self.flat, dtype=self.config.dtype)
            if flat.shape != (n,):
                raise ShapeError(f"expected a flat parameter vector of {n}, got {flat.shape}")
        layers = tuple(_layer_views(flat, off, *size) for off, size in zip(offsets, sizes))
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "layers", layers)


def _layer_offsets(sizes) -> list[int]:
    """Each layer's first entry in NetworkParams.flat, given
    config.layer_sizes(), and then the vector's length."""
    offsets = [0]
    for fan_in, fan_out in sizes:
        offsets.append(offsets[-1] + (fan_in + 2) * fan_out)
    return offsets


def _layer_views(flat: np.ndarray, start: int, fan_in: int, fan_out: int) -> LayerParams:
    """Views of a fan_in x fan_out layer's W, s and z laid out in flat from start."""
    s = start + fan_in * fan_out
    z = s + fan_out
    return LayerParams(flat[start:s].reshape(fan_in, fan_out), flat[s:z], flat[z : z + fan_out])


@dataclass
class BatchNormStats:
    """Exponential running mean/variance per layer, for infer mode. The
    arrays are read-only (a train-mode forward replaces them), so a
    constant derived from one stays valid while that array is in place."""

    mean: list[np.ndarray]
    var: list[np.ndarray]
    momentum: float = 0.99
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for a in self.mean + self.var:
            a.flags.writeable = False

    def copy(self) -> "BatchNormStats":
        return BatchNormStats(
            [m.copy() for m in self.mean], [v.copy() for v in self.var], self.momentum
        )

    def inv_std(self, idx: int, eps: float) -> np.ndarray:
        """Layer idx's 1 / sqrt(var + eps), computed once per variance array."""
        var, hit = self.var[idx], self._derived.get(idx)
        if hit is None or hit[0] is not var or hit[1] != eps:
            hit = self._derived[idx] = (var, eps, 1.0 / np.sqrt(var + eps))
        return hit[2]


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


def init_stats(
    config: NetworkConfig, momentum: float = BatchNormStats.momentum
) -> BatchNormStats:
    if not 0.0 < momentum < 1.0:
        raise ConfigurationError(f"momentum must be in (0, 1), got {momentum}")
    sizes = [fan_out for _, fan_out in config.layer_sizes()]
    return BatchNormStats(
        mean=[np.zeros(n) for n in sizes],
        var=[np.ones(n) for n in sizes],
        momentum=momentum,
    )


def _all_finite(a: np.ndarray) -> bool:
    """np.isfinite(a).all() without a reduction's dispatch cost."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def _mean0(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=0) bit for bit without its Python wrapper: the column
    sums divided by the row count in float64, as numpy does for float32 too."""
    s = np.add.reduce(a, 0)
    return np.divide(s, np.intp(len(a)), out=s, casting="unsafe")


def _sigmoid(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of h, into out (a new array by default); h's
    buffer is overwritten, first by -|h| (abs then negative: every bit,
    NaN and signed zeros too, as copysign(h, -1), at fewer cycles).

    With e = exp(-|h|) the result is 1/(1+e) where h >= 0 and e/(1+e)
    elsewhere: the two overflow-free branches of the textbook masked form,
    evaluated over the whole array without boolean indexing, so every bit
    matches that form. Since 0 <= e <= 1, max(e, h >= 0) is the numerator:
    exactly 1 where h >= 0 and e elsewhere; it is built in out.
    """
    out = np.empty_like(h) if out is None else out
    np.greater_equal(h, 0.0, out=out)
    e = np.negative(np.abs(h, out=h), out=h)
    np.exp(e, out=e)
    np.maximum(e, out, out=out)
    e += 1.0
    return np.divide(out, e, out=out)


def _row_blocks(*arrays):
    """The 2-D arrays' row blocks of max(1, _BLOCK // width) rows, in step,
    as an iterable of tuples, the width being the first array's; arrays of
    at most _BLOCK elements come whole, without slicing."""
    if arrays[0].size <= _BLOCK:
        return (arrays,)
    n, width = arrays[0].shape
    rows = max(1, _BLOCK // width)
    return (tuple(a[i : i + rows] for a in arrays) for i in range(0, n, rows))


def _work_buffers(work: dict, n: int, width: int, dtype: str) -> list:
    """Views of the first n rows of work's two dtype buffers of this
    width, grown to n rows if need be: one for a, one for y. A layer's
    input h is the previous y or not in work, so never a's buffer, and it
    is dead once a = h @ W is written, so y may take its buffer."""
    bufs = work.get(width)
    if bufs is None or len(bufs[0]) < n or bufs[0].dtype != dtype:
        bufs = work[width] = [np.empty((n, width), dtype) for _ in range(2)]
    return [b[:n] for b in bufs]


def _activate(layer, a, y, idx: int, inv_std=None, keep_a: bool = True) -> np.ndarray:
    """Write y = sigmoid(s * a_hat + z) per row block and return y. a_hat
    is a, each block first scaled in place by inv_std where given. Each
    block's s * a_hat + z, checked finite (NumericError naming layer idx),
    goes through one row-block buffer, or into a itself unless keep_a."""
    hpre = None
    for a_b, y_b in _row_blocks(a, y):
        if inv_std is not None:
            a_b *= inv_std
        if keep_a and hpre is None:
            hpre = np.empty_like(a_b)  # the first block is the largest
        h_b = hpre[: len(a_b)] if keep_a else a_b
        np.multiply(layer.s, a_b, out=h_b)
        h_b += layer.z
        if not _all_finite(h_b):
            raise NumericError(f"non-finite activation in layer {idx}", layer=idx)
        _sigmoid(h_b, out=y_b)
    return y


@dataclass
class _LayerCache:
    """One layer's train-mode intermediates. x_in is layer 0's input (None
    elsewhere: a later layer's input is the previous entry's y). y is the
    output, kept for a layer of one row block and for the last two layers;
    otherwise it is None until backward recomputes it from a_hat. a_hat is
    kept for every layer but a layer 0 of more than one row block, whose
    entry holds its batch mean mu instead (mu is None elsewhere): its
    a_hat is None until backward rebuilds it from x_in, mu and inv_std,
    at the cost of a matmul of input_size terms per entry."""

    x_in: np.ndarray | None
    a_hat: np.ndarray | None
    inv_std: np.ndarray
    y: np.ndarray | None
    clip_mask: np.ndarray | None = None
    mu: np.ndarray | None = None


def forward(
    params: NetworkParams,
    x: np.ndarray,
    mode: str = "train",
    stats: BatchNormStats | None = None,
    work: dict | None = None,
):
    """Map coordinate rows [B, input_size] to powers [B, output_size] dBm.

    Returns (p_dbm, cache); the cache holds the intermediates backward()
    needs and is only built in train mode (None in infer mode): each
    layer's a_hat, and its y only where the layer is one row block or one
    of the last two (backward recomputes the rest from a_hat, bit for
    bit). Layer 0's a_hat is kept only where it is one row block; a larger
    one is rebuilt in backward from the input, the batch mean and inv_std,
    with the operations that built it here. backward consumes the cache:
    it empties the list and overwrites its y and a_hat. Train mode
    requires B >= 2 (per-feature variance over the batch) and, when stats
    is given, refreshes the running statistics once every layer has passed
    its checks: a NumericError leaves them as they were. The layers
    compute in config.dtype; p_dbm is a new float64 array.

    work, infer mode only, is a caller-owned dict (empty at first) that
    keeps two layer buffers per width for the next call to write into
    instead of allocating its own; a call with fewer rows uses their
    leading rows. The output never aliases it.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    if mode == "train" and work is not None:
        raise ValueError("a workspace applies in infer mode only")
    cfg = params.config
    x = np.asarray(x, dtype=cfg.dtype)
    if x.ndim != 2 or x.shape[1] != cfg.input_size:
        raise ShapeError(f"expected input [B, {cfg.input_size}], got {x.shape}")
    train = mode == "train"
    if train and x.shape[0] < 2:
        raise ShapeError("train mode needs at least 2 rows for batch statistics")
    if not train and stats is None:
        raise ValueError("infer mode requires running statistics")
    if not _all_finite(x):
        raise NumericError("non-finite network input")

    cache = [] if train else None
    moments = []
    last = len(params.layers) - 1
    h = x
    for idx, layer in enumerate(params.layers):
        if work is None:
            a = h @ layer.w
        else:
            a, y = _work_buffers(work, len(h), layer.w.shape[1], cfg.dtype)
            np.matmul(h, layer.w, out=a)
        if not _all_finite(a):
            raise NumericError(f"non-finite pre-activation in layer {idx}", layer=idx)
        # a becomes a_hat in place; elementwise steps run per row block,
        # reductions on whole arrays
        if train:
            # h, a hidden y that no entry keeps, is dead once a = h @ W is
            # written; y takes its buffer and holds (a - mu)**2 first
            y = h if idx and cache[-1].y is None else np.empty_like(a)
            mu = _mean0(a)
            for a_b, y_b in _row_blocks(a, y):
                a_b -= mu
                np.square(a_b, out=y_b)
            var = _mean0(y)  # a.var(axis=0), bit for bit
            moments.append((mu, var))
            inv_std = 1.0 / np.sqrt(var + cfg.bn_epsilon)
        else:
            a -= stats.mean[idx]
            inv_std = stats.inv_std(idx, cfg.bn_epsilon)
            if work is None:
                y = np.empty_like(a)
        # infer mode needs no a_hat, nor does a layer 0 that backward rebuilds
        keep_a = train and (idx > 0 or a.size <= _BLOCK)
        _activate(layer, a, y, idx, inv_std, keep_a=keep_a)
        clip_mask = None
        if idx == last:
            y64 = np.asarray(y, dtype=np.float64)
            out = np.minimum(np.maximum(y64, _CLIP), 1.0 - _CLIP)  # np.clip, unwrapped
            if train:  # only backward reads the mask
                clip_mask = (y64 > _CLIP) & (y64 < 1.0 - _CLIP)
            out = out * (cfg.out_max_dbm - cfg.out_min_dbm) + cfg.out_min_dbm
        if train:
            keep_y = a.size <= _BLOCK or idx >= last - 1
            cache.append(_LayerCache(
                None if idx else x, a if keep_a else None, inv_std, y if keep_y else None,
                clip_mask, None if keep_a else mu,
            ))
        h = y
    if train and stats is not None:  # every layer passed its checks
        m = stats.momentum
        for idx, (mu, var) in enumerate(moments):
            for running, batch in ((stats.mean, mu), (stats.var, var)):
                running[idx] = m * running[idx] + (1.0 - m) * batch
                running[idx].flags.writeable = False
    return out, cache


def _step_runs(offsets: list[int]) -> list[tuple[int, int, int]]:
    """The runs of consecutive layers whose gradients backward hands a
    step, top run first, as (lowest layer, first entry, end) in flat; given
    _layer_offsets. Counting down from the output layer, a run closes once
    it holds at least _ADAM_BLOCK entries, and at layer 0."""
    runs, end = [], offsets[-1]
    for idx in range(len(offsets) - 2, -1, -1):
        if end - offsets[idx] >= _ADAM_BLOCK or idx == 0:
            runs.append((idx, offsets[idx], end))
            end = offsets[idx]
    return runs


def backward(params: NetworkParams, cache, d_out: np.ndarray, step=None):
    """Reverse-mode derivative of a scalar cost through a train-mode
    forward pass, given d(cost)/d(p_dbm).

    Backpropagates through the output rescale, sigmoids, the learned
    scale/shift, the batch statistics themselves (mean and variance are
    functions of the batch), and the weight products.

    Without step it returns the gradient, with the layout of params. With
    step it returns None and never holds the whole gradient: each layer's
    W/s/z gradient goes into one flat buffer of the largest run (see
    _step_runs), laid out as in params.flat from the run's first entry lo,
    and once the run's lowest layer has passed on its d_y, which read the
    weights from before the step, backward calls step(lo, g) with the
    run's gradient g. step may then update params in place: backward reads
    no parameter of a stepped run again.

    Each layer's gradient is checked as soon as it is complete, before the
    d_y below is computed: a non-finite entry raises NumericError naming
    that layer, the one where the fault entered (it would spread to every
    layer below), and leaves its run unstepped.

    The cache is single-use: backward pops each layer's entry, takes its
    dead y as scratch and a square layer's dead a_hat for the next d_y, so
    beyond the gradient or run buffer it allocates one layer array and a
    row block. A y the cache does not keep, layer i-1's, is recomputed
    from its a_hat into layer i's dead scratch for layer i's weight
    gradient, and then serves as layer i-1's y. A layer 0 a_hat the cache
    does not keep is rebuilt at layer 1, before that recompute, into a new
    layer array: (x_in @ W - mu) * inv_std, with forward's operations on
    weights not yet stepped, so bit for bit. A used or empty cache raises
    ValueError.
    """
    cfg = params.config
    scale = cfg.out_max_dbm - cfg.out_min_dbm
    last = len(params.layers) - 1
    if cache is None or len(cache) != last + 1:
        raise ValueError("backward needs a fresh train-mode cache: a cache is single-use")
    offsets = _layer_offsets(cfg.layer_sizes())
    if step is None:
        grads = NetworkParams(cfg)
        buf, runs = grads.flat, [(0, 0, offsets[-1])]
    else:
        grads, runs = None, _step_runs(offsets)
        buf = np.empty(max(end - lo for _, lo, end in runs), cfg.dtype)
    runs = iter(runs)
    first, lo, end = next(runs)
    # d_y is owned here: d_h, d_ahat and d_a are built in it in place, in
    # the operation order of the textbook formulas, so the bits match them
    d_y = np.multiply(np.asarray(d_out, dtype=cfg.dtype), scale)
    d_y *= cache[last].clip_mask
    for idx in range(last, -1, -1):
        layer = params.layers[idx]
        g = _layer_views(buf, offsets[idx] - lo, *layer.w.shape)
        c = cache.pop()
        scratch = c.y  # y is read for the last time before scratch is first written
        # elementwise steps run per row block; the column sums and means
        # run on the whole arrays, so their summation order is unchanged
        for d_b, a_b, s_b in _row_blocks(d_y, c.a_hat, scratch):
            d_b *= s_b
            d_b *= np.subtract(1.0, s_b, out=s_b)  # d_h = (d_y * y) * (1 - y)
            np.multiply(d_b, a_b, out=s_b)
        np.add.reduce(scratch, 0, out=g.s)
        np.add.reduce(d_y, 0, out=g.z)
        for d_b, a_b, s_b in _row_blocks(d_y, c.a_hat, scratch):
            d_b *= layer.s  # d_ahat
            np.multiply(d_b, a_b, out=s_b)
        m2 = _mean0(scratch)
        d_mean = _mean0(d_y)
        for d_b, a_b, s_b in _row_blocks(d_y, c.a_hat, scratch):
            d_b -= d_mean
            d_b -= np.multiply(a_b, m2, out=s_b)
            d_b *= c.inv_std  # d_a = inv_std * (d_ahat - mean(d_ahat) - a_hat * m2)
        del d_b, a_b, s_b  # else their views keep this d_y alive through the step below
        if idx == 1 and cache[0].a_hat is None:  # layer 0's, as forward built it
            first_layer = cache[0]
            a = first_layer.x_in @ params.layers[0].w  # layer 0's run is stepped last
            for (a_b,) in _row_blocks(a):
                a_b -= first_layer.mu
                a_b *= first_layer.inv_std
            first_layer.a_hat = a
        if idx and cache[-1].y is None:  # layer idx-1's y, into this layer's dead scratch
            prev = cache[-1]
            prev.y = _activate(params.layers[idx - 1], prev.a_hat, scratch, idx - 1)
        np.matmul((cache[-1].y if idx else c.x_in).T, d_y, out=g.w)
        if not _all_finite(buf[offsets[idx] - lo : offsets[idx + 1] - lo]):
            raise NumericError(f"non-finite gradient in layer {idx}", layer=idx)
        if idx:  # a_hat is dead: a square layer's takes the next d_y
            square = c.a_hat.shape[1] == len(layer.w)
            d_y = np.matmul(d_y, layer.w.T, out=c.a_hat if square else None)
        if step is not None and idx == first:
            step(lo, buf[: end - lo])
            if idx:
                first, lo, end = next(runs)
    return grads


def save_checkpoint(params: NetworkParams, stats: BatchNormStats, path) -> None:
    """Write parameters and running statistics to a binary checkpoint.

    Layout: the magic, the format version and _HEADER_FIELDS, then per
    layer the arrays of _layer_arrays as little-endian float64, row-major,
    whatever the compute dtype.

    The bytes go to a temporary file next to path, which is flushed to
    disk and then renamed over path: a reader that maps the old file
    keeps it whole, and a failed write leaves the old file as it was.
    """
    cfg = params.config
    header = _HEADER.pack(_MAGIC, _FORMAT_VERSION, *(getattr(cfg, k) for k in _HEADER_FIELDS))
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(header)
            for idx, layer in enumerate(params.layers):
                for arr in _layer_state(layer, stats.mean[idx], stats.var[idx]):
                    # through the buffer protocol: a float64 array is written without a copy
                    f.write(np.ascontiguousarray(arr, dtype="<f8").data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _layer_arrays(fan_in: int, fan_out: int) -> tuple[tuple[str, int], ...]:
    """The name a truncation message gives each array a checkpoint holds
    for a fan_in x fan_out layer, and its element count, in file order."""
    return (
        ("weights", fan_in * fan_out),
        ("scale", fan_out),
        ("shift", fan_out),
        ("running mean", fan_out),
        ("running variance", fan_out),
    )


def _layer_state(layer: LayerParams, mean: np.ndarray, var: np.ndarray) -> tuple:
    """A layer's arrays in _layer_arrays order."""
    return layer.w, layer.s, layer.z, mean, var


def _layer_bytes(fan_in: int, fan_out: int) -> int:
    return 8 * sum(n for _, n in _layer_arrays(fan_in, fan_out))


def _check_length(config: NetworkConfig, size: int) -> None:
    """Raise unless a file of size bytes holds exactly the arrays that
    config's header promises; a short file names the array it ends in.
    The layout is worked out per layer kind, not per layer, so a corrupt
    depth field costs no more than a valid one."""
    width, depth = config.width, config.depth
    first = _layer_bytes(config.input_size, width)
    hidden = _layer_bytes(width, width)
    total = _HEADER.size + first + (depth - 1) * hidden + _layer_bytes(width, config.output_size)
    if size > total:
        raise CheckpointFormatError("unexpected trailing data after parameters")
    if size == total:
        return
    if size < _HEADER.size + first:
        idx, offset = 0, _HEADER.size
    else:
        idx = min(depth, 1 + (size - _HEADER.size - first) // hidden)
        offset = _HEADER.size + first + (idx - 1) * hidden
    fan_in = config.input_size if idx == 0 else width
    fan_out = config.output_size if idx == depth else width
    for what, n in _layer_arrays(fan_in, fan_out):
        if size < offset + 8 * n:
            raise CheckpointTruncatedError(
                f"checkpoint ended while reading layer {idx} {what} "
                f"({size - offset}/{8 * n} bytes)"
            )
        offset += 8 * n


def _load_layer(f, offset: int, arrays) -> int:
    """Copy one layer's arrays, given in _layer_arrays order, from a
    read-only map of f at offset into arrays, each in its own dtype, and
    return the offset after them. The map is released on return: no view
    of the file outlives the call."""
    n = sum(a.size for a in arrays)
    mapped = np.memmap(f, dtype="<f8", mode="r", offset=offset, shape=(n,))
    start = 0
    for a in arrays:
        a[...] = mapped[start : start + a.size].reshape(a.shape)
        start += a.size
    return offset + mapped.nbytes


def load_checkpoint(path, expect_config: NetworkConfig | None = None):
    """Read a checkpoint back into (NetworkParams, BatchNormStats).

    If expect_config is given, its structural fields must match the
    stored header, and the parameters come back in its dtype (float64
    otherwise). Running-statistics momentum is not persisted and comes
    back at the default.

    The header is validated and the file's length checked against it
    before anything is allocated. Then each layer is mapped read-only,
    copied out of the page cache straight into the parameters, and
    unmapped before the next, so at most one layer of the file is mapped
    and nothing returned refers to the file. A file rewritten in place
    while it is mapped can end the reader with SIGBUS; save_checkpoint
    never does that, it renames a new file over the old one.
    """
    with open(path, "rb") as f:
        raw = f.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise CheckpointTruncatedError("checkpoint shorter than its header")
        magic, version, *values = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise CheckpointFormatError(f"bad magic bytes {magic!r}")
        if version != _FORMAT_VERSION:
            raise CheckpointVersionError(
                f"unsupported checkpoint version {version} (expected {_FORMAT_VERSION})"
            )
        try:
            config = NetworkConfig(
                **dict(zip(_HEADER_FIELDS, values)),
                dtype=expect_config.dtype if expect_config is not None else "float64",
            )
        except ConfigurationError as e:
            raise CheckpointFormatError(f"invalid checkpoint header: {e}") from None
        if expect_config is not None:
            layout = ("width", "depth", "input_size", "output_size")  # in the message's order
            stored = tuple(getattr(config, k) for k in layout)
            expected = tuple(getattr(expect_config, k) for k in layout)
            if expected != stored:
                raise CheckpointShapeError(
                    f"checkpoint layout (width, depth, in, out)={stored} does not "
                    f"match expected {expected}"
                )
        _check_length(config, os.fstat(f.fileno()).st_size)
        params = NetworkParams(config)
        means = [np.empty(layer.s.size) for layer in params.layers]
        variances = [np.empty_like(m) for m in means]
        offset = _HEADER.size
        for layer, mean, var in zip(params.layers, means, variances):
            offset = _load_layer(f, offset, _layer_state(layer, mean, var))
    stats = BatchNormStats(means, variances)
    return params, stats
