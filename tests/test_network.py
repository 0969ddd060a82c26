import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import network_reference as ref

from d2dpower import network
from d2dpower.errors import (
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigurationError,
    NumericError,
    ShapeError,
)
from d2dpower.network import (
    BatchNormStats,
    NetworkConfig,
    NetworkParams,
    _sigmoid,
    backward,
    forward,
    init_params,
    init_stats,
    load_checkpoint,
    save_checkpoint,
    xavier_init,
)


def _zero_params(config):
    params = NetworkParams(config)
    for layer in params.layers:
        layer.s[...] = 1.0
    return params


def test_init_params_equals_sequential_xavier_draws():
    cfg = NetworkConfig(width=16, depth=3, output_size=4)
    params = init_params(cfg, np.random.default_rng(21))
    rng = np.random.default_rng(21)
    for layer, (fi, fo) in zip(params.layers, cfg.layer_sizes()):
        assert np.array_equal(layer.w, xavier_init(fi, fo, rng))
        assert np.array_equal(layer.s, np.ones(fo))
        assert np.array_equal(layer.z, np.zeros(fo))
    assert params.flat.size == sum((fi + 2) * fo for fi, fo in cfg.layer_sizes())


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_init_params_draws_rows_in_blocks_like_one_draw(dtype):
    # two full row blocks and a ragged one in every weight matrix
    width = 500
    rows = network._BLOCK // width
    cfg = NetworkConfig(
        width=width, depth=1, output_size=width, input_size=2 * rows + 3, dtype=dtype
    )
    assert all(2 * rows < fan_in < 3 * rows for fan_in, _ in cfg.layer_sizes())
    params = init_params(cfg, np.random.default_rng(22))
    rng = np.random.default_rng(22)
    for layer, (fi, fo) in zip(params.layers, cfg.layer_sizes()):
        r = np.sqrt(6.0 / (fi + fo))
        assert np.array_equal(layer.w, rng.uniform(-r, r, (fi, fo)).astype(dtype))


def test_layer_views_share_the_flat_vector():
    cfg = NetworkConfig(width=4, depth=2, output_size=2)
    params = NetworkParams(cfg)
    params.layers[1].w[2, 3] = 7.0
    params.layers[2].z[1] = -5.0
    # layer 0 holds 4*4 + 2*4 entries; layer 1's W starts right after
    assert params.flat[24 + 2 * 4 + 3] == 7.0
    assert params.flat[-1] == -5.0
    assert np.count_nonzero(params.flat) == 2
    with pytest.raises(ShapeError):
        NetworkParams(cfg, np.zeros(params.flat.size + 1))


def test_xavier_range_wide_layer():
    rng = np.random.default_rng(0)
    w = xavier_init(4, 1500, rng)
    r = np.sqrt(6.0 / 1504.0)
    assert r == pytest.approx(0.06316, abs=1e-5)
    assert w.shape == (4, 1500)
    assert (np.abs(w) < r).all()


def test_xavier_range_square_layer():
    rng = np.random.default_rng(1)
    w = xavier_init(1500, 1500, rng)
    r = np.sqrt(3.0 / 1500.0)
    assert r == pytest.approx(0.04472, abs=1e-5)
    assert (np.abs(w) < r).all()


def test_xavier_variance_matches_uniform_moment():
    rng = np.random.default_rng(2)
    w = xavier_init(1000, 1000, rng)
    r = np.sqrt(6.0 / 2000.0)
    assert w.var() == pytest.approx(r * r / 3.0, rel=0.02)


def test_layer_sizes():
    cfg = NetworkConfig(width=64, depth=3, output_size=4)
    assert cfg.layer_sizes() == [(4, 64), (64, 64), (64, 64), (64, 4)]


def test_network_config_validation():
    with pytest.raises(ConfigurationError):
        NetworkConfig(width=0, depth=1, output_size=1)
    with pytest.raises(ConfigurationError):
        NetworkConfig(width=1, depth=0, output_size=1)
    with pytest.raises(ConfigurationError):
        NetworkConfig(width=1, depth=1, output_size=1, out_min_dbm=20.0, out_max_dbm=20.0)
    for bad in (0.0, -1e-5, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="bn_epsilon"):
            NetworkConfig(width=1, depth=1, output_size=1, bn_epsilon=bad)
    with pytest.raises(ConfigurationError, match="finite"):
        NetworkConfig(width=1, depth=1, output_size=1, out_min_dbm=float("-inf"))


def test_zero_network_emits_midpoint():
    # all-zero weights: every pre-activation is 0, every sigmoid is 0.5,
    # so the output is exactly the midpoint of the range
    cfg = NetworkConfig(width=8, depth=2, output_size=3)
    params = _zero_params(cfg)
    x = np.random.default_rng(3).uniform(-1000, 1000, (6, 4))
    out, _ = forward(params, x, "train", None)
    assert np.array_equal(out, np.full((6, 3), -65.0))


def test_output_strictly_inside_range():
    cfg = NetworkConfig(width=16, depth=2, output_size=4)
    rng = np.random.default_rng(4)
    params = init_params(cfg, rng)
    x = rng.uniform(-1000.0, 1000.0, (64, 4))
    out, _ = forward(params, x, "train", None)
    assert (out > -150.0).all() and (out < 20.0).all()


def test_saturated_network_stays_inside_range():
    # huge shifts force the final sigmoid to round to 0/1; the clip must
    # keep the emitted powers strictly inside the interval
    cfg = NetworkConfig(width=8, depth=1, output_size=2)
    params = NetworkParams(cfg)
    for i, layer in enumerate(params.layers):
        layer.s[...] = 1.0
        layer.z[...] = 80.0 if i % 2 == 0 else -80.0
    x = np.random.default_rng(5).uniform(-1000, 1000, (8, 4))
    out, _ = forward(params, x, "train", None)
    assert (out > -150.0).all() and (out < 20.0).all()


def test_train_mode_normalizes_features():
    # with bn_epsilon far below the feature variance, post-normalization
    # activations have mean 0 and variance 1
    cfg = NetworkConfig(width=16, depth=2, output_size=2, bn_epsilon=1e-10)
    rng = np.random.default_rng(6)
    params = init_params(cfg, rng)
    x = rng.uniform(-1000.0, 1000.0, (32, 4))
    _, cache = forward(params, x, "train", None)
    for entry in cache:
        assert np.abs(entry.a_hat.mean(axis=0)).max() < 1e-6
        assert np.abs(entry.a_hat.var(axis=0) - 1.0).max() < 1e-6


def test_train_mode_requires_two_rows():
    cfg = NetworkConfig(width=4, depth=1, output_size=1)
    params = init_params(cfg, np.random.default_rng(7))
    with pytest.raises(ShapeError):
        forward(params, np.zeros((1, 4)), "train", None)


def test_infer_mode_requires_stats():
    cfg = NetworkConfig(width=4, depth=1, output_size=1)
    params = init_params(cfg, np.random.default_rng(8))
    with pytest.raises(ValueError):
        forward(params, np.zeros((2, 4)), "infer", None)


def test_infer_rows_are_independent():
    cfg = NetworkConfig(width=16, depth=2, output_size=4)
    rng = np.random.default_rng(9)
    params = init_params(cfg, rng)
    stats = init_stats(cfg)
    # push some data through train mode so the running stats are non-trivial
    forward(params, rng.uniform(-500, 500, (64, 4)), "train", stats)
    x = rng.uniform(-500.0, 500.0, (10, 4))
    stacked, _ = forward(params, x, "infer", stats)
    for i in range(len(x)):
        row, _ = forward(params, x[i : i + 1], "infer", stats)
        assert np.allclose(row[0], stacked[i], rtol=0.0, atol=1e-9)


def test_running_stats_update_only_when_asked():
    cfg = NetworkConfig(width=8, depth=1, output_size=2)
    rng = np.random.default_rng(10)
    params = init_params(cfg, rng)
    stats = init_stats(cfg)
    before = stats.copy()
    x = rng.uniform(-500, 500, (16, 4))
    forward(params, x, "train", None)
    for a, b in zip(before.mean, stats.mean):
        assert np.array_equal(a, b)
    forward(params, x, "train", stats)
    assert any(not np.array_equal(a, b) for a, b in zip(before.mean, stats.mean))


def test_non_finite_input_rejected():
    cfg = NetworkConfig(width=4, depth=1, output_size=1)
    params = init_params(cfg, np.random.default_rng(11))
    x = np.zeros((2, 4))
    x[0, 0] = np.inf
    with pytest.raises(NumericError):
        forward(params, x, "train", None)


def test_non_finite_weights_identify_layer():
    cfg = NetworkConfig(width=4, depth=2, output_size=1)
    params = init_params(cfg, np.random.default_rng(12))
    broken = NetworkParams(cfg, params.flat.copy())
    broken.layers[1].w[0, 0] = np.nan
    with pytest.raises(NumericError) as err:
        forward(broken, np.random.default_rng(13).uniform(-1, 1, (4, 4)), "train", None)
    assert err.value.layer == 1


def test_non_finite_weights_identify_layer_in_infer_mode():
    cfg = NetworkConfig(width=4, depth=2, output_size=1)
    params = init_params(cfg, np.random.default_rng(12))
    broken = NetworkParams(cfg, params.flat.copy())
    broken.layers[1].w[0, 0] = np.nan
    # a batch, and a device's single row; a batch with and without a workspace
    for rows, work in ((4, None), (4, {}), (1, None)):
        x = np.random.default_rng(13).uniform(-1, 1, (rows, 4))
        with pytest.raises(NumericError) as err:
            forward(broken, x, "infer", init_stats(cfg), work=work)
        assert err.value.layer == 1
        assert str(err.value) == "non-finite pre-activation in layer 1"


@pytest.mark.parametrize("failure", ["pre-activation", "activation"])
def test_numeric_error_leaves_running_stats_unchanged(failure):
    # layer 0 passes both checks and its batch moments are known before
    # layer 1 fails; the running statistics must not move for any layer
    cfg = NetworkConfig(width=4, depth=2, output_size=1)
    rng = np.random.default_rng(12)
    params = init_params(cfg, rng)
    stats = init_stats(cfg)
    x = rng.uniform(-500, 500, (8, 4))
    forward(params, x, "train", stats)  # non-trivial running statistics
    if failure == "pre-activation":
        params.layers[1].w[0, 0] = np.nan
    else:
        params.layers[1].s[...] = 1e308
    before = stats.copy()
    with np.errstate(over="ignore"), pytest.raises(NumericError) as err:
        forward(params, x, "train", stats)
    assert str(err.value) == f"non-finite {failure} in layer 1"
    for got, want in zip(stats.mean + stats.var, before.mean + before.var):
        assert np.array_equal(got, want)


# (mode, with a workspace): train mode, and infer mode without and with one
_MODES = [("train", False), ("infer", False), ("infer", True)]
_MODE_IDS = ["train", "infer", "infer-work"]


@pytest.mark.parametrize("mode, work", _MODES, ids=_MODE_IDS)
def test_overflowing_activation_identifies_layer(mode, work):
    # layer 1's pre-activation a = y0 @ W stays finite (y0 lies in (0, 1)),
    # but a batch-norm scale near the float64 maximum makes s * a_hat
    # infinite; the sigmoid would map that to a finite 0 or 1, so only the
    # check on the activation itself can report it
    cfg = NetworkConfig(width=8, depth=2, output_size=2)
    params = init_params(cfg, np.random.default_rng(17))
    params.layers[1].w[...] *= 10.0
    params.layers[1].s[...] = 1e308
    x = np.random.default_rng(18).uniform(-1000, 1000, (16, 4))
    with np.errstate(over="ignore"), pytest.raises(NumericError) as err:
        forward(params, x, mode, init_stats(cfg), work={} if work else None)
    assert err.value.layer == 1
    assert str(err.value) == "non-finite activation in layer 1"


@pytest.mark.parametrize("mode, work", _MODES, ids=_MODE_IDS)
def test_non_finite_activation_in_last_row_block_identifies_layer(mode, work):
    # every row is zero but the last, which alone lies in the ragged last
    # block: its normalized pre-activation is about sqrt(rows) in train
    # mode (about |x @ W| in infer mode) while the other rows' stay below 1,
    # so with s = 1e308 only the last block's s * a_hat overflows
    rows = 3 * (network._BLOCK // 8) + 5
    cfg = NetworkConfig(width=8, depth=2, output_size=2)
    params = init_params(cfg, np.random.default_rng(20))
    params.layers[0].s[...] = 1e308
    x = np.zeros((rows, 4))
    x[-1] = 100.0
    with np.errstate(over="ignore"), pytest.raises(NumericError) as err:
        forward(params, x, mode, init_stats(cfg), work={} if work else None)
    assert err.value.layer == 0
    assert str(err.value) == "non-finite activation in layer 0"


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _check_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = ref.masked_sigmoid(x)
        y = _sigmoid(x.copy())
    assert np.array_equal(_bits(y), _bits(expected))
    assert ((y >= 0.0) & (y <= 1.0)).all()


def test_sigmoid_special_values_match_masked_form():
    tiny = np.finfo(np.float64).smallest_subnormal
    values = [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 709.0, -709.0, 745.0, -745.0,
              1e300, -1e300, np.inf, -np.inf]
    _check_sigmoid(values)
    _check_sigmoid(np.array(values).reshape(2, 7))


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=64))
@settings(deadline=None, max_examples=200)
def test_sigmoid_matches_masked_form(values):
    _check_sigmoid(values)


# (width, depth, outputs, rows): desk (1 cell, 4 pairs, batch 16) and a
# 3-cell per-channel desk variant (12 pairs, batch 16)
_SHAPES = {"desk": (64, 3, 4, 64), "three_cell": (64, 3, 4, 192)}


def _shape_case(shape, saturate, seed=19, dtype="float64"):
    width, depth, outputs, rows = shape
    cfg = NetworkConfig(width=width, depth=depth, output_size=outputs, dtype=dtype)
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    if saturate:  # the saturation-forcing variant of acceptance criterion 8
        for layer in params.layers:
            layer.w[...] *= 100.0
            layer.s[...] *= 100.0
            layer.z[...] += 50.0
    x = rng.uniform(-1000.0, 1000.0, (rows, 4))
    d_out = rng.normal(0.0, 1e-2, (rows, outputs))
    return cfg, params, x, d_out


@pytest.mark.parametrize("saturate", [False, True])
@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_fused_passes_match_unfused_reference(shape, saturate):
    _check_against_reference(*_shape_case(_SHAPES[shape], saturate))


@pytest.mark.parametrize("saturate", [False, True])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_row_blocked_passes_match_unfused_reference(dtype, saturate):
    # every layer 24 wide: three full row blocks and a ragged one of 5 rows
    shape = (24, 2, 24, 3 * (network._BLOCK // 24) + 5)
    _check_against_reference(*_shape_case(shape, saturate, dtype=dtype))


def _check_against_reference(cfg, params, x, d_out):
    for with_stats in (True, False):
        stats, ref_stats = init_stats(cfg), init_stats(cfg)
        for _ in range(2):  # the second pass starts from refreshed statistics
            out, cache = forward(params, x, "train", stats if with_stats else None)
            ref_out, ref_cache = ref.forward(params, x, "train", ref_stats if with_stats else None)
            assert np.array_equal(out, ref_out)
            for got, want in zip(cache, ref_cache):  # every array an entry still holds
                held = {name: arr for name, arr in vars(got).items() if arr is not None}
                rebuilt = got is cache[0] and len(x) * cfg.width > network._BLOCK  # layer 0's a_hat
                assert {"inv_std"} | ({"mu", "x_in"} if rebuilt else {"a_hat"}) <= held.keys()
                for name, arr in held.items():
                    assert np.array_equal(arr, want[name]), name
            grads = backward(params, cache, d_out)
            assert np.array_equal(grads.flat, ref.backward(params, ref_cache, d_out).flat)
            for got, want in zip(stats.mean + stats.var, ref_stats.mean + ref_stats.var):
                assert np.array_equal(got, want)
        out, cache = forward(params, x, "infer", stats)
        ref_out, _ = ref.forward(params, x, "infer", ref_stats)
        assert cache is None
        assert np.array_equal(out, ref_out)


# (width, depth, outputs, dtype): the desk net and a full-scale-width one
_DEVICE_NETS = {"desk": (64, 3, 4, "float64"), "wide_float32": (1500, 2, 8, "float32")}


@pytest.mark.parametrize("source", ["train", "checkpoint"])
@pytest.mark.parametrize("net", sorted(_DEVICE_NETS))
def test_single_row_decisions_match_reference(net, source, tmp_path):
    width, depth, outputs, dtype = _DEVICE_NETS[net]
    cfg = NetworkConfig(width=width, depth=depth, output_size=outputs, dtype=dtype)
    rng = np.random.default_rng(23)
    params = init_params(cfg, rng)
    stats = init_stats(cfg)
    for _ in range(2):
        forward(params, rng.uniform(-1000, 1000, (64, 4)), "train", stats)
    if source == "checkpoint":
        save_checkpoint(params, stats, tmp_path / "net.bin")
        params, stats = load_checkpoint(tmp_path / "net.bin", cfg)
    rows = rng.uniform(-1000, 1000, (16, 4))

    def decide():
        out = [forward(params, rows[i : i + 1], "infer", stats)[0] for i in range(len(rows))]
        for i, got in enumerate(out):
            want, _ = ref.forward(params, rows[i : i + 1], "infer", stats)
            assert np.array_equal(_bits(got), _bits(want)), i
        return np.concatenate(out)

    first = decide()
    assert np.array_equal(decide(), first)  # the same from the derived constants
    # a train-mode forward refreshes the statistics; later decisions see it
    forward(params, rng.uniform(-1000, 1000, (64, 4)), "train", stats)
    assert not np.array_equal(decide(), first)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_infer_workspace_matches_reference(dtype):
    # the desk net: 64-wide hidden layers and 4 outputs, as many as inputs;
    # the rows shrink, grow past a row block (1500 rows at width 64) and
    # shrink again, as eval chunks and a ragged last chunk do
    cfg = NetworkConfig(width=64, depth=3, output_size=4, dtype=dtype)
    rng = np.random.default_rng(26)
    params = init_params(cfg, rng)
    stats = init_stats(cfg)
    forward(params, rng.uniform(-1000, 1000, (64, 4)), "train", stats)
    work = {}
    for rows in (2048, 416, 3 * (network._BLOCK // 64) + 5, 3):
        x = rng.uniform(-1000, 1000, (rows, 4))
        got, cache = forward(params, x, "infer", stats, work=work)
        plain, _ = forward(params, x, "infer", stats)
        want, _ = ref.forward(params, x, "infer", stats)
        assert cache is None and got.dtype == np.float64
        assert np.array_equal(_bits(got), _bits(plain))
        assert np.array_equal(_bits(got), _bits(want))
    assert sorted(work) == [4, 64]  # keyed by layer width
    assert all(b.dtype == cfg.dtype for bufs in work.values() for b in bufs)


def test_infer_workspace_is_reused_and_never_aliased():
    cfg = NetworkConfig(width=16, depth=3, output_size=4)
    rng = np.random.default_rng(27)
    params = init_params(cfg, rng)
    stats = init_stats(cfg)
    forward(params, rng.uniform(-1000, 1000, (32, 4)), "train", stats)
    work = {}
    x1 = rng.uniform(-1000, 1000, (40, 4))
    first, _ = forward(params, x1, "infer", stats, work=work)
    kept = first.copy()
    bufs = {width: list(b) for width, b in work.items()}
    assert all(len(b) == 2 for b in bufs.values())
    second, _ = forward(params, rng.uniform(-1000, 1000, (25, 4)), "infer", stats, work=work)
    for width, b in work.items():  # fewer rows: the same buffers, sliced
        assert all(got is was for got, was in zip(b, bufs[width]))
    assert np.array_equal(first, kept)  # the later call left the earlier result alone
    for out in (first, second):
        assert out.flags.owndata
        assert not any(np.shares_memory(out, buf) for b in work.values() for buf in b)
    again, _ = forward(params, x1, "infer", stats, work=work)
    assert np.array_equal(again, kept)
    # a float32 copy of the net gets float32 buffers of its own, not the float64 ones
    cfg32 = NetworkConfig(width=16, depth=3, output_size=4, dtype="float32")
    params32 = NetworkParams(cfg32, params.flat)
    got32, _ = forward(params32, x1, "infer", stats, work=work)
    assert np.array_equal(got32, forward(params32, x1, "infer", stats)[0])
    assert all(b.dtype == np.float32 for bufs in work.values() for b in bufs)


def test_infer_workspace_call_allocates_no_layer_array():
    # a desk eval chunk: 2048 rows, so each 64-wide layer array is 1 MB and
    # the float64 powers 64 KB; a warm call allocates only the latter's few
    cfg = NetworkConfig(width=64, depth=3, output_size=4)
    rng = np.random.default_rng(29)
    params = init_params(cfg, rng)
    stats = init_stats(cfg)
    x = rng.uniform(-1000, 1000, (2048, 4))
    work = {}
    forward(params, x, "infer", stats, work=work)
    tracemalloc.start()
    try:
        forward(params, x, "infer", stats, work=work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2048 * 64 * 8 // 2


def test_train_mode_rejects_a_workspace():
    cfg = NetworkConfig(width=8, depth=1, output_size=2)
    params = init_params(cfg, np.random.default_rng(28))
    stats = init_stats(cfg)
    before = stats.copy()
    with pytest.raises(ValueError, match="infer mode only"):
        forward(params, np.zeros((4, 4)), "train", stats, work={})
    for got, want in zip(stats.mean + stats.var, before.mean + before.var):
        assert np.array_equal(got, want)


def test_running_stats_are_read_only(tmp_path):
    cfg = NetworkConfig(width=8, depth=2, output_size=4)
    params = init_params(cfg, np.random.default_rng(24))
    created = init_stats(cfg)
    refreshed = init_stats(cfg)
    forward(params, np.random.default_rng(25).uniform(-500, 500, (16, 4)), "train", refreshed)
    save_checkpoint(params, refreshed, tmp_path / "net.bin")
    _, loaded = load_checkpoint(tmp_path / "net.bin")
    for stats in (created, refreshed, loaded, refreshed.copy()):
        for a in stats.mean + stats.var:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                a += 1.0


def test_passes_leave_their_inputs_unchanged():
    # backward owns the cache: it may overwrite each entry's y and a_hat,
    # and it empties the list; every other input stays as it was
    cfg, params, x, d_out = _shape_case(_SHAPES["desk"], saturate=False)
    stats = init_stats(cfg)
    forward(params, x, "train", stats)  # non-trivial running statistics
    x_before, flat_before, stats_before = x.copy(), params.flat.copy(), stats.copy()
    forward(params, x, "infer", stats)
    _, cache = forward(params, x, "train", None)
    assert np.array_equal(x, x_before)
    assert np.array_equal(params.flat, flat_before)
    for got, want in zip(stats.mean + stats.var, stats_before.mean + stats_before.var):
        assert np.array_equal(got, want)
    entries = list(cache)
    inv_std = [entry.inv_std.copy() for entry in entries]
    clip_mask = cache[-1].clip_mask.copy()
    d_out_before = d_out.copy()
    first = backward(params, cache, d_out)
    assert cache == []
    second = backward(params, forward(params, x, "train", None)[1], d_out)
    assert np.array_equal(first.flat, second.flat)
    assert np.array_equal(d_out, d_out_before)
    assert np.array_equal(x, x_before)  # the first layer's cached x_in
    assert np.array_equal(params.flat, flat_before)
    assert np.array_equal(entries[-1].clip_mask, clip_mask)
    for entry, saved in zip(entries, inv_std):
        assert np.array_equal(entry.inv_std, saved)


def test_backward_rejects_a_used_cache():
    cfg, params, x, d_out = _shape_case(_SHAPES["desk"], saturate=False)
    _, cache = forward(params, x, "train", None)
    backward(params, cache, d_out)
    for used in (cache, None):  # consumed, and infer mode's
        with pytest.raises(ValueError, match="single-use"):
            backward(params, used, d_out)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_backward_hands_each_run_to_step_after_its_weights_are_read(dtype):
    # 1024 rows of 256-wide layers: backward recomputes hidden outputs, and
    # the runs are layers 2-3, 1 and 0. A step that moves its run's
    # parameters at once leaves every gradient as backward without a step
    # gives it, since no pass reads a stepped run's parameters again
    cfg, params, x, d_out = _shape_case((256, 3, 4, 1024), saturate=False, dtype=dtype)
    want = backward(params, forward(params, x, "train", None)[1], d_out)
    runs = []

    def step(lo, g):
        runs.append((lo, g.copy()))
        params.flat[lo : lo + len(g)] += 1.0

    assert backward(params, forward(params, x, "train", None)[1], d_out, step) is None
    sizes = [layer.w.size + layer.s.size + layer.z.size for layer in params.layers]
    assert [lo for lo, _ in runs] == [sizes[0] + sizes[1], sizes[0], 0]
    assert np.array_equal(np.concatenate([g for _, g in reversed(runs)]), want.flat)


@pytest.mark.parametrize("with_step", [False, True])
def test_backward_names_the_layer_a_non_finite_gradient_enters(with_step):
    # a NaN in layer 1's 1/sqrt(var + eps) reaches layer 1's weight
    # gradient and everything below it: both modes name layer 1, and with
    # a step the run of layers 2 and 3 above is stepped, layer 1's is not
    cfg, params, x, d_out = _shape_case((256, 3, 4, 1024), saturate=False)
    _, cache = forward(params, x, "train", None)
    cache[1].inv_std = cache[1].inv_std.copy()
    cache[1].inv_std[0] = np.nan
    steps = []
    step = (lambda lo, g: steps.append(lo)) if with_step else None
    with pytest.raises(NumericError, match="non-finite gradient in layer 1") as err:
        backward(params, cache, d_out, step)
    assert err.value.layer == 1
    sizes = [layer.w.size + layer.s.size + layer.z.size for layer in params.layers]
    assert steps == ([sizes[0] + sizes[1]] if with_step else [])


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_backward_peak_memory_is_one_layer_beyond_the_gradient(dtype):
    # every dead y is the next scratch and every dead hidden a_hat the next
    # d_y, so beyond the gradient only the d_y out of the output layer and
    # the row block that recomputes a y are new
    cfg = NetworkConfig(width=256, depth=3, output_size=4, dtype=dtype)
    rng = np.random.default_rng(30)
    params = init_params(cfg, rng)
    x = rng.uniform(-1000, 1000, (1024, 4))
    out, cache = forward(params, x, "train", None)
    d_out = rng.normal(0.0, 1e-2, out.shape)
    layer_bytes = cache[1].a_hat.nbytes
    tracemalloc.start()
    try:
        grads = backward(params, cache, d_out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grads.flat.nbytes + 1.5 * layer_bytes


def test_train_forward_peak_memory_is_the_a_hat_cache_and_two_outputs():
    # 1024 rows of 256-wide layers, four row blocks each: the cache keeps
    # every a_hat but only the last hidden y, and an output the cache does
    # not keep lends its buffer to the next; keeping every y took 2 * depth + 1
    cfg = NetworkConfig(width=256, depth=5, output_size=4)
    rng = np.random.default_rng(31)
    params = init_params(cfg, rng)
    x = rng.uniform(-1000, 1000, (1024, 4))
    tracemalloc.start()
    try:
        out, cache = forward(params, x, "train", None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (cfg.depth + 2.5) * cache[1].a_hat.nbytes


@pytest.mark.parametrize("width", [64, 256])
def test_cache_keeps_an_output_backward_cannot_recompute_cheaply(width):
    # 1024 rows: a 64-wide layer fits one row block, so every y is kept and
    # backward recomputes nothing; a 256-wide net keeps the last hidden y,
    # the output layer's input, and the output layer's own
    cfg = NetworkConfig(width=width, depth=3, output_size=4)
    rng = np.random.default_rng(32)
    params = init_params(cfg, rng)
    _, cache = forward(params, rng.uniform(-1000, 1000, (1024, 4)), "train", None)
    kept = [c.y is not None for c in cache]
    assert kept == ([True] * 4 if width == 64 else [False, False, True, True])
    assert cache[0].x_in is not None and all(c.x_in is None for c in cache[1:])


# (width, depth, outputs, rows) of the first-layer a_hat cases: the desk
# net, then 24-wide layers of exactly one row block, of one row more, and
# of three full blocks and a ragged one
_FIRST_LAYER_SHAPES = {
    "desk": _SHAPES["desk"],
    "one_block": (24, 2, 24, network._BLOCK // 24),
    "one_row_more": (24, 2, 24, network._BLOCK // 24 + 1),
    "three_block": (24, 2, 24, 3 * (network._BLOCK // 24) + 5),
}


@pytest.mark.parametrize("shape", sorted(_FIRST_LAYER_SHAPES))
def test_first_layer_keeps_a_hat_only_where_it_is_one_row_block(shape):
    # a larger one is rebuilt in backward from x_in, its batch mean and
    # inv_std; every other layer keeps its a_hat and holds no mean
    cfg, params, x, _ = _shape_case(_FIRST_LAYER_SHAPES[shape], saturate=False)
    _, cache = forward(params, x, "train", None)
    one_block = len(x) * cfg.width <= network._BLOCK
    assert one_block == (shape in ("desk", "one_block"))
    assert (cache[0].a_hat is not None) == one_block
    assert (cache[0].mu is None) == one_block
    assert cache[0].x_in is not None
    assert all(c.a_hat is not None and c.mu is None for c in cache[1:])


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_first_layer_a_hat_is_rebuilt_where_its_y_is_kept(dtype):
    # one hidden layer: layer 0 is one of the last two, so backward does not
    # recompute its y but still rebuilds its a_hat of three row blocks
    shape = (24, 1, 24, 3 * (network._BLOCK // 24) + 5)
    cfg, params, x, d_out = _shape_case(shape, saturate=False, dtype=dtype)
    _, cache = forward(params, x, "train", None)
    assert cache[0].y is not None and cache[0].a_hat is None
    _check_against_reference(cfg, params, x, d_out)


@given(scale=st.floats(0.1, 1e4))
@settings(deadline=None, max_examples=20)
def test_output_range_survives_parameter_scaling(scale):
    cfg = NetworkConfig(width=8, depth=1, output_size=2)
    rng = np.random.default_rng(14)
    params = init_params(cfg, rng)
    for layer in params.layers:
        layer.w[...] *= scale
        layer.s[...] *= scale
        layer.z[...] += scale
    x = rng.uniform(-1000, 1000, (16, 4))
    out, _ = forward(params, x, "train", None)
    assert (out > -150.0).all() and (out < 20.0).all()


def _truncation_cases():
    """(cut length, expected message) pairs for the test checkpoint's
    layout: inside the header, then the start and the middle of each array
    of each layer."""
    header = network._HEADER.size
    short = "checkpoint shorter than its header"
    cases = [(0, short), (header - 1, short)]
    start = header
    cfg = NetworkConfig(width=8, depth=2, output_size=4)  # TestCheckpoint._make's
    for idx, (fan_in, fan_out) in enumerate(cfg.layer_sizes()):
        for what, n in (
            ("weights", fan_in * fan_out),
            ("scale", fan_out),
            ("shift", fan_out),
            ("running mean", fan_out),
            ("running variance", fan_out),
        ):
            for got in (0, 4 * n):
                cases.append((start + got, f"layer {idx} {what} ({got}/{8 * n} bytes)"))
            start += 8 * n
    return cases


class TestCheckpoint:
    def _make(self, tmp_path, cfg=None, seed=15):
        cfg = cfg or NetworkConfig(width=8, depth=2, output_size=4)
        rng = np.random.default_rng(seed)
        params = init_params(cfg, rng)
        stats = init_stats(cfg)
        forward(params, rng.uniform(-500, 500, (32, 4)), "train", stats)
        path = tmp_path / "net.bin"
        save_checkpoint(params, stats, path)
        return params, stats, path

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_bytes_equal_reference_writer(self, tmp_path, dtype):
        cfg = NetworkConfig(width=8, depth=2, output_size=4, dtype=dtype)
        params, stats, path = self._make(tmp_path, cfg=cfg)
        ref.save_checkpoint(params, stats, tmp_path / "ref.bin")
        assert path.read_bytes() == (tmp_path / "ref.bin").read_bytes()

    def test_roundtrip_bit_exact(self, tmp_path):
        params, stats, path = self._make(tmp_path)
        loaded_params, loaded_stats = load_checkpoint(path)
        for a, b in zip(params.layers, loaded_params.layers):
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.s, b.s)
            assert np.array_equal(a.z, b.z)
        for a, b in zip(stats.mean, loaded_stats.mean):
            assert np.array_equal(a, b)
        for a, b in zip(stats.var, loaded_stats.var):
            assert np.array_equal(a, b)
        probe = np.random.default_rng(16).uniform(-500, 500, (5, 4))
        out_a, _ = forward(params, probe, "infer", stats)
        out_b, _ = forward(loaded_params, probe, "infer", loaded_stats)
        assert np.array_equal(out_a, out_b)

    def test_save_renames_a_new_file_over_the_old(self, tmp_path):
        params, stats, path = self._make(tmp_path)
        before, old = path.stat().st_ino, path.read_bytes()
        save_checkpoint(params, stats, path)
        assert path.stat().st_ino != before
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_failed_save_leaves_the_old_file(self, tmp_path):
        params, stats, path = self._make(tmp_path)
        old = path.read_bytes()
        short = BatchNormStats(stats.mean[:1], stats.var[:1])  # fails after layer 0
        with pytest.raises(IndexError):
            save_checkpoint(params, short, path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_corrupt_magic(self, tmp_path):
        _, _, path = self._make(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        _, _, path = self._make(tmp_path)
        data = bytearray(path.read_bytes())
        data[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "offset, value, error",
        [
            (16, struct.pack("<I", 0), CheckpointFormatError),
            (12, struct.pack("<I", 0), CheckpointFormatError),
            (28, struct.pack("<d", float("nan")), CheckpointFormatError),
            # a length check, before NetworkParams would ask for 2^62 floats
            (16, struct.pack("<I", 2**31 - 1), CheckpointTruncatedError),
            (12, struct.pack("<I", 2**31 - 1), CheckpointTruncatedError),
        ],
        ids=["width-0", "depth-0", "nan-bn-epsilon", "huge-width", "huge-depth"],
    )
    def test_corrupt_header_field(self, tmp_path, offset, value, error):
        _, _, path = self._make(tmp_path)
        data = bytearray(path.read_bytes())
        data[offset : offset + len(value)] = value
        path.write_bytes(bytes(data))
        with pytest.raises(error):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut, message", _truncation_cases())
    def test_truncated_names_the_array(self, tmp_path, cut, message):
        _, _, path = self._make(tmp_path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(CheckpointTruncatedError) as info:
            load_checkpoint(path)
        assert str(info.value).endswith(message)

    def test_loaded_arrays_do_not_alias_the_file(self, tmp_path):
        params, stats, path = self._make(tmp_path)
        loaded_params, loaded_stats = load_checkpoint(path)
        probe = np.random.default_rng(17).uniform(-500, 500, (5, 4))
        before, _ = forward(loaded_params, probe, "infer", loaded_stats)
        with open(path, "r+b") as f:
            f.write(b"\xff" * path.stat().st_size)
        path.unlink()
        assert np.array_equal(loaded_params.flat, params.flat)
        for a, b in zip(stats.mean + stats.var, loaded_stats.mean + loaded_stats.var):
            assert np.array_equal(a, b)
        after, _ = forward(loaded_params, probe, "infer", loaded_stats)
        assert np.array_equal(before, after)
        assert loaded_params.flat.flags.writeable

    def test_truncated(self, tmp_path):
        _, _, path = self._make(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_trailing_data(self, tmp_path):
        _, _, path = self._make(tmp_path)
        data = path.read_bytes()
        for extra in (b"\0", b"junk"):
            path.write_bytes(data + extra)
            with pytest.raises(CheckpointFormatError, match="trailing"):
                load_checkpoint(path)

    def test_shape_mismatch(self, tmp_path):
        cfg = NetworkConfig(width=64, depth=3, output_size=4)
        _, _, path = self._make(tmp_path, cfg=cfg)
        expect = NetworkConfig(width=64, depth=3, output_size=8)
        with pytest.raises(CheckpointShapeError):
            load_checkpoint(path, expect_config=expect)
        # matching expectation loads fine
        load_checkpoint(path, expect_config=cfg)
