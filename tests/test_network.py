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
    forward(params, x, "train", stats, update_stats=False)
    for a, b in zip(before.mean, stats.mean):
        assert np.array_equal(a, b)
    forward(params, x, "train", stats, update_stats=True)
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
    x = np.random.default_rng(13).uniform(-1, 1, (4, 4))
    with pytest.raises(NumericError) as err:
        forward(broken, x, "infer", init_stats(cfg))
    assert err.value.layer == 1


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_overflowing_activation_identifies_layer(mode):
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
        forward(params, x, mode, init_stats(cfg))
    assert err.value.layer == 1
    assert str(err.value) == "non-finite activation in layer 1"


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_non_finite_activation_in_last_row_block_identifies_layer(mode):
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
        forward(params, x, mode, init_stats(cfg))
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
    for update_stats in (True, False):
        stats, ref_stats = init_stats(cfg), init_stats(cfg)
        for _ in range(2):  # the second pass starts from refreshed statistics
            out, cache = forward(params, x, "train", stats, update_stats=update_stats)
            ref_out, ref_cache = ref.forward(params, x, "train", ref_stats, update_stats)
            assert np.array_equal(out, ref_out)
            for got, want in zip(cache, ref_cache):
                for name, arr in want.items():
                    assert np.array_equal(getattr(got, name), arr), name
            grads = backward(params, cache, d_out)
            assert np.array_equal(grads.flat, ref.backward(params, ref_cache, d_out).flat)
            for got, want in zip(stats.mean + stats.var, ref_stats.mean + ref_stats.var):
                assert np.array_equal(got, want)
        out, cache = forward(params, x, "infer", stats)
        ref_out, _ = ref.forward(params, x, "infer", ref_stats)
        assert cache is None
        assert np.array_equal(out, ref_out)


def test_passes_leave_their_inputs_unchanged():
    cfg, params, x, d_out = _shape_case(_SHAPES["desk"], saturate=False)
    stats = init_stats(cfg)
    forward(params, x, "train", stats)  # non-trivial running statistics
    x_before, flat_before, stats_before = x.copy(), params.flat.copy(), stats.copy()
    forward(params, x, "infer", stats)
    _, cache = forward(params, x, "train", stats, update_stats=False)
    assert np.array_equal(x, x_before)
    assert np.array_equal(params.flat, flat_before)
    for got, want in zip(stats.mean + stats.var, stats_before.mean + stats_before.var):
        assert np.array_equal(got, want)
    cached = [
        {name: getattr(entry, name).copy() for name in ("x_in", "a_hat", "inv_std", "y")}
        for entry in cache
    ]
    clip_mask = cache[-1].clip_mask.copy()
    d_out_before = d_out.copy()
    first = backward(params, cache, d_out)
    second = backward(params, cache, d_out)
    assert np.array_equal(first.flat, second.flat)
    assert np.array_equal(d_out, d_out_before)
    assert np.array_equal(params.flat, flat_before)
    assert np.array_equal(cache[-1].clip_mask, clip_mask)
    for entry, saved in zip(cache, cached):
        for name, arr in saved.items():
            assert np.array_equal(getattr(entry, name), arr), name


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

    def test_truncated(self, tmp_path):
        _, _, path = self._make(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_trailing_data(self, tmp_path):
        _, _, path = self._make(tmp_path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_shape_mismatch(self, tmp_path):
        cfg = NetworkConfig(width=64, depth=3, output_size=4)
        _, _, path = self._make(tmp_path, cfg=cfg)
        expect = NetworkConfig(width=64, depth=3, output_size=8)
        with pytest.raises(CheckpointShapeError):
            load_checkpoint(path, expect_config=expect)
        # matching expectation loads fine
        load_checkpoint(path, expect_config=cfg)
