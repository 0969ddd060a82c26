
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import training_reference as ref
import whole_gradient

from d2dpower import cli, network, training
from d2dpower.channel import ChannelParams, GainTable, build_gain_table
from d2dpower.errors import ConfigurationError, NumericDivergenceError, NumericError, ShapeError
from d2dpower.network import (
    NetworkConfig,
    NetworkParams,
    init_params,
    init_stats,
)
from d2dpower.objective import ConstraintConfig
from d2dpower.topology import Drop, TopologyConfig, build_hex_layout, sample_batch
from d2dpower.training import (
    TrainConfig,
    adam_step,
    cost_and_grad,
    finite_difference_check,
    init_adam,
    train,
)

NO_SHADOW = ChannelParams(shadowing_enabled=False)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _small_setup(seed=0, width=8, depth=2, n=2, pairs=2, bn=4, channel=NO_SHADOW):
    rng = np.random.default_rng(seed)
    layout = build_hex_layout(1, 500.0)
    batch = sample_batch(layout, pairs, 100.0, bn, rng)
    gains = build_gain_table(batch, channel, rng)
    netcfg = NetworkConfig(width=width, depth=depth, output_size=n)
    params = init_params(netcfg, rng)
    return params, batch, gains


def _tiny_train_config(**overrides):
    base = dict(
        network=NetworkConfig(width=8, depth=2, output_size=2),
        constraints=ConstraintConfig(q_max_dbw=-140.0),
        channel=NO_SHADOW,
        topology=TopologyConfig(cells=1, radius_m=500.0, pairs_per_cell=2, dmax_m=100.0),
        n_epoch=3,
        batch_size=4,
        lr=1e-3,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestAdam:
    def _state_and_params(self):
        cfg = NetworkConfig(width=4, depth=1, output_size=2)
        params = init_params(cfg, np.random.default_rng(0))
        state = init_adam(params, lr=0.01)
        return state, params

    def _constant_grads(self, params, value):
        return NetworkParams(params.config, np.full_like(params.flat, value))

    def test_zero_gradient_leaves_params(self):
        state, params = self._state_and_params()
        new_params, state = adam_step(state, params, self._constant_grads(params, 0.0))
        assert state.t == 1
        for a, b in zip(params.layers, new_params.layers):
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.s, b.s)
            assert np.array_equal(a.z, b.z)

    def test_first_step_is_lr_times_sign(self):
        # at t=1 the bias-corrected ratio m_hat/sqrt(v_hat) is g/|g|
        state, params = self._state_and_params()
        new_params, _ = adam_step(state, params, self._constant_grads(params, 3.0))
        for a, b in zip(params.layers, new_params.layers):
            assert a.w - b.w == pytest.approx(0.01, rel=1e-6)

    def test_first_step_scale_invariant(self):
        state1, params = self._state_and_params()
        p1, _ = adam_step(state1, params, self._constant_grads(params, 0.5))
        state2, _ = self._state_and_params()
        p2, _ = adam_step(state2, params, self._constant_grads(params, 200.0))
        for a, b in zip(p1.layers, p2.layers):
            assert np.allclose(a.w, b.w, rtol=1e-6)

    def test_moments_accumulate(self):
        state, params = self._state_and_params()
        grads = self._constant_grads(params, 1.0)
        adam_step(state, params, grads)
        assert state.t == 1
        assert state.m == pytest.approx(0.1)
        assert state.v == pytest.approx(0.001)

    def test_three_steps_match_elementwise_formula(self):
        state, params = self._state_and_params()
        rng = np.random.default_rng(1)
        grads = [rng.normal(size=params.flat.size) for _ in range(3)]
        theta = [float(x) for x in params.flat]
        m = [0.0] * len(theta)
        v = [0.0] * len(theta)
        b1, b2, eps, lr = state.beta1, state.beta2, state.epsilon, state.lr
        for t, g in enumerate(grads, start=1):
            params, state = adam_step(state, params, NetworkParams(params.config, g))
            c1 = 1.0 - b1**t
            c2 = 1.0 - b2**t
            for i, gi in enumerate(g.tolist()):
                m[i] = b1 * m[i] + (1.0 - b1) * gi
                v[i] = b2 * v[i] + (1.0 - b2) * gi * gi
                theta[i] = theta[i] - lr * (m[i] / c1) / (math.sqrt(v[i] / c2) + eps)
        assert np.array_equal(params.flat, theta)
        assert np.array_equal(state.m, m)
        assert np.array_equal(state.v, v)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_chunked_steps_match_whole_vector_reference(self, dtype):
        # two full chunks and a ragged one: a (n - 5)-input, 1-wide,
        # 1-deep net with one output holds n = 2 * _ADAM_BLOCK + 7 entries
        n = 2 * training._ADAM_BLOCK + 7
        cfg = NetworkConfig(width=1, depth=1, output_size=1, input_size=n - 5, dtype=dtype)
        rng = np.random.default_rng(3)
        params = NetworkParams(cfg, rng.normal(size=n))
        assert params.flat.size == n
        state, ref_state = init_adam(params, lr=0.01), init_adam(params, lr=0.01)
        ref_params = params
        for _ in range(3):
            grads = NetworkParams(cfg, rng.normal(0.0, 10.0, size=n))
            params, state = adam_step(state, params, grads)
            ref_params, ref_state = ref.adam_step(ref_state, ref_params, grads)
            assert params.flat.dtype == np.dtype(dtype)
            assert np.array_equal(params.flat, ref_params.flat)
            assert np.array_equal(state.m, ref_state.m)
            assert np.array_equal(state.v, ref_state.v)


def test_gradient_matches_finite_differences():
    params, batch, gains = _small_setup()
    err, n_entries = finite_difference_check(
        params, batch, gains, ConstraintConfig(), NO_SHADOW.noise_dbw
    )
    assert n_entries == 148
    assert err < 1e-4


def test_gradient_matches_with_active_penalties():
    params, batch, gains = _small_setup(seed=3)
    # shift outputs high so both penalty terms bite
    params.layers[-1].z[...] += 3.0
    cfg = ConstraintConfig(p_max_w=1e-3, q_max_dbw=-160.0, c_p=7.0, c_if=3.0)
    err, _ = finite_difference_check(params, batch, gains, cfg, NO_SHADOW.noise_dbw)
    assert err < 1e-4


def _nan_probe_costs(monkeypatch):
    # every cost without a gradient, each finite-difference probe's, is NaN
    real = training.stacked_cost

    def nan_probes(*args, want_grad=False):
        comp = real(*args, want_grad=want_grad)
        return comp if want_grad else replace(comp, total=np.full_like(comp.total, np.nan))

    monkeypatch.setattr(training, "stacked_cost", nan_probes)


def test_gradient_gate_fails_on_non_finite_probe_costs(monkeypatch):
    # a NaN entry error must fail the gate, not drop out of the running
    # maximum as a comparison with NaN would
    params, batch, gains = _small_setup()
    _nan_probe_costs(monkeypatch)
    err, n_entries = finite_difference_check(
        params, batch, gains, ConstraintConfig(), NO_SHADOW.noise_dbw
    )
    assert err == np.inf and n_entries == 148


def test_gradcheck_reports_non_finite_probe_costs_as_failing(tmp_path, monkeypatch, capsys):
    _nan_probe_costs(monkeypatch)
    argv = ["gradcheck", "--config", str(CONFIGS / "gradcheck.json"),
            "--out-dir", str(tmp_path / "gc")]
    assert cli.main(argv) == 1
    assert "max relative error inf (FAIL" in capsys.readouterr().out


def test_gradient_gate_rejects_a_non_finite_cost():
    # one pair alone with its noise underflowing to zero: the cost is
    # infinite, and there is no gradient to check
    params, batch, gains = _small_setup(pairs=1)
    with pytest.raises(NumericError, match="non-finite cost"):
        finite_difference_check(params, batch, gains, ConstraintConfig(), -100000.0)


def test_constant_objective_gives_zero_gradient():
    # huge noise floor drives every SINR (and its gradient) to zero
    params, batch, gains = _small_setup(seed=4)
    cfg = ConstraintConfig(c_p=0.0, c_if=0.0)
    cost, grads, _ = whole_gradient.cost_and_grad(params, None, batch, gains, cfg, 400.0)
    assert cost == pytest.approx(0.0, abs=1e-12)
    for layer in grads.layers:
        assert np.allclose(layer.w, 0.0, atol=1e-18)
        assert np.allclose(layer.s, 0.0, atol=1e-18)
        assert np.allclose(layer.z, 0.0, atol=1e-18)


def test_duplicated_batch_leaves_cost_and_grads():
    params, batch, gains = _small_setup(seed=5)
    cfg = ConstraintConfig()
    cost1, grads1, _ = whole_gradient.cost_and_grad(
        params, None, batch, gains, cfg, NO_SHADOW.noise_dbw
    )
    doubled = Drop(batch.layout, np.concatenate([batch.pairs, batch.pairs]))
    gains2 = GainTable(
        np.concatenate([gains.g_d2d_db, gains.g_d2d_db]),
        np.concatenate([gains.g_enb_db, gains.g_enb_db]),
    )
    cost2, grads2, _ = whole_gradient.cost_and_grad(
        params, None, doubled, gains2, cfg, NO_SHADOW.noise_dbw
    )
    assert cost2 == pytest.approx(cost1, rel=1e-12)
    for a, b in zip(grads1.layers, grads2.layers):
        assert np.allclose(a.w, b.w, rtol=1e-9, atol=1e-15)
        assert np.allclose(a.s, b.s, rtol=1e-9, atol=1e-15)
        assert np.allclose(a.z, b.z, rtol=1e-9, atol=1e-15)


def test_grad_batch_cost_misaligned_tables():
    params, batch, gains = _small_setup(seed=6)
    with pytest.raises(ShapeError):
        short = GainTable(gains.g_d2d_db[:-1], gains.g_enb_db[:-1])
        cost_and_grad(params, None, batch, short, ConstraintConfig(), -130.0)


def test_non_finite_gradient_names_its_layer(monkeypatch):
    # a NaN in layer 1's 1/sqrt(var + eps) reaches layer 1's gradient and
    # every layer below it; backward names the layer it entered
    params, batch, gains = _small_setup(seed=7)
    real_forward = training.forward

    def nan_in_layer_1(*args):
        out, cache = real_forward(*args)
        cache[1].inv_std = cache[1].inv_std.copy()
        cache[1].inv_std[0] = np.nan
        return out, cache

    monkeypatch.setattr(training, "forward", nan_in_layer_1)
    with pytest.raises(NumericError) as err:
        whole_gradient.cost_and_grad(
            params, None, batch, gains, ConstraintConfig(), NO_SHADOW.noise_dbw
        )
    assert err.value.layer == 1


def test_train_single_iteration():
    params, stats, metrics = train(_tiny_train_config(n_epoch=1))
    assert len(metrics) == 1
    assert metrics[0].iteration == 1
    assert np.isfinite(metrics[0].cost_total)


def test_train_metrics_fields_finite():
    _, _, metrics = train(_tiny_train_config(n_epoch=5))
    assert [m.iteration for m in metrics] == [1, 2, 3, 4, 5]
    for m in metrics:
        for name in ("cost_total", "mean_eta", "ct_p", "ct_if"):
            assert np.isfinite(getattr(m, name))
        assert 0.0 <= m.pmax_violation_rate <= 1.0
        assert 0.0 <= m.q_exceed_rate <= 1.0


def test_train_frees_each_gradient_before_the_next_iteration():
    # a gradient kept through the next forward and backward would raise
    # every later iteration's peak by one parameter vector
    net = NetworkConfig(width=256, depth=3, output_size=2)

    def traced_peak(n_epoch):
        tracemalloc.start()
        try:
            train(_tiny_train_config(network=net, n_epoch=n_epoch, batch_size=64))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(1)  # one-time allocations (caches, lazy imports) out of the way
    vector_bytes = init_params(net, np.random.default_rng(0)).flat.nbytes
    assert traced_peak(3) - traced_peak(1) < vector_bytes / 2


class _Probe:
    """Records, through monkeypatch, the parameters and Adam state train
    makes, the initial parameters, and each step call as (t, lo, len(g)),
    t read after the step."""

    def __init__(self, monkeypatch):
        self.params = self.initial = self.adam = None
        self.steps = []
        real_init_params = training.init_params
        real_init_adam = training.init_adam
        real_stepper = training.adam_stepper

        def init_params(*args):
            self.params = real_init_params(*args)
            self.initial = self.params.flat.copy()
            return self.params

        def init_adam(*args):
            self.adam = real_init_adam(*args)
            return self.adam

        def adam_stepper(state, flat):
            step = real_stepper(state, flat)

            def logged(lo, g):
                step(lo, g)
                self.steps.append((state.t, lo, len(g)))

            return logged

        monkeypatch.setattr(training, "init_params", init_params)
        monkeypatch.setattr(training, "init_adam", init_adam)
        monkeypatch.setattr(training, "adam_stepper", adam_stepper)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize(
    "width, n_channels, runs", [(64, 4, 1), (256, 2, 3)], ids=["desk_one_run", "wide_three_runs"]
)
def test_train_steps_adam_inside_backward_as_a_two_phase_loop(
    monkeypatch, dtype, width, n_channels, runs
):
    # the desk net's 9,096 entries are one run; a 256-wide hidden layer
    # holds 66,048 >= _ADAM_BLOCK entries, so each is a run, the output
    # layer's 516 joining the last one
    cfg = _tiny_train_config(
        network=NetworkConfig(width=width, depth=3, output_size=n_channels, dtype=dtype),
        topology=TopologyConfig(cells=1, radius_m=500.0, pairs_per_cell=4, dmax_m=100.0),
        n_epoch=5,
        batch_size=16,
    )
    want_params, want_stats, want_metrics, want_adam = ref.train(cfg)
    probe = _Probe(monkeypatch)
    params, stats, metrics = train(cfg)
    assert params.flat.dtype == np.dtype(dtype)
    assert np.array_equal(params.flat, want_params.flat)
    assert probe.adam.t == want_adam.t == cfg.n_epoch
    assert np.array_equal(probe.adam.m, want_adam.m)
    assert np.array_equal(probe.adam.v, want_adam.v)
    for got, want in zip(stats.mean + stats.var, want_stats.mean + want_stats.var):
        assert np.array_equal(got, want)
    assert metrics == want_metrics
    for t in range(1, cfg.n_epoch + 1):
        spans = [(lo, lo + n) for step_t, lo, n in probe.steps if step_t == t]
        assert len(spans) == runs
        # top run first, and together they cover the vector once
        assert [end for _, end in spans] == [params.flat.size] + [lo for lo, _ in spans[:-1]]
        assert spans[-1][0] == 0


def test_train_holds_no_whole_gradient_or_second_parameter_vector():
    # 400 rows of 256-wide float64 layers, two row blocks each, so backward
    # recomputes the hidden outputs as at full scale. Beyond the parameters
    # and moments an iteration holds the a_hat cache, two layer arrays (a
    # d_y and a y), one run buffer (the top run: the last hidden layer and
    # the output layer), and the larger of the row block that recomputes a
    # y and the Adam step's two chunk temporaries; a two-phase loop's whole
    # gradient and new parameter vector do not fit in that
    net = NetworkConfig(width=256, depth=3, output_size=2)
    cfg = _tiny_train_config(network=net, n_epoch=1, batch_size=200)
    train(cfg)  # one-time allocations (caches, lazy imports) out of the way
    tracemalloc.start()
    try:
        params, _, _ = train(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    item = params.flat.itemsize
    rows = cfg.batch_size * cfg.topology.pairs_per_cell
    a_hat_cache = sum(rows * fan_out * item for _, fan_out in net.layer_sizes())
    layer = rows * net.width * item
    run = (net.width + 2) * (net.width + net.output_size) * item
    transient = max(network._BLOCK, 2 * training._ADAM_BLOCK) * item
    assert peak - 3 * params.flat.nbytes < a_hat_cache + 2 * layer + run + transient


def _layer_start(params, idx):
    """Layer idx's first entry in params.flat."""
    return sum(layer.w.size + layer.s.size + layer.z.size for layer in params.layers[:idx])


def test_non_finite_gradient_aborts_train_with_its_run_unstepped(monkeypatch):
    # a NaN in layer 1's 1/sqrt(var + eps) reaches layer 1's weight
    # gradient and everything below it; the run of layers 2 and 3 above is
    # finite and stepped first, layer 1's run raises before its step
    cfg = _tiny_train_config(network=NetworkConfig(width=256, depth=3, output_size=2))
    probe = _Probe(monkeypatch)
    real_forward = training.forward

    def nan_in_layer_1(*args):
        out, cache = real_forward(*args)
        cache[1].inv_std = cache[1].inv_std.copy()
        cache[1].inv_std[0] = np.nan
        return out, cache

    monkeypatch.setattr(training, "forward", nan_in_layer_1)
    with pytest.raises(NumericDivergenceError, match="non-finite gradient in layer 1") as err:
        train(cfg)
    assert err.value.iteration == 1
    assert err.value.__cause__.layer == 1
    lo = _layer_start(probe.params, 2)
    assert probe.steps == [(1, lo, probe.params.flat.size - lo)]
    assert np.array_equal(probe.params.flat[:lo], probe.initial[:lo])
    assert (probe.params.flat[lo:] != probe.initial[lo:]).all()


def test_train_checks_the_cost_before_any_step(monkeypatch):
    # the divergence setup of test_train_aborts_on_divergence
    cfg = _tiny_train_config(
        channel=ChannelParams(shadowing_enabled=False, noise_dbw=-100_000.0),
        topology=TopologyConfig(cells=1, radius_m=500.0, pairs_per_cell=1, dmax_m=100.0),
    )
    probe = _Probe(monkeypatch)
    with pytest.raises(NumericDivergenceError, match="non-finite cost at iteration 1"):
        train(cfg)
    assert probe.steps == []
    assert np.array_equal(probe.params.flat, probe.initial)
    assert probe.adam.t == 0
    assert not probe.adam.m.any() and not probe.adam.v.any()


def test_train_deterministic_for_fixed_seed():
    cfg = _tiny_train_config(n_epoch=4, seed=11)
    params1, stats1, metrics1 = train(cfg)
    params2, stats2, metrics2 = train(cfg)
    for m1, m2 in zip(metrics1, metrics2):
        assert m1.cost_total == m2.cost_total
        assert m1.mean_eta == m2.mean_eta
        assert m1.q_exceed_rate == m2.q_exceed_rate
    for a, b in zip(params1.layers, params2.layers):
        assert np.array_equal(a.w, b.w)
    for a, b in zip(stats1.mean, stats2.mean):
        assert np.array_equal(a, b)


def test_train_aborts_on_divergence():
    # an absurdly low noise floor underflows to 0 W; with a single pair the
    # SINR denominator is then exactly zero and the cost blows up
    cfg = _tiny_train_config(
        channel=ChannelParams(shadowing_enabled=False, noise_dbw=-100_000.0),
        topology=TopologyConfig(cells=1, radius_m=500.0, pairs_per_cell=1, dmax_m=100.0),
    )
    with pytest.raises(NumericDivergenceError) as err:
        train(cfg)
    assert err.value.iteration == 1


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        _tiny_train_config(batch_size=1)
    with pytest.raises(ConfigurationError):
        _tiny_train_config(n_epoch=0)
    with pytest.raises(ConfigurationError):
        _tiny_train_config(lr=0.0)


@pytest.mark.parametrize(
    "bad",
    [
        {"beta1": 1.0}, {"beta1": -0.1}, {"beta2": 1.0}, {"beta2": 1.5}, {"adam_epsilon": 0.0},
        {"log_every": 0}, {"bn_momentum": 1.0}, {"seed": -1},
    ],
    ids=[
        "beta1_one", "beta1_negative", "beta2_one", "beta2_above_one", "adam_epsilon_zero",
        "log_every_zero", "bn_momentum_one", "seed_negative",
    ],
)
def test_train_config_rejects_invalid_adam_hyperparameters(bad):
    with pytest.raises(ConfigurationError, match=next(iter(bad))):
        _tiny_train_config(**bad)


def test_train_records_only_logged_iterations():
    _, _, metrics = train(_tiny_train_config(n_epoch=10, log_every=4))
    # the first, every 4th after it, and the last
    assert [m.iteration for m in metrics] == [1, 5, 9, 10]


def test_running_stats_move_during_training():
    cfg = _tiny_train_config(n_epoch=5)
    _, stats, _ = train(cfg)
    fresh = init_stats(cfg.network, cfg.bn_momentum)
    assert any(
        not np.allclose(a, b) for a, b in zip(stats.mean, fresh.mean)
    )


def test_train_and_evaluate_with_per_channel_shadowing():
    from d2dpower.evaluation import evaluate

    channel = ChannelParams(per_channel_shadowing=True)
    cfg = _tiny_train_config(n_epoch=2, channel=channel)
    params, stats, metrics = train(cfg)
    assert len(metrics) == 2
    report = evaluate(
        params, stats, build_hex_layout(1, 500.0), channel, cfg.constraints,
        pairs_per_cell=2, dmax=100.0, n_drops=5, rng=np.random.default_rng(0),
    )
    assert np.isfinite(report.mean_eta)
