import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from d2dpower import config
from d2dpower.config import DEFAULTS, dump_config, load_config, parse_config
from d2dpower.errors import ConfigurationError

BASE_CONFIG = {
    "seed": 3,
    "topology": {"cells": 1, "pairs_per_cell": 2, "dmax_m": 100.0},
    "network": {"width": 8, "depth": 2, "n_channels": 2},
    "constraints": {"q_max_dbw": -140.0},
    "training": {"n_epoch": 10, "batch_size": 4, "lr": 0.001},
    "evaluation": {
        "n_drops": 20,
        "grid_step_m": 100.0,
        "oracle_levels": 5,
        "oracle_direct_iters": 50,
    },
}

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

METRICS_HEADER = "iteration,cost_total,mean_eta,ct_p,ct_if,pmax_violation_rate,q_exceed_rate"


def write_config(tmp_path, name="config.json", **overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("D2DPOWER_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "d2dpower", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


def test_train_writes_metrics_and_checkpoint(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    result = run_cli("train", "--config", cfg, "--out-dir", out)
    assert result.returncode == 0, result.stderr
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 11
    assert (out / "checkpoint.bin").is_file()
    assert (out / "config_resolved.json").is_file()


def test_train_twice_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("train", "--config", cfg, "--out-dir", out_a).returncode == 0
    assert run_cli("train", "--config", cfg, "--out-dir", out_b).returncode == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    assert (out_a / "checkpoint.bin").read_bytes() == (out_b / "checkpoint.bin").read_bytes()


def test_rerun_from_echoed_config_reproduces(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("train", "--config", cfg, "--out-dir", out_a, "--seed", 17).returncode == 0
    echoed = out_a / "config_resolved.json"
    assert json.loads(echoed.read_text())["seed"] == 17
    assert run_cli("train", "--config", echoed, "--out-dir", out_b).returncode == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    assert (out_a / "checkpoint.bin").read_bytes() == (out_b / "checkpoint.bin").read_bytes()


def test_seed_overrides(tmp_path):
    cfg = write_config(tmp_path)
    out_env = tmp_path / "env"
    run = run_cli(
        "train", "--config", cfg, "--out-dir", out_env, env_extra={"D2DPOWER_SEED": "99"}
    )
    assert run.returncode == 0
    assert json.loads((out_env / "config_resolved.json").read_text())["seed"] == 99
    out_flag = tmp_path / "flag"
    run = run_cli(
        "train", "--config", cfg, "--out-dir", out_flag, "--seed", 5,
        env_extra={"D2DPOWER_SEED": "99"},
    )
    assert run.returncode == 0
    assert json.loads((out_flag / "config_resolved.json").read_text())["seed"] == 5


def test_log_every_thins_metrics(tmp_path):
    cfg = write_config(tmp_path, training={"n_epoch": 10, "batch_size": 4, "log_every": 4})
    out = tmp_path / "run"
    assert run_cli("train", "--config", cfg, "--out-dir", out).returncode == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    iters = [int(line.split(",")[0]) for line in lines[1:]]
    # every 4th iteration plus the final one
    assert iters == [1, 5, 9, 10]


def test_eval_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run_cli("train", "--config", cfg, "--out-dir", out).returncode == 0
    out_eval = tmp_path / "eval"
    result = run_cli(
        "eval", "--config", cfg, "--checkpoint", out / "checkpoint.bin",
        "--out-dir", out_eval,
    )
    assert result.returncode == 0, result.stderr
    text = (out_eval / "eval_report.txt").read_text()
    assert "mean_eta = " in text and "q_exceed_rate = " in text
    lines = (out_eval / "eval_report.csv").read_text().splitlines()
    assert lines[0].startswith("mean_eta,eta_std,")
    assert len(lines) == 2


def test_eval_report_rows_are_the_report_fields(tmp_path):
    from d2dpower.evaluation import EvalReport

    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run_cli("train", "--config", cfg, "--out-dir", out).returncode == 0
    result = run_cli(
        "eval", "--config", cfg, "--checkpoint", out / "checkpoint.bin",
        "--out-dir", out / "eval",
    )
    assert result.returncode == 0, result.stderr
    text = (out / "eval" / "eval_report.txt").read_text().splitlines()
    csv_lines = (out / "eval" / "eval_report.csv").read_text().splitlines()
    header, row = (line.split(",") for line in csv_lines)
    txt_keys, txt_values = zip(*(line.split(" = ") for line in text))
    out_keys, out_values = zip(*(line.split(" = ") for line in result.stdout.splitlines()))
    assert list(txt_keys) == header == list(out_keys) == list(EvalReport._fields)
    assert list(txt_values) == row == list(out_values)
    *floats, n_drops = row
    assert all(v == repr(float(v)) for v in floats)
    assert n_drops == str(BASE_CONFIG["evaluation"]["n_drops"])


def test_powermap_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run_cli("train", "--config", cfg, "--out-dir", out).returncode == 0
    out_map = tmp_path / "map"
    result = run_cli(
        "powermap", "--config", cfg, "--checkpoint", out / "checkpoint.bin",
        "--out-dir", out_map,
    )
    assert result.returncode == 0, result.stderr
    lines = (out_map / "power_map.csv").read_text().splitlines()
    assert lines[0] == "x,y,mean_dbm"
    assert len(lines) > 10
    values = np.array([float(l.split(",")[2]) for l in lines[1:]])
    assert (values >= -150.0).all() and (values <= 20.0).all()


def test_gradcheck_command(tmp_path):
    cfg = write_config(tmp_path, channel={"shadowing_enabled": False})
    result = run_cli("gradcheck", "--config", cfg, "--out-dir", tmp_path / "gc")
    assert result.returncode == 0, result.stderr
    assert "PASS" in result.stdout


def test_oracle_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run_cli("train", "--config", cfg, "--out-dir", out).returncode == 0
    out_oracle = tmp_path / "oracle"
    result = run_cli(
        "oracle", "--config", cfg, "--checkpoint", out / "checkpoint.bin",
        "--out-dir", out_oracle,
    )
    assert result.returncode == 0, result.stderr
    lines = (out_oracle / "oracle_comparison.csv").read_text().splitlines()
    assert lines[0] == "method,cost_total"
    methods = [l.split(",")[0] for l in lines[1:]]
    assert methods == ["grid_search", "direct_opt", "checkpoint"]


def test_oracle_on_shipped_gradcheck_config(tmp_path):
    # K=2 pairs on N=2 channels: 35^4 grid candidates, inside the budget
    out = tmp_path / "oracle"
    result = run_cli("oracle", "--config", CONFIGS / "gradcheck.json", "--out-dir", out)
    assert result.returncode == 0, result.stderr
    lines = (out / "oracle_comparison.csv").read_text().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["grid_search", "direct_opt"]


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_shipped_config_loads(path):
    load_config(path)


def test_oracle_search_space_guard_exit_code(tmp_path):
    # default-scale topology makes enumeration astronomically large
    cfg = write_config(
        tmp_path,
        topology={"cells": 7, "pairs_per_cell": 8},
        network={"width": 8, "depth": 2, "n_channels": 8},
        evaluation={"oracle_levels": 35},
    )
    result = run_cli("oracle", "--config", cfg, "--out-dir", tmp_path / "o")
    assert result.returncode == 5
    assert "budget" in result.stderr


def test_invalid_json_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = run_cli("train", "--config", bad, "--out-dir", tmp_path / "x")
    assert result.returncode == 2
    assert "config error" in result.stderr


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, typo_section={"a": 1})
    result = run_cli("train", "--config", cfg, "--out-dir", tmp_path / "x")
    assert result.returncode == 2
    assert "typo_section" in result.stderr


def test_invalid_value_rejected(tmp_path):
    cfg = write_config(tmp_path, topology={"cells": 5})
    result = run_cli("train", "--config", cfg, "--out-dir", tmp_path / "x")
    assert result.returncode == 2


def test_nonpositive_enb_l2_db_rejected(tmp_path):
    # like l2_db: an eNB gain that grows with distance is a config error
    for bad in (0.0, -40.0):
        with pytest.raises(ConfigurationError, match="enb_l2_db"):
            parse_config({"channel": {"enb_l2_db": bad}})
    cfg = write_config(tmp_path, channel={"enb_l2_db": -40.0})
    result = run_cli("train", "--config", cfg, "--out-dir", tmp_path / "x")
    assert result.returncode == 2
    assert "enb_l2_db" in result.stderr


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize("section, key", [("topology", "dmax_m"), ("training", "n_epoch")])
def test_non_finite_number_rejected(tmp_path, section, key, bad):
    # json reads NaN and Infinity; they used to end in an OverflowError from
    # the sampler (dmax_m) or a ValueError from int() (n_epoch)
    with pytest.raises(ConfigurationError, match=f"{key}: expected a finite number"):
        parse_config({section: {key: bad}})
    cfg = write_config(tmp_path, **{section: {key: bad}})
    assert ("NaN" if bad != bad else "Infinity") in cfg.read_text()
    result = run_cli("train", "--config", cfg, "--out-dir", tmp_path / "x")
    assert result.returncode == 2
    assert f"{key}: expected a finite number" in result.stderr


@pytest.mark.parametrize(
    "section, key, value, expect",
    [
        ("training", "n_epoch", 1.5, "expected an integer"),
        ("topology", "radius_m", 500, 500.0),
        ("channel", "shadowing_enabled", 1, "expected a boolean"),
        ("network", "dtype", 3, "expected a string"),
        ("channel", "enb_l1_db", None, None),
        (None, "threads", None, None),
        ("topology", "dmax_m", None, "null is not allowed"),
        (None, "seed", 2**53 + 1, 2**53 + 1),
    ],
    ids=[
        "int", "float", "bool", "str", "nullable-float", "nullable-int", "not-nullable",
        "int-beyond-float",
    ],
)
def test_key_type_is_the_default_type(tmp_path, section, key, value, expect):
    data = {section: {key: value}} if section else {key: value}
    if isinstance(expect, str):
        with pytest.raises(ConfigurationError, match=f"{key}: {expect}"):
            parse_config(data)
        return
    dump_config(parse_config(data), tmp_path / "config_resolved.json")
    echoed = json.loads((tmp_path / "config_resolved.json").read_text())
    got = echoed[section][key] if section else echoed[key]
    assert got == expect and type(got) is type(expect)


def test_every_null_default_is_nullable():
    def null_keys(tree):
        for key, value in tree.items():
            if isinstance(value, dict):
                yield from null_keys(value)
            elif value is None:
                yield key

    assert sorted(null_keys(DEFAULTS)) == sorted(config._NULLABLE)


def test_resolved_defaults_are_pinned():
    # the schema is derived from the typed configs' field defaults; this
    # literal is what fails when a key is dropped, renamed or retyped
    want = (
        '{"channel": {"d0_m": 1.0, "enb_l1_db": null, "enb_l2_db": null, "l1_db": 30.0, '
        '"l2_db": 40.0, "noise_dbw": -130.0, "per_channel_shadowing": false, '
        '"shadow_sigma_db": 8.0, "shadowing_enabled": true}, '
        '"constraints": {"c_if": 10.0, "c_p": 10.0, "p_max_w": 0.25, "q_max_dbw": -130.0}, '
        '"evaluation": {"grid_step_m": 10.0, "n_drops": 1000, "oracle_direct_iters": 2000, '
        '"oracle_direct_lr": 2.0, "oracle_levels": 35, "rx_offset_m": 50.0}, '
        '"network": {"bn_epsilon": 1e-05, "bn_momentum": 0.99, "depth": 7, "dtype": "float64", '
        '"n_channels": 8, "out_max_dbm": 20.0, "out_min_dbm": -150.0, "width": 1500}, '
        '"out_dir": "out", "seed": 0, "threads": null, '
        '"topology": {"cells": 7, "dmax_m": 100.0, "pairs_per_cell": 8, "radius_m": 500.0}, '
        '"training": {"adam_epsilon": 1e-08, "batch_size": 50, "beta1": 0.9, "beta2": 0.999, '
        '"log_every": 1, "lr": 0.0001, "n_epoch": 100000}}'
    )
    assert json.dumps(parse_config({}).resolved, sort_keys=True) == want


@pytest.mark.parametrize("source", ["config", "flag", "env"])
def test_negative_seed_rejected(tmp_path, source):
    # numpy's generator used to raise a ValueError after the output
    # directory and its config_resolved.json were written
    cfg = write_config(tmp_path, **({"seed": -3} if source == "config" else {}))
    out = tmp_path / "x"
    flag = ("--seed", -1) if source == "flag" else ()
    env = {"D2DPOWER_SEED": "-2"} if source == "env" else None
    result = run_cli("train", "--config", cfg, "--out-dir", out, *flag, env_extra=env)
    assert result.returncode == 2
    assert "seed" in result.stderr
    assert not out.exists()


def test_missing_config_exit_code(tmp_path):
    result = run_cli("train", "--config", tmp_path / "nope.json")
    assert result.returncode == 2


def test_missing_checkpoint_exit_code(tmp_path):
    cfg = write_config(tmp_path)
    result = run_cli(
        "eval", "--config", cfg, "--checkpoint", tmp_path / "missing.bin",
        "--out-dir", tmp_path / "x",
    )
    assert result.returncode == 3


def test_divergence_exit_code(tmp_path):
    cfg = write_config(
        tmp_path,
        channel={"shadowing_enabled": False, "noise_dbw": -100000.0},
        topology={"cells": 1, "pairs_per_cell": 1},
    )
    result = run_cli("train", "--config", cfg, "--out-dir", tmp_path / "x")
    assert result.returncode == 4
    assert "iteration 1" in result.stderr


def test_threads_flag(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    result = run_cli("train", "--config", cfg, "--out-dir", out, "--threads", 1)
    assert result.returncode == 0, result.stderr
    assert json.loads((out / "config_resolved.json").read_text())["threads"] == 1


def test_checkpoint_shape_mismatch_exit_code(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run_cli("train", "--config", cfg, "--out-dir", out).returncode == 0
    wider = write_config(tmp_path, name="wider.json", network={"width": 16, "depth": 2, "n_channels": 2})
    result = run_cli(
        "eval", "--config", wider, "--checkpoint", out / "checkpoint.bin",
        "--out-dir", tmp_path / "x",
    )
    assert result.returncode == 3
    assert "does not match" in result.stderr


@pytest.mark.parametrize(
    "offset, value",
    [
        (16, struct.pack("<I", 0)),
        (16, struct.pack("<I", 2**31 - 1)),
        (12, struct.pack("<I", 2**31 - 1)),
        (28, struct.pack("<d", float("nan"))),
    ],
    ids=["width-0", "huge-width", "huge-depth", "nan-bn-epsilon"],
)
def test_corrupt_checkpoint_header_exit_code(tmp_path, offset, value):
    from d2dpower.network import init_params, init_stats, save_checkpoint

    cfg = write_config(tmp_path)
    net = load_config(cfg).network()
    ckpt = tmp_path / "checkpoint.bin"
    save_checkpoint(init_params(net, np.random.default_rng(0)), init_stats(net), ckpt)
    data = bytearray(ckpt.read_bytes())
    data[offset : offset + len(value)] = value
    ckpt.write_bytes(bytes(data))
    result = run_cli(
        "eval", "--config", cfg, "--checkpoint", ckpt, "--out-dir", tmp_path / "x",
    )
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith("checkpoint error: ")


@pytest.mark.parametrize(
    "section, bad",
    [
        ("training", {"beta1": 1.0}),
        ("training", {"beta1": -0.1}),
        ("training", {"beta2": 1.0}),
        ("training", {"adam_epsilon": 0.0}),
        ("network", {"dtype": "float16"}),
    ],
    ids=["beta1_one", "beta1_negative", "beta2_one", "adam_epsilon_zero", "dtype_float16"],
)
def test_invalid_optimizer_or_dtype_rejected(tmp_path, section, bad):
    # beta1 = 1 used to divide by zero in the bias correction and abort
    # at iteration 2 with exit 4; beta2 = 1 silently gave a zero step
    (key,) = bad
    with pytest.raises(ConfigurationError, match=key):
        parse_config({section: bad})
    cfg = write_config(tmp_path, **{section: bad})
    result = run_cli("train", "--config", cfg, "--out-dir", tmp_path / "x")
    assert result.returncode == 2
    assert key in result.stderr


def test_config_threads_set_before_numpy_loads(tmp_path):
    # OpenBLAS reads its thread variables once, when numpy loads
    cfg = write_config(tmp_path, threads=1)
    probe = (
        "import json, os, sys\n"
        "from d2dpower import cli\n"
        "seen = []\n"
        "set_env = cli._set_thread_env\n"
        "def spy(n):\n"
        "    set_env(n)\n"
        "    seen.append(['numpy' in sys.modules, n, os.environ.get('OPENBLAS_NUM_THREADS')])\n"
        "cli._set_thread_env = spy\n"
        f"code = cli.main(['train', '--config', {str(cfg)!r}, '--out-dir', {str(tmp_path / 'run')!r}])\n"
        "print(json.dumps([code, seen]))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    code, seen = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    assert seen == [[False, 1, "1"]]


@pytest.mark.parametrize(
    "flags, overrides, code",
    [
        (["--threads", "3"], {}, 0),
        ([], {"threads": 3}, 0),
        ([], {"threads": 3, "training": {"n_epoch": 0}}, 2),
    ],
    ids=["flag", "config-key", "config-error"],
)
def test_main_leaves_thread_variables_as_it_found_them(
    tmp_path, monkeypatch, flags, overrides, code
):
    # numpy has loaded already, so this only checks the environment that
    # the caller and its later children see
    from d2dpower import cli

    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    resolve = cli._resolve
    during = []

    def spy(args):
        during.append({var: os.environ.get(var) for var in cli.THREAD_VARS})
        return resolve(args)

    monkeypatch.setattr(cli, "_resolve", spy)
    before = dict(os.environ)
    cfg = write_config(tmp_path, **overrides)
    argv = ["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run"), *flags]
    assert cli.main(argv) == code
    assert during == [dict.fromkeys(cli.THREAD_VARS, "3")]
    assert dict(os.environ) == before
