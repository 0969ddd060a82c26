"""Command-line interface: train, eval, powermap, gradcheck, oracle.

Heavy imports happen inside the command handlers so --threads, or else
the config file's threads key (read with plain json), can pin the BLAS
thread pools before numpy loads; main restores the caller's thread
variables on return. The seed resolves as --seed flag > D2DPOWER_SEED
environment variable > config file, and the effective configuration is
echoed to <out-dir>/config_resolved.json, which reproduces the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECKPOINT = 3
EXIT_NUMERIC = 4
EXIT_ORACLE = 5

SEED_ENV_VAR = "D2DPOWER_SEED"


def _fmt(value) -> str:
    """Full round-trip decimal representation for numeric CSV cells."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def _set_thread_env(threads: int) -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(threads)


def _config_threads(path):
    """The config file's threads key when it is a positive integer, else
    None; load_config reports a bad file or value later."""
    try:
        with open(path, encoding="utf-8") as f:
            t = json.load(f)["threads"]
        return int(t) if not isinstance(t, bool) and t >= 1 and t == int(t) else None
    except (OSError, ValueError, KeyError, TypeError, OverflowError):
        return None


def _resolve(args):
    """Load the config and fold in CLI/environment overrides."""
    from .config import load_config

    cfg = load_config(args.config)
    seed = args.seed
    if seed is None and SEED_ENV_VAR in os.environ:
        try:
            seed = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            from .errors import ConfigurationError

            raise ConfigurationError(
                f"{SEED_ENV_VAR} must be an integer, got {os.environ[SEED_ENV_VAR]!r}"
            )
    return cfg.with_overrides(seed=seed, out_dir=args.out_dir, threads=args.threads)


def _prepare_out(cfg) -> Path:
    from .config import dump_config

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_config(cfg, out / "config_resolved.json")
    return out


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def cmd_train(args) -> int:
    cfg = _resolve(args)
    out = _prepare_out(cfg)
    from .network import save_checkpoint
    from .training import MetricsRecord, train

    params, stats, metrics = train(cfg.train_config())
    _write_csv(out / "metrics.csv", MetricsRecord._fields, metrics)
    save_checkpoint(params, stats, out / "checkpoint.bin")
    last = metrics[-1]
    print(
        f"trained {last.iteration} iterations: cost={last.cost_total:.4f} "
        f"eta={last.mean_eta:.4f} ct_p={last.ct_p:.4f} ct_if={last.ct_if:.4f}"
    )
    print(f"wrote {out / 'metrics.csv'} and {out / 'checkpoint.bin'}")
    return EXIT_OK


def _load_checkpoint_or_raise(path, expect_config):
    from .errors import CheckpointError
    from .network import load_checkpoint

    if not Path(path).is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    return load_checkpoint(path, expect_config)


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    out = _prepare_out(cfg)
    import numpy as np

    from .evaluation import EvalReport, evaluate
    from .topology import build_hex_layout

    params, stats = _load_checkpoint_or_raise(args.checkpoint, cfg.network())
    topo = cfg.topology()
    layout = build_hex_layout(topo.cells, topo.radius_m)
    report = evaluate(
        params,
        stats,
        layout,
        cfg.channel(),
        cfg.constraints(),
        topo.pairs_per_cell,
        topo.dmax_m,
        cfg.evaluation["n_drops"],
        np.random.default_rng(cfg.seed),
    )
    lines = [f"{name} = {_fmt(value)}\n" for name, value in zip(EvalReport._fields, report)]
    with open(out / "eval_report.txt", "w", encoding="utf-8", newline="\n") as f:
        f.writelines(lines)
    _write_csv(out / "eval_report.csv", EvalReport._fields, [report])
    print("".join(lines), end="")
    return EXIT_OK


def cmd_powermap(args) -> int:
    cfg = _resolve(args)
    out = _prepare_out(cfg)
    from .evaluation import power_map
    from .topology import build_hex_layout

    params, stats = _load_checkpoint_or_raise(args.checkpoint, cfg.network())
    topo = cfg.topology()
    layout = build_hex_layout(topo.cells, topo.radius_m)
    raster = power_map(
        params,
        stats,
        layout,
        grid_step=cfg.evaluation["grid_step_m"],
        rx_offset=cfg.evaluation["rx_offset_m"],
    )
    _write_csv(out / "power_map.csv", ("x", "y", "mean_dbm"), raster.iter_points())
    n_cells = int((raster.values == raster.values).sum())
    print(f"wrote {out / 'power_map.csv'} ({n_cells} grid points)")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = _resolve(args)
    from dataclasses import replace

    import numpy as np

    from .channel import build_gain_table
    from .network import init_params
    from .topology import build_hex_layout, sample_batch
    from .training import finite_difference_check

    topo = cfg.topology()
    channel = cfg.channel()
    rng = np.random.default_rng(cfg.seed)
    layout = build_hex_layout(topo.cells, topo.radius_m)
    drops = sample_batch(
        layout, topo.pairs_per_cell, topo.dmax_m,
        cfg.resolved["training"]["batch_size"], rng,
    )
    gains = build_gain_table(drops, channel, rng, cfg.network().output_size)
    # the gate runs in float64 whatever network.dtype says
    params = init_params(replace(cfg.network(), dtype="float64"), rng)
    max_err, n_entries = finite_difference_check(
        params, drops, gains, cfg.constraints(), channel.noise_dbw
    )
    threshold = 1e-4
    ok = max_err < threshold
    print(
        f"gradient check over {n_entries} parameters: max relative error "
        f"{max_err:.3e} ({'PASS' if ok else 'FAIL'}, threshold {threshold:g})"
    )
    return EXIT_OK if ok else 1


def cmd_oracle(args) -> int:
    cfg = _resolve(args)
    out = _prepare_out(cfg)
    import numpy as np

    from .channel import build_gain_table
    from .evaluation import oracle_direct_opt, oracle_grid_search
    from .network import forward
    from .objective import POWER_CEIL_DBM, POWER_FLOOR_DBM, stacked_cost
    from .topology import build_hex_layout, sample_drop

    topo = cfg.topology()
    channel = cfg.channel()
    constraints = cfg.constraints()
    n = cfg.network().output_size
    rng = np.random.default_rng(cfg.seed)
    layout = build_hex_layout(topo.cells, topo.radius_m)
    drop = sample_drop(layout, topo.pairs_per_cell, topo.dmax_m, rng)
    gains = build_gain_table(drop, channel, rng, n)

    levels = np.linspace(POWER_FLOOR_DBM, POWER_CEIL_DBM, cfg.evaluation["oracle_levels"])
    _, grid_cost = oracle_grid_search(gains, constraints, channel.noise_dbw, levels, n)
    _, direct_cost = oracle_direct_opt(
        gains,
        constraints,
        channel.noise_dbw,
        n,
        cfg.evaluation["oracle_direct_iters"],
        cfg.evaluation["oracle_direct_lr"],
    )
    rows = [("grid_search", grid_cost), ("direct_opt", direct_cost)]
    if args.checkpoint is not None:
        params, stats = _load_checkpoint_or_raise(args.checkpoint, cfg.network())
        p, _ = forward(params, drop.pairs, "infer", stats)
        comp = stacked_cost(
            p[None], gains.g_d2d_db[None], gains.g_enb_db[None], constraints,
            channel.noise_dbw,
        )
        rows.append(("checkpoint", comp.total[0]))
    _write_csv(out / "oracle_comparison.csv", ("method", "cost_total"), rows)
    for method, cost in rows:
        print(f"{method}: cost_total = {_fmt(cost)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2dpower",
        description="Distributed D2D power allocation: training, evaluation, and oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("train", cmd_train, "train a network and write metrics + checkpoint", False),
        ("eval", cmd_eval, "evaluate a checkpoint on held-out drops", True),
        ("powermap", cmd_powermap, "raster of mean output power over the layout", True),
        ("gradcheck", cmd_gradcheck, "finite-difference gradient gate", False),
        ("oracle", cmd_oracle, "grid-search / direct-opt reference costs", True),
    )
    for name, func, help_text, takes_checkpoint in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--out-dir", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--threads", type=int, default=None, help="BLAS thread cap")
        if takes_checkpoint:
            p.add_argument(
                "--checkpoint",
                default=None,
                required=name in ("eval", "powermap"),
                help="path to a trained checkpoint",
            )
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None and args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    threads = args.threads if args.threads is not None else _config_threads(args.config)
    from .errors import (
        CheckpointError,
        ConfigurationError,
        NumericError,
        SearchSpaceTooLargeError,
    )

    saved = {var: os.environ[var] for var in THREAD_VARS if var in os.environ}
    try:
        if threads is not None:
            _set_thread_env(threads)
        return args.func(args)
    except ConfigurationError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except SearchSpaceTooLargeError as e:
        print(f"oracle error: {e}", file=sys.stderr)
        return EXIT_ORACLE
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        for var in THREAD_VARS:
            os.environ.pop(var, None)
        os.environ.update(saved)


if __name__ == "__main__":
    sys.exit(main())
