"""Desk-scale interference-cap sweep over configs/desk.json: trains one
small network per QMAX value and seed, then evaluates each on held-out
drops.

Reproduces the qualitative trend of the full-scale system (tighter caps
cost spectral efficiency) in a few minutes on a laptop. The flags
override the config; everything else comes from it. The default sweep
(caps, seeds, held-out seed) is the one acceptance criteria 4-6 check.
Each run goes through the `d2dpower train` and `d2dpower eval` commands
and keeps the CLI's outputs in <out_dir>/qmax<Q>_seed<S>/ and its eval/
subdirectory; rasterize a run's checkpoint with `d2dpower powermap`.
"""

import argparse
import contextlib
import csv
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from d2dpower import cli  # noqa: E402

CONFIG = ROOT / "configs" / "desk.json"
SWEEP_QMAX_DBW = (-120.0, -135.0, -150.0)
SWEEP_SEEDS = (1, 2, 3)
HELDOUT_SEED = 99


def run(command, config, *flags):
    """Run one CLI command on `config` (a dict) quietly; exit on failure."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", str(path), *map(str, flags)])
    if code != cli.EXIT_OK:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qmax-dbw", type=float, nargs="+", default=list(SWEEP_QMAX_DBW))
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SWEEP_SEEDS))
    parser.add_argument("--iters", type=int, help="training.n_epoch override")
    parser.add_argument("--eval-drops", type=int, help="evaluation.n_drops override")
    args = parser.parse_args()

    config = json.loads(CONFIG.read_text(encoding="utf-8"))
    if args.iters is not None:
        config["training"]["n_epoch"] = args.iters
    if args.eval_drops is not None:
        config["evaluation"]["n_drops"] = args.eval_drops
    print(f"{'QMAX dBW':>9} {'seed':>5} {'eta':>7} {'pmax_viol':>10} {'q_exceed':>9} {'secs':>6}")
    for q in args.qmax_dbw:
        config["constraints"]["q_max_dbw"] = q
        etas = []
        for seed in args.seeds:
            out = Path(config["out_dir"]) / f"qmax{q:g}_seed{seed}"
            t0 = time.perf_counter()
            run("train", config, "--seed", seed, "--out-dir", out)
            run(
                "eval", config, "--seed", HELDOUT_SEED,
                "--checkpoint", out / "checkpoint.bin", "--out-dir", out / "eval",
            )
            with open(out / "eval" / "eval_report.csv", encoding="utf-8") as f:
                report = {k: float(v) for k, v in next(csv.DictReader(f)).items()}
            etas.append(report["mean_eta"])
            print(
                f"{q:9.0f} {seed:5d} {report['mean_eta']:7.3f} "
                f"{report['pmax_violation_rate']:10.4f} {report['q_exceed_rate']:9.4f} "
                f"{time.perf_counter() - t0:6.1f}"
            )
        print(f"{q:9.0f}   median eta = {sorted(etas)[len(etas) // 2]:.3f}")


if __name__ == "__main__":
    main()
