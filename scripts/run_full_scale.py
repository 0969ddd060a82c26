"""Full-scale reproduction run over configs/full_scale.json: 7 cells,
1500-wide 7-deep network, batch 50, 100k iterations, learning rate 1e-4,
Q = -130 dBW.

Target: held-out spectral efficiency around 3.3 bits/s/Hz. On CPU this
is a very long run: every iteration pushes 2800 rows through eight
1500-wide layers, forward and backward. The config computes in float32
(network.dtype, the precision of the paper's TensorFlow model), which
measured 3.6-3.8 s per iteration on a shared 2-core x86 VM with one BLAS
thread (about 8.3 s in float64, measured before the row-blocked
elementwise passes), i.e. about 4.3 days for the full 100k iterations.
Checkpoints stay float64 on disk. Use --iters to down-scale for a smoke
run.

The flags override the config; everything else comes from it. Training
and evaluation run through the `d2dpower train` and `d2dpower eval`
commands, so the output directory holds the CLI's metrics.csv and
checkpoint.bin, and its eval/ subdirectory the CLI's eval_report.*; each
holds the config_resolved.json that reproduces it. Held-out drops use
the training seed + 1.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from d2dpower import cli  # noqa: E402

CONFIG = ROOT / "configs" / "full_scale.json"


def run(command, config, *flags):
    """Run one CLI command on `config` (a dict); exit on failure."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = cli.main([command, "--config", str(path), *map(str, flags)])
    if code != cli.EXIT_OK:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iters", type=int, help="training.n_epoch override")
    parser.add_argument("--qmax-dbw", type=float, help="constraints.q_max_dbw override")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--eval-drops", type=int, help="evaluation.n_drops override")
    parser.add_argument("--out", type=Path, help="out_dir override")
    args = parser.parse_args()

    config = json.loads(CONFIG.read_text(encoding="utf-8"))
    for section, key, value in (
        ("training", "n_epoch", args.iters),
        ("constraints", "q_max_dbw", args.qmax_dbw),
        ("evaluation", "n_drops", args.eval_drops),
    ):
        if value is not None:
            config.setdefault(section, {})[key] = value
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out is not None:
        config["out_dir"] = str(args.out)

    out = Path(config["out_dir"])
    run("train", config, "--seed", config["seed"], "--out-dir", out)
    run(
        "eval", config, "--seed", config["seed"] + 1,
        "--checkpoint", out / "checkpoint.bin", "--out-dir", out / "eval",
    )


if __name__ == "__main__":
    main()
