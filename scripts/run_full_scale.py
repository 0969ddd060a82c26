"""Full-scale reproduction run over configs/full_scale.json: 7 cells,
1500-wide 7-deep network, batch 50, 100k iterations, learning rate 1e-4,
Q = -130 dBW.

Target: held-out spectral efficiency around 3.3 bits/s/Hz. On CPU this
is a very long run: every iteration pushes 2800 rows through eight
1500-wide layers, forward and backward. The config computes in float32
(network.dtype, the precision of the paper's TensorFlow model), which
measured 1.96 and 2.06 s per iteration (two runs, one BLAS thread, a
shared 2-core x86 VM), about 2.3-2.4 days for 100k iterations.
Checkpoints stay float64 on disk. Use --iters to down-scale for a smoke
run.

The flags override the config; everything else comes from it. The run
is one step of the QMAX sweep (scripts/run_qmax_trend.py): `d2dpower
train` into the output directory, then `d2dpower eval` on held-out drops
of the training seed + 1 into its eval/ subdirectory, each leaving the
CLI's files and a config_resolved.json that reproduces it. A failed
command stops the run with its exit code and stderr.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run_qmax_trend import ROOT, train_and_eval

CONFIG = ROOT / "configs" / "full_scale.json"


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

    try:
        report = train_and_eval(config, config["seed"], config["seed"] + 1, config["out_dir"])
    except subprocess.CalledProcessError as e:
        sys.stderr.write(e.stderr)
        sys.exit(e.returncode)
    for name, value in report._asdict().items():
        print(f"{name} = {value!r}")


if __name__ == "__main__":
    main()
