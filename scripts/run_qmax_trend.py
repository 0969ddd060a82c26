"""Desk-scale interference-cap sweep over configs/desk.json: trains one
small network per QMAX value and seed and evaluates each on held-out
drops, reproducing the full-scale trend (tighter caps cost spectral
efficiency) in about a minute.

The flags override the config; everything else comes from it. The
default sweep is the one acceptance criteria 4-6 run through `sweep`.
Each run calls `d2dpower train` and `eval` in a pool of one subprocess
per available core and keeps the CLI's outputs in
<out_dir>/qmax<Q>_seed<S>/ (rasterize its checkpoint with `d2dpower
powermap`). A failed run stops the sweep with its exit code and stderr.
"""

import argparse
import csv
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import get_type_hints

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from d2dpower.evaluation import EvalReport  # noqa: E402

CONFIG = ROOT / "configs" / "desk.json"
SWEEP_QMAX_DBW = (-120.0, -135.0, -150.0)
SWEEP_SEEDS = (1, 2, 3)
HELDOUT_SEED = 99


def run_dir(config, q, seed):
    """The output directory of the sweep's run at cap `q` and seed `seed`."""
    return Path(config["out_dir"]) / f"qmax{q:g}_seed{seed}"


def train_and_eval(config, seed, heldout_seed, out):
    """Train `config` (a dict) at `seed` into `out` and evaluate it on the
    held-out drops of `heldout_seed` into out/eval, each command a
    `python -m d2dpower` subprocess on out/config.json; return the
    EvalReport. A failed command raises subprocess.CalledProcessError."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    src = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    for command, *flags in (
        ("train", "--seed", seed, "--out-dir", out),
        ("eval", "--seed", heldout_seed, "--checkpoint", out / "checkpoint.bin",
         "--out-dir", out / "eval"),
    ):
        subprocess.run(
            [sys.executable, "-m", "d2dpower", command, "--config", str(path), *map(str, flags)],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
        )
    with open(out / "eval" / "eval_report.csv", encoding="utf-8") as f:
        row = next(csv.DictReader(f))
    types = get_type_hints(EvalReport)
    return EvalReport(**{name: types[name](value) for name, value in row.items()})


def sweep(config, qmax_dbw=SWEEP_QMAX_DBW, seeds=SWEEP_SEEDS):
    """Yield (q, seed, EvalReport, seconds) in sweep order for `config` (a
    dict) at every cap and seed, held out on HELDOUT_SEED, each run in
    run_dir(config, q, seed); one subprocess per available core. A failed
    run cancels the runs not yet started and raises."""
    runs = [(q, seed) for q in qmax_dbw for seed in seeds]

    def timed(q, seed):
        t0 = time.perf_counter()
        capped = {**config, "constraints": {**config["constraints"], "q_max_dbw": q}}
        report = train_and_eval(capped, seed, HELDOUT_SEED, run_dir(config, q, seed))
        return report, time.perf_counter() - t0

    pool = ThreadPoolExecutor(min(len(runs), len(os.sched_getaffinity(0))))
    try:
        futures = [pool.submit(timed, q, seed) for q, seed in runs]
        for (q, seed), future in zip(runs, futures):
            yield (q, seed, *future.result())
    finally:
        pool.shutdown(cancel_futures=True)


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
    etas = []
    try:
        for q, seed, report, secs in sweep(config, args.qmax_dbw, args.seeds):
            etas.append(report.mean_eta)
            print(
                f"{q:9.0f} {seed:5d} {report.mean_eta:7.3f} "
                f"{report.pmax_violation_rate:10.4f} {report.q_exceed_rate:9.4f} {secs:6.1f}"
            )
            if len(etas) == len(args.seeds):
                print(f"{q:9.0f}   median eta = {sorted(etas)[len(etas) // 2]:.3f}")
                etas = []
    except subprocess.CalledProcessError as e:
        sys.stderr.write(e.stderr)
        sys.exit(e.returncode)


if __name__ == "__main__":
    main()
