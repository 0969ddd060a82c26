"""Run one workload of the d2dpower benchmark.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Workloads: desk and full (see perfbench/README.md). With
--trace 0 the result holds the end-to-end metrics; with --trace 1 the
per-layer metrics from spans recorded around the program's layers. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report
with the run manifest.
"""

import argparse
import json
import os
import sys

# One BLAS/OpenMP thread: the second core of a small shared machine
# competes with other tenants and makes timings spread.
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="d2dpower benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    import bench  # after parsing: importing it loads numpy, which reads the thread variables

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("manifest:", json.dumps(result["manifest"]))
    print("outputs:", json.dumps(result["outputs"]))
    if result["absent_layers"]:
        print("absent layers:", ", ".join(result["absent_layers"]))
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':34s} {rate:>16.6g} ratio ({result['failed']}/{result['attempted']} failed)")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.exit(main())
