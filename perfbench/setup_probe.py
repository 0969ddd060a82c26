"""Time one d2dpower set-up in a fresh process and print the seconds.

    python3 perfbench/setup_probe.py --config <generated config> [--checkpoint <file>]

Set-up is everything before the first operation: imports, config
parsing, the cell layout, and either init_params (training) or a
device's checkpoint load. The clock starts at this file's first
statement, so the imports are inside it.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--checkpoint", default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    import numpy as np

    from d2dpower import cli, config, network, topology, training  # noqa: F401

    cfg = config.load_config(args.config)
    topo = cfg.topology()
    topology.build_hex_layout(topo.cells, topo.radius_m)
    if args.checkpoint is None:
        network.init_params(cfg.network(), np.random.default_rng(cfg.seed))
        network.init_stats(cfg.network())
    else:
        network.load_checkpoint(args.checkpoint, cfg.network())
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
