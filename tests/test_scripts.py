"""The experiment scripts: the QMAX sweep's subprocess runs reproduce
in-process training and evaluation bit for bit, and a failed run stops
the sweep with the CLI's exit code and message."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from d2dpower.config import parse_config
from d2dpower.evaluation import evaluate
from d2dpower.topology import build_hex_layout
from d2dpower.training import train

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from run_qmax_trend import CONFIG, HELDOUT_SEED, sweep  # noqa: E402


def test_sweep_reports_equal_in_process_runs(tmp_path):
    config = json.loads(CONFIG.read_text(encoding="utf-8"))
    config["out_dir"] = str(tmp_path)
    config["training"]["n_epoch"] = 30
    config["evaluation"]["n_drops"] = 50
    caps, seeds = (-120.0, -150.0), (1, 2)
    got = {(q, seed): report for q, seed, report, _ in sweep(config, caps, seeds)}
    assert list(got) == [(q, seed) for q in caps for seed in seeds]
    for (q, seed), report in got.items():
        constraints = config["constraints"] | {"q_max_dbw": q}
        cfg = parse_config(config | {"seed": seed, "constraints": constraints})
        params, stats, _ = train(cfg.train_config())
        topo = cfg.topology()
        want = evaluate(
            params, stats, build_hex_layout(topo.cells, topo.radius_m), cfg.channel(),
            cfg.constraints(), topo.pairs_per_cell, topo.dmax_m, cfg.evaluation["n_drops"],
            np.random.default_rng(HELDOUT_SEED),
        )
        assert type(report) is type(want) and report.n_drops == want.n_drops == 50
        assert [float(v).hex() for v in report] == [float(v).hex() for v in want], (q, seed)


def test_failed_run_stops_the_sweep(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_qmax_trend.py"), "--iters", "0"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert result.returncode == 2
    assert result.stderr.startswith("config error: ")
    assert result.stderr.count("config error: ") == 1
    assert len(result.stdout.splitlines()) == 1  # the table header, no run
