"""Workloads, correctness checks and metrics of the d2dpower benchmark.

One run executes one workload in this process through the entry points
users run: ``d2dpower.cli.main`` for ``train`` and ``eval`` on configs
generated from ``configs/*.json``, and ``network.load_checkpoint`` plus
single-row ``network.forward(..., "infer")`` for device decisions. Every
workload interleaves the same three phases (train, decide, eval) with
its own config and its own share of the measured seconds. See README.md.
"""

from __future__ import annotations

import contextlib
import csv
import filecmp
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from d2dpower import cli, config, network, objective, topology  # noqa: E402
from d2dpower.channel import build_gain_table, dbw_to_watt  # noqa: E402

import tracing  # noqa: E402
from run import THREAD_VARS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "train_ms_per_iter": "ms",
    "eval_drops_per_s": "drops/s",
    "decide_us_p50": "us",
    "decide_us_p99": "us",
    "peak_rss_mb": "MB",
}

# Spans reported generically as self ms per call plus a call count.
LAYER_SPANS = (
    "network.init_params",
    "topology.sample_batch",
    "topology.sample_drop",
    "topology.flatten_batch",
    "channel.build_gain_table",
    "network.forward_train",
    "network.forward_infer",
    "network.forward_infer_batch",
    "network.backward",
    "objective.stacked_cost_grad",
    "objective.stacked_cost_nograd",
    "training.adam_step",
    "network.save_checkpoint",
    "network.load_checkpoint",
)

# Groups of spans whose self times add up to the training.train wall
# (train ops) and the evaluation.evaluate wall (eval ops).
TRAIN_SHARES = {
    "topology": ("topology.sample_batch", "topology.sample_drop", "topology.flatten_batch"),
    "channel": ("channel.build_gain_table",),
    "forward": ("network.forward_train",),
    "cost": ("objective.stacked_cost_grad",),
    "backward": ("network.backward",),
    "adam": ("training.adam_step",),
    "init": ("network.init_params",),
    "self": ("training.train",),
}
EVAL_SHARES = {
    "topology": ("topology.sample_drop",),
    "channel": ("channel.build_gain_table",),
    "forward": ("network.forward_infer_batch", "network.forward_infer"),
    "cost": ("objective.stacked_cost_nograd",),
    "self": ("evaluation.evaluate",),
}

PER_LAYER = {
    **{f"{name}.ms": "ms" for name in LAYER_SPANS},
    **{f"{name}.calls": "count" for name in LAYER_SPANS},
    "training.self.ms": "ms",
    "evaluation.evaluate.self.ms": "ms",
    "cli.train.io.ms": "ms",
    "cli.cmd_eval.self.ms": "ms",
    **{f"train.share.{group}": "ratio" for group in TRAIN_SHARES},
    **{f"eval.share.{group}": "ratio" for group in EVAL_SHARES},
    "topology.hex_accept_ratio": "ratio",
    "channel.gain_entries": "count",
    "network.rows": "count",
    "network.checkpoint_bytes": "bytes",
    "network.weight_bytes": "bytes",
    "network.forward_gflop": "GFLOP",
    "network.backward_gflop": "GFLOP",
    "network.forward_gflops_per_s": "GFLOP/s",
    "network.backward_gflops_per_s": "GFLOP/s",
    "network.decide_gbytes_per_s": "GB/s",
    "training.param_count": "count",
    "training.adam_bytes": "bytes",
    "trace.train_ms_per_iter": "ms",
    "trace.untraced_train_ms_per_iter": "ms",
    "trace.overhead_ms_per_iter": "ms",
    "trace.overhead_ratio": "ratio",
}

# Decisions cycle through a fixed pool of device inputs, so every input
# after the first pass checks that a repeated decision is identical.
DECIDE_POOL = 256
# One decide step; the scheduler interleaves steps with train and eval calls.
DECIDE_CHUNK = 128
# Enough decisions that the 99th percentile has at least ten beyond it.
DECIDE_MIN = 1100
SETUP_PROBES = 5
# Same measure as acceptance criterion 2: |a - b| / max(1, |a|, |b|).
ORACLE_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    config: str  # file under configs/
    train_iters: int  # n_epoch of one train call
    eval_drops: int  # n_drops of one eval call
    shares: dict  # phase -> share of the measured seconds
    warmup: bool  # one untimed train and eval call first
    setup_loads: bool  # set-up loads the deployed checkpoint instead of init_params


WORKLOADS = {
    # Tiny matrices: per-pair Python object churn in sampling and gain
    # tables dominates; shows data-path and per-call overhead changes.
    "desk": Workload(
        "desk.json", 400, 4000, {"train": 0.5, "decide": 0.15, "eval": 0.35}, True, False
    ),
    # 2800 rows through a 1500x7 net, then a device that loads the
    # checkpoint and decides alone (infer mode, memory-bound): shows kernel,
    # BN and float32 changes, checkpoint load and bytes per decision.
    "full": Workload(
        "full_scale.json", 1, 16, {"train": 0.45, "decide": 0.3, "eval": 0.25}, False, True
    ),
}


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    small: bool = False  # down-sized network and counts, for smoke tests
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    host_speed: dict = field(default_factory=dict)

    def __post_init__(self):
        self.spec = WORKLOADS[self.workload]
        self.tracer = tracing.Tracer()
        self.work = OUT / f"work-{self.workload}-{os.getpid()}"
        self.config_path = self.work / "config.json"
        self.deployed = self.work / "train-0" / "checkpoint.bin"
        self.device = None

    # -- helpers -------------------------------------------------------

    def seed_for(self, phase: str, index: int) -> int:
        tag = {"train": 1, "eval": 2, "decide": 3, "oracle": 4}[phase]
        return int(np.random.SeedSequence([self.seed, tag, index]).generate_state(1)[0])

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    @contextlib.contextmanager
    def traced_op(self, traced: bool, name: str):
        if not traced:
            yield
            return
        with tracing.installed(self.tracer), self.tracer.op(name):
            yield

    def timed_cli(self, argv, traced: bool, op: str):
        """Run one CLI command; returns (exit code, wall seconds)."""
        sink = io.StringIO()
        with self.traced_op(traced, op), contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
        return code, wall

    def guarded(self, what: str, fn, *args):
        """Operation boundary: an exception counts as a failed operation."""
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc()
            self.record(False, f"{what}: exception")
            return None

    def write_config(self) -> None:
        with open(ROOT / "configs" / self.spec.config, encoding="utf-8") as f:
            cfg = json.load(f)
        cfg["seed"] = self.seed
        cfg["out_dir"] = str(self.work / "out")
        cfg["training"]["n_epoch"] = self.spec.train_iters
        cfg["evaluation"]["n_drops"] = self.spec.eval_drops
        if self.small:
            cfg["network"].update(width=16, depth=2)
            cfg["training"]["n_epoch"] = min(self.spec.train_iters, 5)
            cfg["evaluation"]["n_drops"] = min(self.spec.eval_drops, 20)
        self.work.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        self.cfg = config.load_config(self.config_path)
        self.train_iters = cfg["training"]["n_epoch"]
        self.eval_drops = cfg["evaluation"]["n_drops"]

    # -- correctness checks -------------------------------------------

    def check_oracle(self) -> bool:
        """stacked_cost on one seeded drop against the scalar reference."""
        spec = importlib.util.spec_from_file_location(
            "oracle_reference", ROOT / "tests" / "oracle_reference.py"
        )
        oracle = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracle)
        rng = np.random.default_rng(self.seed_for("oracle", 0))
        topo, channel, cons = self.cfg.topology(), self.cfg.channel(), self.cfg.constraints()
        n = self.cfg.network().output_size
        layout = topology.build_hex_layout(topo.cells, topo.radius_m)
        drop = topology.sample_drop(layout, topo.pairs_per_cell, topo.dmax_m, rng)
        gains = build_gain_table(drop, channel, rng)
        p = rng.uniform(-150.0, 20.0, (drop.k, n))
        got = objective.stacked_cost(
            p[None], gains.g_d2d_db[None], gains.g_enb_db[None], cons, channel.noise_dbw
        )
        want = oracle.scalar_drop_cost(
            p.tolist(), gains.g_d2d_db.tolist(), gains.g_enb_db.tolist(),
            cons.p_max_w, cons.q_max_w, cons.c_p, cons.c_if, dbw_to_watt(channel.noise_dbw),
        )
        have = (got.sum_throughput[0], got.ct_p[0], got.ct_if[0], got.total[0])
        worst = max(abs(a - b) / max(1.0, abs(a), abs(b)) for a, b in zip(have, want))
        self.outputs["oracle_worst_rel_error"] = worst
        return worst < ORACLE_TOL

    def check_train(self, out: Path) -> bool:
        """Finite cost on every metrics row; checkpoint round-trips."""
        with open(out / "metrics.csv", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        if not rows or int(rows[-1]["iteration"]) != self.train_iters:
            return False
        if not all(math.isfinite(float(r["cost_total"])) for r in rows):
            return False
        ckpt = out / "checkpoint.bin"
        params, stats = network.load_checkpoint(ckpt, self.cfg.network())
        again = out / "roundtrip.bin"
        network.save_checkpoint(params, stats, again)
        same = filecmp.cmp(ckpt, again, shallow=False)
        again.unlink()
        self.outputs.setdefault("train_final_cost", float(rows[-1]["cost_total"]))
        return same

    def check_eval(self, out: Path) -> bool:
        """Finite fields, rates in [0, 1], and the requested drop count."""
        report = {}
        with open(out / "eval_report.txt", encoding="utf-8") as f:
            for line in f:
                key, value = line.split(" = ")
                report[key] = float(value)
        fields = (
            "mean_eta", "eta_std", "mean_total_power_per_tx_w",
            "pmax_violation_rate", "q_exceed_rate", "n_drops",
        )
        if set(report) != set(fields) or not all(math.isfinite(v) for v in report.values()):
            return False
        rates_ok = all(0.0 <= report[k] <= 1.0 for k in ("pmax_violation_rate", "q_exceed_rate"))
        self.outputs.setdefault("heldout", report)
        return rates_ok and report["n_drops"] == self.eval_drops

    # -- operations ----------------------------------------------------

    def train_call(self, index: int, traced: bool, timed: bool) -> None:
        out = self.work / f"train-{index}"
        argv = [
            "train", "--config", str(self.config_path), "--out-dir", str(out),
            "--seed", str(self.seed_for("train", index)),
        ]
        code, wall = self.timed_cli(argv, traced, "op.train")
        ok = self.record(code == 0 and self.check_train(out), f"train call {index}")
        if ok and timed:
            key = "train_traced" if traced else "train"
            self.samples.setdefault(key, []).append(wall * 1e3 / self.train_iters)
        if index > 0:
            shutil.rmtree(out, ignore_errors=True)

    def eval_call(self, index: int, timed: bool) -> None:
        out = self.work / "eval"
        argv = [
            "eval", "--config", str(self.config_path), "--checkpoint", str(self.deployed),
            "--out-dir", str(out), "--seed", str(self.seed_for("eval", index)),
        ]
        code, wall = self.timed_cli(argv, self.trace and timed, "op.eval")
        ok = self.record(code == 0 and self.check_eval(out), f"eval call {index}")
        if ok and timed:
            self.samples.setdefault("eval", []).append(self.eval_drops / wall)

    def load_device(self) -> None:
        """A device loads the deployed checkpoint; inputs are pairs drawn
        from the workload's layout."""
        topo = self.cfg.topology()
        layout = topology.build_hex_layout(topo.cells, topo.radius_m)
        rng = np.random.default_rng(self.seed_for("decide", 0))
        rows = []
        while len(rows) < DECIDE_POOL:
            rows.extend(topology.sample_drop(layout, topo.pairs_per_cell, topo.dmax_m, rng).coords())
        with self.traced_op(self.trace, "op.load"):
            params, stats = network.load_checkpoint(self.deployed, self.cfg.network())
        self.device = (params, stats, np.array(rows[:DECIDE_POOL]), [None] * DECIDE_POOL)
        self.samples["decide"] = []

    def decide_chunk(self, step: int) -> None:
        """DECIDE_CHUNK single-row decisions, each timed on its own."""
        if self.device is None:
            self.load_device()
        params, stats, pool, first = self.device
        latencies = self.samples["decide"]
        n_out = self.cfg.network().output_size
        lo, hi = objective.POWER_FLOOR_DBM, objective.POWER_CEIL_DBM
        op = self.tracer.op if self.trace else (lambda _name: contextlib.nullcontext())
        bad = 0
        with tracing.installed(self.tracer) if self.trace else contextlib.nullcontext():
            for i in range(step * DECIDE_CHUNK, (step + 1) * DECIDE_CHUNK):
                j = i % DECIDE_POOL
                with op("op.decide"):
                    t = time.perf_counter()
                    p, _ = network.forward(params, pool[j : j + 1], "infer", stats)
                    latencies.append(time.perf_counter() - t)
                ok = p.shape == (1, n_out) and bool(np.all((p > lo) & (p < hi)))
                if first[j] is None:
                    first[j] = p
                elif not np.array_equal(first[j], p):
                    ok = False
                bad += not ok
        self.attempted += DECIDE_CHUNK
        self.failed += bad
        if bad:
            self.failures.append(f"{bad} decisions out of range or not repeatable")

    def probe_setup(self, index: int) -> None:
        """Time set-up in a fresh process: imports, config, layout, and
        init_params or the device's checkpoint load."""
        cmd = [sys.executable, str(HERE / "setup_probe.py"), "--config", str(self.config_path)]
        if self.spec.setup_loads:
            cmd += ["--checkpoint", str(self.deployed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        if self.record(proc.returncode == 0, f"setup probe {index}"):
            self.samples.setdefault("setup", []).append(float(proc.stdout.split()[-1]))
        else:
            print(proc.stderr, file=sys.stderr)

    # -- scheduling ------------------------------------------------------

    def schedule(self, phases: dict, probes: int) -> None:
        """Interleave the phases so each one samples the whole run.

        phases maps a name to (budget seconds, minimum steps, step(i)).
        The phase that has used the smallest share of its budget runs next
        (the first one breaks the initial tie), until every phase has its
        minimum and its next step, at half its mean length, would overrun
        the budget. Set-up probes run at evenly spaced points of the run,
        after the first train call has written the deployed checkpoint.
        """
        used = dict.fromkeys(phases, 0.0)
        steps = dict.fromkeys(phases, 0)
        total = sum(budget for budget, _, _ in phases.values())

        def open_(k):
            budget, minimum, _ = phases[k]
            return steps[k] < minimum or used[k] * (1 + 0.5 / steps[k]) <= budget

        t0 = time.perf_counter()
        done = 0
        while True:
            if done < probes and time.perf_counter() - t0 >= (done + 0.5) * total / probes:
                self.guarded(f"setup probe {done}", self.probe_setup, done)
                done += 1
                continue
            pending = [k for k in phases if open_(k)]
            if not pending:
                break
            k = min(pending, key=lambda k: used[k] / phases[k][0])
            t = time.perf_counter()
            phases[k][2](steps[k])
            used[k] += time.perf_counter() - t
            steps[k] += 1
        for i in range(done, probes):
            self.guarded(f"setup probe {i}", self.probe_setup, i)

    def execute(self) -> None:
        self.write_config()
        try:
            ok = self.guarded("oracle check", self.check_oracle)
            if ok is not None:
                self.record(bool(ok), "oracle check")
            first = 0
            if self.spec.warmup:
                self.guarded("train call 0", self.train_call, 0, False, False)
                self.guarded("eval call 0", self.eval_call, 0, False)
                first = 1

            def train(i):
                # traced runs alternate untraced and traced calls to
                # measure the tracing overhead in the same process
                traced = self.trace and i % 2 == 1
                self.guarded(f"train call {first + i}", self.train_call, first + i, traced, True)

            def evaluate(i):
                self.guarded(f"eval call {first + i}", self.eval_call, first + i, True)

            def decide(i):
                self.guarded(f"decide step {i}", self.decide_chunk, i)

            budget = {k: self.seconds * share for k, share in self.spec.shares.items()}
            min_decisions = 2 * DECIDE_POOL if self.small else DECIDE_MIN
            self.schedule(
                {
                    "train": (budget["train"], 2 if self.trace else 1, train),
                    "decide": (budget["decide"], -(-min_decisions // DECIDE_CHUNK), decide),
                    "eval": (budget["eval"], 1, evaluate),
                },
                probes=1 if self.small else SETUP_PROBES,
            )
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        self.outputs["samples"] = {k: len(v) for k, v in self.samples.items()}
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def end_to_end(self) -> dict[str, float]:
        lat = np.array(self.samples["decide"]) * 1e6
        p99 = float(np.percentile(lat, 99))
        self.outputs["decide_samples"] = int(lat.size)
        self.outputs["decide_beyond_p99"] = int((lat > p99).sum())
        return {
            "setup_s": statistics.median(self.samples["setup"]),
            "train_ms_per_iter": statistics.median(self.samples["train"]),
            "eval_drops_per_s": statistics.median(self.samples["eval"]),
            "decide_us_p50": float(np.median(lat)),
            "decide_us_p99": p99,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self) -> dict[str, float]:
        table = tracing.layer_table(self.tracer.spans)

        def total(names, kind=None, col=0):
            return sum(
                row[col] for (k, name), row in table.items()
                if name in names and (kind is None or k == kind)
            )

        m = {}
        for name in LAYER_SPANS:
            calls = total((name,), col=1)
            m[f"{name}.calls"] = calls
            m[f"{name}.ms"] = total((name,)) * 1e3 / calls if calls else 0.0
        train_calls = total(("training.train",), col=1)
        train_wall = total(("training.train",), "op.train", col=2)
        eval_wall = total(("evaluation.evaluate",), "op.eval", col=2)
        iters = train_calls * self.train_iters
        m["training.self.ms"] = total(("training.train",)) * 1e3 / iters if iters else 0.0
        evals = total(("evaluation.evaluate",), col=1)
        m["evaluation.evaluate.self.ms"] = (
            total(("evaluation.evaluate",)) * 1e3 / evals if evals else 0.0
        )
        cmd_train = total(("cli.cmd_train",), col=2)
        m["cli.train.io.ms"] = (
            (cmd_train - total(("training.train",), col=2)) * 1e3 / train_calls
            if train_calls else 0.0
        )
        cmd_evals = total(("cli.cmd_eval",), col=1)
        m["cli.cmd_eval.self.ms"] = total(("cli.cmd_eval",)) * 1e3 / cmd_evals if cmd_evals else 0.0
        for group, names in TRAIN_SHARES.items():
            m[f"train.share.{group}"] = total(names, "op.train") / train_wall if train_wall else 0.0
        for group, names in EVAL_SHARES.items():
            m[f"eval.share.{group}"] = total(names, "op.eval") / eval_wall if eval_wall else 0.0

        c = self.tracer.counters
        cand = c.get("topology.hex_candidates", 0.0)
        m["topology.hex_accept_ratio"] = c.get("topology.hex_kept", 0.0) / cand if cand else 0.0
        m["channel.gain_entries"] = c.get("channel.gain_entries", 0.0)
        m["network.rows"] = c.get("network.rows", 0.0)
        m["network.checkpoint_bytes"] = c.get("network.checkpoint_bytes", 0.0)

        # computed from the layout, not measured
        net = self.cfg.network()
        sizes = net.layer_sizes()
        weights = sum(fi * fo for fi, fo in sizes)
        features = sum(fo for _, fo in sizes)
        topo = self.cfg.topology()
        rows_per_iter = self.cfg.resolved["training"]["batch_size"] * topo.cells * topo.pairs_per_cell
        fwd_gflop = 2.0 * rows_per_iter * weights / 1e9
        m["network.forward_gflop"] = fwd_gflop
        m["network.backward_gflop"] = 2.0 * fwd_gflop
        fwd_ms, bwd_ms = m["network.forward_train.ms"], m["network.backward.ms"]
        m["network.forward_gflops_per_s"] = fwd_gflop / (fwd_ms / 1e3) if fwd_ms else 0.0
        m["network.backward_gflops_per_s"] = 2.0 * fwd_gflop / (bwd_ms / 1e3) if bwd_ms else 0.0
        # a decision reads W, scale, shift, running mean and variance
        weight_bytes = 8 * (weights + 4 * features)
        m["network.weight_bytes"] = weight_bytes
        dec_ms = m["network.forward_infer.ms"]
        m["network.decide_gbytes_per_s"] = weight_bytes / (dec_ms / 1e3) / 1e9 if dec_ms else 0.0
        params = weights + 2 * features
        m["training.param_count"] = params
        # Adam reads parameter, gradient and both moments and writes
        # parameter and both moments: 7 float64 per parameter
        m["training.adam_bytes"] = 7 * 8 * params

        traced = self.samples.get("train_traced", [])
        plain = self.samples.get("train", [])
        t_med = statistics.median(traced) if traced else 0.0
        u_med = statistics.median(plain) if plain else 0.0
        m["trace.train_ms_per_iter"] = t_med
        m["trace.untraced_train_ms_per_iter"] = u_med
        m["trace.overhead_ms_per_iter"] = t_med - u_med if traced and plain else 0.0
        m["trace.overhead_ratio"] = (t_med - u_med) / u_med if traced and plain else 0.0
        return m


def host_speed() -> dict[str, float]:
    """Fixed reference work timed on this machine, so a reader can tell a
    slower host from a slower program: a pure-Python loop and a numpy
    matmul (median of 5 each)."""

    def median_ms(fn):
        times = []
        for _ in range(5):
            t = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t) * 1e3)
        return statistics.median(times)

    a = np.random.default_rng(0).random((384, 384))
    return {
        "python_loop_ms": median_ms(lambda: sum(i * i for i in range(100_000))),
        "matmul_384_ms": median_ms(lambda: a @ a),
    }


def manifest(run: Run) -> dict:
    """What a result depends on besides the code: versions, BLAS, threads, CPU."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    git_rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        git_rev = proc.stdout.strip() or None
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "numpy": np.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_rev": git_rev,
        "host_speed": run.host_speed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Execute one workload and return its result with the run manifest.

    The result, and for traced runs every span, is also written under
    .perfbench_out/ in the checkout.
    """
    r = Run(workload, seed, seconds, trace, small)
    r.host_speed["start"] = host_speed()
    r.execute()
    r.host_speed["end"] = host_speed()
    names, values = (PER_LAYER, r.per_layer()) if trace else (END_TO_END, r.end_to_end())
    result = {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in names.items()},
        "manifest": manifest(r),
        "outputs": r.outputs,
        "failures": r.failures,
        "absent_layers": r.tracer.absent,
    }
    stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=2), encoding="utf-8")
    if trace:
        r.tracer.write(stem.with_suffix(".spans.jsonl"))
    return result
