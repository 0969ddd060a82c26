"""Tests of the benchmark itself (not of d2dpower).

    python -m pytest perfbench/tests -q
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import bench  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_valid():
    for metrics in (bench.END_TO_END, bench.PER_LAYER):
        for name, unit in metrics.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    for w in SPEC["workloads"]:
        assert NAME.fullmatch(w["name"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] <= 0.25 for m in SPEC["end_to_end"])


def span(name, start, end, parent, op=1):
    return [name, float(start), float(end), parent, op]


def test_self_time_on_a_synthetic_tree():
    spans = [
        span("op.train", 0, 10, -1),  # 0
        span("a", 1, 4, 0),  # 1: covered by its child for 1 s
        span("a.child", 2, 3, 1),  # 2
        span("b", 3, 6, 0),  # 3: overlaps a; the union 1..6 counts once
        span("c", 9, 12, 0),  # 4: clipped to the parent's end
        span("op.eval", 20, 25, -1, op=2),  # 5
        span("a", 21, 22, 5, op=2),  # 6
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10 - 5 - 1, 2, 1, 3, 3, 4, 1])
    table = tracing.layer_table(spans)
    assert table[("op.train", "a")] == pytest.approx([2, 1, 3])
    assert table[("op.eval", "a")] == pytest.approx([1, 1, 1])


def test_tracer_restores_names_and_reports_absent_ones(monkeypatch):
    from d2dpower import training

    original = training.forward
    monkeypatch.delattr(training, "flatten_batch")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert training.forward is not original
        assert training.forward.__wrapped__ is original
    assert training.forward is original
    assert tracer.absent == ["training.flatten_batch"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_smoke_run_has_no_errors(tmp_path, monkeypatch, workload, trace):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    result = bench.run(workload, seed=5, seconds=0.5, trace=trace, small=True)
    assert result["failed"] == 0, result["failures"]
    assert result["correct"] and result["attempted"] > 0
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert set(result["metrics"]) == set(expected)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["absent_layers"] == []
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
