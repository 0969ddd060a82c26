"""Spans recorded from outside the program, and the per-layer numbers
derived from them.

The tracer wraps module-level names that d2dpower code looks up at call
time (for example ``training.forward`` or ``evaluation.sample_drop``), so
the program itself stays untouched. A name that a later refactor removes
is reported as absent instead of failing the run.

Each span is ``[name, start, end, parent, op]``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``op`` the id of the benchmark
operation (one CLI call or one device decision) it belongs to.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span and counter store; written out once at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = 0

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation; nested spans share its id."""
        self._op += 1
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps([name, start, end, parent, op]) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so time is never subtracted twice.
    """
    children = defaultdict(list)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((end - start) - covered)
    return out


def layer_table(spans) -> dict[tuple[str, str], list[float]]:
    """Aggregate spans by (operation kind, span name).

    The kind is the name of the root span of the span's operation, e.g.
    ``op.train``. Values are ``[self seconds, calls, total seconds]``.
    """
    selfs = self_times(spans)
    root_of_op = {}
    for name, _s, _e, parent, op in spans:
        if parent < 0:
            root_of_op.setdefault(op, name)
    table = defaultdict(lambda: [0.0, 0, 0.0])
    for (name, start, end, _parent, op), own in zip(spans, selfs):
        row = table[(root_of_op.get(op, ""), name)]
        row[0] += own
        row[1] += 1
        row[2] += end - start
    return dict(table)


# Span names derived from call arguments: train/infer forward passes and
# costs with/without gradient are different layers for the metrics.
def _forward_name(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "train")
    if mode == "train":
        return "network.forward_train"
    return "network.forward_infer" if len(args[1]) == 1 else "network.forward_infer_batch"


def _cost_name(args, kwargs):
    want_grad = args[5] if len(args) > 5 else kwargs.get("want_grad", False)
    return "objective.stacked_cost_grad" if want_grad else "objective.stacked_cost_nograd"


def _count_forward_rows(tracer, args, kwargs, result):
    tracer.count("network.rows", len(args[1]))


def _count_gain_entries(tracer, args, kwargs, result):
    tracer.count("channel.gain_entries", result.g_d2d_db.size + result.g_enb_db.size)


def _count_hex_points(tracer, args, kwargs, result):
    tracer.count("topology.hex_candidates", len(result))
    tracer.count("topology.hex_kept", int(result.sum()))


def _count_checkpoint_bytes(tracer, args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    tracer.counters["network.checkpoint_bytes"] = os.path.getsize(path)


# (module, attribute, span name or None for a counter-only wrapper,
#  counter hook or None). Modules that import a function by name hold
# their own reference, so each importing module is wrapped separately.
TARGETS = (
    ("cli", "cmd_train", "cli.cmd_train", None),
    ("cli", "cmd_eval", "cli.cmd_eval", None),
    ("training", "train", "training.train", None),
    ("training", "init_params", "network.init_params", None),
    ("training", "sample_batch", "topology.sample_batch", None),
    ("topology", "sample_drop", "topology.sample_drop", None),
    ("evaluation", "sample_drop", "topology.sample_drop", None),
    ("topology", "points_in_hexagon", None, _count_hex_points),
    ("training", "flatten_batch", "topology.flatten_batch", None),
    ("training", "build_gain_table", "channel.build_gain_table", _count_gain_entries),
    ("evaluation", "build_gain_table", "channel.build_gain_table", _count_gain_entries),
    ("training", "forward", _forward_name, _count_forward_rows),
    ("evaluation", "forward", _forward_name, _count_forward_rows),
    ("network", "forward", _forward_name, _count_forward_rows),
    ("training", "backward", "network.backward", None),
    ("training", "stacked_cost", _cost_name, None),
    ("evaluation", "stacked_cost", _cost_name, None),
    ("training", "adam_step", "training.adam_step", None),
    ("network", "save_checkpoint", "network.save_checkpoint", _count_checkpoint_bytes),
    ("network", "load_checkpoint", "network.load_checkpoint", None),
    ("evaluation", "evaluate", "evaluation.evaluate", None),
)


def _wrap(tracer, fn, name, hook):
    def wrapper(*args, **kwargs):
        if name is None:
            result = fn(*args, **kwargs)
        else:
            idx = tracer.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target while the block runs; restore the originals after."""
    patches = []
    try:
        for mod_name, attr, name, hook in TARGETS:
            try:
                module = importlib.import_module(f"d2dpower.{mod_name}")
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                label = f"{mod_name}.{attr}"
                if label not in tracer.absent:
                    tracer.absent.append(label)
                continue
            patches.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, fn, name, hook))
        yield tracer
    finally:
        for module, attr, fn in reversed(patches):
            setattr(module, attr, fn)
