"""Spans around calls into the finvariant modules, installed from outside.

A ``Tracer`` keeps every span in memory as a tuple
``(span_id, parent_id, job_id, name, start, end)`` and a dict of counters.
``install`` replaces each traced function with a timing wrapper on *every*
finvariant module namespace that holds it: the package imports names directly
(``from .sft import axioms_check``), so patching only the defining module
would leave the inner calls untimed.  ``layer_metrics`` turns one traced pass
into the per-layer numbers listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    """In-memory span recorder.

    Each thread keeps its own stack of open spans and its own counters, so
    the thread pool inside ``expected_count`` loses no update.  A span opened
    on a worker thread with an empty stack takes the main thread's innermost
    open span as its parent.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._thread_counts: list[dict] = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int | None, int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, parent, sid

    def add(self, key: str, value: float = 1) -> None:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(float)
            with self._lock:
                self._thread_counts.append(counts)
        counts[key] += value

    @property
    def counts(self) -> dict[str, float]:
        """Counters summed over threads."""
        total: dict[str, float] = defaultdict(float)
        for counts in self._thread_counts:
            for key, value in counts.items():
                total[key] += value
        return total

    def call(self, name: str, fn, args, kwargs):
        with _Span(self, name):
            return fn(*args, **kwargs)

    def span(self, name: str):
        """A span around a block, for the runner's own spans."""
        return _Span(self, name)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.stack, self.parent, self.sid = self.tracer._open()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        self.stack.pop()
        self.tracer.spans.append(
            (self.sid, self.parent, self.tracer.job, self.name, self.start, end)
        )
        return False


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _bound(fn, args, kwargs) -> dict:
    sig = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _hook_count_omega(t, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    t.add("counting.labelings", len(a["alphabet"]) ** a["action"].n)
    t.add("counting.accepted", result)


def _hook_expected_count(t, fn, args, kwargs, result):
    t.add("counting.actions", result.samples)


def _hook_patterns(t, fn, args, kwargs, result):
    t.add("weights.patterns", len(result.probs))


def _hook_sampler(t, fn, args, kwargs, result):
    t.add("sft.sampler.found", result is not None)


def _hook_vertices(key):
    def hook(t, fn, args, kwargs, result):
        t.add(key, _bound(fn, args, kwargs)["action"].n)

    return hook


# (module, attribute, kind, hook); kind is "call", "cpu" (also records
# process CPU time), "iter" (one span per next()), "method", "classmethod"
# or "count" (a call counter with no span).
TRACED = [
    ("counting", "count_omega", "call", _hook_count_omega),
    ("counting", "expected_count", "cpu", _hook_expected_count),
    ("actions", "enumerate_actions", "iter", None),
    ("actions", "sample_action", "call", None),
    ("shift", "window_columns", "call", None),
    ("shift", "pullback_name", "call", None),
    ("shift", "PatternDistribution.from_json", "classmethod", None),
    ("shift", "PatternDistribution.to_json", "method", None),
    ("weights", "marginal_distribution", "call", _hook_patterns),
    ("weights", "markovize", "call", None),
    ("weights", "shannon_entropy", "call", None),
    ("weights", "F_value", "call", None),
    ("weights", "rationalize_weight", "call", None),
    ("sft", "axioms_check", "call", None),
    ("sft", "sample_sft_config", "call", _hook_sampler),
    ("sft", "sft_check_all", "call", None),
    ("orbitmaps", "verify_zrho", "call", _hook_vertices("orbitmaps.verify_zrho.vertices")),
    ("orbitmaps", "tau_construct", "call", _hook_vertices("orbitmaps.tau_construct.vertices")),
    ("orbitmaps", "pattern_inverse_eval", "call", None),
    ("orbitmaps", "decode_E", "call", None),
    ("orbitmaps", "encode_F", "call", None),
    ("freegroup", "mul", "count", None),
]


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _make_wrapper(tracer: Tracer, name: str, fn, kind: str, hook):
    if kind == "count":
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.add(key)
            return fn(*args, **kwargs)

        return counted

    if kind == "iter":

        @functools.wraps(fn)
        def iterate(*args, **kwargs):
            it = fn(*args, **kwargs)
            sentinel = object()
            while True:
                item = tracer.call(name, next, (it, sentinel), {})
                if item is sentinel:
                    return
                yield item

        return iterate

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if kind == "cpu":
            cpu0, wall0 = _cpu(), perf_counter()
            result = tracer.call(name, fn, args, kwargs)
            tracer.add(name + ".cpu_s", _cpu() - cpu0)
            tracer.add(name + ".wall_s", perf_counter() - wall0)
        else:
            result = tracer.call(name, fn, args, kwargs)
        if hook is not None:
            hook(tracer, fn, args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer, package) -> list[tuple]:
    """Install every wrapper in ``TRACED``; returns the undo list for ``uninstall``."""
    modules = [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
    ]
    undo: list[tuple] = []
    for module_name, attr, kind, hook in TRACED:
        home = sys.modules[f"{package.__name__}.{module_name}"]
        name = f"{module_name}.{attr}"
        if kind in ("method", "classmethod"):
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[meth]
            fn = original.__func__ if kind == "classmethod" else original
            wrapped = _make_wrapper(tracer, name, fn, "call", hook)
            setattr(cls, meth, classmethod(wrapped) if kind == "classmethod" else wrapped)
            undo.append((cls, meth, original))
            continue
        original = getattr(home, attr)
        wrapped = _make_wrapper(tracer, name, original, kind, hook)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                undo.append((mod, attr, original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for holder, attr, original in reversed(undo):
        setattr(holder, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children on other threads may overlap each other, so their union is
    subtracted, clipped to the parent's interval.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = defaultdict(list)
    for sid, parent, _job, _name, start, end in spans:
        if parent in by_id:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _job, _name, start, end in spans:
        kids = [(max(a, start), min(b, end)) for a, b in children.get(sid, ()) if b > start and a < end]
        out[sid] = (end - start) - covered(kids)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("f_estimate", "f_exact", "markovize", "rationalize", "rearrange", "sft_verify")

# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "counting.count_omega.self_s": "s",
    "counting.count_omega.calls": "count",
    "counting.labelings_per_s": "1/s",
    "counting.accept_ratio": "ratio",
    "counting.expected_count.actions_per_s": "1/s",
    "counting.cpu_per_wall": "ratio",
    "actions.enumerate_actions.s": "s",
    "actions.sample_action.s": "s",
    "shift.window_columns.s": "s",
    "shift.pullback_name.calls": "count",
    "shift.pullback_name.s": "s",
    "shift.PatternDistribution.from_json.s": "s",
    "shift.PatternDistribution.to_json.s": "s",
    "weights.marginal_distribution.patterns_per_s": "1/s",
    "weights.markovize.s": "s",
    "weights.shannon_entropy.s": "s",
    "weights.F_value.s": "s",
    "weights.rationalize_weight.s": "s",
    "sft.axioms_check.calls": "count",
    "sft.axioms_check.per_s": "1/s",
    "sft.sample_sft_config.s": "s",
    "sft.sampler.found_ratio": "ratio",
    "sft.sft_check_all.calls": "count",
    "sft.sft_check_all.s": "s",
    "orbitmaps.verify_zrho.vertices_per_s": "1/s",
    "orbitmaps.tau_construct.vertices_per_s": "1/s",
    "orbitmaps.pattern_inverse_eval.calls": "count",
    "orbitmaps.pattern_inverse_eval.s": "s",
    "orbitmaps.decode_E.s": "s",
    "orbitmaps.encode_F.s": "s",
    **{f"cli.{cmd}.self_s": "s" for cmd in CLI_COMMANDS},
    "freegroup.mul.calls": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "repo.src_lines": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers over every span and counter the tracer holds.

    A layer the workload never calls reports 0.  Times are thread time: with
    ``--threads 2`` two spans of one name can overlap, so the rate of the
    counting kernel divides by the wall time its spans cover instead.
    """
    spans = tracer.spans
    counts = tracer.counts
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    intervals: dict[str, list] = defaultdict(list)
    for sid, _parent, _job, name, start, end in spans:
        calls[name] += 1
        total[name] += end - start
        self_total[name] += own[sid]
        intervals[name].append((start, end))

    m = {
        "counting.count_omega.self_s": self_total["counting.count_omega"],
        "counting.count_omega.calls": calls["counting.count_omega"],
        "counting.labelings_per_s": _ratio(
            counts["counting.labelings"], covered(intervals["counting.count_omega"])
        ),
        "counting.accept_ratio": _ratio(counts["counting.accepted"], counts["counting.labelings"]),
        "counting.expected_count.actions_per_s": _ratio(
            counts["counting.actions"], total["counting.expected_count"]
        ),
        "counting.cpu_per_wall": _ratio(
            counts["counting.expected_count.cpu_s"], counts["counting.expected_count.wall_s"]
        ),
        "actions.enumerate_actions.s": total["actions.enumerate_actions"],
        "actions.sample_action.s": total["actions.sample_action"],
        "shift.window_columns.s": total["shift.window_columns"],
        "shift.pullback_name.calls": calls["shift.pullback_name"],
        "shift.pullback_name.s": total["shift.pullback_name"],
        "shift.PatternDistribution.from_json.s": total["shift.PatternDistribution.from_json"],
        "shift.PatternDistribution.to_json.s": total["shift.PatternDistribution.to_json"],
        "weights.marginal_distribution.patterns_per_s": _ratio(
            counts["weights.patterns"], total["weights.marginal_distribution"]
        ),
        "weights.markovize.s": total["weights.markovize"],
        "weights.shannon_entropy.s": total["weights.shannon_entropy"],
        "weights.F_value.s": total["weights.F_value"],
        "weights.rationalize_weight.s": total["weights.rationalize_weight"],
        "sft.axioms_check.calls": calls["sft.axioms_check"],
        "sft.axioms_check.per_s": _ratio(calls["sft.axioms_check"], total["sft.axioms_check"]),
        "sft.sample_sft_config.s": total["sft.sample_sft_config"],
        "sft.sampler.found_ratio": _ratio(
            counts["sft.sampler.found"], calls["sft.sample_sft_config"]
        ),
        "sft.sft_check_all.calls": calls["sft.sft_check_all"],
        "sft.sft_check_all.s": total["sft.sft_check_all"],
        "orbitmaps.verify_zrho.vertices_per_s": _ratio(
            counts["orbitmaps.verify_zrho.vertices"], total["orbitmaps.verify_zrho"]
        ),
        "orbitmaps.tau_construct.vertices_per_s": _ratio(
            counts["orbitmaps.tau_construct.vertices"], total["orbitmaps.tau_construct"]
        ),
        "orbitmaps.pattern_inverse_eval.calls": calls["orbitmaps.pattern_inverse_eval"],
        "orbitmaps.pattern_inverse_eval.s": total["orbitmaps.pattern_inverse_eval"],
        "orbitmaps.decode_E.s": total["orbitmaps.decode_E"],
        "orbitmaps.encode_F.s": total["orbitmaps.encode_F"],
        "freegroup.mul.calls": int(counts["freegroup.mul.calls"]),
        "trace.spans": len(spans),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_s"] = self_total[f"cli.{cmd}"]
    return m
