"""Span tracer for the traced benchmark run.

It wraps aud_lab's public functions at the place where each one is looked
up, so the package's own source stays unchanged:

* every aud_lab function that ``aud_lab.experiments`` imports, at
  ``aud_lab.experiments.<name>``;
* every experiments function that ``aud_lab.cli`` imports, at
  ``aud_lab.cli.<name>``;
* every function of ``aud_lab.analytic``, at the module attribute (the
  experiments module calls ``analytic.<name>``, and analytic calls itself
  through the same globals);
* the inner calls ``aud_lab.queueing.sample_many``,
  ``aud_lab.decisions.decisions_at`` and ``aud_lab.stats.z_value``, the
  method ``SeededStream.uniform_open``, the two ``write_csv`` methods,
  ``write_manifest`` and the sweep's per-point task ``_point_rows``.

Each call records a span: name, start, end, parent span, thread id, the
process ``ru_maxrss`` before and after, and a few size counters.  A span
that starts in a pool worker thread with nothing open on its own stack takes
the innermost open span of the main thread (the sweep) as its parent, so
worker time is attributed to the run.  A target that no longer exists is
reported as absent.  Only the benchmark's traced child process imports this
module.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import resource
import threading
import time
from typing import NamedTuple

# Names experiments is expected to import; each one feeds a per-layer metric.
EXPECTED_IMPORTS = (
    "simulate",
    "queue_length_process",
    "occupancy_fractions",
    "generate_decisions",
    "aoi_path",
    "time_average_aoi",
    "ks_exponential",
    "batch_means_ci",
    "z_value",
)

# Wrapped where the caller looks them up: (module, dotted attribute).
INNER_TARGETS = (
    ("aud_lab.queueing", "sample_many"),
    ("aud_lab.decisions", "decisions_at"),
    ("aud_lab.stats", "z_value"),
    ("aud_lab.distributions", "SeededStream.uniform_open"),
    ("aud_lab.experiments", "SweepResult.write_csv"),
    ("aud_lab.experiments", "ValidationReport.write_csv"),
    ("aud_lab.experiments", "write_manifest"),
    ("aud_lab.experiments", "_point_rows"),
)

LAYERS = ("distributions", "queueing", "decisions", "stats", "analytic", "experiments", "cli")

# Per-layer metrics taken from the decisions made at each of these rates.
NU_LADDER = (0.1, 1.0, 10.0)

# Per-call percentiles are reported only for layers called at least this often.
MIN_CALLS_FOR_PERCENTILES = 100


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _count_draws(arguments, result):
    size = arguments.get("size")
    return {"draws": 1 if size is None else int(size)}


# Size counters per span name, from the bound call arguments and the result.
COUNTERS = {
    "distributions.uniform_open": _count_draws,
    "queueing.simulate": lambda a, r: {"updates": int(a["n_updates"])},
    # the level durations span every path event plus the leading idle stretch
    "queueing.occupancy_fractions": lambda a, r: {"elements": len(a["path"].epochs) + 1},
    "decisions.generate_decisions": lambda a, r: {
        "decisions": len(r),
        f"decisions.nu_{float(a['decision_rate']):g}": len(r),
    },
    # one sawtooth segment per gap between consecutive drops
    "decisions.time_average_aoi": lambda a, r: {"elements": len(a["path"].drop_epochs) - 1},
    "stats.ks_exponential": lambda a, r: {"samples": len(a["samples"])},
    "stats.batch_means_ci": lambda a, r: {"samples": len(a["samples"])},
}


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    rss_before_kb: int
    rss_after_kb: int
    counts: dict


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def wrap(self, fn, name: str | None = None):
        name = name or span_name(fn)
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            rss_before = _maxrss_kb()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            # Only calls that return are recorded; a raised error ends the job.
            counts = {}
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(bound.arguments, result)
            tracer.spans.append(Span(sid, name, start, end, parent,
                                     threading.get_ident(), rss_before, _maxrss_kb(), counts))
            return result

        return traced

    def install(self):
        """Wrap every target; return the traced ``aud_lab.cli.main``."""
        cli = importlib.import_module("aud_lab.cli")
        experiments = importlib.import_module("aud_lab.experiments")
        analytic = importlib.import_module("aud_lab.analytic")

        for name in EXPECTED_IMPORTS:
            if not inspect.isfunction(getattr(experiments, name, None)):
                self.absent.append(f"aud_lab.experiments.{name}")
        for module, prefix in ((experiments, "aud_lab."), (cli, "aud_lab.experiments")):
            for attr, value in list(vars(module).items()):
                if (inspect.isfunction(value) and value.__module__.startswith(prefix)
                        and value.__module__ != module.__name__):
                    setattr(module, attr, self.wrap(value))
        for attr, value in list(vars(analytic).items()):
            if inspect.isfunction(value) and value.__module__ == analytic.__name__:
                setattr(analytic, attr, self.wrap(value))
        for module_name, dotted in INNER_TARGETS:
            owner = importlib.import_module(module_name)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if callable(fn):
                setattr(owner, attr, self.wrap(fn))
            else:
                self.absent.append(f"{module_name}.{dotted}")
        main = getattr(cli, "main", None)
        if main is None:
            raise RuntimeError("aud_lab.cli.main is missing")
        return self.wrap(main, "cli.main")


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _percentile(sorted_values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans, run_s: float, cpu_s: float) -> dict:
    """Per-layer metrics of the recorded spans (names as in BENCHMARK.json)."""
    by_id = {s.sid: s for s in spans}
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    # A parent opens before its children, so its id is smaller.
    ancestor_names: dict = {}
    for s in sorted(spans, key=lambda s: s.sid):
        parent = by_id.get(s.parent)
        ancestor_names[s.sid] = (
            frozenset() if parent is None else ancestor_names[parent.sid] | {parent.name}
        )

    def self_time(s: Span) -> float:
        covered = _union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.sid, ())
        )
        return (s.end - s.start) - covered

    def outermost(match):
        """Spans that match and have no matching ancestor (no double counting)."""
        return [s for s in spans
                if match(s.name) and not any(match(a) for a in ancestor_names[s.sid])]

    self_times = {s.sid: self_time(s) for s in spans}
    out: dict = {}

    def fn_metrics(name: str):
        top = outermost(lambda n: n == name)
        durations = sorted(s.end - s.start for s in top)
        counts: dict = {}
        for s in top:
            for key, value in s.counts.items():
                counts[key] = counts.get(key, 0) + value
        enough = len(durations) >= MIN_CALLS_FOR_PERCENTILES
        return {
            "calls": len(top),
            "busy_s": sum(durations),
            "self_s": sum(self_times[s.sid] for s in spans if s.name == name),
            "call_p50_s": _percentile(durations, 0.5) if enough else 0.0,
            "call_p90_s": _percentile(durations, 0.9) if enough else 0.0,
            "rss_growth_mb": sum(s.rss_after_kb - s.rss_before_kb for s in top) / 1024.0,
            **counts,
        }

    def put(prefix: str, stats: dict, keys) -> None:
        for key in keys:
            out[f"{prefix}.{key}"] = stats.get(key, 0)

    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(self_times[s.sid] for s in spans if _layer(s.name) == layer)
    closed_forms = outermost(lambda n: _layer(n) == "analytic")
    out["analytic.calls"] = len(closed_forms)
    out["analytic.busy_s"] = sum(s.end - s.start for s in closed_forms)

    uniform = fn_metrics("distributions.uniform_open")
    out["distributions.draws"] = uniform.get("draws", 0)
    put("distributions.uniform_open", uniform, ("busy_s",))
    put("distributions.sample_many", fn_metrics("distributions.sample_many"), ("busy_s",))

    put("queueing.simulate", fn_metrics("queueing.simulate"),
        ("updates", "self_s", "rss_growth_mb"))
    put("queueing.queue_length_process", fn_metrics("queueing.queue_length_process"),
        ("busy_s",))
    put("queueing.occupancy_fractions", fn_metrics("queueing.occupancy_fractions"),
        ("calls", "busy_s", "call_p50_s", "call_p90_s", "elements"))

    put("decisions.generate_decisions", fn_metrics("decisions.generate_decisions"),
        ("decisions", "self_s", "rss_growth_mb")
        + tuple(f"decisions.nu_{nu:g}" for nu in NU_LADDER))
    put("decisions.decisions_at", fn_metrics("decisions.decisions_at"), ("busy_s",))
    put("decisions.time_average_aoi", fn_metrics("decisions.time_average_aoi"),
        ("calls", "busy_s", "call_p50_s", "call_p90_s", "elements"))
    put("decisions.aoi_path", fn_metrics("decisions.aoi_path"), ("busy_s",))

    put("stats.ks_exponential", fn_metrics("stats.ks_exponential"),
        ("calls", "samples", "busy_s"))
    put("stats.batch_means_ci", fn_metrics("stats.batch_means_ci"), ("samples", "busy_s"))
    put("stats.z_value", fn_metrics("stats.z_value"), ("calls",))

    put("experiments.write_csv", fn_metrics("experiments.write_csv"), ("busy_s",))
    put("experiments.write_manifest", fn_metrics("experiments.write_manifest"), ("busy_s",))
    points = [s for s in spans if s.name == "experiments._point_rows"]
    workers = len({s.thread for s in points})
    out["experiments.pool.busy_frac"] = (
        sum(s.end - s.start for s in points) / (workers * run_s) if workers else 0.0
    )
    out["experiments.cpu_util"] = cpu_s / run_s
    out["trace.run_s"] = run_s
    # Near zero on a single-threaded run, where every traced second is some
    # span's self time; negative when pool threads overlap.
    out["trace.unaccounted_s"] = run_s - sum(self_times.values())
    return out
