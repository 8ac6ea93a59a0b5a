"""Spans at the layer boundaries of exchbound, recorded from outside.

The library is not changed.  For a traced pass the benchmark replaces,
for the duration of the pass, the names through which one layer calls
the next (``exchbound.cli.run_sweep``, ``exchbound.montecarlo.exact_tail``
and so on) with wrappers that record a span around each call.  Spans
(name, layer, start, end, thread CPU time, parent, run id, attributes)
are kept in memory and written out once the pass has ended.  A boundary
that is gone, or that the pass no longer crosses as often as its outputs
say it must, stops the pass: its shares would otherwise be silently wrong.

A span's self time is its duration minus the part of it that its child
spans cover.  Cells of a threaded sweep run in pool threads; their spans
take the running ``run_sweep`` span as parent, so the union of their
intervals, not their sum, is subtracted from it.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from workloads import M_GRID

LAYERS = ("cli", "bench", "reporting", "montecarlo", "bounds", "oracle", "model", "sampler")

# calls that make up one sweep cell (the rest of run_sweep is sweep overhead)
CELL_CALLS = ("tail_bound_report", "exact_tail", "estimate_tail")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start_ns: int
    end_ns: int
    parent: int | None
    cpu_ns: int = 0  # CPU time of the span's thread, so waits for a lock do not count
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, pool_parent: bool = False):
        """Record one span; with ``pool_parent``, spans opened by threads
        with no open span of their own become its children."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else self._pool_parent
        outer_pool = self._pool_parent
        if pool_parent:
            self._pool_parent = sid
        stack.append((sid, name))
        attrs: dict = {}
        start, cpu = time.perf_counter_ns(), time.thread_time_ns()
        try:
            yield attrs
        except BaseException as e:
            attrs["raised"] = type(e).__name__
            raise
        finally:
            end, cpu = time.perf_counter_ns(), time.thread_time_ns() - cpu
            stack.pop()
            if pool_parent:
                self._pool_parent = outer_pool
            self.spans.append(Span(sid, name, layer, start, end, parent, cpu, attrs))

    def wrap(self, fn, name: str, layer: str, before=None, after=None, pool_parent=False):
        """``fn`` with a span around each call.

        ``before(local, args, kwargs)`` and ``after(local, result)`` return span
        attributes; ``local`` is this thread's state.  A call made from
        inside a span of the same name (the lower tail re-entering through
        the reflected model) stays part of that span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            with self.span(name, layer, pool_parent=pool_parent) as attrs:
                if before is not None:
                    attrs.update(before(self._local, args, kwargs))
                result = fn(*args, **kwargs)
                if after is not None:
                    attrs.update(after(self._local, result))
                return result

        return traced

    def write(self, path) -> None:
        t0 = min((s.start_ns for s in self.spans), default=0)
        with open(path, "w") as handle:
            for s in sorted(self.spans, key=lambda s: s.start_ns):
                handle.write(json.dumps({
                    "run": self.run_id, "id": s.id, "name": s.name, "layer": s.layer,
                    "start_us": (s.start_ns - t0) / 1e3, "end_us": (s.end_ns - t0) / 1e3,
                    "cpu_us": s.cpu_ns / 1e3, "parent": s.parent, **s.attrs,
                }) + "\n")


def _query_m(args, kwargs) -> int | None:
    query = args[1] if len(args) > 1 else kwargs.get("q")
    return getattr(query, "M", None)


def _exact_before(local, args, kwargs) -> dict:
    local.fallback = True  # cleared below unless exact_tail raises
    return {"M": _query_m(args, kwargs)}


def _exact_after(local, result) -> dict:
    local.fallback = False
    return {"method": str(result.method)}


def _estimate_before(local, args, kwargs) -> dict:
    # in an auto sweep, estimate_tail runs only after exact_tail raised
    fallback, local.fallback = getattr(local, "fallback", False), False
    return {"M": _query_m(args, kwargs), "fallback": fallback}


@contextmanager
def patched(tracer: Tracer):
    """Install span wrappers at the layer boundaries; restore on exit."""
    from exchbound import cli, montecarlo, oracle, sampler

    # (module, name, layer, before, after, parent of pool-thread spans)
    table = [
        (cli, "run_sweep", "montecarlo", None, None, True),
        (cli, "write_report", "reporting", None, None, False),
        (montecarlo, "tail_bound_report", "bounds", None, None, False),
        (montecarlo, "exact_tail", "oracle", _exact_before, _exact_after, False),
        (montecarlo, "estimate_tail", "montecarlo", _estimate_before, None, False),
        (montecarlo, "sample_mean_histogram", "montecarlo", None, None, False),
        (montecarlo, "summarize", "model", None, None, False),
        (montecarlo, "flip_model", "model", None, None, False),
        (montecarlo, "derive_stream", "sampler", None, None, False),
        (oracle, "summarize", "model", None, None, False),
        (oracle, "flip_model", "model", None, None, False),
        (sampler, "derive_stream", "sampler", None, None, False),
        (sampler, "sample_sequence", "sampler", None, None, False),
    ]
    for module, attr, *_ in table:
        if not hasattr(module, attr):
            raise LookupError(f"{module.__name__}.{attr} is gone; update the boundaries "
                              "in perfbench/tracing.py")
    saved = []
    for module, attr, layer, before, after, pool in table:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(original, attr, layer, before, after, pool))
    try:
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def check_crossings(tracer: Tracer, expected: dict) -> None:
    """Raise unless each boundary was crossed as often as the pass's outputs say.

    ``expected`` maps a span name to its count (None: at least once): one
    ``tail_bound_report`` per verify cell, one ``exact_tail`` answer per
    exact row, and so on.  Cell calls count only under a ``run_sweep``
    span, where the sweep metrics look for them.
    """
    sweeps = {s.id for s in tracer.spans if s.name == "run_sweep"}
    counts = defaultdict(int)
    for s in tracer.spans:
        if s.name in CELL_CALLS and s.parent not in sweeps:
            continue
        if not (s.name == "exact_tail" and "raised" in s.attrs):  # count answers only
            counts[s.name] += 1
    wrong = {name: (counts[name], n) for name, n in expected.items()
             if (counts[name] != n if n is not None else not counts[name])}
    if wrong:
        raise LookupError("boundaries crossed other than the outputs say, as "
                          f"name: (spans, expected): {wrong}; update perfbench/tracing.py")


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    return {
        s.id: (s.end_ns - s.start_ns - _covered_ns(
            [(max(a, s.start_ns), min(b, s.end_ns)) for a, b in children[s.id]]
        )) / 1e9
        for s in spans
    }


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99); 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_metrics(tracer: Tracer, threads: int) -> dict:
    """Counts and shares of the workload's traced pass.

    A share is a self time over the pass's wall time; with threads the
    shares can add up to more than 1.
    """
    spans = tracer.spans
    own = self_times(spans)
    wall = sum(s.seconds for s in spans if s.parent is None)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"share.{layer}"] = sum(own[s.id] for s in spans if s.layer == layer) / wall

    exact = by_name["exact_tail"]
    raised = [s for s in exact if "raised" in s.attrs]
    for method in ("binomial", "convolution", "quadrature"):
        m[f"calls.oracle.{method}"] = sum(s.attrs.get("method") == method for s in exact)
    m["calls.oracle.fallback"] = len(raised)
    m["calls.montecarlo.estimate_tail"] = len(by_name["estimate_tail"])
    m["calls.bounds.tail_bound_report"] = len(by_name["tail_bound_report"])
    m["calls.sampler.sample_sequence"] = len(by_name["sample_sequence"])
    m["oracle.exact_ratio"] = (len(exact) - len(raised)) / len(exact) if exact else 0.0

    fallback_s = sum(s.seconds for s in by_name["estimate_tail"] if s.attrs.get("fallback"))
    m["montecarlo.fallback_share"] = fallback_s / wall
    sweeps = by_name["run_sweep"]
    sweep_ids = {s.id for s in sweeps}
    sweep_s = sum(s.seconds for s in sweeps)
    # serial cell work: the cells' own CPU time, without time blocked on the
    # GIL or a lock, over the CPU time the sweep's threads could have had
    cell_cpu_s = sum(
        s.cpu_ns for s in spans if s.parent in sweep_ids and s.name in CELL_CALLS) / 1e9
    m["montecarlo.sweep_overhead_share"] = sum(own[s.id] for s in sweeps) / wall
    m["montecarlo.pool_efficiency"] = cell_cpu_s / (threads * sweep_s) if sweep_s else 0.0
    m["trace.spans"] = len(spans)
    return m


def case_metrics(tracer: Tracer) -> dict:
    """Oracle and bounds timings of the exact-sweep layer case."""
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
    m: dict[str, float] = {}
    answered = [s for s in by_name["exact_tail"] if "raised" not in s.attrs]
    for method in ("binomial", "convolution", "quadrature"):
        secs = [s.seconds for s in answered if s.attrs.get("method") == method]
        m[f"oracle.{method}.total_s"] = sum(secs)
        m[f"oracle.{method}.p50_ms"] = percentile(secs, 50) * 1e3
        m[f"oracle.{method}.max_ms"] = max(secs, default=0.0) * 1e3
    for M in M_GRID:
        m[f"oracle.convolution.M{M}.total_s"] = sum(
            s.seconds for s in answered
            if s.attrs.get("method") == "convolution" and s.attrs.get("M") == M
        )
    m["oracle.fallback.raise_ms"] = sum(
        s.seconds for s in by_name["exact_tail"] if "raised" in s.attrs) * 1e3
    bounds = [s.seconds for s in by_name["tail_bound_report"]]
    m["bounds.tail_bound_report.p50_us"] = percentile(bounds, 50) * 1e6
    m["bounds.tail_bound_report.p99_us"] = percentile(bounds, 99) * 1e6
    m["bounds.tail_bound_report.total_s"] = sum(bounds)
    return m
