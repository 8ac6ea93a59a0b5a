"""Layer cases: fixed inputs, timed after the traced pass of every workload.

Every per-layer timing comes from these cases, so each one is measured
with the same inputs on every workload, including workloads that bypass
the layer.  The traced pass itself contributes counts and shares only.

* oracle and bounds: ``run_sweep(method="exact")`` over every verify cell,
  with spans around each ``exact_tail`` and ``tail_bound_report`` call;
  the 20 M=200 cells without an exact path raise, and are timed as
  ``oracle.fallback.raise_ms``;
* reporting: the rows of that sweep (600, as in a verify report) encoded,
  parsed and written;
* Monte Carlo: one upper tail of a single-kind model per component kind,
  so ``ns_per_rep`` is the per-replication cost of that kind's sampling
  path, and the tracemalloc peak is what one ``estimate_tail`` call
  allocates; histograms of the Beta+Bernoulli mixture;
* sampler and model: ``sample_sequence``, ``derive_stream``,
  ``summarize``, ``flip_model`` and ``joint_law`` on the three-atom model.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import reference
import tracing
from workloads import MIXTURE, REPLAY_M, REPLAY_MODEL, SUITE, T_AUTO_N


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _per_call_us(fn, args_list) -> list[float]:
    times = []
    for args in args_list:
        start = time.perf_counter_ns()
        fn(*args)
        times.append((time.perf_counter_ns() - start) / 1e3)
    return times


def _exact_sweep(m_grid, seed: int, work) -> dict:
    from exchbound import Side, __version__, run_sweep
    from exchbound.cli import model_from_obj
    from exchbound.reporting import Report, from_csv, from_json, to_csv, to_json, write_report

    tracer = tracing.Tracer("exact-sweep")
    rows = []
    with tracing.patched(tracer):
        for model_id, doc in SUITE:
            model = model_from_obj(doc)
            mu_plus, mu_minus = reference.anchors(doc)
            for side in (Side.UPPER, Side.LOWER):
                ts = reference.t_grid(mu_plus, mu_minus, side.value, T_AUTO_N)
                sweep = run_sweep([(model_id, model)], m_grid, ts, [side], 1, seed,
                                  method="exact", threads=1)
                rows.extend(sweep.rows)
    m = tracing.case_metrics(tracer)

    report = Report(rows=tuple(rows), master_seed=seed, replications=1, level=0.999,
                    tool_version=__version__, timestamp="1970-01-01T00:00:00+00:00")
    csv_text, json_text = to_csv(report), to_json(report)
    path = work / "case-report.csv"
    for name, call in (
        ("to_csv", lambda: to_csv(report)),
        ("to_json", lambda: to_json(report)),
        ("from_csv", lambda: from_csv(csv_text)),
        ("from_json", lambda: from_json(json_text)),
        ("write_report", lambda: write_report(report, str(path), "csv")),
    ):
        m[f"reporting.{name}.ms"] = statistics.median(_seconds(call) for _ in range(3)) * 1e3
    path.unlink()
    m["reporting.report_bytes"] = len(csv_text.encode())
    return m


def _kinds():
    from exchbound import (
        Bernoulli, BernoulliParamMixture, Beta, DiscreteOnUnit, FiniteMixture, PointMass,
        UniformDensity,
    )

    return {
        "bernoulli": FiniteMixture([(1.0, Bernoulli(0.3))]),
        "pointmass": FiniteMixture([(1.0, PointMass(0.5))]),
        "discrete": FiniteMixture([(1.0, DiscreteOnUnit(
            points=[0.0, 0.5, 1.0], weights=[0.2, 0.3, 0.5]))]),
        "param_uniform": BernoulliParamMixture(UniformDensity(lo=0.2, hi=0.8)),
        "beta": FiniteMixture([(1.0, Beta(2.0, 5.0))]),
    }


def _monte_carlo(reps: int, seed: int) -> dict:
    from exchbound import Side, TailQuery, estimate_tail, sample_mean_histogram, summarize
    from exchbound.cli import model_from_obj

    m = {}
    for kind, model in _kinds().items():
        t = 0.5 * summarize(model).t_max_upper
        for M in (10, 200):
            query = TailQuery(M=M, t=t, side=Side.UPPER)
            call = lambda: estimate_tail(model, query, reps, seed)  # noqa: E731
            # the median of three short calls; at M=200 one call takes about a second
            secs = statistics.median(_seconds(call) for _ in range(3 if M == 10 else 1))
            m[f"montecarlo.ns_per_rep.{kind}.M{M}"] = secs / reps * 1e9
            if M == 200 and kind in ("discrete", "beta"):
                tracemalloc.start()
                try:
                    call()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                m[f"montecarlo.peak_alloc_mb.{kind}.M200"] = peak / 2**20

    mixture = model_from_obj(MIXTURE[1])
    for M in (10, 200):
        secs = _seconds(lambda: sample_mean_histogram(mixture, M, reps, 100, seed))
        m[f"montecarlo.histogram.ns_per_rep.M{M}"] = secs / reps * 1e9
    return m


def _sampler_and_model(sequences: int, seed: int) -> dict:
    from exchbound import SeedSpec, derive_stream, flip_model, joint_law, sample_sequence, summarize
    from exchbound.cli import model_from_obj

    three = model_from_obj(dict(SUITE)[REPLAY_MODEL])
    seq = _per_call_us(sample_sequence, [(three, REPLAY_M, SeedSpec(seed, i))
                                         for i in range(sequences)])
    return {
        "sampler.sample_sequence.p50_us": statistics.median(seq),
        "sampler.sample_sequence.p99_us": tracing.percentile(seq, 99),
        "sampler.derive_stream.p50_us": statistics.median(
            _per_call_us(derive_stream, [(SeedSpec(seed, i),) for i in range(200)])),
        "model.summarize.p50_us": statistics.median(_per_call_us(summarize, [(three,)] * 200)),
        "model.flip_model.p50_us": statistics.median(_per_call_us(flip_model, [(three,)] * 200)),
        "model.joint_law.ms": statistics.median(
            _seconds(lambda: joint_law(three, REPLAY_M)) for _ in range(5)) * 1e3,
    }


def run(sizes, seed: int, work) -> dict:
    m = _exact_sweep(sizes.m_grid, seed, work)
    m.update(_monte_carlo(sizes.case_reps, seed))
    m.update(_sampler_and_model(sizes.case_sequences, seed))
    return m
