"""Output checks that hold for any seed.

Exact-path values must equal the exact reference within ``EXACT_TOL``.
A Monte Carlo estimate of p from n replications must lie within
``5*sqrt(p*(1-p)/n) + 1/n`` of the reference p; estimates are never
pinned bit for bit, so a change of random streams passes as long as the
estimates stay statistically consistent.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import Counter
from dataclasses import replace

import reference
from workloads import MIXTURE, REPLAY_MODEL, SUITE

EXACT_TOL = 1e-12
EXACT_METHODS = ("binomial", "convolution", "quadrature")


def mc_tolerance(p: float, n: int) -> float:
    return 5.0 * math.sqrt(p * (1.0 - p) / n) + 1.0 / n


def check_verify(report_path, stdout: str, rc: int, reps: int, m_grid) -> dict:
    """Check a verify report against the exact reference.

    Returns the problems found, cell counts and the report digest (rows
    only, so passes of one seed must agree).
    """
    from exchbound.reporting import from_csv, from_json, to_csv, to_json

    expected = {
        key: value for key, value in reference.load().items() if key[1] in m_grid
    }
    problems = []
    if rc != 0:
        problems.append(f"exchbound verify exited {rc}")
    if not report_path.exists():
        problems.append("exchbound verify wrote no report")
        return {"problems": problems, "cells": len(expected), "failed": len(expected),
                "exact": 0, "digest": ""}
    report = from_csv(report_path.read_text())
    again = from_json(to_json(report))
    if again.rows != report.rows or from_csv(to_csv(again)).rows != report.rows:
        problems.append("CSV and JSON encodings do not round-trip to identical rows")

    summary = f"cells={len(expected)} violations=0"
    if summary not in stdout:
        problems.append(f"summary line lacks {summary!r}: {stdout.strip()[-200:]!r}")
    failed = exact = 0
    seen = set()
    for row in report.rows:
        key = (row.model_id, row.M, row.side, row.t)
        where = f"{row.model_id} M={row.M} {row.side} t={row.t!r}"
        if key not in expected:
            problems.append(f"{where}: no such cell in the reference")
            continue
        seen.add(key)
        p, valid = expected[key]
        if row.method.startswith("error:"):
            failed += 1
            problems.append(f"{where}: {row.method}")
            continue
        if row.violation:
            problems.append(f"{where}: reported as a violation")
        if row.valid != valid:
            problems.append(f"{where}: valid={row.valid}, expected {valid}")
        if not math.isclose(row.hoeffding, math.exp(-2.0 * row.M * row.t * row.t),
                            rel_tol=EXACT_TOL):
            problems.append(f"{where}: hoeffding {row.hoeffding!r} is not exp(-2Mt^2)")
        if row.method in EXACT_METHODS:
            exact += 1
            if abs(row.value - p) > EXACT_TOL:
                problems.append(f"{where}: {row.method} value {row.value!r}, exact {p!r}")
        elif row.method == "montecarlo":
            if abs(row.value - p) > mc_tolerance(p, reps):
                problems.append(f"{where}: p_hat {row.value!r} too far from exact {p!r}")
            if not row.ci_low <= row.value <= row.ci_high:
                problems.append(f"{where}: p_hat outside its own interval")
        else:
            problems.append(f"{where}: unknown method {row.method!r}")
    if len(report.rows) != len(expected) or seen != set(expected):
        problems.append(f"{len(report.rows)} rows for {len(expected)} expected cells")

    digest = hashlib.sha256(to_csv(replace(report, timestamp="")).encode()).hexdigest()
    return {
        "problems": problems, "cells": len(report.rows), "failed": failed, "exact": exact,
        "digest": digest,
    }


def _doc(model_id: str) -> dict:
    return dict(SUITE + (MIXTURE,))[model_id]


def _pmf(component: dict) -> dict:
    kind = component["kind"]
    if kind == "bernoulli":
        return {0.0: 1.0 - component["p"], 1.0: component["p"]}
    if kind == "pointmass":
        return {float(component["c"]): 1.0}
    if kind == "discrete":
        return dict(zip(component["points"], component["weights"]))
    raise ValueError(f"no pmf for component kind {kind!r}")


def exact_joint_law(model_id: str, k: int) -> dict:
    """p(x_1..x_k) = sum_i w_i prod_j q_i(x_j), straight from the model file."""
    atoms = [(a["weight"], _pmf(a["component"])) for a in _doc(model_id)["atoms"]]
    alphabet = sorted({x for _, pmf in atoms for x in pmf})
    return {
        xs: math.fsum(w * math.prod(pmf.get(x, 0.0) for x in xs) for w, pmf in atoms)
        for xs in itertools.product(alphabet, repeat=k)
    }


def _mean_and_sd(model_id: str, M: int) -> tuple[float, float]:
    """Exact mean and standard deviation of the sample mean of M draws."""
    first = second = 0.0
    for atom in _doc(model_id)["atoms"]:
        c, w = atom["component"], atom["weight"]
        if c["kind"] == "beta":
            a, b = c["alpha"], c["beta"]
            mean, var = a / (a + b), a * b / ((a + b) ** 2 * (a + b + 1))
        elif c["kind"] == "bernoulli":
            mean, var = c["p"], c["p"] * (1 - c["p"])
        else:
            raise ValueError(f"no moments for component kind {c['kind']!r}")
        first += w * mean
        second += w * (mean * mean + var / M)
    return first, math.sqrt(max(0.0, second - first * first))


def check_replay(counts: Counter, sequences: int, k: int, law_from_library, hists: dict,
                 hist_reps: dict) -> dict:
    """Check replayed sequences against the exact joint law, and the
    histograms' totals and means against the exact mixture mean."""
    problems = []
    law = exact_joint_law(REPLAY_MODEL, k)
    library = dict(zip(law_from_library.support, law_from_library.probabilities))
    if set(library) != set(law) or any(abs(library[x] - p) > EXACT_TOL for x, p in law.items()):
        problems.append("joint_law differs from the exact joint law")
    for xs in set(counts) - set(law):
        problems.append(f"sequence {xs} lies outside the support")
    for xs, p in law.items():
        freq = counts.get(xs, 0) / sequences
        if (p == 0.0 and freq > 0.0) or abs(freq - p) > mc_tolerance(p, sequences):
            problems.append(f"sequence {xs}: frequency {freq!r}, exact {p!r}")
    if sum(counts.values()) != sequences:
        problems.append(f"{sum(counts.values())} of {sequences} sequences drawn")

    for M, reps in hist_reps.items():
        hist = hists.get(M)
        if hist is None:
            problems.append(f"histogram M={M} raised")
            continue
        if sum(hist.counts) != reps:
            problems.append(f"histogram M={M}: total {sum(hist.counts)}, expected {reps}")
            continue
        edges = hist.bin_edges
        mean = math.fsum(
            c * 0.5 * (edges[i] + edges[i + 1]) for i, c in enumerate(hist.counts)
        ) / reps
        mu, sd = _mean_and_sd(MIXTURE[0], M)
        half_bin = 0.5 * max(b - a for a, b in zip(edges, edges[1:]))
        if abs(mean - mu) > 5.0 * sd / math.sqrt(reps) + half_bin:
            problems.append(f"histogram M={M}: mean {mean!r}, exact {mu!r}")

    digest = hashlib.sha256(repr((
        sorted(counts.items()), [hists[M].counts for M in sorted(hists)]
    )).encode()).hexdigest()
    return {"problems": problems, "digest": digest}
