"""Acceptance gate: one test per acceptance criterion.

Each test prints a single ``[ACCEPTANCE] criterion N (...): PASS|FAIL``
line (visible with ``pytest -s`` or on failure) and enforces the stated
tolerances and runtime budgets.  All randomness is pinned to fixed
master seeds, so every check here is exactly reproducible.
"""

import itertools
import math
import re
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from exchbound import (
    Bernoulli,
    Beta,
    DiscreteOnUnit,
    FiniteMixture,
    PointMass,
    SeedSpec,
    Side,
    TailQuery,
    big_g,
    big_h,
    chernoff_curve,
    estimate_tail,
    exact_sum_tail,
    exact_tail,
    flip_model,
    hoeffding_tail_bound,
    joint_law,
    kl_form_bound,
    little_g,
    optimal_h,
    run_sweep,
    sample_sequence,
    standard_suite,
    suite_model,
    summarize,
    tail_bound_report,
)
from exchbound.cli import main as cli_main

MASTER_SEED = 20260801

M_GRID = (1, 2, 5, 10, 50, 200)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({label}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {number} ({label}): PASS")


def windowed_sweep(method: str, replications: int):
    """Suite x M_GRID x 10-per-window t values x both sides."""
    return run_sweep(
        models=list(standard_suite()),
        M_grid=list(M_GRID),
        t_grid=10,
        sides=[Side.UPPER, Side.LOWER],
        replications=replications,
        master_seed=MASTER_SEED,
        method=method,
    ).rows


def test_criterion_1_bound_validity():
    with criterion(1, "bound validity over the standard suite"):
        start = time.time()

        exact_rows = windowed_sweep("auto", replications=100_000)
        assert len(exact_rows) == 5 * len(M_GRID) * 10 * 2
        exact_cells = [r for r in exact_rows if not r.method.startswith("error")
                       and r.method != "montecarlo"]
        assert exact_cells, "oracle paths must cover most of the suite"
        assert not any(r.method == "montecarlo" for r in exact_rows), "every suite cell is exact"
        for row in exact_cells:
            if row.valid:
                assert row.value <= row.hoeffding, row
                if row.kl_form is not None:
                    assert row.value <= row.kl_form, row
        assert not any(r.violation for r in exact_rows)

        mc_rows = windowed_sweep("montecarlo", replications=100_000)
        for row in mc_rows:
            assert row.method == "montecarlo"
            if row.valid:
                assert row.ci_low <= row.hoeffding, row
        assert not any(r.violation for r in mc_rows)

        elapsed = time.time() - start
        assert elapsed <= 60.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_proof_internal_chain():
    with criterion(2, "optimizer equality, envelope chain, profile minima"):
        start = time.time()

        mus = np.linspace(0.05, 0.95, 20)
        for mu in mus:
            mu = float(mu)
            for frac in np.linspace(0.05, 0.95, 20):
                t = float(frac) * (1.0 - mu)
                h0 = optimal_h(mu, t)
                kl = kl_form_bound(mu, t, 1)
                assert abs(chernoff_curve(mu, t, 1, h0) - kl) <= 1e-12
                assert kl <= hoeffding_tail_bound(1, t) + 1e-15

        for mu in mus:
            mu = float(mu)
            t_max = 1.0 - mu
            ts = np.linspace(t_max * 1e-3, t_max * (1.0 - 1e-3), 1000)
            grid_min = min(big_g(float(t), mu) for t in ts)
            assert grid_min >= little_g(mu) - 1e-9

        for mu in np.linspace(0.001, 0.999, 999):
            assert little_g(float(mu)) >= 2.0 - 1e-12
        assert abs(little_g(0.5) - 2.0) <= 1e-12

        hs = [big_h(float(x)) for x in np.linspace(0.001, 0.999, 1000)]
        assert all(b > a for a, b in zip(hs, hs[1:]))

        elapsed = time.time() - start
        assert elapsed <= 5.0, f"criterion 2 took {elapsed:.1f}s"


def test_criterion_3_oracle_monte_carlo_agreement():
    with criterion(3, "10^6-replication estimate recovers the exact tail"):
        start = time.time()
        m = suite_model("two_atom")
        q = TailQuery(M=2, t=0.15, side=Side.UPPER)
        exact = exact_tail(m, q).probability
        assert abs(exact - 0.34) <= 1e-12  # binomial enumeration value
        est = estimate_tail(m, q, replications=1_000_000, master_seed=MASTER_SEED)
        assert abs(est.p_hat - exact) <= 0.002  # 4 sigma at 10^6
        elapsed = time.time() - start
        assert elapsed <= 10.0, f"criterion 3 took {elapsed:.1f}s"


def test_criterion_4_iid_recovery():
    with criterion(4, "single atoms recover the classical i.i.d. setting"):
        singles = [
            FiniteMixture([(1.0, Bernoulli(0.3))]),
            FiniteMixture([(1.0, Bernoulli(0.5))]),
            FiniteMixture([(1.0, PointMass(0.7))]),
            FiniteMixture([(1.0, DiscreteOnUnit([0.2, 0.4, 0.9], [0.3, 0.4, 0.3]))]),
            FiniteMixture([(1.0, Beta(2.0, 2.0))]),
        ]
        for m in singles:
            s = summarize(m)
            mu = s.mu
            assert s.mu_plus == s.mu_minus == mu
            assert s.t_max_upper == 1.0 - mu
            assert s.t_max_lower == mu
            # validity flag matches the classical window 0 < t < 1 - mu
            for t in (0.05, 0.2, 0.5, 0.9):
                report = tail_bound_report(mu, 10, t)
                assert report.in_validity_range == (t < 1.0 - mu)
                assert report.hoeffding_form == hoeffding_tail_bound(10, t)
            # inside the window the classical bound holds exactly
            if not any(isinstance(c, Beta) for c in m.components):
                for M in (1, 5, 20):
                    for frac in (0.25, 0.5, 0.75):
                        t = frac * (1.0 - mu)
                        if t <= 0:
                            continue
                        tail = exact_tail(m, TailQuery(M=M, t=t, side=Side.UPPER))
                        assert tail.probability <= hoeffding_tail_bound(M, t)


def test_criterion_5_non_concentration_around_distribution_mean():
    with criterion(5, "mass stays away from the distribution mean"):
        m = suite_model("zero_one")
        s = summarize(m)
        assert (s.mu_plus, s.mu_minus, s.mu) == (1.0, 0.0, 0.5)

        # P(|Xbar - 0.5| >= 0.4) = 1 exactly for every M: both halves are 0.5
        for M in (1, 2, 5, 10, 50):
            upper = exact_sum_tail(m, M, Fraction(M) * Fraction(9, 10), Side.UPPER)
            lower = exact_sum_tail(m, M, Fraction(M) * Fraction(1, 10), Side.LOWER)
            assert upper.probability == 0.5
            assert lower.probability == 0.5
            assert upper.probability + lower.probability == 1.0

        # no (side, t) with t > 0 lies inside a validity window
        assert s.t_max_upper == 0.0 and s.t_max_lower == 0.0
        for t in (1e-9, 0.1, 0.5, 0.999):
            for side, mu_eff in ((Side.UPPER, s.mu_plus), (Side.LOWER, 1.0 - s.mu_minus)):
                assert not tail_bound_report(mu_eff, 5, t).in_validity_range

        # and Xbar never leaves [mu_minus, mu_plus]: no mass beyond either end
        for M in (1, 3, 10):
            above = exact_sum_tail(m, M, Fraction(M) + Fraction(1, 10**9), Side.UPPER)
            below = exact_sum_tail(m, M, Fraction(-1, 10**9), Side.LOWER)
            assert above.probability == 0.0
            assert below.probability == 0.0
        for i in range(100):
            batch = sample_sequence(m, 8, SeedSpec(MASTER_SEED, i))
            assert s.mu_minus <= batch.sample_mean <= s.mu_plus


def test_criterion_6_flip_duality():
    with criterion(6, "lower tails equal flipped upper tails; flip is involutive"):
        for model_id, m in standard_suite():
            assert flip_model(flip_model(m)) == m
            for M in (1, 2, 5, 10):
                for frac in (0.3, 0.7):
                    t = frac * max(summarize(m).t_max_lower, 0.1)
                    if t <= 0:
                        continue
                    q_lower = TailQuery(M=M, t=t, side=Side.LOWER)
                    q_upper = TailQuery(M=M, t=t, side=Side.UPPER)
                    lower = exact_tail(m, q_lower)
                    upper = exact_tail(flip_model(m), q_upper)
                    assert lower.probability == upper.probability  # bit-exact


def test_criterion_7_sampler_exchangeability():
    with criterion(7, "empirical k=3 joint matches the exact law"):
        reps = 100_000
        for model_id in ("two_atom", "three_atom_discrete"):
            m = suite_model(model_id)
            law = joint_law(m, 3)
            table = {tuple(float(x) for x in v): p
                     for v, p in zip(law.support, law.probabilities)}

            counts: dict[tuple, int] = {}
            for i in range(reps):
                batch = sample_sequence(m, 3, SeedSpec(MASTER_SEED + 7, i))
                key = tuple(float(x) for x in batch.values)
                counts[key] = counts.get(key, 0) + 1

            assert set(counts) <= set(table)
            for values, p in table.items():
                p_hat = counts.get(values, 0) / reps
                se = math.sqrt(p * (1.0 - p) / reps)
                assert abs(p_hat - p) <= 4.0 * se + 1e-12, (model_id, values, p, p_hat)

            # permuted coordinate orders of the same draws agree cell-wise
            for perm in itertools.permutations(range(3)):
                for values, n in counts.items():
                    permuted = tuple(values[j] for j in perm)
                    n_perm = counts.get(permuted, 0)
                    p = table[values]
                    se = math.sqrt(p * (1.0 - p) / reps)
                    assert abs(n - n_perm) / reps <= 4.0 * se + 1e-12


def test_criterion_8_report_determinism(tmp_path):
    with criterion(8, "verify runs are byte-identical modulo timestamp"):
        args = [
            "verify",
            "--m-grid", "2", "10",
            "--t-grid", "auto:3",
            "--reps", "10000",
            "--seed", str(MASTER_SEED),
        ]
        p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
        assert cli_main(args + ["--out", str(p1)]) == 0
        assert cli_main(args + ["--out", str(p2)]) == 0
        drop = lambda text: re.sub(r"^# timestamp: .*$", "# timestamp:", text, flags=re.M)
        text1, text2 = p1.read_text(), p2.read_text()
        assert drop(text1) == drop(text2)
        assert text1.count("\n") == text2.count("\n") > 60
