"""Estimator correctness, determinism, histograms, and sweeps."""

import hashlib
import json
import math
import re
import statistics
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from itertools import accumulate, groupby

from fractions import Fraction

import numpy as np
import pytest
from scipy import special, stats

from exchbound import (
    Bernoulli,
    Beta,
    BernoulliParamMixture,
    DiscreteOnUnit,
    DomainError,
    EmptyGrid,
    ExchboundError,
    FiniteMixture,
    InvalidT,
    MTooLarge,
    PointMass,
    SeedSpec,
    Side,
    TailQuery,
    TruncatedBetaDensity,
    UniformDensity,
    clopper_pearson_interval,
    estimate_tail,
    exact_sum_tail,
    exact_tail,
    flip_model,
    run_sweep,
    sample_mean_histogram,
    sample_sequence,
    standard_suite,
    suite_model,
    summarize,
    tail_bound_report,
)
from exchbound import montecarlo, oracle
from exchbound.bounds import side_anchor
from exchbound.montecarlo import _block_stream, window_t_grid
from exchbound.oracle import _beta_binomial_terms, lattice_points
from exchbound.reporting import HistogramReport, Report, to_json
from exchbound.sampler import derive_stream, mix64

TWO_ATOM = FiniteMixture([(0.5, Bernoulli(0.2)), (0.5, Bernoulli(0.8))])
ZERO_ONE = FiniteMixture([(0.5, PointMass(0.0)), (0.5, PointMass(1.0))])


# a Beta atom, a lattice model and a parameter mixture: at 2,000 replications
# the mixture's law is counted at M = 10 (125 batches per sum) and drawn batch
# by batch at M = 500, and the Beta atom's is drawn batch by batch at both
MIXED = [
    ("beta_bern", FiniteMixture([(0.6, Beta(2.0, 5.0)), (0.4, Bernoulli(0.7))])),
    ("two_atom", TWO_ATOM),
    ("param", BernoulliParamMixture(UniformDensity(0.2, 0.8))),
]
MIXED_ARGS = (MIXED, [10, 500], [0.05, 0.2], [Side.UPPER, Side.LOWER], 2_000, 151)
DEFAULT_ARGS = (list(standard_suite()), [1, 2, 5, 10, 50, 200], 10, [Side.UPPER, Side.LOWER],
                100_000, 0)


@contextmanager
def fast_switching():
    """Threads switch every microsecond, so interleavings a sweep allows happen."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def same_position(*gens):
    """Whether generators of one stream have all consumed the same draws."""
    first, *rest = (g.bit_generator.random_raw(8) for g in gens)
    return all(np.array_equal(first, other) for other in rest)


def counted_binomial(gen, n, M, p):
    """Counts of n Binomial(M, p) sums over 0..M: one multinomial, drawn in
    ascending order of mass."""
    pmf = montecarlo._binomial_pmf(M, p)
    order = np.argsort(pmf, kind="stable")
    ascending = pmf[order]
    counts = np.empty(M + 1, dtype=np.int64)
    counts[order] = gen.multinomial(n, ascending / ascending.sum())
    return counts


def counted_multinomial(gen, n, M, weights):
    """{count vector: batches} of n Multinomial(M, weights) draws, placed from
    the last point down: a group of r batches with r > left draws its counts
    as one multinomial (counted_binomial), row by row; then every batch of a
    group with r <= left draws one binomial, all in one call."""
    w = np.asarray(weights, dtype=np.float64)
    below = np.cumsum(w)
    groups = [((), n, M)]  # (counts placed, from the last point down; batches; left)
    for j in range(len(w) - 1, 0, -1):
        if w[j] == 0:  # a point of zero weight draws nothing
            groups = [(placed + (0,), r, left) for placed, r, left in groups]
            continue
        q = float(w[j] / below[j])
        split, raw = [], []
        for placed, r, left in groups:
            if r <= left:
                raw.extend(range(len(split), len(split) + r))
                split.extend([(placed, 1, left)] * r)
            elif left == 0:
                split.append((placed + (0,), r, left))
            else:
                counts = counted_binomial(gen, r, left, q)
                split.extend(
                    (placed + (v,), int(counts[v]), left - v)
                    for v in np.flatnonzero(counts).tolist()
                )
        drawn = gen.binomial([split[i][2] for i in raw], q) if raw else []
        for i, v in zip(raw, np.asarray(drawn).tolist()):
            placed, _, left = split[i]
            split[i] = (placed + (v,), 1, left - v)
        groups = split
    law = {}
    for placed, r, left in groups:
        vector = (left, *reversed(placed))
        law[vector] = law.get(vector, 0) + r
    return law


def lattice_counts(law, ints):
    """Ascending distinct sums of a {count vector: batches} law, and their batches."""
    totals = {}
    for vector, r in law.items():
        key = sum(c * z for c, z in zip(vector, ints))
        totals[key] = totals.get(key, 0) + r
    keys = sorted(totals)
    return np.array(keys), np.array([totals[k] for k in keys])


def exact_lattice_pmf(weights, ints, M):
    """{sum key: mass} of M draws, the multinomial terms pushed onto the sums, in
    Fractions of the float weights."""
    w = [Fraction(x) for x in weights]
    w = [x / sum(w) for x in w]
    pmf = {}

    def place(j, left, coefficient, mass, key):
        if j == len(w) - 1:
            term = coefficient * mass * w[j] ** left
            pmf[key + left * ints[j]] = pmf.get(key + left * ints[j], 0) + term
            return
        for c in range(left + 1):
            place(j + 1, left - c, coefficient * math.comb(left, c), mass * w[j] ** c,
                  key + c * ints[j])

    place(0, M, 1, Fraction(1), 0)
    return {k: v for k, v in pmf.items() if v > 0}


def exact_param_pmf(a, b, lo, hi, M):
    """{S: mass} of S ~ Binomial(M, p), p of density proportional to
    p^(a-1) (1-p)^(b-1) on [lo, hi], integer a and b, in Fractions of the floats.

    The mass of S = j is C(M, j) times the integral of the polynomial
    p^(j+a-1) (1-p)^(M-j+b-1) over [lo, hi], which for integer exponents is
    B(j+a, M-j+b) (T_hi(j+a) - T_lo(j+a)), T_x(i) = P(Binomial(n, x) >= i)
    with n = M + a + b - 1, B(r, s) = (r-1)! (s-1)! / (r+s-1)!; then normalized.
    """
    n = M + a + b - 1

    def at_least(x):
        x = Fraction(x)
        terms = [math.comb(n, i) * x**i * (1 - x) ** (n - i) for i in range(n + 1)]
        return list(accumulate(reversed(terms)))[::-1] + [Fraction(0)]

    t_lo, t_hi = at_least(lo), at_least(hi)
    w = [
        math.comb(M, j) * Fraction(math.factorial(j + a - 1) * math.factorial(M - j + b - 1),
                                   math.factorial(n))
        * (t_hi[j + a] - t_lo[j + a])
        for j in range(M + 1)
    ]
    total = sum(w)
    return {j: x / total for j, x in enumerate(w)}


def chi_square_fits(drawn, pmf, reps):
    """Whether drawn {sum: count} fits the pmf at 0.001: sums pooled in order
    until each cell expects at least 5."""
    expected, observed = [0.0], [0]
    for key in sorted(pmf):
        if expected[-1] >= 5:
            expected.append(0.0)
            observed.append(0)
        expected[-1] += float(reps * pmf[key])
        observed[-1] += drawn.get(key, 0)
    if expected[-1] < 5:  # fold a short last cell into the one before
        short_e, short_o = expected.pop(), observed.pop()
        expected[-1] += short_e
        observed[-1] += short_o
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    return sum(observed) == reps and chi2 < stats.chi2.ppf(0.999, df=len(expected) - 1)


class TestClopperPearsonInterval:
    def test_contains_point_estimate(self):
        for k, n in [(0, 100), (1, 100), (50, 100), (100, 100), (3, 7)]:
            lo, hi = clopper_pearson_interval(k, n, 0.999)
            assert lo <= k / n <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_endpoints_in_closed_form(self):
        # k = 0: [0, 1 - (alpha/2)^(1/n)]; k = n: [(alpha/2)^(1/n), 1]
        n = 1000
        assert clopper_pearson_interval(0, n, 0.999) == (0.0, pytest.approx(1 - 0.0005 ** (1 / n), abs=1e-15))
        assert clopper_pearson_interval(n, n, 0.999) == (pytest.approx(0.0005 ** (1 / n), abs=1e-15), 1.0)

    def test_limits_invert_the_binomial_tails(self):
        k, n, level = 37, 250, 0.95
        lo, hi = clopper_pearson_interval(k, n, level)
        assert stats.binom.sf(k - 1, n, lo) == pytest.approx(0.025, rel=1e-9)  # P(Bin >= k) at lo
        assert stats.binom.cdf(k, n, hi) == pytest.approx(0.025, rel=1e-9)  # P(Bin <= k) at hi

    def test_narrower_at_lower_level(self):
        lo99, hi99 = clopper_pearson_interval(40, 100, 0.99)
        lo90, hi90 = clopper_pearson_interval(40, 100, 0.90)
        assert lo99 < lo90 and hi90 < hi99

    def test_validation(self):
        with pytest.raises(DomainError):
            clopper_pearson_interval(5, 0)
        with pytest.raises(DomainError):
            clopper_pearson_interval(11, 10)
        with pytest.raises(DomainError):
            clopper_pearson_interval(1, 10, level=1.0)

    @pytest.mark.parametrize("k,n", [(0, 100), (3, 7), (37, 250), (100, 100), (15_857, 10**5)])
    def test_numpy_and_python_int_counts_give_identical_limits(self, k, n):
        # the limits are memoized by (k, n, level): whichever type fills the
        # entry, both read the same floats
        for first, second in ((np.int64, int), (int, np.int64)):
            montecarlo._clopper_pearson.cache_clear()
            a = clopper_pearson_interval(first(k), first(n), 0.999)
            b = clopper_pearson_interval(second(k), second(n), np.float64(0.999))
            assert a == b and all(type(x) is float for x in a + b)

    @pytest.mark.parametrize("level", [[0.5], "0.5", math.nan, 1.5, 0.0, None], ids=repr)
    def test_a_level_that_is_no_real_in_0_1_is_refused_before_the_memo(self, level):
        montecarlo._clopper_pearson.cache_clear()
        with pytest.raises(DomainError, match=r"level must lie in \(0,1\), got"):
            clopper_pearson_interval(1, 10, level)
        assert montecarlo._clopper_pearson.cache_info().currsize == 0

    @pytest.mark.parametrize("k,n", [(2.5, 10), (1, 10.0), (-1, 10), (11, 10), (0, 0)])
    def test_counts_follow_the_integer_rule(self, k, n):
        with pytest.raises(DomainError):
            clopper_pearson_interval(k, n)

    def test_the_memo_is_bounded(self):
        maxsize = montecarlo._clopper_pearson.cache_info().maxsize
        assert isinstance(maxsize, int) and 0 < maxsize <= 1 << 12

    @pytest.mark.parametrize("n", [10**4, 10**5])
    def test_false_alarm_rate_is_nominal_at_every_p(self, n):
        # a cell whose true tail p sits at its bound is flagged when the lower
        # limit passes p; that must happen with probability <= (1 - level)/2
        for p in np.geomspace(1e-6, 0.5, 400).tolist():
            lo, hi = 0, n  # the smallest count that flags lies in (lo, hi]
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if clopper_pearson_interval(mid, n, 0.999)[0] > p:
                    hi = mid
                else:
                    lo = mid
            assert clopper_pearson_interval(hi, n, 0.999)[0] > p
            assert special.betainc(hi, n - hi + 1, p) <= 5e-4 * (1 + 1e-9), p  # P(Bin(n, p) >= hi)


class TestEstimateTail:
    def test_impossible_event_estimates_zero(self):
        q = TailQuery(M=10, t=0.1, side=Side.UPPER)  # mu_plus = 1
        est = estimate_tail(ZERO_ONE, q, 10_000, master_seed=3)
        assert est.p_hat == 0.0
        assert est.exceed_count == 0
        assert est.ci_low == 0.0

    def test_two_atom_against_oracle(self):
        q = TailQuery(M=2, t=0.15, side=Side.UPPER)
        est = estimate_tail(TWO_ATOM, q, 100_000, master_seed=7)
        se = math.sqrt(0.34 * 0.66 / 100_000)
        assert abs(est.p_hat - 0.34) < 4.5 * se
        assert est.ci_low <= 0.34 <= est.ci_high

    @pytest.mark.parametrize(
        "engine",
        [lambda m, q: exact_tail(m, q).probability, lambda m, q: estimate_tail(m, q, 10_000, 3)],
        ids=["exact_tail", "estimate_tail"],
    )
    def test_a_fraction_t_is_the_query_of_its_float(self, engine):
        # 5 * (1/2 + 1/10) is 3 exactly, but 0.1 lies above 1/10, so S >= 4 at t = 0.1
        m = FiniteMixture([(1.0, Bernoulli(0.5))])
        q = TailQuery(5, Fraction(1, 10), Side.UPPER)
        assert type(q.t) is float and q.t == 0.1
        assert engine(m, q) == engine(m, TailQuery(5, 0.1, Side.UPPER))
        assert exact_tail(m, q).probability == 0.1875

    def test_iid_coin_against_oracle(self):
        m = FiniteMixture([(1.0, Bernoulli(0.5))])
        q = TailQuery(M=2, t=0.4, side=Side.UPPER)
        est = estimate_tail(m, q, 100_000, master_seed=11)
        se = math.sqrt(0.25 * 0.75 / 100_000)
        assert abs(est.p_hat - 0.25) < 4.5 * se

    def test_lower_side_against_oracle(self):
        q = TailQuery(M=3, t=0.1, side=Side.LOWER)
        exact = exact_tail(TWO_ATOM, q).probability
        est = estimate_tail(TWO_ATOM, q, 100_000, master_seed=13)
        se = math.sqrt(exact * (1 - exact) / 100_000)
        assert abs(est.p_hat - exact) < 4.5 * se

    def test_lower_side_counts_the_documented_event(self):
        # 5*(0.3 - 0.1) lies just below 1 in rationals, so the event is S = 0;
        # the float anchor 1.0 - 0.3 would count S <= 1, with P = 0.528
        m = suite_model("bern03")
        est = estimate_tail(m, TailQuery(M=5, t=0.1, side=Side.LOWER), 100_000, master_seed=23)
        p = 0.7**5
        assert abs(est.p_hat - p) < 5 * math.sqrt(p * (1 - p) / 100_000)

    def test_param_mixture_against_oracle(self):
        m = BernoulliParamMixture(UniformDensity(0.2, 0.8))
        q = TailQuery(M=10, t=0.1, side=Side.UPPER)
        exact = exact_tail(m, q).probability
        est = estimate_tail(m, q, 100_000, master_seed=17)
        se = math.sqrt(exact * (1 - exact) / 100_000)
        assert abs(est.p_hat - exact) < 4.5 * se

    def test_beta_component_runs(self):
        m = FiniteMixture([(0.5, Beta(2.0, 2.0)), (0.5, Bernoulli(0.9))])
        q = TailQuery(M=5, t=0.05, side=Side.UPPER)
        est = estimate_tail(m, q, 20_000, master_seed=19)
        assert 0.0 <= est.p_hat <= 1.0

    @pytest.mark.parametrize("t", [5e-18, 1e-300])
    @pytest.mark.parametrize("side", [Side.UPPER, Side.LOWER])
    def test_point_mass_decided_exactly(self, side, t):
        # 3*float(0.1) rounds up past 3*(0.1 + 5e-18); the exact sum 3*0.1
        # lies below that threshold, so no replication may count
        m = FiniteMixture([(1.0, PointMass(0.1))])
        q = TailQuery(M=3, t=t, side=side)
        assert exact_tail(m, q).probability == 0.0
        assert estimate_tail(m, q, 1_000, master_seed=29).exceed_count == 0

    @pytest.mark.parametrize("t", [5e-18, 1e-300])
    @pytest.mark.parametrize("side", [Side.UPPER, Side.LOWER])
    def test_discrete_atom_decided_exactly(self, side, t):
        # the sums are multiples of 0.1 (0.2 is exactly 2*0.1), and three
        # points in {0, 0.1, 0.2} whose exact sum is 3*0.1 add up in floats
        # to 0.30000000000000004, past 3*(0.1 + t).  Exactly, the event is
        # S >= 4*0.1 (upper) or S <= 2*0.1 (lower), the same event as at
        # t = 1/60, whose threshold 3.5*0.1 lies between two sums.
        m = FiniteMixture(
            [(1.0, DiscreteOnUnit(points=[0.0, 0.1, 0.2], weights=[0.25, 0.5, 0.25]))]
        )
        near = estimate_tail(m, TailQuery(M=3, t=t, side=side), 10_000, master_seed=37)
        between = estimate_tail(m, TailQuery(M=3, t=1 / 60, side=side), 10_000, master_seed=37)
        assert 0 < between.exceed_count < 10_000
        assert near.exceed_count == between.exceed_count

    def test_lattice_sums_past_int64_use_python_ints(self):
        # 0.1 has denominator 2^55, so 300 draws can pass 2^63 on the lattice
        D, ints = lattice_points((0.1, 0.2, 0.7))
        assert 300 * D > np.iinfo(np.int64).max
        counts = np.random.default_rng(3).multinomial(300, [0.2, 0.5, 0.3], size=2_000)
        sums = montecarlo._lattice_sums(counts, ints, 300 * D)
        assert sums.dtype == object
        assert sums.tolist() == [sum(c * z for c, z in zip(row, ints)) for row in counts.tolist()]

    def test_python_int_sums_match_int64_sums(self, monkeypatch):
        m = suite_model("three_atom_discrete")
        queries = [TailQuery(M=50, t=t, side=side) for t in (0.01, 0.05, 0.1)
                   for side in (Side.UPPER, Side.LOWER)]
        montecarlo._empirical_law.cache_clear()
        int64 = [estimate_tail(m, q, 70_000, master_seed=41) for q in queries]
        monkeypatch.setattr(montecarlo, "_INT64_MAX", 0)  # every lattice sum in Python ints
        montecarlo._empirical_law.cache_clear()
        assert [estimate_tail(m, q, 70_000, master_seed=41) for q in queries] == int64
        montecarlo._empirical_law.cache_clear()

    @pytest.mark.parametrize("side", [Side.UPPER, Side.LOWER])
    def test_threshold_beyond_float_range(self, side):
        # M*(mu_plus + t) overflows a float; the event is still decided
        q = TailQuery(M=2, t=1e308, side=side)
        assert exact_tail(TWO_ATOM, q).probability == 0.0
        assert estimate_tail(TWO_ATOM, q, 1_000, master_seed=31).exceed_count == 0

    def test_deterministic_and_exact_ratio(self):
        q = TailQuery(M=2, t=0.15, side=Side.UPPER)
        a = estimate_tail(TWO_ATOM, q, 70_001, master_seed=23)
        b = estimate_tail(TWO_ATOM, q, 70_001, master_seed=23)
        assert a == b
        assert a.p_hat == a.exceed_count / a.replications

    def test_matches_per_observation_sampler(self):
        # cross-validate the conditional-sum shortcut against batches
        # materialized one observation at a time
        M, reps = 3, 20_000
        q = TailQuery(M=M, t=0.1, side=Side.UPPER)
        exact = exact_tail(TWO_ATOM, q).probability
        threshold = M * (0.8 + 0.1)
        hits = sum(
            1
            for i in range(reps)
            if sample_sequence(TWO_ATOM, M, SeedSpec(29, i)).values.sum() >= threshold
        )
        direct = hits / reps
        est = estimate_tail(TWO_ATOM, q, reps, master_seed=29)
        se = math.sqrt(exact * (1 - exact) / reps)
        assert abs(direct - exact) < 4.5 * se
        assert abs(est.p_hat - exact) < 4.5 * se


class TestHistogram:
    def test_degenerate_model_extreme_bins(self):
        h = sample_mean_histogram(ZERO_ONE, M=100, replications=10_000, bins=10, master_seed=31)
        assert sum(h.counts) == 10_000
        assert sum(h.counts[1:-1]) == 0
        se = math.sqrt(0.25 / 10_000)
        assert abs(h.counts[0] / 10_000 - 0.5) < 4.5 * se
        assert abs(h.counts[-1] / 10_000 - 0.5) < 4.5 * se

    def test_iid_coin_concentrates(self):
        m = FiniteMixture([(1.0, Bernoulli(0.5))])
        h = sample_mean_histogram(m, M=10_000, replications=1_000, bins=50, master_seed=37)
        # mass inside [0.48, 0.52) lives in exactly two of the 0.02-wide bins
        inside = h.counts[24] + h.counts[25]
        assert inside >= 0.99 * 1_000

    def test_two_atom_bimodal_with_empty_middle(self):
        h = sample_mean_histogram(TWO_ATOM, M=10_000, replications=10_000, bins=10, master_seed=41)
        middle = sum(h.counts[4:6])  # [0.4, 0.6)
        assert middle <= 10  # <= 1e-3 fraction
        low = sum(h.counts[:4])
        high = sum(h.counts[6:])
        se = math.sqrt(0.25 / 10_000)
        assert abs(low / 10_000 - 0.5) < 4.5 * se
        assert abs(high / 10_000 - 0.5) < 4.5 * se

    def test_counts_conserved_and_deterministic(self):
        a = sample_mean_histogram(TWO_ATOM, M=7, replications=65_537, bins=13, master_seed=43)
        b = sample_mean_histogram(TWO_ATOM, M=7, replications=65_537, bins=13, master_seed=43)
        assert a == b
        assert sum(a.counts) == 65_537

    def test_validation(self):
        for bins in (1, montecarlo.HISTOGRAM_MAX_BINS + 1, 10**12):
            with pytest.raises(DomainError):
                sample_mean_histogram(TWO_ATOM, M=2, replications=10, bins=bins, master_seed=1)

    @pytest.mark.parametrize("M", [1, 10, 60])
    def test_beta_bernoulli_draws_bin_block_by_block(self, M):
        # reference: the draws of each 2^16-replication block binned as drawn,
        # the atoms' counts first, then each atom's sums in atom order
        m = FiniteMixture([(0.3, Beta(2.0, 5.0)), (0.7, Bernoulli(0.4))])
        reps, bins, seed = 70_000, 97, 43
        edges = np.linspace(0.0, 1.0, bins + 1)
        expected = np.zeros(bins, dtype=np.int64)
        w = np.array(m.weights)
        for block, start in enumerate(range(0, reps, montecarlo.BLOCK_SIZE)):
            n = min(montecarlo.BLOCK_SIZE, reps - start)
            gen = _block_stream(SeedSpec(seed, block))
            n_beta, n_bern = gen.multinomial(n, w / w.sum()).tolist()
            beta_sums = gen.beta(2.0, 5.0, size=(n_beta, M)).sum(axis=1)
            expected += np.histogram(np.clip(beta_sums / M, 0.0, 1.0), bins=edges)[0]
            assert n_bern > M  # so the Bernoulli sums are counted
            bern_counts = counted_binomial(gen, n_bern, M, 0.4)
            expected += np.histogram(np.arange(M + 1) / M, bins=edges, weights=bern_counts)[0]
        h = sample_mean_histogram(m, M, reps, bins, seed)
        assert h.counts == tuple(int(c) for c in expected)

    @pytest.mark.parametrize("M", [1, 7, 200, montecarlo.BETA_CHUNK + 1])
    def test_chunked_beta_sums_equal_the_one_shot_draw(self, M):
        # n is not a multiple of a chunk's rows (except at one row), so the
        # last chunk is short
        n = 2 * max(1, montecarlo.BETA_CHUNK // M) + 3
        m = FiniteMixture([(1.0, Beta(2.0, 5.0))])
        seed = SeedSpec(master_seed=47, replication_index=2)
        reference = derive_stream(seed)  # one atom: its count takes no draw
        expected = reference.beta(2.0, 5.0, size=(n, M)).sum(axis=1)
        sums = montecarlo._beta_sums(m.components[0], M, n, derive_stream(seed))
        assert np.array_equal(sums, expected)
        ((scale, sums, counts),) = montecarlo._block_sums(m, M, n, derive_stream(seed))
        assert scale is None
        want, want_counts = np.unique(expected, return_counts=True)
        assert np.array_equal(sums, want) and np.array_equal(counts, want_counts)

    def test_a_block_draws_the_atom_counts_first(self):
        # one multinomial gives each atom's share of the block, then each
        # atom's sums are drawn in atom order from the same stream, the
        # discrete atom's as a chain of counted binomials
        points, point_weights = (0.0, 0.5, 1.0), (0.2, 0.3, 0.5)
        m = FiniteMixture([
            (0.2, Bernoulli(0.3)),
            (0.5, DiscreteOnUnit(points=points, weights=point_weights)),
            (0.3, Beta(2.0, 5.0)),
        ])
        M, n, seed = 7, 1_000, SeedSpec(master_seed=59, replication_index=3)
        reference = derive_stream(seed)
        w, pw = np.array(m.weights), np.array(point_weights)
        n_bern, n_disc, n_beta = reference.multinomial(n, w / w.sum()).tolist()
        assert n_bern > M  # so the Bernoulli sums are counted
        bern_counts = counted_binomial(reference, n_bern, M, 0.3)
        assert n_disc > M  # so the discrete chain starts with a counted stage
        expected = [
            (1, np.flatnonzero(bern_counts), bern_counts[bern_counts > 0]),
            (2, *lattice_counts(counted_multinomial(reference, n_disc, M, pw), [0, 1, 2])),
        ]
        beta_sums = reference.beta(2.0, 5.0, size=(n_beta, M)).sum(axis=1)
        expected.append((None, *np.unique(beta_sums, return_counts=True)))
        gen = derive_stream(seed)
        drawn = list(montecarlo._block_sums(m, M, n, gen))
        assert [scale for scale, *_ in drawn] == [scale for scale, *_ in expected]
        for (_, sums, counts), (_, want, want_counts) in zip(drawn, expected):
            assert np.array_equal(sums, want) and np.array_equal(counts, want_counts)
        assert same_position(gen, reference)

    @pytest.mark.parametrize(
        "c", [PointMass(0.3), DiscreteOnUnit(points=[0.3], weights=[1.0])],
        ids=["point-mass", "one-point-discrete"],
    )
    @pytest.mark.parametrize("M,dtype", [(200, np.int64), (1_000, object)], ids=["int64", "object"])
    def test_a_one_point_atom_draws_nothing(self, c, M, dtype):
        # 0.3 has denominator 2^54, so M*D passes int64 between M = 200 and M = 1000
        D, (z,) = lattice_points((0.3,))
        assert D == 2**54 and (M * D <= np.iinfo(np.int64).max) == (dtype is np.int64)
        seed = SeedSpec(master_seed=61, replication_index=0)
        gen = derive_stream(seed)
        ((scale, keys, counts),) = montecarlo._block_sums(FiniteMixture([(1.0, c)]), M, 1_000, gen)
        assert scale == D and keys.dtype == dtype
        assert keys.tolist() == [M * z] and counts.tolist() == [1_000]
        assert same_position(gen, derive_stream(seed))

    def test_beta_past_the_row_limit_is_refused_before_any_draw(self, monkeypatch):
        drawn = []

        def draw_nothing(m, M, n, gen, masses):
            drawn.append(M)
            return iter(())

        monkeypatch.setattr(montecarlo, "_block_sums", draw_nothing)
        m = FiniteMixture([(0.5, Beta(2.0, 5.0)), (0.5, Bernoulli(0.7))])
        M = montecarlo.BETA_MAX_M + 1
        with pytest.raises(DomainError, match=f"M must be <= {montecarlo.BETA_MAX_M}"):
            sample_mean_histogram(m, M=M, replications=10, bins=4, master_seed=1)
        with pytest.raises(DomainError):
            estimate_tail(m, TailQuery(M=M, t=0.1, side=Side.LOWER), 10, 1)
        assert drawn == []
        # the limit itself is allowed (the stub draws nothing)
        sample_mean_histogram(m, M=M - 1, replications=10, bins=4, master_seed=1)
        assert drawn == [M - 1]

    def test_lattice_atoms_have_no_row_limit(self):
        h = sample_mean_histogram(TWO_ATOM, M=10**12, replications=100, bins=10, master_seed=1)
        assert sum(h.counts) == 100

    def test_beta_law_holds_about_one_chunk(self):
        # drawn in one piece, the 64 x 20,000 Beta variates alone take 10 MB
        m = FiniteMixture([(1.0, Beta(2.0, 5.0))])
        tracemalloc.start()
        try:
            montecarlo._empirical_law.__wrapped__(m, 20_000, 64, 53)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * montecarlo.BETA_CHUNK * 8


class TestCountedBinomial:
    """A Bernoulli atom with more batches than outcomes draws their counts as one multinomial."""

    def test_counted_law_fits_the_binomial_pmf(self):
        # chi-square of 40 blocks of 2^16 against the exact rational pmf, outcomes
        # pooled in order until each cell expects at least 5; accepted at 0.001
        M, p, reps = 50, 0.3, 40 * montecarlo.BLOCK_SIZE
        (table,) = montecarlo._empirical_law.__wrapped__(
            FiniteMixture([(1.0, Bernoulli(p))]), M, reps, 67
        )
        assert table.scale == 1
        drawn = dict(zip(table.keys.tolist(), (-np.diff(table.at_least)).tolist()))
        q = Fraction(p)
        expected, observed = [0.0], [0]
        for k in range(M + 1):
            if expected[-1] >= 5:
                expected.append(0.0)
                observed.append(0)
            expected[-1] += float(reps * math.comb(M, k) * q**k * (1 - q) ** (M - k))
            observed[-1] += drawn.get(k, 0)
        if expected[-1] < 5:  # fold a short last cell into the one before
            short_e, short_o = expected.pop(), observed.pop()
            expected[-1] += short_e
            observed[-1] += short_o
        assert sum(observed) == reps
        chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        assert chi2 < stats.chi2.ppf(0.999, df=len(expected) - 1)

    @pytest.mark.parametrize("M", [1, 200, 65535])
    @pytest.mark.parametrize("p", [0.25, 0.5])
    def test_pmf_is_within_1e_9_of_the_rational_pmf(self, p, M):
        # p = 1/d: the mass of k is C(M, k) (d-1)^(M-k) / d^M, in Python ints;
        # int / int rounds correctly however large both are
        d = round(1 / p)
        denominator = d**M
        term = (d - 1) ** M
        for k, mass in enumerate(montecarlo._binomial_pmf(M, p).tolist()):
            exact = term / denominator
            if exact > 1e-300:
                assert abs(mass - exact) <= 1e-9 * exact, k
            term = term * (M - k) // ((k + 1) * (d - 1))

    @pytest.mark.parametrize("n", [1, 200])
    def test_at_most_m_batches_draw_their_binomials(self, n):
        M, seed = 200, SeedSpec(master_seed=71, replication_index=1)
        reference = derive_stream(seed)
        expected = reference.binomial(M, 0.3, size=n)
        m = FiniteMixture([(1.0, Bernoulli(0.3))])
        gen, chain = derive_stream(seed), derive_stream(seed)
        _, weights = m.components[0].discrete_law()
        vectors, counts = montecarlo._counted_multinomial(chain, n, M, weights)
        assert counts.tolist() == [1] * n
        assert np.array_equal(vectors[:, 1], expected)
        ((scale, sums, counts),) = montecarlo._block_sums(m, M, n, gen)
        want, want_counts = np.unique(expected, return_counts=True)
        assert scale == 1 and np.array_equal(sums, want) and np.array_equal(counts, want_counts)
        assert same_position(gen, chain, reference)

    @pytest.mark.parametrize("p,key", [(0.0, 0), (1.0, 50)])
    def test_a_sure_outcome_takes_every_batch(self, p, key):
        gen = derive_stream(SeedSpec(master_seed=73, replication_index=0))
        m = FiniteMixture([(1.0, Bernoulli(p))])
        ((scale, keys, counts),) = montecarlo._block_sums(m, 50, 1_000, gen)
        assert scale == 1 and keys.tolist() == [key] and counts.tolist() == [1_000]

    @pytest.mark.parametrize("M,p", [(1, 0.3), (200, 0.3), (1_000, 1e-300), (65_535, 0.5)])
    def test_counts_fill_the_batches_on_outcomes_of_positive_mass(self, M, p):
        n = montecarlo.BLOCK_SIZE
        gen = _block_stream(SeedSpec(master_seed=79, replication_index=0))
        sums, counts = montecarlo._counted_draw(gen, n, montecarlo._binomial_pmf(M, p))
        assert int(counts.sum()) == n and (counts > 0).all()
        assert (np.diff(sums) > 0).all()
        assert (montecarlo._binomial_pmf(M, p)[sums] > 0).all()


class TestCountedMultinomial:
    """A lattice atom's share of a block is drawn stage by stage, one point per stage."""

    POINTS = {3: (0.0, 0.5, 1.0), 4: (0.0, 0.25, 0.5, 1.0)}

    def atom(self, weights, points=None):
        points = points or self.POINTS[len(weights)]
        return FiniteMixture([(1.0, DiscreteOnUnit(points=points, weights=weights))])

    @pytest.mark.parametrize("M", [10, 50])
    def test_chain_fits_the_lattice_pmf(self, M):
        # chi-square of 40 blocks of 2^16 against the exact rational pmf
        weights, reps = (0.2, 0.3, 0.5), 40 * montecarlo.BLOCK_SIZE
        (table,) = montecarlo._empirical_law.__wrapped__(self.atom(weights), M, reps, 83)
        assert table.scale == 2
        drawn = dict(zip(table.keys.tolist(), (-np.diff(table.at_least)).tolist()))
        assert chi_square_fits(drawn, exact_lattice_pmf(weights, (0, 1, 2), M), reps)

    @pytest.mark.parametrize(
        "weights", [(0.3, 0.0, 0.45, 0.25), (0.0, 0.3, 0.7, 0.0)], ids=["inner", "both-ends"]
    )
    def test_a_zero_weight_point_is_never_reached(self, weights):
        # keys are 4 times the sums; with no mass on 0.25 every key is even
        M, reps = 20, 10 * montecarlo.BLOCK_SIZE
        (table,) = montecarlo._empirical_law.__wrapped__(self.atom(weights), M, reps, 89)
        assert table.scale == 4
        drawn = dict(zip(table.keys.tolist(), (-np.diff(table.at_least)).tolist()))
        pmf = exact_lattice_pmf(weights, (0, 1, 2, 4), M)
        assert set(drawn) <= set(pmf)
        assert chi_square_fits(drawn, pmf, reps)

    @pytest.mark.parametrize(
        "M,weights",
        [(1, (0.2, 0.3, 0.5)), (40, (0.2, 0.3, 0.5)), (7, (0.3, 0.0, 0.45, 0.25)),
         (30, (0.0, 0.3, 0.7, 0.0)), (25, (0.0, 0.0, 1.0))],
    )
    def test_counts_fill_the_block_on_sums_of_positive_mass(self, M, weights):
        n = montecarlo.BLOCK_SIZE
        gen = _block_stream(SeedSpec(master_seed=97, replication_index=0))
        vectors, counts = montecarlo._counted_multinomial(gen, n, M, weights)
        assert int(counts.sum()) == n and (counts > 0).all()
        assert (vectors >= 0).all() and (vectors.sum(axis=1) == M).all()
        assert not vectors[:, np.array(weights) == 0].any()
        D, ints = lattice_points(self.POINTS[len(weights)])
        gen = _block_stream(SeedSpec(master_seed=97, replication_index=1))
        ((scale, keys, counts),) = montecarlo._block_sums(self.atom(weights), M, n, gen)
        assert scale == D and int(counts.sum()) == n and (counts > 0).all()
        assert (np.diff(keys) > 0).all()
        assert set(keys.tolist()) <= set(exact_lattice_pmf(weights, ints, M))

    @pytest.mark.parametrize("n", [1, 200])
    @pytest.mark.parametrize("weights", [(0.2, 0.3, 0.5), (0.3, 0.0, 0.45, 0.25)], ids=["3", "4"])
    def test_at_most_m_batches_draw_sequential_binomials(self, weights, n):
        # each batch draws n_j ~ Binomial(left, w_j / (w_1 + ... + w_j)), last point first
        M, seed = 200, SeedSpec(master_seed=101, replication_index=1)
        reference = derive_stream(seed)
        w = np.array(weights)
        vectors = np.zeros((n, len(w)), dtype=np.int64)
        left = np.full(n, M)
        for j in range(len(w) - 1, 0, -1):
            vectors[:, j] = reference.binomial(left, w[j] / w[: j + 1].sum())
            left -= vectors[:, j]
        vectors[:, 0] = left
        gen, chain = derive_stream(seed), derive_stream(seed)
        drawn, counts = montecarlo._counted_multinomial(chain, n, M, weights)
        assert counts.tolist() == [1] * n
        assert np.array_equal(drawn, vectors)
        D, ints = lattice_points(self.POINTS[len(weights)])
        ((scale, keys, counts),) = montecarlo._block_sums(self.atom(weights), M, n, gen)
        want, want_counts = np.unique(vectors @ np.array(ints), return_counts=True)
        assert scale == D and np.array_equal(keys, want) and np.array_equal(counts, want_counts)
        assert same_position(gen, chain, reference)

    @pytest.mark.parametrize(
        "M,weights", [(30, (0.3, 0.0, 0.45, 0.25)), (200, (0.2, 0.3, 0.5)), (9, (0.1, 0.2, 0.3, 0.4))]
    )
    def test_a_block_draws_stage_by_stage(self, M, weights):
        # counted groups of one stage draw in group order, then the single batches
        seed = SeedSpec(master_seed=107, replication_index=2)
        gen, reference = derive_stream(seed), derive_stream(seed)
        n = montecarlo.BLOCK_SIZE
        D, ints = lattice_points(self.POINTS[len(weights)])
        ((scale, keys, counts),) = montecarlo._block_sums(self.atom(weights), M, n, gen)
        want_keys, want_counts = lattice_counts(counted_multinomial(reference, n, M, weights), ints)
        assert scale == D and np.array_equal(keys, want_keys) and np.array_equal(counts, want_counts)
        assert same_position(gen, reference)

    @pytest.mark.parametrize("n", [100, montecarlo.BLOCK_SIZE], ids=["raw", "counted"])
    def test_sums_past_int64_are_python_int_keys(self, n):
        # 0.1 has denominator 2^55, so 1000 draws pass 2^63 on the lattice
        points, weights, M = (0.1, 0.2, 0.7), (0.2, 0.5, 0.3), 1_000
        D, ints = lattice_points(points)
        assert M * D > np.iinfo(np.int64).max
        seed = SeedSpec(master_seed=103, replication_index=0)
        gen = derive_stream(seed)
        ((scale, keys, counts),) = montecarlo._block_sums(self.atom(weights, points), M, n, gen)
        assert scale == D and keys.dtype == object
        assert all(type(key) is int for key in keys.tolist())
        assert (np.diff(keys) > 0).all() and int(counts.sum()) == n
        drawn = dict(zip(keys, counts))
        reference = derive_stream(seed)
        want_keys, want_counts = lattice_counts(counted_multinomial(reference, n, M, weights), ints)
        assert drawn == dict(zip(want_keys, want_counts))
        assert same_position(gen, reference)


def law_digest(law):
    """A short SHA-256 of every table of a drawn law: scale, keys and tail counts."""
    h = hashlib.sha256()
    for table in law:
        h.update(repr(table.scale).encode())
        h.update(np.asarray(table.keys).tobytes())
        h.update(table.at_least.astype(np.int64).tobytes())
    return h.hexdigest()[:16]


class TestParamMixtureBlocks:
    """A parameter mixture's block with PARAM_COUNT_FACTOR batches per sum draws
    how many reach each sum as one multinomial over the exact law of S; a
    smaller block draws p by quantile, then a binomial sum, per batch."""

    @pytest.mark.parametrize("side", [Side.UPPER, Side.LOWER])
    @pytest.mark.parametrize("lo,hi", [(0.2, 0.8), (0.0, 1.0), (0.0, 0.3), (0.65, 1.0)])
    def test_counted_draw_fits_the_exact_pmf(self, lo, hi, side):
        # chi-square of 10^6 counted draws against the oracle's pmf; the lower
        # side is the reflected model's upper tail
        m = BernoulliParamMixture(UniformDensity(lo, hi))
        m = m if side is Side.UPPER else flip_model(m)
        reps = 10**6
        for M in (1, 3, 10, 50, 200):
            (table,) = montecarlo._empirical_law.__wrapped__(m, M, reps, mix64(107, M))
            assert table.scale == 1
            drawn = dict(zip(table.keys.tolist(), (-np.diff(table.at_least)).tolist()))
            tails = [exact_sum_tail(m, M, k, Side.UPPER).probability for k in range(M + 2)]
            pmf = {k: tails[k] - tails[k + 1] for k in range(M + 1)}
            assert chi_square_fits(drawn, pmf, reps), M

    @pytest.mark.parametrize("path", ["counted", "raw"])
    @pytest.mark.parametrize(
        "d,a,b",
        [(UniformDensity(0.2, 0.8), 1, 1), (UniformDensity(0.0, 1.0), 1, 1),
         (UniformDensity(0.0, 0.3), 1, 1), (UniformDensity(0.65, 1.0), 1, 1),
         (TruncatedBetaDensity(2.0, 5.0, 0.1, 0.9), 2, 5)],
        ids=["u-0.2-0.8", "u-0-1", "u-0-0.3", "u-0.65-1", "tbeta"],
    )
    def test_drawn_law_fits_exact_rational_masses(self, monkeypatch, d, a, b, path):
        # chi-square against polynomial integrals in Fractions, independent of the
        # oracle's incomplete betas; 10^6 counted draws, or 2*10^5 drawn per batch
        reps = 10**6
        if path == "raw":
            monkeypatch.setattr(montecarlo, "PARAM_COUNT_FACTOR", montecarlo.BLOCK_SIZE + 1)
            reps = 2 * 10**5
        m = BernoulliParamMixture(d)
        for M in (1, 3, 10, 50):
            (table,) = montecarlo._empirical_law.__wrapped__(m, M, reps, mix64(127, M))
            drawn = dict(zip(table.keys.tolist(), (-np.diff(table.at_least)).tolist()))
            assert chi_square_fits(drawn, exact_param_pmf(a, b, d.lo, d.hi, M), reps), M

    @pytest.mark.parametrize("M", [1, 3, 10, 50, 200, 2000])
    @pytest.mark.parametrize(
        "d",
        [UniformDensity(0.3, 0.3 + 1e-12), UniformDensity(0.0, 1e-12),
         UniformDensity(1.0 - 1e-12, 1.0), TruncatedBetaDensity(2.0, 5.0, 0.3, 0.3 + 1e-12)],
        ids=["u-inner", "u-at-0", "u-at-1", "tbeta-inner"],
    )
    def test_a_support_of_width_1e_12_draws_from_finite_masses(self, d, M):
        # the incomplete-beta differences of a narrow support cancel, but no mass
        # may come out negative or NaN, nor warn
        masses = _beta_binomial_terms(d, M, 0, M + 1)
        assert np.isfinite(masses).all() and (masses >= 0).all() and masses.sum() > 0
        gen = _block_stream(SeedSpec(master_seed=131, replication_index=0))
        ((scale, keys, counts),) = montecarlo._block_sums(
            BernoulliParamMixture(d), M, montecarlo.BLOCK_SIZE, gen, masses
        )
        assert scale == 1 and int(counts.sum()) == montecarlo.BLOCK_SIZE
        assert (masses[keys] > 0).all()

    @pytest.mark.parametrize("below", [False, True], ids=["counted", "raw"])
    @pytest.mark.parametrize("M", [1, 50, 200, 4096])
    @pytest.mark.parametrize(
        "d", [UniformDensity(0.2, 0.8), TruncatedBetaDensity(2.0, 5.0, 0.1, 0.9)],
        ids=["uniform", "tbeta"],
    )
    def test_a_law_is_counted_from_f_batches_per_sum(self, d, M, below):
        # each block of a law of F*(M + 1) replications, however few batches it
        # holds, draws one multinomial over the oracle's masses of 0..M, in
        # ascending order of mass; a law of one fewer draws p, then S, per batch.
        # At M = 4096 such a law passes one block, and its second holds 16 or 15
        reps = montecarlo.PARAM_COUNT_FACTOR * (M + 1) - below
        masses = _beta_binomial_terms(d, M, 0, M + 1)
        order = np.argsort(masses, kind="stable")
        drawn = np.zeros(M + 1, dtype=np.int64)
        for block, start in enumerate(range(0, reps, montecarlo.BLOCK_SIZE)):
            n = min(montecarlo.BLOCK_SIZE, reps - start)
            reference = _block_stream(SeedSpec(master_seed=113, replication_index=block))
            if below:
                np.add.at(drawn, reference.binomial(M, d.quantile(reference.random(n))), 1)
            else:
                drawn[order] += reference.multinomial(n, masses[order] / masses[order].sum())
        (table,) = montecarlo._empirical_law.__wrapped__(BernoulliParamMixture(d), M, reps, 113)
        keys = np.flatnonzero(drawn)
        assert table.scale == 1 and table.keys.tolist() == keys.tolist()
        assert table.at_least.tolist() == np.append(np.cumsum(drawn[keys][::-1])[::-1], 0).tolist()

    @pytest.mark.parametrize("reps,calls", [(100_000, 1), (16 * 11 - 1, 0)], ids=["counted", "raw"])
    def test_a_counted_law_computes_its_masses_once(self, monkeypatch, reps, calls):
        # the per-law rule is taken once, where the law is drawn: a counted law of
        # two blocks reads one table of masses, and a law drawn per batch none
        made = []

        def recorded(d, M, start, stop):
            made.append((M, start, stop))
            return _beta_binomial_terms(d, M, start, stop)

        monkeypatch.setattr(montecarlo, "_beta_binomial_terms", recorded)
        m = BernoulliParamMixture(TruncatedBetaDensity(2.0, 5.0, 0.1, 0.9))
        (table,) = montecarlo._empirical_law.__wrapped__(m, 10, reps, 7)
        assert made == [(10, 0, 11)] * calls and int(table.at_least[0]) == reps

    @pytest.mark.parametrize("side", [Side.UPPER, Side.LOWER])
    def test_per_batch_draw_at_the_largest_m(self, side):
        # 1,000 replications at this M draw p, then a Binomial(M, p) sum, per
        # batch; every sum lies in 0..M, which int64 holds at M = 2^63 - 1
        m, M = BernoulliParamMixture(UniformDensity(0.0, 1.0)), (1 << 63) - 1
        est = estimate_tail(m, TailQuery(M=M, t=0.1, side=side), 1_000, master_seed=109)
        assert est.exceed_count == 0  # the window of a [0, 1] support is empty
        hist = sample_mean_histogram(m, M, 10_000, bins=10, master_seed=109)
        assert all(850 < c < 1_150 for c in hist.counts)  # Xbar is uniform: 1000 +- 5 sd

    # digests of the drawn laws: a law of 10^5 replications is counted up to
    # M = 6249, in both of its blocks, and draws p per batch at M = 8000;
    # pieces of every law add up by key
    TBETA = BernoulliParamMixture(TruncatedBetaDensity(2.0, 5.0, 0.1, 0.9))
    UNIFORM = suite_model("uniform_param")
    PINNED = [
        (TBETA, 10, 100_000, 7, "bc22b1767cac098d"),
        (TBETA, 200, 100_000, 7, "6de829fe76346d8b"),
        (flip_model(TBETA), 10, 100_000, 7, "154b07f6c0939606"),
        (FiniteMixture([(0.6, Beta(2.0, 5.0)), (0.4, Bernoulli(0.7))]), 10, 200_000, 12345,
         "ce51b4e362cd5329"),
        (UNIFORM, 1, 100_000, 7, "9952bd6220596691"),
        (UNIFORM, 10, 100_000, 7, "48f8a307425e5637"),
        (UNIFORM, 50, 100_000, 7, "09599022a3f06306"),
        (UNIFORM, 200, 100_000, 7, "5131884255cdf0b6"),
        (UNIFORM, 5000, 100_000, 7, "cb33181fb71799ab"),
        (UNIFORM, 8000, 100_000, 7, "495a215a4da7d0e1"),
        # [0.2, 0.8] reflects onto itself, so its lower law is its upper law
        (flip_model(UNIFORM), 10, 100_000, 7, "48f8a307425e5637"),
    ]

    @pytest.mark.parametrize(
        "m,M,reps,seed,digest", PINNED,
        ids=["tbeta-10", "tbeta-200", "tbeta-lower", "beta-bern", "uniform-1", "uniform-10",
             "uniform-50", "uniform-200", "uniform-5000", "uniform-8000", "uniform-lower"],
    )
    def test_pinned_laws(self, m, M, reps, seed, digest):
        assert law_digest(montecarlo._empirical_law.__wrapped__(m, M, reps, seed)) == digest


class TestModelKeys:
    """A model hashes once, by value, so equal models share every cache entry."""

    @staticmethod
    def build():
        return [
            FiniteMixture([(0.4, Bernoulli(0.3)),
                           (0.6, DiscreteOnUnit(points=[0.0, 0.5, 1.0], weights=[0.2, 0.3, 0.5]))]),
            BernoulliParamMixture(UniformDensity(0.2, 0.8)),
        ]

    def test_equal_models_share_one_summary_and_one_law(self):
        for a, b in zip(self.build(), self.build()):
            assert a is not b and a == b and hash(a) == hash(b)
            summarize.cache_clear()
            montecarlo._empirical_law.cache_clear()
            assert summarize(a) is summarize(b)
            assert summarize.cache_info().misses == 1
            q = TailQuery(M=5, t=0.1, side=Side.UPPER)
            assert estimate_tail(a, q, 1_000, 3) == estimate_tail(b, q, 1_000, 3)
            info = montecarlo._empirical_law.cache_info()
            assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize(
        "m",
        [m for _, m in standard_suite()]
        + [BernoulliParamMixture(TruncatedBetaDensity(2.0, 5.0, 0.1, 0.7))],
    )
    def test_reflecting_twice_hashes_as_the_model(self, m):
        # the reflected parameters are exact Fractions, equal to the floats in value
        twice = flip_model(flip_model(m))
        assert twice == m and hash(twice) == hash(m)


class TestNumpyIntegerSeeds:
    """A numpy-integer master seed draws the rows of the Python int it holds."""

    SEEDS = [np.int64(5), np.uint64(5)]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", SEEDS, ids=["int64", "uint64"])
    def test_estimate_tail(self, seed):
        q = TailQuery(M=10, t=0.1, side=Side.LOWER)
        m = suite_model("three_atom_discrete")
        montecarlo._empirical_law.cache_clear()
        estimate = estimate_tail(m, q, 70_000, master_seed=seed)
        montecarlo._empirical_law.cache_clear()
        assert type(estimate.master_seed) is int
        assert estimate == estimate_tail(m, q, 70_000, master_seed=5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", SEEDS, ids=["int64", "uint64"])
    def test_histogram(self, seed):
        m = suite_model("two_atom")
        montecarlo._empirical_law.cache_clear()
        histogram = sample_mean_histogram(m, 20, replications=10_000, bins=8, master_seed=seed)
        montecarlo._empirical_law.cache_clear()
        assert type(histogram.master_seed) is int
        assert histogram == sample_mean_histogram(m, 20, replications=10_000, bins=8, master_seed=5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", SEEDS, ids=["int64", "uint64"])
    def test_run_sweep(self, seed):
        def sweep(master_seed):
            montecarlo._empirical_law.cache_clear()
            return run_sweep(
                list(standard_suite()), [3, 50], [0.05, 0.2], [Side.UPPER, Side.LOWER],
                10_000, master_seed, method="montecarlo",
            )

        result = sweep(seed)
        assert type(result.master_seed) is int and result == sweep(5)


class TestRunSweep:
    def test_standard_models_zero_violations(self):
        models = list(standard_suite())[:3]
        result = run_sweep(
            models=models,
            M_grid=[10, 100],
            t_grid=[0.05, 0.1],
            sides=[Side.UPPER, Side.LOWER],
            replications=20_000,
            master_seed=47,
        )
        assert len(result.rows) == 24
        assert result.violations == ()

    def test_empty_grid_rejected(self):
        with pytest.raises(EmptyGrid):
            run_sweep(
                models=list(standard_suite())[:1],
                M_grid=[10],
                t_grid=[],
                sides=[Side.UPPER],
                replications=10,
                master_seed=1,
            )

    @pytest.mark.parametrize(
        "models,M_grid,t_grid,message",
        [
            ([("two_atom", TWO_ATOM)], [2, 2], [0.1],
             "duplicate group model_id='two_atom' M=2 side=upper"),
            ([("two_atom", TWO_ATOM)], [2], [0.1, 0.1], "t_grid repeats t=0.1"),
            ([("two_atom", TWO_ATOM), ("two_atom", ZERO_ONE)], [2], [0.1],
             "duplicate group model_id='two_atom' M=2 side=upper"),
            ([("x" * 5000, TWO_ATOM)], [2, 2], [0.1],
             "duplicate group model_id=a text of 5000 characters M=2 side=upper"),
        ],
        ids=["M", "t", "model_id", "model_id-5000-characters"],
    )
    def test_duplicate_row_keys_rejected(self, monkeypatch, models, M_grid, t_grid, message):
        monkeypatch.setattr(
            montecarlo, "_sweep_group", lambda *a, **k: pytest.fail("a cell ran")
        )
        with pytest.raises(DomainError, match=f"^{message}$"):
            run_sweep(models, M_grid, t_grid, [Side.UPPER], 10, 1)

    def test_two_models_with_one_model_id_rejected_before_any_group(self, monkeypatch):
        # their auto t grids differ, so no row repeats, but both would draw one stream
        monkeypatch.setattr(montecarlo, "_sweep_group", lambda *a, **k: pytest.fail("a group ran"))
        models = [("m", FiniteMixture([(1.0, Bernoulli(p))])) for p in (0.3, 0.4)]
        with pytest.raises(DomainError, match="^duplicate group model_id='m' M=10 side=upper$"):
            run_sweep(models, [10], 10, [Side.UPPER], 10, 1)

    @pytest.mark.parametrize(
        "master_seed", [-1, 2**64, 10**5000], ids=["-1", "2^64", "5000-digits"]
    )
    def test_master_seed_outside_64_bits_rejected_before_any_cell(self, monkeypatch, master_seed):
        monkeypatch.setattr(montecarlo, "_sweep_group", lambda *a, **k: pytest.fail("a cell ran"))
        with pytest.raises(DomainError, match=r"master_seed must lie in \[0, 2\^64\)"):
            run_sweep([("two_atom", TWO_ATOM)], [2], [0.1], [Side.UPPER], 10, master_seed)

    def test_unknown_method_rejected_before_any_cell(self, monkeypatch):
        monkeypatch.setattr(
            montecarlo, "_sweep_group", lambda *a, **k: pytest.fail("a cell ran")
        )
        with pytest.raises(DomainError, match="unknown sweep method 'exactt'"):
            run_sweep([("two_atom", TWO_ATOM)], [2], [0.1], [Side.UPPER], 10, 1, method="exactt")

    @pytest.mark.parametrize(
        "bad",
        [dict(threads=0), dict(threads=-1), dict(threads=2.5), dict(threads="2"),
         dict(threads=None), dict(threads=montecarlo.THREADS_LIMIT),
         dict(level=1.5), dict(sides=["up"])],
        ids=["threads-0", "threads--1", "threads-2.5", "threads-str", "threads-none",
             "threads-limit", "level-1.5", "side-up"],
    )
    def test_bad_threads_level_or_side_rejected_before_any_cell(self, monkeypatch, bad):
        monkeypatch.setattr(montecarlo, "_sweep_group", lambda *a, **k: pytest.fail("a cell ran"))
        args = dict(models=[("two_atom", TWO_ATOM)], M_grid=[2], t_grid=[0.1],
                    sides=[Side.UPPER], replications=10, master_seed=1, method="exact")
        with pytest.raises(DomainError):
            run_sweep(**{**args, **bad})

    @pytest.mark.parametrize("method", ["auto", "montecarlo"])
    def test_report_spellings_of_the_sides_give_their_rows(self, method):
        def sweep(sides):
            return run_sweep(list(standard_suite()), [5, 50], [0.05, 0.1], sides, 2_000, 3,
                             method=method)

        assert sweep(["upper", "lower"]) == sweep([Side.UPPER, Side.LOWER])

    @pytest.mark.parametrize(
        "count", [np.int64(3), np.uint8(3), True], ids=["int64", "uint8", "bool"]
    )
    def test_a_t_count_that_is_an_integer_gives_the_rows_of_the_int(self, count):
        models = list(standard_suite())[:1]
        rows = run_sweep(models, [5], count, [Side.UPPER], 100, 0).rows
        assert rows == run_sweep(models, [5], int(count), [Side.UPPER], 100, 0).rows
        assert len(rows) == int(count)

    @pytest.mark.parametrize("count", [2.5, -1])
    def test_a_t_count_that_is_not_an_integer_from_0_is_refused(self, monkeypatch, count):
        monkeypatch.setattr(montecarlo, "_sweep_group", lambda *a, **k: pytest.fail("a cell ran"))
        with pytest.raises(DomainError, match="t_grid must"):
            run_sweep(list(standard_suite())[:1], [5], count, [Side.UPPER], 100, 0)

    @pytest.mark.parametrize(
        "t_grid,message",
        [(["0.1"], "t must be finite and > 0, got '0.1'"),
         ([0.1, None], "t must be finite and > 0, got None"),
         ("0.1", None), (np.array([0.1, 0.2]), None), ({0.1}, None)],
        ids=["str-in-list", "none-in-list", "str", "ndarray", "set"],
    )
    def test_a_t_grid_of_neither_form_is_refused_before_any_cell(
        self, monkeypatch, t_grid, message
    ):
        # a list is a sequence of deviations, so check_t refuses a t in it that is not a real number
        monkeypatch.setattr(montecarlo, "_sweep_group", lambda *a, **k: pytest.fail("a cell ran"))
        forms = "t_grid must be a count of deviations per window or a sequence of deviations"
        with pytest.raises(DomainError if message is None else InvalidT, match=message or forms):
            run_sweep(list(standard_suite())[:1], [5], t_grid, [Side.UPPER], 100, 0)

    @pytest.mark.parametrize(
        "t,shown",
        [(10**400, "an integer of 1329 bits"), (2**1024, r"2\^1024"),
         (10**5000, "an integer of 16610 bits")],
        ids=["1e400", "2^1024", "1e5000"],
    )
    def test_an_int_t_past_the_float_range_is_refused_before_any_cell(self, monkeypatch, t, shown):
        monkeypatch.setattr(montecarlo, "_sweep_group", lambda *a, **k: pytest.fail("a cell ran"))
        with pytest.raises(InvalidT, match=f"^t must be finite and > 0, got {shown}$"):
            run_sweep(list(standard_suite())[:1], [5], [t, 0.1], [Side.UPPER], 100, 0)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "bad,error,message",
        [
            (dict(M_grid=[5, 2.5]), DomainError, "M must be an integer, got 2.5"),
            (dict(M_grid=[5, "3"]), DomainError, "M must be an integer, got '3'"),
            (dict(M_grid=[5, 0]), DomainError, "M must lie in [1, 2^63), got 0"),
            (dict(M_grid=[5, 2**63]), DomainError, "M must lie in [1, 2^63), got 2^63"),
            (dict(M_grid=[5, math.inf]), DomainError, "M must be an integer, got inf"),
            (dict(M_grid=[5, np.float64(3.0)]), DomainError,
             "M must be an integer, got np.float64(3.0)"),
            (dict(M_grid=[5, 10**5000]), DomainError,
             "M must lie in [1, 2^63), got an integer of 16610 bits"),
            (dict(t_grid=[0.1, 0.0]), InvalidT, "t must be finite and > 0, got 0.0"),
            (dict(t_grid=[0.1, -0.1]), InvalidT, "t must be finite and > 0, got -0.1"),
            (dict(t_grid=[0.1, math.inf]), InvalidT, "t must be finite and > 0, got inf"),
            (dict(t_grid=[0.1, math.nan]), InvalidT, "t must be finite and > 0, got nan"),
            (dict(t_grid=[0.1, 10**400]), InvalidT,
             "t must be finite and > 0, got an integer of 1329 bits"),
            (dict(t_grid=[0.1, 10**5000]), InvalidT,
             "t must be finite and > 0, got an integer of 16610 bits"),
            (dict(models=[("two_atom", TWO_ATOM), (5, TWO_ATOM)]), DomainError,
             "model_id must be a str, got 5"),
            (dict(replications=2**63), DomainError, "replications must lie in [1, 2^63), got 2^63"),
        ],
        ids=["M-2.5", "M-str", "M-0", "M-2^63", "M-inf", "M-float64", "M-5000-digits",
             "t-0", "t-negative", "t-inf", "t-nan", "t-1e400", "t-5000-digits",
             "model-id-int", "replications-2^63"],
    )
    def test_an_argument_no_cell_can_take_is_refused_before_any_cell(
        self, monkeypatch, threads, bad, error, message
    ):
        # the sweep's one gate refuses it before any engine or bound runs
        for name in ("exact_tail", "estimate_tail", "tail_bound_report"):
            monkeypatch.setattr(montecarlo, name, lambda *a, **k: pytest.fail("a cell ran"))
        args = dict(models=[("two_atom", TWO_ATOM)], M_grid=[2, 5], t_grid=[0.1],
                    sides=[Side.UPPER], replications=10, master_seed=1, threads=threads)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            run_sweep(**{**args, **bad})

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_refused_m_is_not_hashed(self, monkeypatch, threads):
        # a 5000-digit M has no repr under the 4300-digit limit; the sweep refuses
        # it by its size before it hashes any key or runs any cell
        monkeypatch.setattr(montecarlo, "_law_seed", lambda *a: pytest.fail("a key was hashed"))
        monkeypatch.setattr(montecarlo, "_sweep_group", lambda *a, **k: pytest.fail("a cell ran"))
        message = r"^M must lie in \[1, 2\^63\), got an integer of 16610 bits$"
        with pytest.raises(DomainError, match=message):
            run_sweep(list(standard_suite())[:1], [10**5000, 5], [0.1, 0.2], [Side.UPPER], 100, 0,
                      method="montecarlo", threads=threads)

    @pytest.mark.parametrize("level", ["0.5", None, float("nan"), 1.5, 0], ids=repr)
    def test_a_level_that_is_not_a_real_number_in_0_1_is_refused(self, monkeypatch, level):
        monkeypatch.setattr(montecarlo, "_sweep_group", lambda *a, **k: pytest.fail("a cell ran"))
        with pytest.raises(DomainError, match=r"level must lie in \(0,1\), got"):
            clopper_pearson_interval(1, 10, level)
        with pytest.raises(DomainError, match=r"level must lie in \(0,1\), got"):
            run_sweep(list(standard_suite())[:1], [5], [0.1], [Side.UPPER], 100, 0, level=level)

    def test_engines_read_a_side_spelling_as_its_side(self):
        m = suite_model("bern03")
        for spelling, side in (("upper", Side.UPPER), ("lower", Side.LOWER)):
            assert Side(side) is side and Side(spelling) is side
            q, member = TailQuery(5, 0.1, spelling), TailQuery(5, 0.1, side)
            assert q == member and q.side is side
            assert side_anchor(summarize(m), spelling) == side_anchor(summarize(m), side)
            assert estimate_tail(m, q, 1_000, 0) == estimate_tail(m, member, 1_000, 0)
            assert exact_sum_tail(m, 5, 1, spelling) == exact_sum_tail(m, 5, 1, side)
            assert (run_sweep([("m", m)], [5], [0.1], [spelling], 100, 0).rows
                    == run_sweep([("m", m)], [5], [0.1], [side], 100, 0).rows)
        for call in (
            lambda: TailQuery(5, 0.1, "up"),
            lambda: side_anchor(summarize(m), "up"),
            lambda: exact_sum_tail(m, 5, 1, "up"),
        ):
            with pytest.raises(DomainError, match="side must be a Side, 'upper' or 'lower'"):
                call()

    def test_single_cell_matches_content_addressed_seed(self):
        q = TailQuery(M=4, t=0.07, side=Side.UPPER)
        result = run_sweep(
            models=[("two_atom", TWO_ATOM)],
            M_grid=[4],
            t_grid=[0.07],
            sides=[Side.UPPER],
            replications=30_000,
            master_seed=53,
            method="montecarlo",
        )
        row = result.rows[0]
        key = repr(("two_atom", 4, "upper")).encode()  # t is not part of the key
        k = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
        direct = estimate_tail(TWO_ATOM, q, 30_000, master_seed=mix64(53, k))
        assert row.value == direct.p_hat
        assert row.ci_low == direct.ci_low
        assert row.ci_high == direct.ci_high
        assert row.method == "montecarlo"

    def test_p_hat_never_rises_with_t(self):
        # every t of one (model, side, M) window reads the same drawn law
        result = run_sweep(
            list(standard_suite()), [1, 2, 5, 10, 50, 200], 10, [Side.UPPER, Side.LOWER],
            100_000, 0, method="montecarlo",
        )
        for key, rows in groupby(result.rows, key=lambda r: (r.model_id, r.side, r.M)):
            values = [r.value for r in rows]
            assert len(values) == 10
            assert values == sorted(values, reverse=True), key

    def test_shared_cells_keep_their_rows(self):
        models = list(standard_suite())
        both = [Side.UPPER, Side.LOWER]
        common = dict(replications=2_000, master_seed=83, method="montecarlo")
        full = run_sweep(models, [2, 5], [0.04, 0.09, 0.13], both, **common)
        by_key = {(r.model_id, r.M, r.t, r.side): r for r in full.rows}
        parts = [
            run_sweep(models, [2, 5], [0.04, 0.09], both, **common),  # shorter t grid
            run_sweep(models[2:3], [2, 5], [0.04, 0.09, 0.13], both, **common),  # one model
            run_sweep(models, [2, 5], [0.04, 0.09, 0.13], [Side.LOWER], **common),  # one side
        ]
        for part in parts:
            for row in part.rows:
                assert row == by_key[(row.model_id, row.M, row.t, row.side)]

    def test_upper_and_lower_estimates_are_not_mirrored(self):
        # numpy draws Binomial(n, p > 1/2) as n - Binomial(n, 1 - p), so a
        # lower cell sharing its upper twin's stream mirrors its draws
        bern03 = [("bern03", suite_model("bern03"))]
        values = {Side.UPPER: [], Side.LOWER: []}
        for seed in range(30):
            for side, column in values.items():
                result = run_sweep(bern03, [5], [0.05], [side], 2_000, seed, method="montecarlo")
                column.append(result.rows[0].value)
        assert statistics.correlation(values[Side.UPPER], values[Side.LOWER]) > -0.5

    def test_oracle_preferred_in_auto_mode(self):
        result = run_sweep(
            models=[("two_atom", TWO_ATOM)],
            M_grid=[2],
            t_grid=[0.15],
            sides=[Side.UPPER],
            replications=10,
            master_seed=1,
        )
        row = result.rows[0]
        assert row.method == "binomial"
        assert row.value == pytest.approx(0.34, abs=1e-12)
        assert row.ci_low is None

    def test_montecarlo_fallback_for_beta_components(self):
        m = FiniteMixture([(1.0, Beta(2.0, 2.0))])
        result = run_sweep(
            models=[("beta", m)],
            M_grid=[3],
            t_grid=[0.1],
            sides=[Side.UPPER],
            replications=5_000,
            master_seed=59,
        )
        assert result.rows[0].method == "montecarlo"

    def test_montecarlo_answers_a_parameter_mixture_past_the_term_cap(self):
        # 1.9 * 10^6 Beta-binomial terms at M = 10^7, t = 0.01
        m = BernoulliParamMixture(UniformDensity(0.2, 0.8))
        args = ([("unif", m)], [10**7], [0.01], [Side.UPPER], 1_000, 7)
        assert run_sweep(*args).rows[0].method == "montecarlo"
        assert run_sweep(*args, method="exact").rows[0].method == "error:MTooLarge"

    def test_error_rows_do_not_abort(self):
        discrete = FiniteMixture(
            [(1.0, DiscreteOnUnit(points=[0.0, 0.5, 1.0], weights=[0.3, 0.4, 0.3]))]
        )
        # M draws from [0, 0.5, 1] lie on 2M+1 lattice sums: M=8191 fits the
        # dense guard of 2^14 sums, M=8192 does not; the refused cell comes first
        result = run_sweep(
            models=[("discrete", discrete)],
            M_grid=[8192, 8191],
            t_grid=[0.1],
            sides=[Side.UPPER],
            replications=100,
            master_seed=61,
            method="exact",
        )
        methods = [row.method for row in result.rows]
        assert methods == ["error:MTooLarge", "convolution"]
        assert all(not row.violation for row in result.rows)

    def test_an_error_row_keeps_the_bound_forms_of_its_cell(self):
        # the exact engine refuses the Beta atom after the cell's closed forms are in
        m = FiniteMixture([(0.6, Beta(2.0, 5.0)), (0.4, Bernoulli(0.3))])
        (row,) = run_sweep([("mix", m)], [5], [0.1], [Side.UPPER], 100, 0, method="exact").rows
        assert (row.method, row.value, row.ci_low, row.ci_high) == (
            "error:UnsupportedModel", None, None, None)
        assert (row.hoeffding, row.valid, row.violation) == (0.9048374180359595, True, False)
        report = tail_bound_report(side_anchor(summarize(m), Side.UPPER), 5, 0.1)
        assert (row.kl_form, row.h0) == (report.kl_form, report.h0)
        assert row.kl_form is not None and row.h0 is not None

    def test_one_exact_law_per_group_serves_every_t(self):
        # the default verify grid: 5 models, 6 M, 2 sides, 10 t per window
        oracle.group_law.cache_clear()
        result = run_sweep(list(standard_suite()), [1, 2, 5, 10, 50, 200], 10,
                           [Side.UPPER, Side.LOWER], 1, 0, method="exact", threads=1)
        assert len(result.rows) == 600 and not result.failures
        info = oracle.group_law.cache_info()
        assert (info.misses, info.hits) == (60, 540)

    def test_pool_threads_share_the_group_laws(self):
        # more threads than cores, switching often: an exact sweep builds every
        # group law on the caller's thread, and every row must be the serial one
        args = (list(standard_suite()), [1, 2, 5, 10, 50, 200], 10, [Side.UPPER, Side.LOWER], 1, 0)
        oracle.group_law.cache_clear()
        serial = run_sweep(*args, method="exact", threads=1)
        for cache in (oracle.group_law, oracle._lattice_law):
            cache.cache_clear()
        with fast_switching():
            threaded = run_sweep(*args, method="exact", threads=8)
        assert threaded.rows == serial.rows

    def test_deterministic_rows(self):
        kwargs = dict(
            models=list(standard_suite())[:2],
            M_grid=[2, 5],
            t_grid=[0.03, 0.11],
            sides=[Side.UPPER, Side.LOWER],
            replications=5_000,
            master_seed=67,
        )
        assert run_sweep(**kwargs) == run_sweep(**kwargs)

    def test_thread_count_does_not_change_rows(self):
        kwargs = dict(
            models=list(standard_suite()),
            M_grid=[2, 10],
            t_grid=[0.04, 0.12],
            sides=[Side.UPPER, Side.LOWER],
            replications=5_000,
            master_seed=71,
        )
        serial = run_sweep(**kwargs, threads=1)
        threaded = run_sweep(**kwargs, threads=4)
        assert serial.rows == threaded.rows

    @pytest.mark.parametrize("method", ["auto", "montecarlo"])
    def test_the_pool_draws_the_per_batch_groups_alone(self, monkeypatch, method):
        # the Beta atom's groups, and under "montecarlo" the mixture's at M = 500,
        # run on pool threads, straight to Monte Carlo; the rest on the caller's
        montecarlo._empirical_law.cache_clear()
        serial = run_sweep(*MIXED_ARGS, method=method, threads=1)
        caller, ran = threading.get_ident(), []
        sweep_group = montecarlo._sweep_group

        def recorded(group, replications, engine, level):
            ran.append((group.model_id, group.M, engine, threading.get_ident() == caller))
            return sweep_group(group, replications, engine, level)

        monkeypatch.setattr(montecarlo, "_sweep_group", recorded)
        drawn = {("beta_bern", 10), ("beta_bern", 500)}
        if method == "montecarlo":
            drawn.add(("param", 500))
        monte_carlo_groups = 12 if method == "montecarlo" else 4  # 3 or 1 models, 2 M, 2 sides
        for threads in (1, 2, 4):
            ran.clear()
            montecarlo._empirical_law.cache_clear()
            with fast_switching():
                threaded = run_sweep(*MIXED_ARGS, method=method, threads=threads)
            assert threaded.rows == serial.rows
            assert montecarlo._empirical_law.cache_info().misses == monte_carlo_groups
            assert len(ran) == 12
            pooled = {(model_id, M) for model_id, M, _, here in ran if not here}
            assert pooled == (drawn if threads > 1 else set())
            for model_id, M, engine, _ in ran:
                assert engine == ("montecarlo" if (model_id, M) in drawn else method)

    @pytest.mark.parametrize("method", montecarlo.METHODS)
    def test_a_default_sweep_starts_no_pool(self, monkeypatch, method):
        # at 10^5 replications every default Monte Carlo law is counted
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor",
                            lambda *a, **k: pytest.fail("a pool was started"))
        result = run_sweep(*DEFAULT_ARGS, method=method, threads=2)
        assert len(result.rows) == 600 and not result.failures

    @pytest.mark.parametrize("method", montecarlo.METHODS)
    def test_group_laws_are_read_on_the_callers_thread_alone(self, monkeypatch, method):
        callers = []
        group_law = oracle.group_law

        def recorded(m, M, side):
            callers.append(threading.get_ident())
            return group_law(m, M, side)

        monkeypatch.setattr(oracle, "group_law", recorded)
        with fast_switching():
            run_sweep(*MIXED_ARGS, method=method, threads=2)
        # every cell of the lattice and parameter groups, and under "exact" the Beta atom's
        cells = {"auto": 16, "exact": 24, "montecarlo": 0}[method]
        assert callers == [threading.get_ident()] * cells

    @pytest.mark.parametrize("method", ["auto", "exact"])
    def test_cold_threaded_sweeps_build_each_group_law_once(self, method):
        # the caller's thread reads a group's cells in a row, so an LRU of 16
        # keeps its law from its first cell to its last
        misses = []
        for _ in range(15):
            for cache in (oracle.group_law, oracle._lattice_law, montecarlo._empirical_law):
                cache.cache_clear()
            run_sweep(*DEFAULT_ARGS, method=method, threads=2)
            misses.append(oracle.group_law.cache_info().misses)
        assert misses == [60] * 15

    def test_the_sweep_reads_no_environment(self, monkeypatch):
        # EXCHBOUND_THREADS is the CLI's to read: a value it refuses stops no sweep
        kwargs = dict(models=[("two_atom", TWO_ATOM)], M_grid=[2, 10], t_grid=[0.1],
                      sides=[Side.UPPER], replications=1_000, master_seed=73)
        monkeypatch.setenv("EXCHBOUND_THREADS", "abc")
        with_variable = run_sweep(**kwargs)
        monkeypatch.delenv("EXCHBOUND_THREADS")
        assert with_variable == run_sweep(**kwargs, threads=1)

    @pytest.mark.parametrize("form", ["hoeffding_form", "kl_form"])
    @pytest.mark.parametrize("method,engine", [("auto", "binomial"), ("montecarlo", "montecarlo")])
    def test_corrupted_bound_hook_flags_violations(self, shrink_bounds, form, method, engine):
        # one verdict rule: either form, whichever engine answered the cell
        shrink_bounds(form)
        result = run_sweep(
            models=[("two_atom", TWO_ATOM)],
            M_grid=[2],
            t_grid=[0.15],
            sides=[Side.UPPER],
            replications=10_000,
            master_seed=1,
            method=method,
        )
        assert result.rows[0].method == engine
        assert result.rows[0].violation

    @pytest.mark.parametrize("method", montecarlo.METHODS)
    def test_every_row_is_its_direct_engine_call(self, monkeypatch, method):
        # a row holds what exact_tail or estimate_tail answers for its cell alone;
        # the engines refuse a Beta atom past its (lowered) row limit by Monte
        # Carlo, and a three-point atom past its dense guard exactly
        monkeypatch.setattr(montecarlo, "BETA_MAX_M", 5)
        models = [
            ("two_atom", TWO_ATOM),
            ("three_atom_discrete", suite_model("three_atom_discrete")),
            ("beta_point", FiniteMixture([(0.5, Beta(2.0, 5.0)), (0.5, PointMass(0.5))])),
        ]
        sides = [Side.UPPER, Side.LOWER]
        result = run_sweep(models, [2, 9, 8192], [0.05, 0.2], sides, 3_000, 89, method=method)
        assert len(result.rows) == 3 * 2 * 3 * 2
        by_id = dict(models)
        for row in result.rows:
            m, side = by_id[row.model_id], Side(row.side)
            report = tail_bound_report(side_anchor(summarize(m), side), row.M, row.t)
            assert (row.hoeffding, row.kl_form, row.h0, row.valid) == (
                report.hoeffding_form, report.kl_form, report.h0, report.in_validity_range)
            q = TailQuery(M=row.M, t=row.t, side=side)
            key = repr((row.model_id, row.M, row.side)).encode()
            seed = mix64(89, int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))
            if row.method == "montecarlo":
                estimate = estimate_tail(m, q, 3_000, seed)
                assert (row.value, row.ci_low, row.ci_high) == (
                    estimate.p_hat, estimate.ci_low, estimate.ci_high)
            elif row.method.startswith("error:"):
                with pytest.raises(ExchboundError) as raised:
                    if method == "exact":
                        exact_tail(m, q)
                    else:  # auto falls back to Monte Carlo where exact_tail refuses
                        estimate_tail(m, q, 3_000, seed)
                assert row.method == f"error:{type(raised.value).__name__}"
                assert row.value is None
            else:
                exact = exact_tail(m, q)
                assert (row.method, row.value, row.ci_low, row.ci_high) == (
                    str(exact.method), exact.probability, None, None)
            assert not row.violation
        engines = {
            "auto": {"binomial", "convolution", "montecarlo", "error:DomainError"},
            "exact": {"binomial", "convolution", "error:UnsupportedModel", "error:MTooLarge"},
            "montecarlo": {"montecarlo", "error:DomainError"},
        }
        assert {row.method for row in result.rows} == engines[method]

    def test_invalid_window_cells_never_flagged(self):
        result = run_sweep(
            models=[("zero_one", ZERO_ONE)],
            M_grid=[5],
            t_grid=[0.2, 0.8],
            sides=[Side.UPPER, Side.LOWER],
            replications=1_000,
            master_seed=73,
        )
        assert all(not row.valid for row in result.rows)
        assert all(not row.violation for row in result.rows)


BERN02 = FiniteMixture([(1.0, Bernoulli(0.2))])


class TestFractionalM:
    """numpy would truncate a fractional M, so every engine refuses one."""

    BERN03 = suite_model("bern03")

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: exact_tail(m, TailQuery(M=2.5, t=0.1, side=Side.UPPER)),
            lambda m: estimate_tail(m, TailQuery(M=2.5, t=0.1, side=Side.UPPER), 1_000, 1),
            lambda m: exact_sum_tail(m, 2.5, 1, Side.UPPER),
            lambda m: sample_mean_histogram(m, 2.5, 1_000, 10, 1),
            lambda m: sample_sequence(m, 2.5, SeedSpec(1, 0)),
        ],
        ids=["exact_tail", "estimate_tail", "exact_sum_tail", "histogram", "sample_sequence"],
    )
    def test_entry_points_refuse_a_fractional_m(self, call):
        with pytest.raises(DomainError, match="M must be an integer"):
            call(self.BERN03)

    def test_numpy_integers_are_taken(self):
        q = TailQuery(M=np.int64(3), t=0.1, side=Side.UPPER)
        assert exact_tail(self.BERN03, q) == exact_tail(self.BERN03, TailQuery(3, 0.1, Side.UPPER))
        assert len(sample_sequence(self.BERN03, np.int64(3), SeedSpec(1, 0)).values) == 3

    def test_sweep_refuses_a_fractional_m_before_any_cell(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_sweep_group", lambda *a, **k: pytest.fail("a cell ran"))
        with pytest.raises(DomainError, match="^M must be an integer, got 2.5$"):
            run_sweep(list(standard_suite()), [3, 2.5], [0.1], [Side.UPPER, Side.LOWER], 1_000, 1)

    @pytest.mark.parametrize("M", ["3", 2.5])
    def test_threaded_sweep_refuses_an_m_of_any_type_before_any_cell(self, monkeypatch, M):
        # the pool orders groups by M, which a string M could not be compared by
        kwargs = dict(models=[("two_atom", TWO_ATOM)], t_grid=[0.1], sides=[Side.UPPER],
                      replications=1_000, master_seed=1)
        threaded = run_sweep(M_grid=[2, 3], threads=2, **kwargs)
        assert threaded.rows == run_sweep(M_grid=[2, 3], threads=1, **kwargs).rows
        monkeypatch.setattr(montecarlo, "_sweep_group", lambda *a, **k: pytest.fail("a cell ran"))
        with pytest.raises(DomainError, match=f"^M must be an integer, got {M!r}$"):
            run_sweep(M_grid=[M, 3], threads=2, **kwargs)


class TestNumpyIntegerM:
    """A numpy-integer M is the Python int it holds from where it enters: its
    products wrapped or overflowed in int64 in the exact thresholds and
    lattice guards, and reports could not encode it."""

    MODELS = [
        ("two_point", FiniteMixture([(1.0, DiscreteOnUnit([0.2, 0.9], [0.6, 0.4]))])),
        *((name, suite_model(name)) for name in ("bern03", "three_atom_discrete", "uniform_param")),
    ]
    DTYPES = [np.int64, np.uint64, np.int32]

    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda dtype: dtype.__name__)
    def test_run_sweep(self, dtype):
        def sweep(M_grid):
            montecarlo._empirical_law.cache_clear()
            return run_sweep(self.MODELS, M_grid, [0.05, 0.2], [Side.UPPER, Side.LOWER], 2_000, 3)

        result = sweep([dtype(5), dtype(10), dtype(200)])
        assert result == sweep([5, 10, 200])
        assert all(type(row.M) is int for row in result.rows)
        assert not result.failures
        assert json.loads(to_json(Report.from_sweep(result, "0", "now")))["rows"]

    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda dtype: dtype.__name__)
    @pytest.mark.parametrize("model_id,m", MODELS, ids=[name for name, _ in MODELS])
    def test_histogram(self, model_id, m, dtype):
        histogram = sample_mean_histogram(m, dtype(10), 2_000, 10, 3)
        assert type(histogram.M) is int
        assert histogram == sample_mean_histogram(m, 10, 2_000, 10, 3)
        report = json.loads(to_json(HistogramReport.from_histogram(histogram, "0", "now")))
        assert report["metadata"]["M"] == 10

    def test_m_past_every_lattice_guard_is_refused_at_once(self):
        # M * span + 1 wrapped in int64, so the dense branch squared its step law toward 2^62
        oracle._lattice_law.cache_clear()
        q = TailQuery(np.int64(2**62), 0.01, Side.UPPER)
        with pytest.raises(MTooLarge):
            exact_tail(suite_model("three_atom_discrete"), q)


class TestFractionalCounts:
    """A replication or bin count that is not an integer, such as 1e5, is refused
    as DomainError before any draw, as a fractional M is."""

    Q = TailQuery(M=3, t=0.1, side=Side.UPPER)

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def drawn(seed):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(montecarlo, "_block_stream", drawn)

    @pytest.mark.parametrize("reps", [1e5, 20.5, "100"], ids=["1e5", "20.5", "str"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda reps: estimate_tail(TWO_ATOM, TestFractionalCounts.Q, reps, 1),
            lambda reps: sample_mean_histogram(TWO_ATOM, 3, reps, 10, 1),
            lambda reps: run_sweep([("two", TWO_ATOM)], [3], [0.1], [Side.UPPER], reps, 1,
                                   method="montecarlo"),
        ],
        ids=["estimate_tail", "histogram", "run_sweep"],
    )
    @pytest.mark.usefixtures("no_draws")
    def test_replications_must_be_an_integer(self, call, reps):
        with pytest.raises(DomainError, match="replications must be an integer"):
            call(reps)

    @pytest.mark.parametrize("bins", [20.5, 20.0, None], ids=["20.5", "20.0", "None"])
    @pytest.mark.usefixtures("no_draws")
    def test_bins_must_be_an_integer(self, bins):
        with pytest.raises(DomainError, match="bins must be an integer"):
            sample_mean_histogram(TWO_ATOM, 3, 100, bins, 1)

    def test_numpy_integers_are_the_ints_they_hold(self):
        h = sample_mean_histogram(TWO_ATOM, 3, np.int64(100), np.int32(10), 1)
        assert h == sample_mean_histogram(TWO_ATOM, 3, 100, 10, 1)
        assert type(h.replications) is int and len(h.counts) == 10
        estimate = estimate_tail(TWO_ATOM, self.Q, np.uint32(100), 1)
        assert estimate == estimate_tail(TWO_ATOM, self.Q, 100, 1)
        assert type(estimate.replications) is int


class TestWindowEdges:
    """At the end of each window, t = float(1 - a) for a = side_anchor(...),
    and an ulp either side, a sweep cell decides its documented event, its
    valid flag and tail_bound_report's lower window follow the exact window
    t < 1 - a, and window_t_grid spans up to float(1 - a)."""

    @pytest.mark.parametrize("model_id,m", [*standard_suite(), ("bern02", BERN02)])
    @pytest.mark.parametrize("side", [Side.UPPER, Side.LOWER])
    def test_edges_follow_the_exact_window(self, model_id, m, side):
        s = summarize(m)
        a = side_anchor(s, side)
        end = float(1 - a)
        if end > 0:
            assert window_t_grid(a, 1) == [end / 2]
        for t in (math.nextafter(end, 0.0), end, math.nextafter(end, 1.0)):
            if t <= 0:
                continue
            inside = Fraction(t) < 1 - a
            (row,) = run_sweep(
                models=[(model_id, m)], M_grid=[2], t_grid=[t], sides=[side],
                replications=100, master_seed=29, method="exact",
            ).rows
            assert row.valid == inside, t
            assert not row.violation
            if side is Side.UPPER:
                thr = 2 * (Fraction(s.mu_plus) + Fraction(t))
            else:
                thr = 2 * (Fraction(s.mu_minus) - Fraction(t))
            assert row.value == exact_sum_tail(m, 2, thr, side).probability, t
            # the float forms exist only where the window also holds in floats
            assert (row.kl_form is not None) == (inside and t < 1.0 - float(a)), t
            if side is Side.LOWER:
                r = tail_bound_report(side_anchor(s, Side.LOWER), 2, t)
                assert (r.in_validity_range, r.hoeffding_form) == (inside, row.hoeffding)


    @pytest.mark.parametrize("c", [5e-324, 1e-320])
    @pytest.mark.parametrize("side", [Side.UPPER, Side.LOWER])
    @pytest.mark.parametrize("n", [1, 2, 10, 1000])
    def test_auto_grid_is_distinct_and_positive_in_a_subnormal_window(self, c, side, n):
        # the lower window of a point mass at c is (0, c): too narrow for n floats at 5e-324
        a = side_anchor(summarize(FiniteMixture([(1.0, PointMass(c))])), side)
        grid = window_t_grid(a, n)
        assert len(grid) == n and grid[0] > 0.0
        assert all(s < t for s, t in zip(grid, grid[1:]))


class TestOracleAgreement:
    @pytest.mark.parametrize("model_id,m", [s for s in standard_suite() if s[0] != "zero_one"])
    def test_estimates_cover_oracle_at_million_reps(self, model_id, m):
        # 99.9% Clopper-Pearson intervals should cover the exact value; the cells
        # here keep reps*M modest so the check stays inside the time budget
        failures = 0
        cells = 0
        for M in (1, 2, 5, 10):
            for frac in (0.25, 0.5, 0.75):
                for side in (Side.UPPER, Side.LOWER):
                    from exchbound import summarize

                    s = summarize(m)
                    t_max = s.t_max_upper if side is Side.UPPER else s.t_max_lower
                    t = frac * t_max
                    if t <= 0:
                        continue
                    q = TailQuery(M=M, t=t, side=side)
                    try:
                        exact = exact_tail(m, q).probability
                    except Exception:
                        continue
                    est = estimate_tail(m, q, 1_000_000, master_seed=mix64(79, cells))
                    cells += 1
                    if not (est.ci_low <= exact <= est.ci_high):
                        failures += 1
        assert cells > 0
        assert failures <= max(1, math.ceil(0.01 * cells))
