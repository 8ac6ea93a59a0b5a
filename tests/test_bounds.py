"""Closed-form bound values and the internal inequality chain."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exchbound import (
    Bernoulli,
    Beta,
    DiscreteOnUnit,
    DomainError,
    FiniteMixture,
    InvalidDelta,
    InvalidH,
    InvalidModel,
    InvalidT,
    MeanOutOfRange,
    ModelSummary,
    OutOfValidityRange,
    PointMass,
    RangeBounds,
    Side,
    TailQuery,
    TruncatedBetaDensity,
    UniformDensity,
    big_g,
    big_h,
    chernoff_curve,
    clopper_pearson_interval,
    estimate_tail,
    exact_sum_tail,
    hoeffding_tail_bound,
    kl_form_bound,
    little_g,
    mgf_convexity_bound,
    optimal_h,
    run_sweep,
    summarize,
    t_for_confidence,
    tail_bound_report,
)
from exchbound.bounds import _shown, side_anchor
from exchbound.oracle import sum_threshold


def validity_grid(n_mu=20, n_t=20, inset=0.05):
    """(mu, t) pairs with 0 < t < 1 - mu, edges inset."""
    for mu in np.linspace(inset, 1.0 - inset, n_mu):
        for frac in np.linspace(inset, 1.0 - inset, n_t):
            yield float(mu), float(frac * (1.0 - mu))


class TestHoeffdingForm:
    def test_direct_exponent_values(self):
        assert hoeffding_tail_bound(100, 0.1) == pytest.approx(math.exp(-2), abs=1e-15)
        assert hoeffding_tail_bound(50, 0.2) == pytest.approx(math.exp(-4), abs=1e-15)
        assert hoeffding_tail_bound(1, 1.0) == pytest.approx(math.exp(-2), abs=1e-15)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(InvalidT):
            hoeffding_tail_bound(10, 0.0)
        with pytest.raises(InvalidT):
            hoeffding_tail_bound(10, -0.5)

    def test_rejects_bad_m(self):
        with pytest.raises(DomainError):
            hoeffding_tail_bound(0, 0.1)

    def test_rejects_a_nan_m(self):
        with pytest.raises(DomainError, match="M must be >= 1 and fit in a float, got nan"):
            hoeffding_tail_bound(math.nan, 0.1)

    @pytest.mark.parametrize("t", [math.inf, math.nan, "0.1", None])
    def test_every_t_check_rejects_a_non_finite_t(self, t):
        for call in (
            lambda: hoeffding_tail_bound(10, t),
            lambda: tail_bound_report(0.5, 10, t),
            lambda: TailQuery(M=10, t=t, side=Side.UPPER),
        ):
            with pytest.raises(InvalidT):
                call()


    @pytest.mark.parametrize(
        "t,shown",
        [(10**400, "an integer of 1329 bits"), (2**1024, r"2\^1024")],
        ids=["1e400", "2^1024"],
    )
    def test_every_t_check_rejects_an_int_past_the_largest_float(self, t, shown):
        # such an int compares below inf, but no bound form can take it as a float
        for call in (
            lambda: hoeffding_tail_bound(10, t),
            lambda: tail_bound_report(0.5, 10, t),
            lambda: TailQuery(M=10, t=t, side=Side.UPPER),
        ):
            with pytest.raises(InvalidT, match=f"got {shown}$"):
                call()


    def test_a_float32_t_is_checked_without_a_cast_warning(self):
        # comparing with the largest float casts it to float32, where it overflows
        t = np.float32(0.1)
        assert TailQuery(5, t, Side.UPPER).t == t
        assert tail_bound_report(0.3, 5, t).in_validity_range
        for bad in (np.float32("inf"), np.float32(0.0), np.float32(-0.1)):
            with pytest.raises(InvalidT, match="t must be finite and > 0"):
                TailQuery(5, bad, Side.UPPER)


class TestChernoffCurve:
    def test_h_to_zero_limit_is_one(self):
        assert chernoff_curve(0.5, 0.25, 1, 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_at_optimum_equals_kl_form(self):
        h0 = optimal_h(0.5, 0.25)
        assert chernoff_curve(0.5, 0.25, 1, h0) == pytest.approx(
            kl_form_bound(0.5, 0.25, 1), abs=1e-12
        )

    def test_power_structure_in_m(self):
        v1 = chernoff_curve(0.5, 0.25, 1, math.log(3))
        v2 = chernoff_curve(0.5, 0.25, 2, math.log(3))
        assert v2 == pytest.approx(v1 * v1, abs=1e-12)

    def test_rejects_nonpositive_h(self):
        with pytest.raises(InvalidH):
            chernoff_curve(0.5, 0.25, 1, 0.0)

    @pytest.mark.parametrize("h", [math.inf, math.nan])
    def test_rejects_non_finite_h(self, h):
        # at h = inf the envelope's exponent is -inf + inf
        with pytest.raises(InvalidH):
            chernoff_curve(0.5, 0.25, 1, h)

    def test_bit_identical_to_numpy_logaddexp(self):
        # the envelope as np.logaddexp computes it, on a seeded grid up to M = 10^6
        rng = np.random.default_rng(59)
        mus = rng.uniform(0.0, 1.0, 4000)
        cases = [
            (mu, t, M, h)
            for mu, t, h in zip(mus, rng.uniform(0.0, 1.0 - mus), 10.0 ** rng.uniform(-9, 1, 4000))
            for M in (1, 7, 1000, 10**6)
        ]
        # log1p(-mu) == log(mu) + h: the two exponents tie
        cases += [(mu, 0.1, 10, math.log1p(-mu) - math.log(mu)) for mu in (0.125, 0.25, 0.375)]
        inside = 0
        for mu, t, M, h in cases:
            mu, t, h = float(mu), float(t), float(h)
            log_factor = (-mu - t) * h + np.logaddexp(math.log1p(-mu), math.log(mu) + h)
            try:
                expected = float(math.exp(M * log_factor))
            except OverflowError:
                expected = math.inf
            assert chernoff_curve(mu, t, M, h) == expected, (mu, t, M, h)
            inside += 0.0 < expected < 1.0
        assert inside > len(cases) // 4

    def test_large_h_and_m_never_raise(self):
        # diverging envelope saturates to inf; shrinking one underflows to 0
        assert chernoff_curve(0.5, 0.25, 200, 100.0) == math.inf
        assert chernoff_curve(0.5, 0.25, 10_000, math.log(3)) == 0.0


class TestOptimalH:
    def test_exact_log_ratios(self):
        assert optimal_h(0.5, 0.25) == pytest.approx(math.log(3), abs=1e-15)
        assert optimal_h(0.2, 0.3) == pytest.approx(math.log(4), abs=1e-15)

    def test_small_t_first_order(self):
        # h0 ~ t / (mu (1 - mu)) as t -> 0; equals 4t at mu = 1/2
        t = 1e-8
        assert optimal_h(0.5, t) == pytest.approx(4.0 * t, rel=1e-6)

    @pytest.mark.parametrize(
        "mu,t",
        [
            (5e-324, 0.5),  # (1 - mu - t) * mu underflows to 0 in the quotient
            (1e-300, 0.9999999999999999),  # the quotient overflows to inf
            (0.3, 1e-17),  # the quotient rounds to 1, so its log is 0
            (0.7, 1e-320),
        ],
    )
    def test_window_edges_give_a_finite_positive_h0(self, mu, t):
        h0 = optimal_h(mu, t)
        assert math.isfinite(h0) and h0 > 0.0
        r = tail_bound_report(mu, 10, t)
        assert r.h0 == h0 and not math.isnan(chernoff_curve(mu, t, 10, r.h0))

    @given(
        st.one_of(st.floats(5e-324, 1e-290), st.floats(0.0, 1.0, exclude_min=True)),
        st.one_of(st.floats(5e-324, 1e-290), st.floats(0.0, 1.0, exclude_min=True)),
        st.sampled_from([1, 10, 10**6]),
    )
    @settings(max_examples=300, deadline=None)
    def test_tiny_and_subnormal_mu_and_t(self, mu, t, M):
        if not (mu < 1.0 and t < 1.0 - mu):
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's NaN RuntimeWarning included
            h0 = optimal_h(mu, t)
            assert math.isfinite(h0) and h0 > 0.0
            assert not math.isnan(chernoff_curve(mu, t, M, h0))
            assert tail_bound_report(mu, M, t).h0 == h0

    def test_out_of_window(self):
        with pytest.raises(OutOfValidityRange):
            optimal_h(0.5, 0.5)
        with pytest.raises(OutOfValidityRange):
            optimal_h(0.5, -0.1)
        with pytest.raises(OutOfValidityRange):
            optimal_h(0.5, 0.0)

    def test_minimizes_curve_on_h_grid(self):
        h_grid = np.logspace(-4, 2, 200)
        for mu, t in validity_grid():
            h0 = optimal_h(mu, t)
            assert 1e-4 <= h0 <= 1e2  # grid endpoints bracket every optimum
            best = chernoff_curve(mu, t, 1, h0)
            for h in h_grid:
                assert chernoff_curve(mu, t, 1, float(h)) >= best - 1e-12


class TestKlFormBound:
    def test_reference_value(self):
        # (2/3)^(3/4) * 2^(1/4), evaluated independently in logs
        expected = math.exp(0.75 * math.log(2.0 / 3.0) + 0.25 * math.log(2.0))
        v = kl_form_bound(0.5, 0.25, 1)
        assert v == pytest.approx(expected, abs=1e-15)
        assert v == pytest.approx(0.8773826753016616, abs=1e-15)
        assert v <= math.exp(-0.125)

    def test_m_th_power_structure(self):
        v1 = kl_form_bound(0.5, 0.25, 1)
        v4 = kl_form_bound(0.5, 0.25, 4)
        assert v4 == pytest.approx(v1**4, rel=1e-12)
        # closed form at these arguments collapses to 16/27
        assert v4 == pytest.approx(16.0 / 27.0, abs=1e-12)

    def test_vanishing_deviation_gives_one(self):
        assert kl_form_bound(0.5, 1e-8, 3) == pytest.approx(1.0, abs=1e-12)

    def test_never_exceeds_hoeffding_form(self):
        for mu, t in validity_grid():
            assert kl_form_bound(mu, t, 1) <= hoeffding_tail_bound(1, t) + 1e-15

    def test_equals_curve_at_optimum_scaled_tolerance(self):
        for M in (1, 4, 32, 200):
            for mu, t in [(0.3, 0.2), (0.5, 0.25), (0.7, 0.1)]:
                h0 = optimal_h(mu, t)
                assert chernoff_curve(mu, t, M, h0) == pytest.approx(
                    kl_form_bound(mu, t, M), abs=1e-12 * M
                )


class TestProofInternals:
    def test_little_g_reference_values(self):
        assert little_g(0.5) == 2.0
        assert little_g(0.75) == pytest.approx(8.0 / 3.0, abs=1e-15)
        assert little_g(0.25) == pytest.approx(2.0 * math.log(3.0), abs=1e-15)

    def test_little_g_at_least_two(self):
        for mu in np.linspace(0.001, 0.999, 999):
            assert little_g(float(mu)) >= 2.0 - 1e-12
        assert abs(little_g(0.5) - 2.0) < 1e-12

    def test_big_h_reference_value(self):
        assert big_h(0.5) == pytest.approx(3.0 * math.log(2.0), abs=1e-15)

    def test_big_h_strictly_increasing(self):
        xs = np.linspace(0.001, 0.999, 1000)
        values = [big_h(float(x)) for x in xs]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_big_g_encodes_kl_exponent(self):
        # kl_form(mu, t, 1) = exp(-t^2 G(t, mu))
        for mu, t in validity_grid(n_mu=10, n_t=10):
            assert math.exp(-t * t * big_g(t, mu)) == pytest.approx(
                kl_form_bound(mu, t, 1), abs=1e-12
            )

    @pytest.mark.parametrize("mu", [0.1, 0.25, 0.4, 0.5, 0.6, 0.8, 0.95])
    def test_big_g_minimum_matches_little_g(self, mu):
        t_max = 1.0 - mu
        ts = np.linspace(t_max * 1e-3, t_max * (1.0 - 1e-3), 1000)
        values = np.array([big_g(float(t), mu) for t in ts])
        assert values.min() >= little_g(mu) - 1e-9
        argmin_t = float(ts[values.argmin()])
        step = float(ts[1] - ts[0])
        if mu < 0.5:
            assert abs(argmin_t - (1.0 - 2.0 * mu)) <= step + 1e-12
        else:
            assert argmin_t <= ts[0] + step + 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            little_g(0.0)
        with pytest.raises(DomainError):
            big_h(1.0)
        with pytest.raises(OutOfValidityRange):
            big_g(0.6, 0.5)


class TestMgfConvexityBound:
    @pytest.mark.parametrize(
        "a,b", [(1.0, 1.0), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (-1e308, 1e308)]
    )
    def test_range_must_be_nonempty_with_finite_width(self, a, b):
        with pytest.raises(DomainError):
            RangeBounds(a, b)

    def test_degenerate_at_lower_endpoint(self):
        r = RangeBounds(-1.0, 2.0)
        assert mgf_convexity_bound(-1.0, r, 0.7) == pytest.approx(
            math.exp(-0.7), abs=1e-15
        )

    def test_chord_arithmetic(self):
        assert mgf_convexity_bound(0.5, RangeBounds(0.0, 1.0), 1.0) == pytest.approx(
            0.5 + 0.5 * math.e, abs=1e-15
        )

    def test_h_zero_gives_one(self):
        assert mgf_convexity_bound(0.5, RangeBounds(0.0, 1.0), 0.0) == 1.0

    def test_mean_out_of_range(self):
        with pytest.raises(MeanOutOfRange):
            mgf_convexity_bound(1.5, RangeBounds(0.0, 1.0), 1.0)

    @pytest.mark.parametrize("h", [-2.0, -1.0, 0.5, 1.0, 2.0])
    def test_dominates_exact_mgf(self, h):
        r = RangeBounds(0.0, 1.0)
        # Bernoulli(p): E e^{hX} = 1 - p + p e^h, equality case of the chord
        for p in (0.0, 0.2, 0.5, 0.9, 1.0):
            exact = (1.0 - p) + p * math.exp(h)
            assert exact <= mgf_convexity_bound(p, r, h) + 1e-12
        # discrete distributions strictly inside the interval
        for points, weights in [
            ((0.1, 0.4, 0.9), (0.3, 0.4, 0.3)),
            ((0.25, 0.75), (0.5, 0.5)),
            ((0.5,), (1.0,)),
        ]:
            exact = sum(w * math.exp(h * x) for x, w in zip(points, weights))
            mean = sum(w * x for x, w in zip(points, weights))
            assert exact <= mgf_convexity_bound(mean, r, h) + 1e-12


class TestConfidenceInversion:
    def test_delta_one_gives_zero(self):
        assert t_for_confidence(7, 1.0) == 0.0
        assert math.copysign(1.0, t_for_confidence(7, 1.0)) == 1.0  # not -0.0

    @pytest.mark.parametrize("delta", [1e-320, 5e-324])
    def test_subnormal_delta_gives_a_finite_t(self, delta):
        # 1/delta overflows to inf; delta is k * 2^-1074, so -ln(delta) = 1074 ln 2 - ln k
        k = delta / 5e-324
        assert t_for_confidence(10, delta) == pytest.approx(
            math.sqrt((1074 * math.log(2.0) - math.log(k)) / 20.0), rel=1e-14
        )

    def test_reference_value(self):
        # sqrt(ln 20 / 400)
        assert t_for_confidence(200, 0.05) == pytest.approx(
            math.sqrt(math.log(20.0) / 400.0), abs=1e-15
        )
        assert t_for_confidence(200, 0.05) == pytest.approx(0.08654091913011426, abs=1e-15)

    def test_inverse_sqrt_m_scaling(self):
        assert t_for_confidence(800, 0.05) == pytest.approx(
            0.5 * t_for_confidence(200, 0.05), abs=1e-12
        )

    def test_round_trip_through_hoeffding_form(self):
        for M, delta in [(10, 0.3), (200, 0.05), (5, 1.0)]:
            t = t_for_confidence(M, delta)
            if t > 0:
                assert hoeffding_tail_bound(M, t) == pytest.approx(delta, rel=1e-12)

    def test_invalid_delta(self):
        with pytest.raises(InvalidDelta):
            t_for_confidence(10, 0.0)
        with pytest.raises(InvalidDelta):
            t_for_confidence(10, 1.5)


class TestLowerTailByFlip:
    def test_same_exponent_as_upper_form(self):
        s = ModelSummary(mu_plus=0.8, mu_minus=0.2, mu=0.5)
        r = tail_bound_report(side_anchor(s, Side.LOWER), 100, 0.1)
        assert r.in_validity_range
        assert r.hoeffding_form == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_window_uses_mu_minus(self):
        s = ModelSummary(mu_plus=0.8, mu_minus=0.2, mu=0.5)
        assert not tail_bound_report(side_anchor(s, Side.LOWER), 100, 0.25).in_validity_range

    @given(
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_flip_window_identity(self, mu_minus, frac):
        # the lower window equals the upper window of the reflected model
        mu_plus_flipped = 1.0 - mu_minus
        t = frac * mu_minus
        s = ModelSummary(mu_plus=max(mu_minus, 0.99), mu_minus=mu_minus, mu=0.99)
        if t <= 0.0 or t >= mu_minus:
            return
        assert (t < mu_minus) == (t < 1.0 - mu_plus_flipped)
        r = tail_bound_report(side_anchor(s, Side.LOWER), 10, t)
        assert r.in_validity_range and r.hoeffding_form == hoeffding_tail_bound(10, t)


@pytest.mark.parametrize("side", [Side.UPPER, Side.LOWER])
def test_a_summary_of_numpy_integers_anchors_as_its_floats(side):
    s = ModelSummary(mu_plus=np.int64(1), mu_minus=np.int64(0), mu=0.5)
    assert all(type(mean) is float for mean in (s.mu_plus, s.mu_minus, s.mu))
    a = side_anchor(s, side)
    assert a == 1
    threshold = sum_threshold(10**6, a, 0.1)
    assert threshold == sum_threshold(10**6, Fraction(1), 0.1)
    assert round(threshold) == 1_100_000


class TestTailBoundReport:
    def test_inside_window(self):
        r = tail_bound_report(0.5, 1, 0.25)
        assert r.in_validity_range
        assert r.h0 == pytest.approx(math.log(3), abs=1e-15)
        assert chernoff_curve(0.5, 0.25, 1, r.h0) == pytest.approx(r.kl_form, abs=1e-12)
        assert r.kl_form <= r.hoeffding_form

    def test_outside_window(self):
        r = tail_bound_report(0.95, 100, 0.1)
        assert not r.in_validity_range
        assert r.h0 is None and r.kl_form is None
        assert r.hoeffding_form == pytest.approx(math.exp(-2.0), abs=1e-15)

    @pytest.mark.parametrize(
        "anchor", [-0.5, 1.5, Fraction(-1, 2), Fraction(3, 2), math.nan, -math.inf, math.inf]
    )
    def test_rejects_anchor_outside_unit_interval(self, anchor):
        with pytest.raises(DomainError, match="anchor must lie in"):
            tail_bound_report(anchor, 2, 0.1)

    @pytest.mark.parametrize(
        "anchor",
        [0.7, Fraction(7, 10), 1 - Fraction(0.3), np.float64(0.7), np.int64(0), 1, 0,
         Fraction(0), Fraction(1)],
    )
    @pytest.mark.parametrize("t", [0.3, np.float64(0.3), 0.30000000000000004, np.int64(1)])
    def test_window_is_decided_exactly_on_any_number_type(self, anchor, t):
        expected = bool(Fraction(t) < 1 - Fraction(anchor))
        assert tail_bound_report(anchor, 10, t).in_validity_range is expected

    def test_boundary_mu_yields_no_optimized_forms(self):
        r = tail_bound_report(1.0, 10, 0.1)
        assert not r.in_validity_range
        r0 = tail_bound_report(0.0, 10, 0.1)
        assert r0.in_validity_range and r0.kl_form is None


class TestHugeM:
    def test_closed_forms_take_any_m_that_fits_in_a_float(self):
        assert tail_bound_report(0.5, 10**300, 0.1).hoeffding_form == 0.0
        assert t_for_confidence(10**300, 0.1) > 0.0
        with pytest.raises(DomainError):
            tail_bound_report(0.5, 10**310, 0.1)
        with pytest.raises(DomainError):
            t_for_confidence(10**310, 0.1)

    def test_engines_take_m_below_2_to_the_63(self):
        assert TailQuery(M=2**63 - 1, t=0.1, side=Side.UPPER).M == 2**63 - 1
        with pytest.raises(DomainError):
            TailQuery(M=2**63, t=0.1, side=Side.UPPER)

    @pytest.mark.parametrize("M", [2.5, 3.0, np.float64(3.0), "3"])
    def test_engines_take_only_integer_m(self, M):
        with pytest.raises(DomainError, match="M must be an integer"):
            TailQuery(M=M, t=0.1, side=Side.UPPER)
        assert TailQuery(M=np.int64(3), t=0.1, side=Side.UPPER).M == 3

    @pytest.mark.parametrize("M", [10**5000, -(10**5000)], ids=["5000-digits", "minus-5000-digits"])
    @pytest.mark.parametrize(
        "call",
        [lambda M: TailQuery(M=M, t=0.1, side=Side.UPPER), lambda M: hoeffding_tail_bound(M, 0.1)],
        ids=["TailQuery", "hoeffding_tail_bound"],
    )
    def test_a_huge_m_is_refused_by_its_size(self, call, M):
        # str() of an int refuses more than 4300 digits
        with pytest.raises(DomainError, match="integer of 16610 bits"):
            call(M)


BIG = 10**5000  # repr() refuses an int of more than 4300 digits
BERN = FiniteMixture([(1.0, Bernoulli(0.3))])
UPPER_CELL = ([("bern", BERN)], [5], [0.1], [Side.UPPER], 100, 0)
HUGE_ARGUMENT_CALLS = {
    "optimal_h-t": (OutOfValidityRange, lambda: optimal_h(0.3, BIG)),
    "optimal_h-mu": (DomainError, lambda: optimal_h(BIG, 0.1)),
    "little_g": (DomainError, lambda: little_g(BIG)),
    "chernoff_curve-h": (InvalidH, lambda: chernoff_curve(0.3, 0.1, 5, BIG)),
    "big_h": (DomainError, lambda: big_h(BIG)),
    "t_for_confidence-delta": (InvalidDelta, lambda: t_for_confidence(5, BIG)),
    "mgf-mean": (MeanOutOfRange, lambda: mgf_convexity_bound(BIG, RangeBounds(0, 1), 1.0)),
    "RangeBounds": (DomainError, lambda: RangeBounds(0, BIG)),
    "tail_bound_report-anchor": (DomainError, lambda: tail_bound_report(BIG, 5, 0.1)),
    "estimate_tail-level": (
        DomainError, lambda: estimate_tail(BERN, TailQuery(5, 0.1, Side.UPPER), 100, 0, level=BIG)
    ),
    "clopper_pearson-level": (DomainError, lambda: clopper_pearson_interval(1, 10, level=BIG)),
    "run_sweep-level": (DomainError, lambda: run_sweep(*UPPER_CELL, level=BIG)),
    "run_sweep-method": (DomainError, lambda: run_sweep(*UPPER_CELL, method=BIG)),
    "run_sweep-model_id": (DomainError, lambda: run_sweep([(BIG, BERN)], *UPPER_CELL[1:])),
    # enum names a value it refuses by repr, so each entry checks a side first
    "TailQuery-side": (DomainError, lambda: TailQuery(5, 0.1, BIG)),
    "run_sweep-side": (DomainError, lambda: run_sweep(*UPPER_CELL[:3], [BIG], *UPPER_CELL[4:])),
    "exact_sum_tail-side": (DomainError, lambda: exact_sum_tail(BERN, 5, 1, BIG)),
    "side_anchor-side": (DomainError, lambda: side_anchor(summarize(BERN), BIG)),
    "Bernoulli": (InvalidModel, lambda: Bernoulli(BIG)),
    "PointMass": (InvalidModel, lambda: PointMass(BIG)),
    "DiscreteOnUnit-point": (InvalidModel, lambda: DiscreteOnUnit([0.0, BIG], [0.5, 0.5])),
    "DiscreteOnUnit-weight": (InvalidModel, lambda: DiscreteOnUnit([0.0, 1.0], [BIG, 0])),
    "UniformDensity": (InvalidModel, lambda: UniformDensity(0.0, BIG)),
    "Beta": (InvalidModel, lambda: Beta(BIG, 1.0)),
    "FiniteMixture-weight": (InvalidModel, lambda: FiniteMixture([(BIG, Bernoulli(0.3))])),
    "TruncatedBetaDensity": (InvalidModel, lambda: TruncatedBetaDensity(BIG, 1.0, 0.1, 0.9)),
    "ModelSummary": (InvalidModel, lambda: ModelSummary(mu_plus=BIG, mu_minus=0.0, mu=0.5)),
}


@pytest.mark.parametrize("error,call", HUGE_ARGUMENT_CALLS.values(), ids=HUGE_ARGUMENT_CALLS)
def test_a_huge_int_is_refused_by_its_check_and_named_by_its_size(error, call):
    with pytest.raises(error, match="an integer of 16610 bits"):
        call()


def test_a_text_past_20_characters_is_named_by_its_length():
    assert _shown("x" * 20) == repr("x" * 20)
    assert _shown("x" * 21) == "a text of 21 characters"
    with pytest.raises(DomainError, match="got a text of 5000 characters$"):
        TailQuery(5, 0.1, "x" * 5000)


def f32_range(a, b):
    return RangeBounds(np.float32(a), np.float32(b))


class TestFloatArguments:
    # each form with float32 M, t, mu, h, x, delta, mean or range ends; float32
    # arithmetic would differ in the 7th digit, and little_g, big_g, big_h and
    # mgf_convexity_bound would return np.float32
    F32 = np.float32
    CALLS = [
        (hoeffding_tail_bound, (F32(7), F32(0.1))),
        (chernoff_curve, (F32(0.3), F32(0.1), F32(5), F32(0.4))),
        (optimal_h, (F32(0.3), F32(0.1))),
        (kl_form_bound, (F32(0.3), F32(0.1), F32(5))),
        (big_g, (F32(0.1), F32(0.3))),
        (little_g, (F32(0.3),)),
        (little_g, (F32(0.7),)),
        (big_h, (F32(0.3),)),
        (t_for_confidence, (F32(7), F32(0.05))),
        (mgf_convexity_bound, (F32(0.3), f32_range(-0.2, 1.3), F32(0.7))),
        (mgf_convexity_bound, (0.3, f32_range(-0.2, 1.3), 0.7)),
    ]

    @staticmethod
    def floated(arg):
        if isinstance(arg, RangeBounds):
            return RangeBounds(float(arg.a), float(arg.b))
        return float(arg)

    @pytest.mark.parametrize(
        "form,args", CALLS,
        ids=["hoeffding", "chernoff", "optimal_h", "kl_form", "big_g", "little_g-below-half",
             "little_g-above-half", "big_h", "t_for_confidence", "mgf", "mgf-range"],
    )
    def test_a_closed_form_computes_in_the_floats_of_its_arguments(self, form, args):
        value = form(*args)
        assert type(value) is float
        assert value.hex() == form(*map(self.floated, args)).hex()

    @pytest.mark.parametrize("anchor", [np.float32(0.3), Fraction(3, 10)])
    def test_tail_bound_report_computes_in_the_floats_of_its_arguments(self, anchor):
        report = tail_bound_report(anchor, self.F32(5), self.F32(0.1))
        floated = anchor if isinstance(anchor, Fraction) else float(anchor)
        assert report == tail_bound_report(floated, 5.0, float(self.F32(0.1)))
        assert all(type(v) is float for v in (report.hoeffding_form, report.h0, report.kl_form))
        assert type(report.in_validity_range) is bool

    def test_range_ends_are_kept_as_floats(self):
        r = f32_range(-0.2, 1.3)
        assert (type(r.a), type(r.b)) == (float, float)
        assert (r.a, r.b) == (float(np.float32(-0.2)), float(np.float32(1.3)))
