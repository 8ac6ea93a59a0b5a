"""Exact tails vs brute-force enumeration, reflection, and parameter-mixture references."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from exchbound import (
    Bernoulli,
    Beta,
    BernoulliParamMixture,
    DiscreteOnUnit,
    DomainError,
    FiniteMixture,
    MTooLarge,
    PointMass,
    Side,
    TailMethod,
    TailQuery,
    TruncatedBetaDensity,
    UniformDensity,
    UnsupportedModel,
    exact_sum_tail,
    exact_tail,
    flip_model,
    hoeffding_tail_bound,
    standard_suite,
    summarize,
)
from exchbound import montecarlo, oracle
from exchbound.bounds import side_anchor
from exchbound.model import beta_interval_mass
from exchbound.oracle import (
    LATTICE_DENSE_MAX,
    LATTICE_MAX_STATES,
    SumTable,
    _beta_binomial_terms,
    _dense_power,
    _float_ceil,
    _lattice_law,
    _sparse_law,
    group_law,
    lattice_points,
)

TWO_ATOM = FiniteMixture([(0.5, Bernoulli(0.2)), (0.5, Bernoulli(0.8))])


def enumerate_tail(m: FiniteMixture, M: int, threshold, side=Side.UPPER) -> float:
    """Brute-force oracle: sum over all value tuples with S >= threshold
    (upper side) or S <= threshold (lower side)."""
    thr = Fraction(threshold)
    total = 0.0
    for w, c in m.atoms:
        if isinstance(c, Bernoulli):
            points, weights = (0, 1), (1.0 - float(c.p), float(c.p))
        elif isinstance(c, PointMass):
            points, weights = (c.c,), (1.0,)
        elif isinstance(c, DiscreteOnUnit):
            points, weights = c.points, c.weights
        else:
            raise AssertionError("enumeration oracle needs discrete components")
        for combo in itertools.product(range(len(points)), repeat=M):
            s = sum(Fraction(points[i]) for i in combo)
            if (s >= thr if side is Side.UPPER else s <= thr):
                total += w * math.prod(weights[i] for i in combo)
    return total


class TestFiniteMixtureTails:
    def test_two_atom_upper_reference(self):
        tail = exact_tail(TWO_ATOM, TailQuery(M=2, t=0.15, side=Side.UPPER))
        assert tail.probability == pytest.approx(0.34, abs=1e-12)
        assert tail.method is TailMethod.BINOMIAL_CLOSED_FORM
        assert tail.probability <= hoeffding_tail_bound(2, 0.15)

    def test_two_atom_lower_by_symmetry(self):
        tail = exact_tail(TWO_ATOM, TailQuery(M=2, t=0.15, side=Side.LOWER))
        # the model is invariant under x -> 1-x, so both tails agree
        assert tail.probability == pytest.approx(0.34, abs=1e-9)

    def test_iid_coin_upper(self):
        m = FiniteMixture([(1.0, Bernoulli(0.5))])
        tail = exact_tail(m, TailQuery(M=2, t=0.4, side=Side.UPPER))
        assert tail.probability == pytest.approx(0.25, abs=1e-15)
        assert tail.probability <= hoeffding_tail_bound(2, 0.4)

    def test_nonstrict_boundary_inclusion(self):
        # dyadic parameters: threshold 4*(0.5+0.25) = 3 exactly on the lattice
        m = FiniteMixture([(1.0, Bernoulli(0.5))])
        tail = exact_tail(m, TailQuery(M=4, t=0.25, side=Side.UPPER))
        assert tail.probability == pytest.approx(5.0 / 16.0, abs=1e-15)  # S in {3, 4}

    @pytest.mark.parametrize("t", [0.01, 0.05])
    def test_fair_coin_tail_at_large_m_is_precise(self, t):
        # where the bound is nearly tight (values 1.7e-4 and 5.0e-72), against
        # the exact sum of C(M, k)/2^M over k >= ceil(M*(1/2 + t)), in Python ints
        M = 32_000
        k = math.ceil(M * (Fraction(1, 2) + Fraction(t)))
        term = math.comb(M, k)
        total = 0
        for j in range(k, M + 1):
            total += term
            term = term * (M - j) // (j + 1)
        exact = total / 2**M
        m = FiniteMixture([(1.0, Bernoulli(0.5))])
        got = exact_tail(m, TailQuery(M=M, t=t, side=Side.UPPER))
        assert got.method is TailMethod.BINOMIAL_CLOSED_FORM
        assert abs(got.probability - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5])
    def test_binomial_path_matches_enumeration(self, M):
        for t in (0.05, 0.11, 0.19):
            thr = Fraction(M) * (Fraction(0.8) + Fraction(t))
            got = exact_tail(TWO_ATOM, TailQuery(M=M, t=t, side=Side.UPPER)).probability
            assert got == pytest.approx(enumerate_tail(TWO_ATOM, M, thr), abs=1e-12)

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_convolution_path_matches_enumeration(self, M):
        m = FiniteMixture(
            [
                (0.25, DiscreteOnUnit(points=[0.0, 0.3, 1.0], weights=[0.5, 0.25, 0.25])),
                (0.75, DiscreteOnUnit(points=[0.1, 0.6], weights=[0.4, 0.6])),
            ]
        )
        mu_plus = summarize(m).mu_plus
        for t in (0.04, 0.13):
            thr = Fraction(M) * (Fraction(mu_plus) + Fraction(t))
            got = exact_tail(m, TailQuery(M=M, t=t, side=Side.UPPER))
            assert got.method is TailMethod.DISCRETE_CONVOLUTION
            assert got.probability == pytest.approx(
                enumerate_tail(m, M, thr), abs=1e-12
            )

    def test_mixed_atom_kinds(self):
        m = FiniteMixture(
            [
                (0.5, Bernoulli(0.5)),
                (0.3, PointMass(0.75)),
                (0.2, DiscreteOnUnit(points=[0.25, 1.0], weights=[0.5, 0.5])),
            ]
        )
        M = 3
        mu_plus = summarize(m).mu_plus
        thr = Fraction(M) * (Fraction(mu_plus) + Fraction(0.1))
        got = exact_tail(m, TailQuery(M=M, t=0.1, side=Side.UPPER))
        assert got.probability == pytest.approx(enumerate_tail(m, M, thr), abs=1e-12)

    def test_convolution_guard(self):
        assert (LATTICE_DENSE_MAX, LATTICE_MAX_STATES) == (1 << 14, 1024)
        # M draws from [0, 0.5, 1] lie on 2M+1 lattice sums: M=8191 fits, M=8192 does not
        m = FiniteMixture(
            [(1.0, DiscreteOnUnit(points=[0.0, 0.5, 1.0], weights=[0.3, 0.4, 0.3]))]
        )
        tail = exact_tail(m, TailQuery(M=8191, t=0.1, side=Side.UPPER))
        assert tail.method is TailMethod.DISCRETE_CONVOLUTION
        assert 0.0 < tail.probability <= hoeffding_tail_bound(8191, 0.1)
        with pytest.raises(MTooLarge):
            exact_tail(m, TailQuery(M=8192, t=0.1, side=Side.UPPER))
        # five generic points: 976 sums of 10 draws, more than 1024 of 11
        generic = FiniteMixture(
            [(1.0, DiscreteOnUnit(points=[0.1, 0.3, 0.45, 0.8, 0.95], weights=[0.2] * 5))]
        )
        assert exact_tail(generic, TailQuery(M=10, t=0.1, side=Side.UPPER)).probability > 0.0
        with pytest.raises(MTooLarge):
            exact_tail(generic, TailQuery(M=11, t=0.1, side=Side.UPPER))
        # a one-point lattice never grows, whatever M
        for pm in (PointMass(0.5), DiscreteOnUnit(points=[0.5], weights=[1.0])):
            tail = exact_tail(FiniteMixture([(1.0, pm)]), TailQuery(M=5000, t=0.1, side=Side.UPPER))
            assert tail.probability == 0.0

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    @pytest.mark.parametrize("flip", [False, True])
    def test_lattice_law_matches_enumeration_on_attained_sums(self, M, flip):
        m = FiniteMixture(
            [
                (0.2, PointMass(0.1)),
                (0.5, DiscreteOnUnit(points=[0.0, 0.3, 0.7], weights=[0.2, 0.5, 0.3])),
                (0.3, DiscreteOnUnit(points=[0.25, 0.6], weights=[0.4, 0.6])),
            ]
        )
        if flip:  # points become exact rational complements such as 1 - Fraction(0.3)
            m = flip_model(m)
        attained = {
            sum(map(Fraction, combo))
            for c in m.components
            for combo in itertools.product(c.discrete_law()[0], repeat=M)
        }
        for thr in sorted(attained):
            got = exact_sum_tail(m, M, thr, Side.UPPER)
            assert got.method is TailMethod.DISCRETE_CONVOLUTION
            assert got.probability == pytest.approx(enumerate_tail(m, M, thr), abs=1e-12)

    def test_one_lattice_law_serves_every_t(self):
        m = FiniteMixture(
            [(1.0, DiscreteOnUnit(points=[0.0, 0.5, 1.0], weights=[0.2, 0.3, 0.5]))]
        )
        group_law.cache_clear()
        _lattice_law.cache_clear()
        for t in [0.01 * k for k in range(1, 11)]:
            exact_tail(m, TailQuery(M=50, t=t, side=Side.UPPER))
        info = group_law.cache_info()
        assert (info.misses, info.hits) == (1, 9)
        assert _lattice_law.cache_info().misses == 1

    def test_lattice_refusal_is_cached(self):
        # [0, 0.5, 1] at M=8200 is past both guards; the refusal is cached like a law
        m = FiniteMixture(
            [(1.0, DiscreteOnUnit(points=[0.0, 0.5, 1.0], weights=[0.2, 0.3, 0.5]))]
        )
        _lattice_law.cache_clear()
        for t in [0.01 * k for k in range(1, 11)]:
            with pytest.raises(MTooLarge):
                exact_tail(m, TailQuery(M=8200, t=t, side=Side.UPPER))
        info = _lattice_law.cache_info()
        assert (info.misses, info.hits) == (1, 9)

    def test_one_point_law_takes_no_steps(self):
        # stepping M times would take hours at M = 10^12
        table = _lattice_law((0.5,), (1.0,), 10**12)
        assert (table.scale, tuple(table.keys), table.at_least.tolist()) == (2, (10**12,), [1.0, 0.0])
        zero_one = dict(standard_suite())["zero_one"]
        for side in (Side.UPPER, Side.LOWER):
            tail = exact_tail(zero_one, TailQuery(M=10**12, t=0.1, side=side))
            assert tail.method is TailMethod.DISCRETE_CONVOLUTION
            assert tail.probability == 0.0

    def test_beta_components_unsupported(self):
        m = FiniteMixture([(1.0, Beta(2.0, 2.0))])
        with pytest.raises(UnsupportedModel):
            exact_tail(m, TailQuery(M=2, t=0.1, side=Side.UPPER))


def two_point(points, weights):
    return FiniteMixture([(1.0, DiscreteOnUnit(points=points, weights=weights))])


def dense_two_point_law(points, weights, M) -> SumTable:
    """The dense lattice law of M draws from two points, the M-th convolution
    power of their step law, which the oracle no longer builds for two points."""
    D, (z0, z1) = lattice_points(points)
    return SumTable(D, range(M * z0, M * z1 + 1, z1 - z0), _dense_power(np.array(weights), M))


def exact_binomial_masses(M: int, w1: float) -> tuple[list[int], int]:
    """(masses, scale): the Binomial(M, w1) masses of k = 0..M times scale, in
    integers, C(M, k) a^k (b - a)^(M - k) with w1 = a/b exactly, and scale = b^M."""
    a, b = Fraction(w1).as_integer_ratio()
    if a in (0, b):  # w1 = 0 or 1: all the mass at one end
        return [int(k == (0 if a == 0 else M)) for k in range(M + 1)], 1
    masses = [(b - a) ** M]
    for j in range(M):  # C(M, j+1) a^(j+1) (b-a)^(M-j-1), exactly
        masses.append(masses[-1] * (M - j) * a // ((j + 1) * (b - a)))
    return masses, b**M


def two_point_tail(points, w1, M, thr, side) -> Fraction:
    """P(S >= thr) (upper) or P(S <= thr) (lower) for M draws from two points, the
    upper of weight w1, summed over the M + 1 sums in exact rationals."""
    x0, x1 = map(Fraction, points)
    q = Fraction(w1)
    return sum(
        math.comb(M, b) * q**b * (1 - q) ** (M - b)
        for b in range(M + 1)
        if (M * x0 + (x1 - x0) * b >= thr if side is Side.UPPER else M * x0 + (x1 - x0) * b <= thr)
    )


class TestTwoPointAtoms:
    """Every atom of two points, Bernoulli or discrete, is one incomplete beta at any M."""

    MODELS = [((0.2, 0.9), (0.3, 0.7)), ((0.1, 0.6), (0.4, 0.6))]

    @pytest.mark.parametrize("M", range(1, 9))
    @pytest.mark.parametrize("points,weights", MODELS, ids=["0.2-0.9", "0.1-0.6"])
    @pytest.mark.parametrize("flip", [False, True])
    def test_matches_exact_rational_enumeration(self, points, weights, M, flip):
        m = two_point(points, weights)
        if flip:  # points become exact rational complements such as 1 - Fraction(0.9)
            m = flip_model(m)
        ((_, c),) = m.atoms
        x0, x1 = map(Fraction, c.points)
        sums = [M * x0 + (x1 - x0) * b for b in range(M + 1)]
        gap = (x1 - x0) / 3
        for side in (Side.UPPER, Side.LOWER):
            for thr in {*sums, *(s + gap for s in sums), *(s - gap for s in sums)}:
                got = exact_sum_tail(m, M, thr, side)
                assert got.method is TailMethod.BINOMIAL_CLOSED_FORM
                expected = float(two_point_tail(c.points, c.weights[1], M, thr, side))
                assert got.probability == pytest.approx(expected, rel=1e-13, abs=0.0), thr
            for t in (0.01, 0.1, 0.25):
                got = exact_tail(m, TailQuery(M=M, t=t, side=side))
                a = side_anchor(summarize(m), side)
                thr = M * (a + Fraction(t)) if side is Side.UPPER else M * (1 - a - Fraction(t))
                expected = float(two_point_tail(c.points, c.weights[1], M, thr, side))
                assert got.probability == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("M", [100, 1_000, LATTICE_DENSE_MAX - 1])
    @pytest.mark.parametrize("flip", [False, True])
    def test_agrees_with_the_lattice_law_up_to_its_cap(self, M, flip):
        m = two_point((0.2, 0.9), (0.3, 0.7))
        if flip:
            m = flip_model(m)
        ((_, c),) = m.atoms
        table = dense_two_point_law(c.points, c.weights, M)
        x0, x1 = map(Fraction, c.points)
        for b in sorted({*range(0, M + 1, max(1, M // 200)), *range(M - 40, M + 1)}):
            thr = M * x0 + (x1 - x0) * b
            expected = float(table.tail(thr))
            got = exact_sum_tail(m, M, thr, Side.UPPER).probability
            if expected > 1e-300:
                assert got == pytest.approx(expected, rel=1e-11, abs=0.0), b

    @pytest.mark.parametrize("M", [LATTICE_DENSE_MAX, 10**6])
    @pytest.mark.parametrize("side", [Side.UPPER, Side.LOWER])
    def test_past_the_lattice_cap_is_one_incomplete_beta(self, M, side):
        m = two_point((0.2, 0.9), (0.3, 0.7))
        got = exact_tail(m, TailQuery(M=M, t=0.01, side=side))
        assert got.method is TailMethod.BINOMIAL_CLOSED_FORM
        # the upper side's count of 0.9s, or the lower side's count of 0.2s, reaches k
        c = flip_model(m).atoms[0][1] if side is Side.LOWER else m.atoms[0][1]
        x0, x1 = map(Fraction, c.points)
        a = side_anchor(summarize(m), side)
        k = math.ceil((M * (a + Fraction(0.01)) - M * x0) / (x1 - x0))
        assert 0 < k <= M
        assert got.probability == float(special.betainc(k, M - k + 1, c.weights[1]))
        assert 0.0 < got.probability <= hoeffding_tail_bound(M, 0.01)

    @pytest.mark.parametrize("p", [0.3, 0.25, 1e-3, 0.999])
    def test_a_two_point_atom_on_0_1_is_the_bernoulli_bit_for_bit(self, p):
        bern = FiniteMixture([(1.0, Bernoulli(p))])
        disc = two_point((0, 1), (1 - p, p))
        for M in (1, 7, 200, 10**5):
            for side in (Side.UPPER, Side.LOWER):
                for t in (1e-4, 0.01, 0.1, 0.3):
                    q = TailQuery(M=M, t=t, side=side)
                    assert exact_tail(disc, q) == exact_tail(bern, q)

    @pytest.mark.parametrize("weights,x", [((1.0, 0.0), 0.2), ((0.0, 1.0), 0.9)])
    def test_a_zero_weight_point_is_never_reached(self, weights, x):
        # every draw is x, so S = M*x exactly, at every M
        m = two_point((0.2, 0.9), weights)
        for M in (1, 3, 10**6):
            s = M * Fraction(x)
            for thr, upper, lower in ((s, 1.0, 1.0), (s + Fraction(1, 10**9), 0.0, 1.0),
                                      (s - Fraction(1, 10**9), 1.0, 0.0)):
                assert exact_sum_tail(m, M, thr, Side.UPPER).probability == upper
                assert exact_sum_tail(m, M, thr, Side.LOWER).probability == lower

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_a_mixture_is_binomial_only_if_every_atom_has_two_points(self, M):
        two = (0.6, DiscreteOnUnit(points=[0.2, 0.9], weights=[0.3, 0.7]))
        for other, method in (
            (Bernoulli(0.4), TailMethod.BINOMIAL_CLOSED_FORM),
            (DiscreteOnUnit(points=[0.0, 0.3, 1.0], weights=[0.5, 0.25, 0.25]),
             TailMethod.DISCRETE_CONVOLUTION),
            (PointMass(0.5), TailMethod.DISCRETE_CONVOLUTION),
        ):
            m = FiniteMixture([two, (0.4, other)])
            thr = Fraction(M) * (Fraction(summarize(m).mu_plus) + Fraction(0.05))
            got = exact_sum_tail(m, M, thr, Side.UPPER)
            assert got.method is method
            assert got.probability == pytest.approx(enumerate_tail(m, M, thr), rel=1e-12)


class TestDegenerateModel:
    ZERO_ONE = FiniteMixture([(0.5, PointMass(0.0)), (0.5, PointMass(1.0))])

    def test_upper_tail_is_zero_beyond_mu_plus(self):
        for M in (1, 3, 10, 100):
            for t in (0.01, 0.4, 0.9):
                tail = exact_tail(self.ZERO_ONE, TailQuery(M=M, t=t, side=Side.UPPER))
                assert tail.probability == 0.0

    def test_mass_far_from_distribution_mean(self):
        # P(Xbar - 0.5 >= 0.4) = P(S >= 0.9 M) = 0.5 for every M
        for M in (1, 2, 5, 10, 64):
            tail = exact_sum_tail(self.ZERO_ONE, M, Fraction(9, 10) * M, Side.UPPER)
            assert tail.probability == 0.5

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", [Side.UPPER, Side.LOWER])
    def test_non_finite_threshold_is_a_domain_error(self, threshold, side):
        with pytest.raises(DomainError, match="threshold must be finite"):
            exact_sum_tail(self.ZERO_ONE, 3, threshold, side)


class TestFlip:
    def test_bernoulli_reflection(self):
        flipped = flip_model(FiniteMixture([(1.0, Bernoulli(0.2))]))
        p = flipped.components[0].p
        assert float(p) == 0.8  # correctly rounded
        assert p == 1 - Fraction(0.2)  # stored exactly, so flip can invert it

    @pytest.mark.parametrize("model_id,m", list(standard_suite()))
    def test_involution_on_suite(self, model_id, m):
        assert flip_model(flip_model(m)) == m

    def test_involution_with_discrete_and_beta(self):
        m = FiniteMixture(
            [
                (0.6, DiscreteOnUnit(points=[0.1, 0.3, 0.9], weights=[0.2, 0.5, 0.3])),
                (0.4, Beta(2.0, 7.0)),
            ]
        )
        assert flip_model(flip_model(m)) == m

    def test_truncated_beta_reflection(self):
        m = BernoulliParamMixture(TruncatedBetaDensity(2.0, 5.0, 0.1, 0.7))
        f = flip_model(m)
        assert (f.density.alpha, f.density.beta) == (5.0, 2.0)
        assert f.density.lo == pytest.approx(0.3, abs=1e-15)
        assert f.density.hi == pytest.approx(0.9, abs=1e-15)
        assert flip_model(f) == m

    @pytest.mark.parametrize("model_id,m", list(standard_suite()))
    def test_summary_reflection_identity(self, model_id, m):
        s = summarize(m)
        fs = summarize(flip_model(m))
        assert fs.mu_plus == 1.0 - s.mu_minus
        assert fs.mu_minus == 1.0 - s.mu_plus

    @pytest.mark.parametrize("model_id,m", list(standard_suite()))
    def test_lower_tail_equals_flipped_upper_exactly(self, model_id, m):
        for M in (1, 2, 7):
            for t in (0.05, 0.12):
                lower = exact_tail(m, TailQuery(M=M, t=t, side=Side.LOWER))
                upper = exact_tail(flip_model(m), TailQuery(M=M, t=t, side=Side.UPPER))
                assert lower.probability == upper.probability  # bit-exact
                assert lower.method == upper.method

    def test_lower_tail_against_direct_enumeration(self):
        # independent check of the reflected computation: enumerate
        # P(S <= M*(mu_minus - t)) directly on the original model
        m = FiniteMixture(
            [(0.5, Bernoulli(0.25)), (0.5, DiscreteOnUnit([0.5, 1.0], [0.5, 0.5]))]
        )
        M, t = 3, 0.1
        thr = Fraction(M) * (Fraction(summarize(m).mu_minus) - Fraction(t))
        got = exact_tail(m, TailQuery(M=M, t=t, side=Side.LOWER)).probability
        assert got == pytest.approx(enumerate_tail(m, M, thr, Side.LOWER), abs=1e-9)

    @pytest.mark.parametrize("model_id,m", list(standard_suite()))
    def test_lower_sum_tail_is_flipped_upper_exactly(self, model_id, m):
        for M in (1, 2, 7):
            for thr in (Fraction(0), Fraction(M, 3), Fraction(M) * Fraction(0.3), Fraction(M)):
                lower = exact_sum_tail(m, M, thr, Side.LOWER)
                assert lower == exact_sum_tail(flip_model(m), M, M - thr, Side.UPPER)

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_lower_sum_tail_matches_enumeration(self, M):
        m = FiniteMixture(
            [
                (0.3, Bernoulli(0.3)),
                (0.2, PointMass(0.1)),
                (0.5, DiscreteOnUnit(points=[0.0, 0.3, 0.7], weights=[0.2, 0.5, 0.3])),
            ]
        )
        # thresholds on the lattice: M*0.1 and M*0.3 are attained sums
        on_lattice = (Fraction(M) * Fraction(0.1), Fraction(M) * Fraction(0.3))
        for thr in (0, *on_lattice, Fraction(M, 2), M):
            got = exact_sum_tail(m, M, thr, Side.LOWER).probability
            assert got == pytest.approx(enumerate_tail(m, M, thr, Side.LOWER), abs=1e-12)


class TestDecimalGridEvents:
    """Each side decides its documented event: S >= M*(mu_plus + t) for the
    upper side, S <= M*(mu_minus - t) for the lower side, on the rational
    values of the IEEE inputs.  1.0 - mu_minus rounds in floats, so a lower
    anchor taken in floats moves thresholds that land on the lattice."""

    def test_suite_decimal_grid_decides_the_documented_event(self):
        wrong = []
        for model_id, m in standard_suite():
            s = summarize(m)
            for side in (Side.UPPER, Side.LOWER):
                for M in (1, 2, 5, 10, 50, 200):
                    for t in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
                        if side is Side.UPPER:
                            thr = M * (Fraction(s.mu_plus) + Fraction(t))
                        else:
                            thr = M * (Fraction(s.mu_minus) - Fraction(t))
                        try:
                            got = exact_tail(m, TailQuery(M=M, t=t, side=side))
                        except MTooLarge:
                            with pytest.raises(MTooLarge):
                                exact_sum_tail(m, M, thr, side)
                            continue
                        if got != exact_sum_tail(m, M, thr, side):  # bit for bit
                            wrong.append((model_id, str(side), M, t))
        assert wrong == []

    def test_bernoulli_lower_tail_on_the_lattice(self):
        # 10*(0.2 - 0.1) is just above 1 in rationals, so the event is S <= 1
        m = FiniteMixture([(1.0, Bernoulli(0.2))])
        thr = 10 * (Fraction(0.2) - Fraction(0.1))
        got = exact_tail(m, TailQuery(M=10, t=0.1, side=Side.LOWER)).probability
        assert got == pytest.approx(enumerate_tail(m, 10, thr, Side.LOWER), abs=1e-12)
        assert got == pytest.approx(0.8**10 + 10 * 0.2 * 0.8**9, abs=1e-12)  # 0.376


@st.composite
def grid_laws(draw):
    """(points, weights, M): 2 to 5 points on a grid of step 1/q, q <= 10,
    weights as small as 1e-6, M small enough for the sparse path too."""
    q = draw(st.integers(1, 10))
    ticks = draw(st.lists(st.integers(0, q), min_size=2, max_size=5, unique=True))
    raw = draw(st.lists(st.floats(1e-6, 1.0), min_size=len(ticks), max_size=len(ticks)))
    weights = tuple(w / math.fsum(raw) for w in raw)
    return tuple(Fraction(i, q) for i in sorted(ticks)), weights, draw(st.integers(1, 60))


class TestLatticeLaws:
    """The dense law (repeated squaring over the gcd grid) and the sparse law
    (a dict of sums, one draw at a time) against each other and references."""

    @given(grid_laws())
    @settings(max_examples=150, deadline=None)
    # a two-point tail deep below 1e-240, where scipy's betainc was off by 1.4e-6
    @example(((Fraction(0), Fraction(1)), (0.9999990000010001, 9.99999000001e-07), 57))
    def test_dense_and_sparse_laws_agree(self, law):
        points, weights, M = law
        dense = _lattice_law(points, weights, M)
        assert isinstance(dense.keys, range)  # the dense path, or two points' incomplete beta
        D, ints = lattice_points(points)
        sparse = SumTable(D, *_sparse_law(ints, weights, M))
        assert set(sparse.keys) <= set(dense.keys)
        for s in dense.keys:
            a, b = (float(table.tail(Fraction(s, D))) for table in (dense, sparse))
            if max(a, b) > 1e-300:
                assert a == pytest.approx(b, rel=1e-12, abs=0.0), s

    @pytest.mark.parametrize("M,rel", [(200, 1e-13), (8000, 2e-12)])
    def test_two_point_law_against_incomplete_beta(self, M, rel):
        p = 0.3
        table = dense_two_point_law((0.0, 1.0), (1.0 - p, p), M)
        for k in sorted({*range(1, M + 1, M // 100), *range(M - 60, M + 1)}):
            expected = float(special.betainc(k, M - k + 1, p))  # P(Bin(M, p) >= k)
            if expected > 1e-300:
                assert table.tail(Fraction(k)) == pytest.approx(expected, rel=rel, abs=0.0)

    @pytest.mark.parametrize(
        "w1,M",
        [(9.99999000001e-07, 57), (4.048265053298361e-06, 79), (0.3, 2000), (0.5, 2500)],
    )
    def test_deep_two_point_tails_against_exact_rationals(self, w1, M):
        # every tail in [1e-307, 1e-240], below oracle.BETAINC_FLOOR, against
        # P(B >= k) in exact rationals of the float w1; at M = 79, k = 59 scipy's
        # betainc read 3.236e-300 for 1.788e-300
        masses, scale = exact_binomial_masses(M, w1)
        tails = [t / scale for t in itertools.accumulate(reversed(masses))][::-1]  # nearest floats
        table = _lattice_law((0, 1), (1.0 - w1, w1), M)
        band = [k for k in range(M + 1) if 1e-307 <= tails[k] <= 1e-240]
        assert len(band) >= 2 and max(tails[k] for k in band) < oracle.BETAINC_FLOOR
        for k in band:
            assert table.tail(Fraction(k)) == pytest.approx(tails[k], rel=1e-12, abs=0.0), k
        if M == 79:
            got = exact_sum_tail(FiniteMixture([(1.0, Bernoulli(w1))]), M, 59, Side.UPPER)
            assert got.method is TailMethod.BINOMIAL_CLOSED_FORM
            assert got.probability == pytest.approx(1.7878141524574814e-300, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("M", [1, 2, 15, 16, 17, 79, 2000])
    @pytest.mark.parametrize("p", [0.0, 1e-6, 0.3, 0.5, 0.999, 1.0])
    def test_binomial_masses_against_exact_rationals(self, M, p):
        # Loader's form: stirlerr tabled below 16, its series from 16, and both ends
        masses, scale = exact_binomial_masses(M, p)
        got = oracle.binomial_pmf(np.arange(M + 1), M, p).tolist()
        for k, (mass, exact) in enumerate(zip(got, masses)):
            if exact == 0:
                assert mass == 0.0, k
            elif exact / scale > 1e-300:
                assert mass == pytest.approx(exact / scale, rel=1e-12, abs=0.0), k

    def test_incommensurate_points_take_the_sparse_path(self):
        points, weights = (0.1, 0.2, 0.7), (0.2, 0.3, 0.5)
        keys = _lattice_law(points, weights, 5).keys
        assert isinstance(keys, tuple) and len(keys) == 21  # C(5+2, 2) attainable sums
        # M draws of 3 points take C(M+2, 2) sums: 990 at M=43, 1035 at M=44
        assert _lattice_law(points, weights, 43) is not None
        m = FiniteMixture([(1.0, DiscreteOnUnit(points=points, weights=weights))])
        _lattice_law.cache_clear()
        for t in [0.01 * k for k in range(1, 11)]:
            with pytest.raises(MTooLarge):
                exact_tail(m, TailQuery(M=44, t=t, side=Side.UPPER))
        info = _lattice_law.cache_info()
        assert (info.misses, info.hits) == (1, 9)

    @pytest.mark.parametrize(
        "points,weights,M",
        [
            ((0.0, 0.5, 1.0), (0.2, 0.3, 0.5), 300),  # dense
            ((0.1, 0.2, 0.7), (0.2, 0.3, 0.5), 12),  # sparse
            ((0.25,), (1.0,), 7),  # one point
        ],
    )
    def test_tail_read_matches_fsum_over_the_law(self, points, weights, M, monkeypatch):
        built = []  # the per-sum probabilities each table is built from

        class Recorded(SumTable):
            def __init__(self, scale, keys, masses):
                built.append((scale, keys, masses.tolist()))
                super().__init__(scale, keys, masses)

        monkeypatch.setattr(oracle, "SumTable", Recorded)
        table = _lattice_law.__wrapped__(points, weights, M)
        ((D, sums, probs),) = built
        pairs = list(zip(sums, probs))
        lo, hi = Fraction(sums[0], D), Fraction(sums[-1], D)
        thresholds = {lo - 1, lo, hi, hi + Fraction(1, 3 * D), M * Fraction(0.3), Fraction(M, 3)}
        thresholds |= {Fraction(s, D) for s in sums[:: max(1, len(sums) // 25)]}
        for thr in thresholds:
            expected = min(1.0, math.fsum(p for s, p in pairs if Fraction(s, D) >= thr))
            assert table.tail(thr) == pytest.approx(expected, rel=1e-13, abs=0.0)


class TestSumTable:
    """The one law type of both engines: an oracle lattice law and a drawn law
    on the same lattice map every threshold to the same index."""

    def test_oracle_and_monte_carlo_tables_read_the_same_index(self):
        points, weights, M = (0.0, 0.5, 1.0), (0.2, 0.3, 0.5), 3
        exact = _lattice_law(points, weights, M)
        m = FiniteMixture([(1.0, DiscreteOnUnit(points=list(points), weights=list(weights)))])
        (drawn,) = montecarlo._empirical_law(m, M, 20_000, 7)
        assert drawn.scale == exact.scale == 2
        assert list(drawn.keys) == list(exact.keys) == list(range(7))  # every sum was drawn

        def index(table, thr):  # at_least falls strictly, so its value names its index
            return table.at_least.tolist().index(table.tail(thr))

        for table in (exact, drawn):
            assert all(np.diff(table.at_least) < 0)
        eps = Fraction(1, 10**30)
        thresholds = [Fraction(-1), Fraction(M + 1), Fraction(-1, 10**30), M + eps]
        thresholds += [Fraction(s, 2) + d for s in range(7) for d in (-eps, 0, eps)]
        for thr in thresholds:
            assert index(exact, thr) == index(drawn, thr), thr
        assert index(exact, Fraction(3, 2)) == 3 and index(exact, Fraction(3, 2) + eps) == 4
        assert (exact.tail(M + eps), drawn.tail(M + eps)) == (0.0, 0)
        assert exact.tail(Fraction(-1)) == pytest.approx(1.0) and drawn.tail(Fraction(-1)) == 20_000

    def test_float_keys_are_read_against_the_exact_threshold(self):
        table = SumTable(None, np.array([0.1, 0.3, 0.5]), np.array([1, 2, 3]))
        assert table.at_least.tolist() == [6, 5, 3, 0]
        assert not table.at_least.flags.writeable and not table.keys.flags.writeable
        assert table.tail(Fraction(0.3)) == 5  # the float 0.3 is its own exact value
        assert table.tail(Fraction(3, 10)) == 3  # 0.3 < 3/10 exactly
        assert table.tail(Fraction(10**400)) == 0

    @given(
        st.one_of(
            st.fractions(),
            # floats, subnormal and huge ones too, and just either side of them
            st.builds(
                lambda f, k: Fraction(f) + Fraction(k, 10**400),
                st.floats(allow_nan=False, allow_infinity=False),
                st.integers(-1, 1),
            ),
            st.builds(lambda n, d: Fraction(n, d), st.integers(1, 2**1100), st.integers(1, 2**1100)),
        )
    )
    @example(Fraction(2**1024))
    @example(Fraction(1, 10**400))
    @example(Fraction(-1, 10**400))
    def test_float_ceil_is_the_smallest_float_at_least_x(self, x):
        f = _float_ceil(x)
        assert f >= x
        assert math.nextafter(f, -math.inf) < x


def uniform_window_tail(lo, hi, M: int, k: int) -> Fraction:
    """P(S >= k) for p ~ Uniform(lo, hi) in exact rationals, 1 <= k <= M, from
    int_0^x P(Bin(M, p) >= k) dp = E[(Bin(M+1, x) - k)^+] / (M+1)."""

    def integral(x: Fraction) -> Fraction:
        return sum(
            math.comb(M + 1, b) * x**b * (1 - x) ** (M + 1 - b) * (b - k)
            for b in range(k + 1, M + 2)
        ) / (M + 1)

    lo, hi = Fraction(lo), Fraction(hi)
    return (integral(hi) - integral(lo)) / (hi - lo)


class TestQuadratureTails:
    def test_polya_marginal_for_full_uniform(self):
        # p ~ Uniform(0,1) makes S uniform on {0..M}: P(S >= k) = (M+1-k)/(M+1)
        m = BernoulliParamMixture(UniformDensity(0.0, 1.0))
        M = 12
        for k in (1, 5, 12):
            thr = Fraction(k)
            tail = exact_sum_tail(m, M, thr, Side.UPPER)
            assert tail.method is TailMethod.QUADRATURE_OVER_BINOMIAL
            assert tail.probability == pytest.approx((M + 1 - k) / (M + 1), abs=1e-9)

    def test_uniform_window_against_incomplete_beta_sums(self):
        # independent oracle: P(S >= k) = sum_{s>=k} C(M,s) *
        #   (B(hi; s+1, M-s+1) - B(lo; s+1, M-s+1)) / (hi - lo)
        # with B the *unregularized* incomplete beta integral
        lo, hi, M = 0.2, 0.8, 9
        m = BernoulliParamMixture(UniformDensity(lo, hi))
        for k in (3, 6, 9):
            expected = 0.0
            for s in range(k, M + 1):
                ibeta = special.betainc(s + 1, M - s + 1, [hi, lo]) * special.beta(
                    s + 1, M - s + 1
                )
                expected += math.comb(M, s) * (ibeta[0] - ibeta[1]) / (hi - lo)
            got = exact_sum_tail(m, M, Fraction(k), Side.UPPER)
            assert got.probability == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("M,t", [(1000, 0.15), (2000, 0.19)])
    def test_deep_uniform_tail_against_exact_rationals(self, M, t):
        # values near 4e-46 and 1.6e-163: far below any absolute error budget
        m = BernoulliParamMixture(UniformDensity(0.2, 0.8))
        k = math.ceil(M * (Fraction(0.8) + Fraction(t)))
        expected = float(uniform_window_tail(0.2, 0.8, M, k))
        got = exact_tail(m, TailQuery(M=M, t=t, side=Side.UPPER)).probability
        assert type(got) is float
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "a,b,lo,hi,M",
        [
            (2.0, 3.0, 0.1, 0.9, 10),
            (0.7, 1.2, 0.25, 0.5, 20),
            (5.0, 1.5, 0.0, 1.0, 30),
            (2.0, 50.0, 0.5, 0.6, 40),
            (2.0, 200.0, 0.3, 0.9, 50),
        ],
    )
    def test_truncated_beta_against_quadrature(self, a, b, lo, hi, M):
        d = TruncatedBetaDensity(a, b, lo, hi)
        m = BernoulliParamMixture(d)
        for k in range(1, M + 1, max(1, M // 7)):
            expected, _ = integrate.quad(
                lambda p: stats.binom.sf(k - 1, M, p) * d.pdf(p),
                lo, hi, epsabs=0.0, epsrel=1e-13, limit=200,
            )
            got = exact_sum_tail(m, M, Fraction(k), Side.UPPER).probability
            assert got == pytest.approx(expected, rel=1e-9, abs=0.0), k

    @pytest.mark.parametrize("M", [5, 50, 200])
    @pytest.mark.parametrize(
        "a,b,lo,hi", [(5e5, 5e5, 0.2, 0.8), (3e5, 7e5, 0.0, 0.3), (9.5e5, 5e4, 0.65, 1.0)]
    )
    def test_truncated_beta_at_the_parameter_limit(self, a, b, lo, hi, M):
        # reference weights in the stable product form
        # C(M, j) B(a+j, b+M-j) / B(a, b) = C(M, j) prod(a+i) prod(b+i) / prod(a+b+l),
        # summed in logs; past alpha + beta = 1e6 the closed form is refused
        d = TruncatedBetaDensity(a, b, lo, hi)
        assert a + b == 1e6
        m, mass = BernoulliParamMixture(d), beta_interval_mass(a, b, lo, hi)
        terms = []
        for j in range(M + 1):
            logs = [math.log(math.comb(M, j))]
            logs += [math.log(a + i) for i in range(j)] + [math.log(b + i) for i in range(M - j)]
            logs += [-math.log(a + b + i) for i in range(M)]
            terms.append(math.exp(math.fsum(logs)) * beta_interval_mass(a + j, b + M - j, lo, hi))
        for k in range(1, M + 1):
            expected = math.fsum(terms[k:]) / mass
            got = exact_sum_tail(m, M, Fraction(k), Side.UPPER).probability
            assert got == pytest.approx(expected, rel=1e-8, abs=1e-300), k

    def test_term_cap_refuses_before_any_term_is_built(self, monkeypatch):
        m = BernoulliParamMixture(UniformDensity(0.2, 0.8))
        # the 10^15 terms would take 8 PB
        with pytest.raises(MTooLarge):
            exact_sum_tail(m, 10**15, Fraction(1), Side.UPPER)
        monkeypatch.setattr(oracle, "PARAM_MAX_TERMS", 10)
        assert exact_sum_tail(m, 10, Fraction(1), Side.UPPER).probability > 0.0  # 10 terms
        with pytest.raises(MTooLarge):
            exact_sum_tail(m, 11, Fraction(1), Side.UPPER)  # 11 terms

    @pytest.mark.parametrize(
        "density",
        [UniformDensity(0.2, 0.8), TruncatedBetaDensity(2.0, 5.0, 0.1, 0.7)],
    )
    def test_one_term_table_serves_every_threshold_bit_for_bit(self, density):
        m = BernoulliParamMixture(density)
        M = 500
        ks = [300, 450, 120, 499, 121, 500, 1, 260]
        group_law.cache_clear()  # a group's law holds its table
        warm = [exact_sum_tail(m, M, Fraction(k), Side.UPPER) for k in ks]
        assert group_law.cache_info().misses == 1
        ((_, table),) = group_law(m, M, Side.UPPER).laws
        for k, got in zip(ks, warm):
            cold_terms = _beta_binomial_terms(density, M, k, M + 1)
            assert table.at_least.from_index(k).tobytes() == cold_terms.tobytes()
            group_law.cache_clear()
            assert got == exact_sum_tail(m, M, Fraction(k), Side.UPPER)  # bit for bit

    def test_term_cap_counts_each_cells_own_terms(self, monkeypatch):
        m = BernoulliParamMixture(UniformDensity(0.2, 0.8))
        group_law.cache_clear()
        exact_sum_tail(m, 20, Fraction(1), Side.UPPER)  # a table of all 20 terms
        monkeypatch.setattr(oracle, "PARAM_MAX_TERMS", 10)
        assert exact_sum_tail(m, 20, Fraction(11), Side.UPPER).probability > 0.0  # 10 terms
        with pytest.raises(MTooLarge):
            exact_sum_tail(m, 20, Fraction(10), Side.UPPER)  # 11 terms, though tabled

    def test_truncated_beta_density_integrates_to_one(self):
        m = BernoulliParamMixture(TruncatedBetaDensity(2.0, 3.0, 0.1, 0.9))
        tail = exact_sum_tail(m, 5, Fraction(0), Side.UPPER)
        assert tail.probability == 1.0

    def test_query_interface_uses_summary_anchor(self):
        m = BernoulliParamMixture(UniformDensity(0.2, 0.8))
        tail = exact_tail(m, TailQuery(M=10, t=0.15, side=Side.UPPER))
        # threshold 10*(0.8+0.15) = 9.5 -> S = 10 only
        expected = exact_sum_tail(m, 10, Fraction(10), Side.UPPER).probability
        assert tail.probability == pytest.approx(expected, abs=1e-12)


class TestLargestEngineM:
    """At M = 2^63 - 1 a law has 2^63 keys, more than len() can count: each
    threshold is read by one exact integer ceiling."""

    M = 2**63 - 1

    def test_two_point_atom_near_its_mean_is_one_incomplete_beta(self):
        M, bern = self.M, FiniteMixture([(1.0, Bernoulli(0.3))])
        for side, thr, w1 in (
            (Side.UPPER, M * Fraction(0.3) + Fraction(M, 10**9), 0.3),
            (Side.LOWER, M * Fraction(0.3) - Fraction(M, 10**9), 0.7),
        ):
            # the count of ones (upper) or of zeros (lower) reaches k
            k = math.ceil(thr if side is Side.UPPER else M - thr)
            got = exact_sum_tail(bern, M, thr, side)
            assert got.method is TailMethod.BINOMIAL_CLOSED_FORM
            assert got.probability == float(special.betainc(k, M - k + 1, w1))
        upper = exact_sum_tail(bern, M, M * Fraction(0.3) + Fraction(M, 10**9), Side.UPPER)
        assert upper.probability == 1.7096611258331846e-11

    @pytest.mark.parametrize("r", [0, 3, 10])
    def test_uniform_parameter_mixture_at_the_ends(self, r):
        # S is uniform on 0..M, so P(S >= M - r) = P(S <= r) = (r + 1)/(M + 1)
        M, m = self.M, BernoulliParamMixture(UniformDensity(0.0, 1.0))
        for thr, side in ((M - r, Side.UPPER), (r, Side.LOWER)):
            got = exact_sum_tail(m, M, thr, side)
            assert got.method is TailMethod.QUADRATURE_OVER_BINOMIAL
            assert got.probability == (r + 1) / (M + 1)
        if r == 3:
            assert exact_sum_tail(m, M, M - r, Side.UPPER).probability == 4.336808689942018e-19
