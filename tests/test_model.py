"""Model construction, summaries, and exact joint laws."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from exchbound import (
    Bernoulli,
    Beta,
    BernoulliParamMixture,
    DiscreteOnUnit,
    DomainError,
    FiniteMixture,
    InvalidModel,
    KTooLarge,
    PointMass,
    TruncatedBetaDensity,
    UniformDensity,
    UnsupportedModel,
    joint_law,
    summarize,
)
from exchbound import model
from exchbound.cli import _COMPONENT_KINDS, _DENSITY_KINDS

TWO_ATOM = FiniteMixture([(0.5, Bernoulli(0.2)), (0.5, Bernoulli(0.8))])

THREE_ATOM = FiniteMixture(
    [
        (0.3, Bernoulli(0.25)),
        (0.3, DiscreteOnUnit(points=[0.0, 0.5, 1.0], weights=[0.2, 0.3, 0.5])),
        (0.4, PointMass(0.5)),
    ]
)


class TestComponentMean:
    def test_bernoulli_is_parameter(self):
        assert Bernoulli(0.2).mean() == 0.2

    def test_pointmass_is_location(self):
        assert PointMass(0.7).mean() == 0.7

    def test_beta_closed_form(self):
        # alpha / (alpha + beta)
        assert Beta(2.0, 2.0).mean() == 0.5
        assert Beta(1.0, 3.0).mean() == pytest.approx(0.25, abs=1e-15)

    def test_discrete_weighted_sum(self):
        c = DiscreteOnUnit(points=[0.0, 0.5, 1.0], weights=[0.2, 0.3, 0.5])
        assert c.mean() == pytest.approx(0.3 * 0.5 + 0.5, abs=1e-15)


class TestValidation:
    def test_bernoulli_p_out_of_range(self):
        with pytest.raises(InvalidModel):
            Bernoulli(1.5)
        with pytest.raises(InvalidModel):
            Bernoulli(-0.1)
        with pytest.raises(InvalidModel):
            Bernoulli(float("nan"))

    def test_beta_needs_positive_parameters(self):
        with pytest.raises(InvalidModel):
            Beta(0.0, 1.0)
        with pytest.raises(InvalidModel):
            Beta(1.0, -2.0)

    @pytest.mark.parametrize(
        "alpha,beta", [(math.inf, 2.0), (2.0, math.inf), (math.nan, 1.0), (1e308, 1e308)]
    )
    def test_beta_needs_finite_parameters_with_a_finite_sum(self, alpha, beta):
        # at 1e308 each, alpha + beta overflows and the mean alpha / (alpha + beta) read 0
        with pytest.raises(InvalidModel, match="finite sum"):
            Beta(alpha, beta)

    def test_beta_near_the_float_range_keeps_its_mean(self):
        assert Beta(8.9e307, 8.9e307).mean() == 0.5

    def test_numpy_scalar_points_are_stored_as_python_numbers(self):
        c = DiscreteOnUnit(points=np.array([0, 1]), weights=[0.5, 0.5])
        assert [type(x) for x in c.points] == [int, int]
        assert c == DiscreteOnUnit(points=[0, 1], weights=[0.5, 0.5])

    def test_discrete_points_strictly_increasing(self):
        with pytest.raises(InvalidModel):
            DiscreteOnUnit(points=[0.5, 0.5], weights=[0.5, 0.5])
        with pytest.raises(InvalidModel):
            DiscreteOnUnit(points=[0.7, 0.2], weights=[0.5, 0.5])

    @pytest.mark.parametrize("weights", [["0.5", "0.5"], [1.5, -0.5], [float("nan"), 1.0]],
                             ids=["str", "negative", "nan"])
    def test_discrete_weights_must_be_real_numbers_at_least_zero(self, weights):
        with pytest.raises(InvalidModel, match=r"DiscreteOnUnit weight .* must be a real number >= 0"):
            DiscreteOnUnit(points=[0.0, 1.0], weights=weights)

    def test_discrete_weights_may_be_zero_and_are_kept_as_floats(self):
        c = DiscreteOnUnit(points=[0.0, 0.5, 1.0], weights=[0, np.float32(0.5), Fraction(1, 2)])
        assert c.weights == (0.0, 0.5, 0.5) and all(type(w) is float for w in c.weights)

    def test_discrete_weights_must_sum_to_one(self):
        with pytest.raises(InvalidModel):
            DiscreteOnUnit(points=[0.0, 1.0], weights=[0.5, 0.4])
        # within 1e-12 is accepted
        DiscreteOnUnit(points=[0.0, 1.0], weights=[0.5, 0.5 + 1e-13])

    def test_mixture_weights_positive_and_normalized(self):
        with pytest.raises(InvalidModel):
            FiniteMixture([(0.9, Bernoulli(0.5))])
        with pytest.raises(InvalidModel):
            FiniteMixture([(0.0, Bernoulli(0.5)), (1.0, Bernoulli(0.2))])
        with pytest.raises(InvalidModel):
            FiniteMixture([])

    def test_param_mixture_support_ordering(self):
        with pytest.raises(InvalidModel):
            UniformDensity(lo=0.8, hi=0.2)
        with pytest.raises(InvalidModel):
            TruncatedBetaDensity(alpha=2.0, beta=2.0, lo=0.5, hi=0.5)

    @pytest.mark.parametrize("lo,hi", [(0.0, 0.01), (0.99, 1.0)])
    def test_truncated_beta_needs_floating_point_mass(self, lo, hi):
        # Beta(800, 800) puts less than the smallest float on either end
        with pytest.raises(InvalidModel):
            TruncatedBetaDensity(alpha=800.0, beta=800.0, lo=lo, hi=hi)

    @pytest.mark.parametrize(
        "alpha,beta",
        [(5e5, 5e5 + 1.0), (1e15, 1e15), (math.inf, 2.0), (math.nan, 2.0)],
    )
    def test_truncated_beta_refuses_a_sum_past_the_limit(self, alpha, beta):
        # past alpha + beta = 1e6 the oracle's log-beta weights lose more than 4e-9
        with pytest.raises(InvalidModel, match="alpha \\+ beta <= 1e\\+06"):
            TruncatedBetaDensity(alpha=alpha, beta=beta, lo=0.2, hi=0.8)

    def test_truncated_beta_takes_the_limit_itself(self):
        d = TruncatedBetaDensity(alpha=5e5, beta=5e5, lo=0.2, hi=0.8)
        assert d.alpha + d.beta == model.TRUNCATED_BETA_MAX_SUM

    def test_truncated_beta_deep_in_a_tail(self):
        # true mass 6.4e-30: a difference of lower-tail values rounds it to 0
        d = TruncatedBetaDensity(alpha=2.0, beta=200.0, lo=0.3, hi=0.9)
        assert 0.3 < summarize(BernoulliParamMixture(d)).mu < 0.31
        assert d.pdf(0.3) > 0.0


class TestSummarize:
    def test_two_atom(self):
        s = summarize(TWO_ATOM)
        assert (s.mu_plus, s.mu_minus, s.mu) == (0.8, 0.2, 0.5)
        assert s.t_max_upper == 1.0 - 0.8
        assert s.t_max_lower == 0.2

    def test_single_atom_collapses(self):
        s = summarize(FiniteMixture([(1.0, Bernoulli(0.3))]))
        assert s.mu_plus == s.mu_minus == s.mu == 0.3

    def test_uniform_param_mixture(self):
        s = summarize(BernoulliParamMixture(UniformDensity(0.2, 0.8)))
        assert (s.mu_plus, s.mu_minus) == (0.8, 0.2)
        assert s.mu == pytest.approx(0.5, abs=1e-15)

    def test_truncated_beta_mean_matches_quadrature(self):
        # independent reference: integrate p * pdf(p) over the support
        for a, b, lo, hi in [
            (2.0, 3.0, 0.1, 0.9), (0.7, 1.2, 0.25, 0.5), (5.0, 1.5, 0.0, 1.0), (2.0, 50.0, 0.5, 0.6)
        ]:
            d = TruncatedBetaDensity(a, b, lo, hi)
            expected, _ = integrate.quad(lambda p: p * d.pdf(p), lo, hi, epsabs=0.0, epsrel=1e-13)
            s = summarize(BernoulliParamMixture(d))
            assert s.mu == pytest.approx(expected, rel=1e-10, abs=0.0)
            assert lo <= s.mu <= hi

    def test_three_atom(self):
        s = summarize(THREE_ATOM)
        assert s.mu_plus == pytest.approx(0.65, abs=1e-15)
        assert s.mu_minus == 0.25
        assert s.mu == pytest.approx(0.3 * 0.25 + 0.3 * 0.65 + 0.4 * 0.5, abs=1e-15)


class TestTruncatedBetaQuantile:
    @pytest.mark.parametrize("a,b,lo,hi", [(2.0, 50.0, 0.5, 0.6), (2.0, 200.0, 0.3, 0.9)])
    def test_draws_stay_in_the_support(self, a, b, lo, hi):
        # both ends lie deep in the upper tail, where betainc rounds to 1
        p = TruncatedBetaDensity(a, b, lo, hi).quantile(np.random.default_rng(0).random(100_000))
        assert lo <= p.min() and p.max() <= hi

    def test_inverts_the_cdf(self):
        d = TruncatedBetaDensity(2.0, 3.0, 0.1, 0.9)
        u = np.linspace(0.0, 1.0, 11)
        cdf = [integrate.quad(d.pdf, 0.1, p, epsabs=0.0, epsrel=1e-12)[0] for p in d.quantile(u)]
        assert cdf == pytest.approx(list(u), abs=1e-10)


# one instance of each model-file kind; a new kind needs one here
KIND_SAMPLES = {
    Bernoulli: Bernoulli(0.2),
    PointMass: PointMass(0.7),
    DiscreteOnUnit: DiscreteOnUnit(points=[0.1, 0.2, 0.7], weights=[0.3, 0.3, 0.4]),
    Beta: Beta(2.0, 5.0),
    UniformDensity: UniformDensity(0.2, 0.9),
    TruncatedBetaDensity: TruncatedBetaDensity(2.0, 3.0, 0.1, 0.7),
}


@pytest.mark.parametrize(
    "cls", [*_COMPONENT_KINDS.values(), *_DENSITY_KINDS.values()], ids=lambda cls: cls.__name__
)
def test_every_kind_carries_mean_support_reflection_and_quantile(cls):
    obj = KIND_SAMPLES[cls]
    assert obj.reflect().reflect() == obj
    assert abs(obj.reflect().mean() - (1.0 - obj.mean())) <= 1e-15
    q = np.asarray(obj.quantile(np.linspace(0.0, 1.0, 101, endpoint=False)))
    assert np.all(np.diff(q) >= 0.0)
    assert 0.0 <= q.min() and q.max() <= 1.0
    if cls is Beta:
        with pytest.raises(UnsupportedModel):
            obj.discrete_law()
    elif cls in _COMPONENT_KINDS.values():
        points, weights = obj.discrete_law()
        assert len(points) == len(weights)
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)


class TestJointLaw:
    def test_two_point_masses(self):
        m = FiniteMixture([(0.5, PointMass(0.0)), (0.5, PointMass(1.0))])
        law = joint_law(m, 2)
        assert law.prob((0.0, 0.0)) == 0.5
        assert law.prob((1.0, 1.0)) == 0.5
        assert law.prob((0.0, 1.0)) == 0.0
        assert law.prob((1.0, 0.0)) == 0.0

    def test_iid_fair_coin(self):
        m = FiniteMixture([(1.0, Bernoulli(0.5))])
        law = joint_law(m, 2)
        for values in itertools.product([0.0, 1.0], repeat=2):
            assert law.prob(values) == 0.25

    def test_two_atom_pair_probabilities(self):
        # direct product-mixture arithmetic
        law = joint_law(TWO_ATOM, 2)
        p11 = 0.5 * 0.2**2 + 0.5 * 0.8**2
        assert law.prob((1.0, 1.0)) == pytest.approx(p11, abs=1e-15)
        assert law.prob((0.0, 0.0)) == pytest.approx(p11, abs=1e-15)
        assert law.prob((0.0, 1.0)) == pytest.approx(0.16, abs=1e-15)
        assert law.prob((1.0, 0.0)) == pytest.approx(0.16, abs=1e-15)

    @pytest.mark.parametrize("m", [TWO_ATOM, THREE_ATOM], ids=["two_atom", "three_atom"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_permutation_invariance_is_exact(self, m, k):
        law = joint_law(m, k)
        table = dict(zip(law.support, law.probabilities))
        for values, p in table.items():
            for perm in itertools.permutations(values):
                assert table[perm] == p  # tolerance 0

    @pytest.mark.parametrize("m", [TWO_ATOM, THREE_ATOM], ids=["two_atom", "three_atom"])
    def test_marginalization_consistency(self, m):
        law1 = joint_law(m, 1)
        law2 = joint_law(m, 2)
        for (x,), p1 in zip(law1.support, law1.probabilities):
            marginal = math.fsum(
                p for values, p in zip(law2.support, law2.probabilities) if values[0] == x
            )
            assert marginal == pytest.approx(p1, abs=1e-12)

    @pytest.mark.parametrize("m", [TWO_ATOM, THREE_ATOM], ids=["two_atom", "three_atom"])
    def test_first_moment_matches_summary(self, m):
        law1 = joint_law(m, 1)
        mean = math.fsum(x * p for (x,), p in zip(law1.support, law1.probabilities))
        assert mean == pytest.approx(summarize(m).mu, abs=1e-12)

    def test_guards(self):
        with pytest.raises(KTooLarge):
            joint_law(TWO_ATOM, 7)
        for k in (0, -1, 10**5000):  # a huge k is named by its size
            with pytest.raises(KTooLarge):
                joint_law(TWO_ATOM, k)
        for k in (2.5, 2.0, "2", None):  # the integer rule, as for every count
            with pytest.raises(DomainError, match="k must be an integer"):
                joint_law(TWO_ATOM, k)
        assert joint_law(TWO_ATOM, np.int64(2)) == joint_law(TWO_ATOM, 2)
        with pytest.raises(UnsupportedModel):
            joint_law(FiniteMixture([(1.0, Beta(2.0, 2.0))]), 2)
        with pytest.raises(UnsupportedModel):
            joint_law(BernoulliParamMixture(UniformDensity(0.2, 0.8)), 2)


@st.composite
def finite_mixtures(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    raw = [draw(st.floats(0.05, 1.0)) for _ in range(n)]
    total = sum(raw)
    weights = [w / total for w in raw]
    weights[-1] = 1.0 - sum(weights[:-1])  # exact normalization
    comps = [Bernoulli(draw(st.floats(0.0, 1.0))) for _ in range(n)]
    return FiniteMixture(list(zip(weights, comps)))


class TestMixtureProperties:
    @given(finite_mixtures())
    @settings(max_examples=60, deadline=None)
    def test_summary_ordering(self, m):
        s = summarize(m)
        assert s.mu_minus <= s.mu <= s.mu_plus

    @given(finite_mixtures())
    @settings(max_examples=40, deadline=None)
    def test_joint_law_is_probability_vector(self, m):
        law = joint_law(m, 2)
        assert all(p >= 0.0 for p in law.probabilities)
        assert math.fsum(law.probabilities) == pytest.approx(1.0, abs=1e-10)
