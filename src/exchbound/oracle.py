"""Exact tail probabilities for mixture models, used as ground truth.

Conditional on the drawn component, the sum S = X_1 + ... + X_M of a
batch is a sum of i.i.d. draws, so the tail of the sample mean
decomposes over the mixing measure:

* Bernoulli components: S is Binomial(M, p); regularized-incomplete-beta
  tails from scipy.
* Point masses and discrete components: the pmf convolved M times over
  the points scaled to integers, one cached lattice law per
  (component, M) shared by every threshold, guarded by its number of
  attainable sums (``LATTICE_MAX_STATES``); a refusal is cached too.
* Continuous Bernoulli-parameter mixtures: adaptive quadrature of the
  binomial tail against the parameter density, with a hard absolute
  error budget reported in the result.

Boundary convention: tail events use non-strict inequalities,
S >= M*(mu_plus + t) and S <= M*(mu_minus - t).  Thresholds and lattice
sums are handled in exact rational arithmetic on the IEEE values of the
inputs, so boundary atoms are never dropped or double-counted by float
rounding.

Lower tails are computed by reflection: mu_minus - Xbar >= t holds for a
model exactly when Xbar' - mu_plus' >= t holds for the reflected model
(X' = 1 - X), whose largest component mean is 1 - mu_minus, and
S <= thr holds exactly when S' >= M - thr.  ``exact_tail`` and
``exact_sum_tail`` route lower queries through :func:`flip_model` and
the one upper-tail code path, which makes that duality an identity of
the implementation, not merely of the mathematics.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from scipy import integrate
from scipy import stats

from .bounds import Side, TailQuery
from .errors import DomainError, ExchboundError, MTooLarge, UnsupportedModel
from .model import (
    QUAD_LOCK,
    Bernoulli,
    Beta,
    BernoulliParamMixture,
    Component,
    DiscreteOnUnit,
    FiniteMixture,
    MixingMeasure,
    PointMass,
    Scalar,
    TruncatedBetaDensity,
    UniformDensity,
    discrete_law,
    summarize,
)

LATTICE_MAX_STATES = 1024  # attainable sums a lattice law may hold (two points, M=1023: ~0.25 s)

QUADRATURE_BUDGET = 1e-10  # hard absolute-error budget for the quadrature path


class TailMethod(enum.Enum):
    BINOMIAL_CLOSED_FORM = "binomial"
    DISCRETE_CONVOLUTION = "convolution"
    QUADRATURE_OVER_BINOMIAL = "quadrature"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ExactTail:
    """An exact (or quadrature-bounded) tail probability."""

    probability: float
    method: TailMethod
    quadrature_error: Optional[float] = None


def flip_model(m: MixingMeasure) -> MixingMeasure:
    """Reflect every component through x -> 1 - x.

    Reflection is carried out in exact rational arithmetic (the IEEE
    value of each parameter is a rational, and 1 minus it is stored
    exactly), so flip_model is an exact involution even for parameters
    like 0.2 whose float complement is not losslessly re-complementable.
    """
    if isinstance(m, FiniteMixture):
        return FiniteMixture(
            [(w, _flip_component(c)) for w, c in m.atoms]
        )
    if isinstance(m, BernoulliParamMixture):
        d = m.density
        if isinstance(d, UniformDensity):
            return BernoulliParamMixture(
                UniformDensity(lo=_reflect(d.hi), hi=_reflect(d.lo))
            )
        if isinstance(d, TruncatedBetaDensity):
            return BernoulliParamMixture(
                TruncatedBetaDensity(
                    alpha=d.beta, beta=d.alpha, lo=_reflect(d.hi), hi=_reflect(d.lo)
                )
            )
        raise TypeError(f"unsupported density: {d!r}")
    raise TypeError(f"not a MixingMeasure: {m!r}")


def _reflect(x: Scalar) -> Fraction:
    return 1 - Fraction(x)


def _flip_component(c: Component) -> Component:
    if isinstance(c, Bernoulli):
        return Bernoulli(_reflect(c.p))
    if isinstance(c, PointMass):
        return PointMass(_reflect(c.c))
    if isinstance(c, DiscreteOnUnit):
        return DiscreteOnUnit(
            points=[_reflect(x) for x in reversed(c.points)],
            weights=list(reversed(c.weights)),
        )
    if isinstance(c, Beta):
        return Beta(alpha=c.beta, beta=c.alpha)
    raise TypeError(f"not a Component: {c!r}")


# ---------------------------------------------------------------------------
# Tail computation (upper side only; lower side goes through flip_model)
# ---------------------------------------------------------------------------


def exact_tail(m: MixingMeasure, q: TailQuery) -> ExactTail:
    """P(Xbar - mu_plus >= t) or P(mu_minus - Xbar >= t), exactly.

    Thresholds are anchored at the model's own summary:
    S >= M*(mu_plus + t) for the upper side, S <= M*(mu_minus - t) for
    the lower side (computed as the flipped model's upper tail).
    """
    if q.side is Side.LOWER:
        flipped = flip_model(m)
        return exact_tail(flipped, TailQuery(M=q.M, t=q.t, side=Side.UPPER))
    summary = summarize(m)
    threshold = Fraction(q.M) * (Fraction(summary.mu_plus) + Fraction(q.t))
    return exact_sum_tail(m, q.M, threshold, Side.UPPER)


def exact_sum_tail(
    m: MixingMeasure, M: int, threshold, side: Side
) -> ExactTail:
    """Exact tail of the sum S = X_1 + ... + X_M against a raw threshold.

    Upper side: P(S >= threshold); lower side: P(S <= threshold),
    computed as P(S' >= M - threshold) for the reflected model.  The
    threshold may be any real (float or Fraction); comparisons are exact
    in rational arithmetic.
    """
    if M < 1:
        raise DomainError(f"M must be >= 1, got {M}")
    thr = Fraction(threshold)
    if side is Side.LOWER:
        return exact_sum_tail(flip_model(m), M, M - thr, Side.UPPER)
    if isinstance(m, FiniteMixture):
        return _finite_mixture_sum_tail(m, M, thr)
    if isinstance(m, BernoulliParamMixture):
        return _param_mixture_sum_tail(m, M, thr)
    raise TypeError(f"not a MixingMeasure: {m!r}")


def _finite_mixture_sum_tail(m: FiniteMixture, M: int, thr: Fraction) -> ExactTail:
    if any(isinstance(c, Beta) for c in m.components):
        raise UnsupportedModel("Beta components admit no closed-form sum law; use Monte Carlo")
    parts = []
    method = TailMethod.BINOMIAL_CLOSED_FORM
    for w, c in m.atoms:
        if isinstance(c, Bernoulli):
            parts.append(w * _binomial_sum_tail(M, float(c.p), thr))
        else:
            method = TailMethod.DISCRETE_CONVOLUTION
            points, weights = discrete_law(c)
            lattice = _lattice_law(points, weights, M)
            if lattice is None:
                raise MTooLarge(f"the sum of M={M} draws from {len(points)} points "
                                f"takes more than {LATTICE_MAX_STATES} values")
            D, law = lattice
            k = math.ceil(thr * D)  # S >= thr iff S*D >= ceil(thr*D) on the lattice
            parts.append(w * min(1.0, math.fsum(p for z, p in law if z >= k)))
    prob = min(1.0, max(0.0, math.fsum(parts)))
    return ExactTail(probability=prob, method=method)


def _binomial_sum_tail(M: int, p: float, thr: Fraction) -> float:
    k = math.ceil(thr)  # S >= thr iff S >= ceil(thr) on the integer lattice
    if k <= 0:
        return 1.0
    if k > M:
        return 0.0
    return float(stats.binom.sf(k - 1, M, p))


def lattice_points(points: Sequence[Scalar]) -> tuple[int, tuple[int, ...]]:
    """(D, (D*x, ...)): the points scaled to integers by D, the lcm of their
    exact denominators, so that a sum S of points is decided as the integer S*D."""
    D = math.lcm(*(Fraction(x).denominator for x in points))
    return D, tuple(int(Fraction(x) * D) for x in points)


@functools.lru_cache(maxsize=128)
def _lattice_law(points: tuple, weights: tuple, M: int) -> Optional[tuple[int, tuple]]:
    """(D, ((D*s, P(S = s)), ...)) for the sum S of M draws, D as in
    lattice_points; None past LATTICE_MAX_STATES sums, so that the cache
    keeps a refusal as it keeps a law."""
    D, ints = lattice_points(points)
    step = list(zip(ints, weights))
    dist: dict[int, float] = {0: 1.0}
    for _ in range(M):
        nxt: dict[int, float] = {}
        for s, ps in dist.items():
            for z, pz in step:
                nxt[s + z] = nxt.get(s + z, 0.0) + ps * pz
            if len(nxt) > LATTICE_MAX_STATES:
                return None
        dist = nxt
    return D, tuple(dist.items())


def _param_mixture_sum_tail(
    m: BernoulliParamMixture, M: int, thr: Fraction
) -> ExactTail:
    d = m.density
    k = math.ceil(thr)
    if k <= 0:
        return ExactTail(1.0, TailMethod.QUADRATURE_OVER_BINOMIAL, 0.0)
    if k > M:
        return ExactTail(0.0, TailMethod.QUADRATURE_OVER_BINOMIAL, 0.0)

    def integrand(p: float) -> float:
        return float(stats.binom.sf(k - 1, M, p)) * d.pdf(p)

    value, err = _adaptive_quad(integrand, float(d.lo), float(d.hi), QUADRATURE_BUDGET)
    return ExactTail(
        probability=min(1.0, max(0.0, value)),
        method=TailMethod.QUADRATURE_OVER_BINOMIAL,
        quadrature_error=err,
    )


def _adaptive_quad(f, a: float, b: float, budget: float, depth: int = 0):
    """quad with bisection refinement until the error budget is met."""
    with QUAD_LOCK:
        value, err = integrate.quad(f, a, b, epsabs=budget / 10.0, epsrel=0.0, limit=200)
    if err <= budget or depth >= 12:
        if err > budget:
            raise ExchboundError(
                f"quadrature failed to meet error budget {budget}: "
                f"estimated error {err} on [{a}, {b}]"
            )
        return value, err
    mid = 0.5 * (a + b)
    v1, e1 = _adaptive_quad(f, a, mid, budget / 2.0, depth + 1)
    v2, e2 = _adaptive_quad(f, mid, b, budget / 2.0, depth + 1)
    return v1 + v2, e1 + e2
