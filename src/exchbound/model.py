"""Mixture models over [0,1]-valued observations.

A model is a mixing measure over component distributions: a sequence is
generated by drawing one component q from the mixing measure and then
drawing every observation i.i.d. from q.  Two mixing-measure families are
supported:

* ``FiniteMixture``: finitely many atoms, each a weighted component
  (Bernoulli, point mass, discrete on [0,1], or Beta);
* ``BernoulliParamMixture``: a continuous density (uniform or truncated
  Beta) over the success probability of a Bernoulli component.

Each component kind carries the facts every engine starts from: its
``mean()``, its finite support (``discrete_law()``, which a Beta lacks),
its reflection x -> 1 - x (``reflect()``) and its inverse CDF
(``quantile(u)``).  Densities and mixing measures reflect too, and
:func:`flip_model` reflects a whole model.

The quantities the tail bounds anchor on are the largest and smallest
component means over the support of the mixing measure (``mu_plus`` and
``mu_minus``), together with the overall mean ``mu``.  For finite
mixtures the exact finite-dimensional joint law is computable and exposed
through :func:`joint_law`.

All model values are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from . import _special as special
from .bounds import _shown, as_float
from .errors import DomainError, InvalidModel, KTooLarge, UnsupportedModel

WEIGHT_TOL = 1e-12  # machine-precision-scale slack for user-supplied weights

JOINT_LAW_MAX_K = 6  # alphabet**k tuples are enumerated; guard the blowup

# the oracle's Beta-binomial weights difference log-beta values of size
# about alpha + beta, so their relative error grows with it: measured at
# M in {5, 50, 200}, 4e-9 at 1e6, 7e-5 at 1e10 and a tail of 1.0 for 1/32
# at 1e15 (README, "Known precision limit")
TRUNCATED_BETA_MAX_SUM = 1e6

# Component parameters are floats in normal use.  Model reflection
# (flip_model) stores exact rational complements instead, because
# 1-(1-x) loses the last bit of x in float arithmetic and reflection must
# be an exact involution.  Fraction and float compare and hash by value,
# so reflected models still test equal to their float-parameter originals.
Scalar = Union[float, Fraction]


def _reflect(x: Scalar) -> Fraction:
    return 1 - Fraction(x)


def _in_unit(x) -> bool:
    """Whether x is a real number in [0, 1]: as_float refuses what is not a
    real number (NaN included), and x is then compared as given, so that a
    Fraction is compared exactly."""
    return 0 <= as_float(x) <= 1 and 0 <= x <= 1


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bernoulli:
    """Bernoulli distribution on {0, 1} with success probability p."""

    p: Scalar

    def __post_init__(self) -> None:
        if not _in_unit(self.p):
            raise InvalidModel(f"Bernoulli p must lie in [0,1], got {_shown(self.p)}")

    def mean(self) -> float:
        return float(self.p)

    def discrete_law(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        p = float(self.p)
        return (0.0, 1.0), (1.0 - p, p)

    def reflect(self) -> Bernoulli:
        return Bernoulli(_reflect(self.p))

    def quantile(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        return (u > 1.0 - float(self.p)).astype(np.float64)  # 0 on [0, 1-p], 1 above


@dataclass(frozen=True)
class PointMass:
    """Degenerate distribution putting all mass on a single value c."""

    c: Scalar

    def __post_init__(self) -> None:
        if not _in_unit(self.c):
            raise InvalidModel(f"PointMass c must lie in [0,1], got {_shown(self.c)}")

    def mean(self) -> float:
        return float(self.c)

    def discrete_law(self) -> tuple[tuple[Scalar, ...], tuple[float, ...]]:
        return (self.c,), (1.0,)

    def reflect(self) -> PointMass:
        return PointMass(_reflect(self.c))

    def quantile(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        return np.full(u.shape, float(self.c))


@dataclass(frozen=True)
class DiscreteOnUnit:
    """Discrete distribution on finitely many points in [0,1].

    Points must be strictly increasing; weights must be nonnegative and
    sum to 1 within ``WEIGHT_TOL``.
    """

    points: tuple[Scalar, ...]
    weights: tuple[float, ...]

    def __init__(self, points, weights) -> None:
        # points are stored as given (reflection may supply exact rationals), a
        # numpy scalar as the Python number it holds, so that each has as_integer_ratio
        points = (x.item() if isinstance(x, np.generic) else x for x in points)
        object.__setattr__(self, "points", tuple(points))
        object.__setattr__(self, "weights", tuple(_check_weight(w, zero=True) for w in weights))
        self._validate()
        # quantile's arrays, built once and read-only; not dataclass fields
        values = np.asarray(self.points, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_cum", _cumulative(self.weights))

    def _validate(self) -> None:
        if not self.points:
            raise InvalidModel("DiscreteOnUnit needs at least one point")
        if len(self.points) != len(self.weights):
            raise InvalidModel(
                f"points/weights length mismatch: {len(self.points)} vs {len(self.weights)}"
            )
        for x in self.points:
            if not _in_unit(x):
                raise InvalidModel(f"DiscreteOnUnit point {_shown(x)} outside [0,1]")
        for a, b in zip(self.points, self.points[1:]):
            if not a < b:
                raise InvalidModel("DiscreteOnUnit points must be strictly increasing")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise InvalidModel(
                f"DiscreteOnUnit weights sum to {total!r}, expected 1 within {WEIGHT_TOL}"
            )

    def mean(self) -> float:
        return math.fsum(w * x for w, x in zip(self.weights, self.points))

    def discrete_law(self) -> tuple[tuple[Scalar, ...], tuple[float, ...]]:
        return self.points, self.weights

    def reflect(self) -> DiscreteOnUnit:
        return DiscreteOnUnit(
            points=[_reflect(x) for x in reversed(self.points)],
            weights=list(reversed(self.weights)),
        )

    def quantile(self, u) -> np.ndarray:
        """The first point whose cumulative weight exceeds u, clamped to the last
        point against a cumulative weight rounded below 1."""
        u = np.asarray(u, dtype=np.float64)
        # asarray: a scalar u gives a scalar index, which cannot be an out=
        idx = np.asarray(np.searchsorted(self._cum, u, side="right"))
        return self._values[np.minimum(idx, len(self._cum) - 1, out=idx)]


def _cumulative(weights: Sequence[float]) -> np.ndarray:
    """The cumulative weights as numpy's cumsum rounds them, read-only."""
    cum = np.cumsum(np.asarray(weights, dtype=np.float64))
    cum.setflags(write=False)
    return cum


@dataclass(frozen=True)
class Beta:
    """Beta(alpha, beta) distribution on [0,1]."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        # a sum past the float range would make the mean alpha / (alpha + beta) 0
        a, b = as_float(self.alpha), as_float(self.beta)
        if not (a > 0.0 and b > 0.0 and math.isfinite(a + b)):
            raise InvalidModel(
                f"Beta parameters must be positive with a finite sum, got "
                f"alpha={_shown(self.alpha)}, beta={_shown(self.beta)}"
            )

    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    def discrete_law(self):
        raise UnsupportedModel("Beta components have no finite support")

    def reflect(self) -> Beta:
        return Beta(alpha=self.beta, beta=self.alpha)

    def quantile(self, u) -> np.ndarray:
        return np.asarray(special.betaincinv(self.alpha, self.beta, u), dtype=np.float64)


Component = Union[Bernoulli, PointMass, DiscreteOnUnit, Beta]


# ---------------------------------------------------------------------------
# Mixing measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteMixture:
    """Finitely many atoms (weight, component) with weights summing to 1.

    ``cumulative_weights`` (not a dataclass field) holds the running sums
    of the weights, as numpy's cumsum rounds them, for drawing an atom.
    The hash is taken once: every memoized engine keys on the model, and
    a reflected model's ``Fraction`` points are slow to hash.
    """

    atoms: tuple[tuple[float, Component], ...]

    def __init__(self, atoms) -> None:
        object.__setattr__(self, "atoms", tuple((_check_weight(w), comp) for w, comp in atoms))
        self._validate()
        object.__setattr__(self, "cumulative_weights", tuple(_cumulative(self.weights).tolist()))
        object.__setattr__(self, "_hash", hash(self.atoms))

    def __hash__(self) -> int:
        return self._hash

    def _validate(self) -> None:
        if not self.atoms:
            raise InvalidModel("FiniteMixture needs at least one atom")
        total = math.fsum(w for w, _ in self.atoms)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise InvalidModel(
                f"atom weights sum to {total!r}, expected 1 within {WEIGHT_TOL}"
            )

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for w, _ in self.atoms)

    @property
    def components(self) -> tuple[Component, ...]:
        return tuple(c for _, c in self.atoms)

    def reflect(self) -> FiniteMixture:
        return FiniteMixture([(w, c.reflect()) for w, c in self.atoms])


def _check_weight(w, zero: bool = False) -> float:
    """w as a float, a real number > 0 (>= 0 for a point's weight, if ``zero``)
    that fits in one."""
    x = as_float(w)
    if x > 0.0 or (zero and x == 0.0):
        return float(w)
    owner, low = ("DiscreteOnUnit", ">= 0") if zero else ("atom", "> 0")
    raise InvalidModel(f"{owner} weight {_shown(w)} must be a real number {low}")


@dataclass(frozen=True)
class UniformDensity:
    """Uniform density on [lo, hi] for a Bernoulli success probability."""

    lo: Scalar
    hi: Scalar

    # the Beta(1, 1) density restricted to [lo, hi]; not dataclass fields
    alpha = 1.0
    beta = 1.0

    def __post_init__(self) -> None:
        _check_support(self)

    def mean(self) -> float:
        return float(0.5 * (self.lo + self.hi))

    def pdf(self, p: float) -> float:
        if self.lo <= p <= self.hi:
            return float(1.0 / (self.hi - self.lo))
        return 0.0

    def quantile(self, u):
        """Inverse CDF; accepts a scalar or an ndarray of uniforms."""
        lo, hi = float(self.lo), float(self.hi)
        return lo + u * (hi - lo)

    def reflect(self) -> UniformDensity:
        return UniformDensity(lo=_reflect(self.hi), hi=_reflect(self.lo))


@dataclass(frozen=True)
class TruncatedBetaDensity:
    """Beta(alpha, beta) density restricted and renormalized to [lo, hi]."""

    alpha: float
    beta: float
    lo: Scalar
    hi: Scalar

    def __post_init__(self) -> None:
        a, b = as_float(self.alpha), as_float(self.beta)
        if not (a > 0.0 and b > 0.0 and a + b <= TRUNCATED_BETA_MAX_SUM):
            raise InvalidModel(
                f"TruncatedBeta parameters must be positive with alpha + beta <= "
                f"{TRUNCATED_BETA_MAX_SUM:g}, got alpha={_shown(self.alpha)}, "
                f"beta={_shown(self.beta)}"
            )
        _check_support(self)

    def mean(self) -> float:
        # E[p] = a/(a+b) * P(Beta(a+1, b) in [lo,hi]) / P(Beta(a, b) in [lo,hi]),
        # clamped because ModelSummary rejects a mean an ulp outside [lo, hi]
        a, b, lo, hi = self.alpha, self.beta, self.lo, self.hi
        ratio = beta_interval_mass(a + 1.0, b, lo, hi) / beta_interval_mass(a, b, lo, hi)
        return min(max(a / (a + b) * float(ratio), float(lo)), float(hi))

    def pdf(self, p: float) -> float:
        pf = float(p)
        if not (self.lo <= pf <= self.hi):
            return 0.0
        a, b = self.alpha, self.beta
        # xlogy(0, 0) = 0 keeps the 0**0 = 1 convention at the ends
        log_pdf = special.xlogy(a - 1.0, pf) + special.xlog1py(b - 1.0, -pf) - special.betaln(a, b)
        return math.exp(log_pdf - math.log(beta_interval_mass(a, b, self.lo, self.hi)))

    def quantile(self, u):
        """Inverse CDF; accepts a scalar or an ndarray of uniforms.

        Inverts the same tail as :func:`beta_interval_mass`, so that the
        two ends stay apart when the interval lies deep in a Beta tail.
        """
        a, b, lo, hi = self.alpha, self.beta, float(self.lo), float(self.hi)
        if _lower_tail_is_smaller(a, b, hi):
            f_lo, f_hi = special.betainc(a, b, lo), special.betainc(a, b, hi)
            p = special.betaincinv(a, b, f_lo + u * (f_hi - f_lo))
        else:
            g_lo, g_hi = special.betaincc(a, b, lo), special.betaincc(a, b, hi)
            p = special.betainccinv(a, b, g_lo - u * (g_lo - g_hi))
        return np.clip(p, lo, hi)  # the inversion may round an ulp past an end

    def reflect(self) -> TruncatedBetaDensity:
        return TruncatedBetaDensity(
            alpha=self.beta, beta=self.alpha, lo=_reflect(self.hi), hi=_reflect(self.lo)
        )


def _lower_tail_is_smaller(a, b, hi: float):
    return a / (a + b) > hi


def beta_interval_mass(a, b, lo: Scalar, hi: Scalar):
    """P(Beta(a, b) in [lo, hi]); a and b may be arrays.

    Each mass is a difference of the tail it lies in: of lower-tail
    values (``betainc``) when the Beta mean lies above hi, of upper-tail
    values (``betaincc``) otherwise.  The other choice would cancel a
    deep-tail mass to 0.
    """
    lo, hi = float(lo), float(hi)
    lower = special.betainc(a, b, hi) - special.betainc(a, b, lo)
    upper = special.betaincc(a, b, lo) - special.betaincc(a, b, hi)
    return np.where(_lower_tail_is_smaller(a, b, hi), lower, upper)


ParamDensity = Union[UniformDensity, TruncatedBetaDensity]


def _check_support(d: ParamDensity) -> None:
    if not (_in_unit(d.lo) and _in_unit(d.hi) and d.lo < d.hi):
        raise InvalidModel(
            f"support endpoints must satisfy 0 <= lo < hi <= 1, "
            f"got [{_shown(d.lo)}, {_shown(d.hi)}]"
        )
    if not beta_interval_mass(d.alpha, d.beta, d.lo, d.hi) > 0.0:
        raise InvalidModel(
            f"Beta({d.alpha!r}, {d.beta!r}) has no floating-point mass "
            f"on [{float(d.lo)!r}, {float(d.hi)!r}]"
        )


@dataclass(frozen=True)
class BernoulliParamMixture:
    """Continuous mixture over Bernoulli(p) with p drawn from ``density``.

    Hashed once, as ``FiniteMixture`` is.
    """

    density: ParamDensity

    def __post_init__(self) -> None:
        if not isinstance(self.density, (UniformDensity, TruncatedBetaDensity)):
            raise InvalidModel(f"unsupported density: {self.density!r}")
        object.__setattr__(self, "_hash", hash(self.density))

    def __hash__(self) -> int:
        return self._hash

    def reflect(self) -> BernoulliParamMixture:
        return BernoulliParamMixture(self.density.reflect())


MixingMeasure = Union[FiniteMixture, BernoulliParamMixture]


@functools.lru_cache(maxsize=64)
def flip_model(m: MixingMeasure) -> MixingMeasure:
    """Reflect every component through x -> 1 - x.

    Reflection is carried out in exact rational arithmetic (the IEEE
    value of each parameter is a rational, and 1 minus it is stored
    exactly), so flip_model is an exact involution even for parameters
    like 0.2 whose float complement is not losslessly re-complementable.
    Models are immutable, so each is reflected once and then shared by
    every lower-tail query on it.
    """
    return m.reflect()


# ---------------------------------------------------------------------------
# Summaries and joint laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSummary:
    """Largest / smallest / overall component means of a mixing measure,
    each kept as a Python float (:func:`~exchbound.bounds.as_float`).

    ``t_max_upper`` and ``t_max_lower`` are the widths of the windows in
    which the upper and lower tail bounds are guaranteed.
    """

    mu_plus: float
    mu_minus: float
    mu: float

    def __post_init__(self) -> None:
        # frozen: each mean becomes the float every anchor and window reads
        for name in ("mu_plus", "mu_minus", "mu"):
            given = getattr(self, name)
            value = as_float(given)
            if math.isnan(value):
                raise InvalidModel(f"summary {name} must be a real number, got {_shown(given)}")
            object.__setattr__(self, name, value)
        if not (self.mu_minus <= self.mu <= self.mu_plus):
            raise InvalidModel(
                f"summary ordering violated: {self.mu_minus!r} <= {self.mu!r} <= {self.mu_plus!r}"
            )

    @property
    def t_max_upper(self) -> float:
        return 1.0 - self.mu_plus

    @property
    def t_max_lower(self) -> float:
        return self.mu_minus


@functools.lru_cache(maxsize=64)
def summarize(m: MixingMeasure) -> ModelSummary:
    """Compute mu_plus, mu_minus and mu for a mixing measure.

    For a finite mixture these are the max, min and weight-average of the
    atom means.  For a Bernoulli-parameter mixture the support endpoints
    are the density's support endpoints and mu is the density mean.  Each
    model is summarized once and shared by every query on it.
    """
    if isinstance(m, FiniteMixture):
        means = [c.mean() for c in m.components]
        mu = math.fsum(w * x for w, x in zip(m.weights, means))
        # fsum can land an ulp outside [min, max] for near-degenerate mixtures
        mu = min(max(mu, min(means)), max(means))
        return ModelSummary(mu_plus=max(means), mu_minus=min(means), mu=mu)
    if isinstance(m, BernoulliParamMixture):
        d = m.density
        return ModelSummary(mu_plus=float(d.hi), mu_minus=float(d.lo), mu=d.mean())
    raise TypeError(f"not a MixingMeasure: {m!r}")


@dataclass(frozen=True)
class JointLaw:
    """Exact joint pmf of the first k observations of a finite mixture.

    ``support`` enumerates all k-tuples over the union of the component
    supports (including zero-probability tuples); ``probabilities`` is the
    matching pmf vector.
    """

    support: tuple[tuple[float, ...], ...]
    probabilities: tuple[float, ...]

    def prob(self, values: tuple[float, ...]) -> float:
        try:
            return self.probabilities[self.support.index(tuple(values))]
        except ValueError:
            return 0.0


def joint_law(m: MixingMeasure, k: int) -> JointLaw:
    """Exact pmf of (X_1, ..., X_k) for a discrete finite mixture.

    p(x_1, ..., x_k) = sum_i w_i * prod_j q_i(x_j).  Each tuple's
    probability is evaluated on the sorted tuple, so the pmf is invariant
    under coordinate permutations bit-for-bit, not merely up to rounding.
    k is an integer in [1, JOINT_LAW_MAX_K]: another integer raises
    KTooLarge, and what is not an integer, such as 2.5 or "2", DomainError.
    """
    if not isinstance(m, FiniteMixture):
        raise UnsupportedModel("joint_law requires a finite mixture of discrete components")
    try:
        k = operator.index(k)  # the integer rule of bounds.check_int
    except TypeError:
        raise DomainError(f"k must be an integer, got {_shown(k)}") from None
    if k < 1:
        raise KTooLarge(f"k must be >= 1, got {_shown(k)}")
    if k > JOINT_LAW_MAX_K:
        raise KTooLarge(f"k={_shown(k)} exceeds the enumeration guard {JOINT_LAW_MAX_K}")

    laws = [c.discrete_law() for c in m.components]  # raises for Beta
    alphabet = sorted({x for points, _ in laws for x in points})
    pmfs = [dict(zip(points, weights)) for points, weights in laws]

    support = []
    probabilities = []
    cache: dict[tuple[float, ...], float] = {}
    for values in itertools.product(alphabet, repeat=k):
        key = tuple(sorted(values))
        if key not in cache:
            total = 0.0
            for w, pmf in zip(m.weights, pmfs):
                prod = w
                for x in key:
                    prod *= pmf.get(x, 0.0)
                    if prod == 0.0:
                        break
                total += prod
            cache[key] = total
        support.append(values)
        probabilities.append(cache[key])
    return JointLaw(support=tuple(support), probabilities=tuple(probabilities))
