"""Exact tail probabilities for mixture models, used as ground truth.

Conditional on the drawn component, the sum S = X_1 + ... + X_M of a
batch is a sum of i.i.d. draws, so the tail of the sample mean
decomposes over the mixing measure:

* Atoms of two points x0 < x1, Bernoulli or discrete, at any M:
  S = M*x0 + (x1 - x0)*B with B ~ Binomial(M, w1), w1 the weight of x1,
  so S >= thr iff B >= k, one exact ceiling in integers, and the tail is
  one regularized incomplete beta from ``scipy.special``.  A mixture of
  such atoms only is labelled ``binomial``, any other ``convolution``.
* Point masses and discrete atoms of three or more points: the pmf
  convolved M times over the points scaled to integers, one cached
  lattice law per (component, M), a :class:`SumTable` shared by every
  threshold; a refusal is cached too.
  Points on a common grid (after subtracting the smallest and dividing
  by the gcd g of the gaps, the step law is a dense vector of span + 1
  entries) are raised to the M-th power by repeated squaring with
  direct convolution (``np.convolve``), while the M*span + 1 possible
  sums are at most ``LATTICE_DENSE_MAX``.  Otherwise, as for
  incommensurate IEEE values such as [0.1, 0.2, 0.7], the law is built
  one draw at a time in a dict of attainable sums, guarded by their
  number (``LATTICE_MAX_STATES``).  Terms are summed directly, never by
  FFT: all are positive, so deep tails keep their relative precision.
* Continuous Bernoulli-parameter mixtures, density proportional to
  p^(a-1) (1-p)^(b-1) on [lo, hi] (a = b = 1 if uniform), in closed form:
  P(S >= k) = sum_{j>=k} BetaBin(j; M, a, b) mass(j+a, M-j+b) / mass(a, b),
  mass(a, b) = P(Beta(a, b) in [lo, hi]) taken from its smaller tail
  (``model.beta_interval_mass``); positive terms keep deep tails precise.
  One table of terms per (density, M) serves every threshold.  A sum of
  more than ``PARAM_MAX_TERMS`` terms is refused.

Boundary convention: tail events use non-strict inequalities,
S >= M*(mu_plus + t) and S <= M*(mu_minus - t).  Thresholds and lattice
sums are handled in exact rational arithmetic on the IEEE values of the
inputs, so boundary atoms are never dropped or double-counted by float
rounding.  ``SumTable.tail`` is the one place a threshold meets a law,
here and in the Monte Carlo engine's drawn laws.

Lower tails are computed by reflection: mu_minus - Xbar >= t holds for a
model exactly when the reflected model (X' = 1 - X) has
S' >= M*(a + t), where a = 1 - mu_minus is the lower side's anchor taken
exactly (``bounds.side_anchor``), and S <= thr holds exactly when
S' >= M - thr.  ``exact_tail`` and ``exact_sum_tail`` route lower queries
through :func:`flip_model` and the one upper-tail code path, which makes
that duality an identity of the implementation, not merely of the
mathematics.  The validity window t < 1 - a of the same anchor is
decided exactly by ``bounds.tail_bound_report``, whose float forms are
None within an ulp of the window's end.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy import special

from .bounds import Side, TailQuery, check_engine_m, exact_ratio, side_anchor
from .errors import DomainError, MTooLarge
from .model import (
    BernoulliParamMixture,
    FiniteMixture,
    MixingMeasure,
    ParamDensity,
    Scalar,
    beta_interval_mass,
    flip_model,
    summarize,
)

LATTICE_DENSE_MAX = 1 << 14  # sums a dense lattice law may hold ([0, 0.5, 1], M=8191: ~45 ms)
LATTICE_MAX_STATES = 1024  # attainable sums a sparse lattice law may hold

PARAM_MAX_TERMS = 1 << 18  # Beta-binomial terms a parameter-mixture tail may sum (~1.2 s)


class TailMethod(enum.Enum):
    BINOMIAL_CLOSED_FORM = "binomial"
    DISCRETE_CONVOLUTION = "convolution"
    QUADRATURE_OVER_BINOMIAL = "quadrature"  # closed form; the label is kept for reports

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ExactTail:
    """An exact tail probability."""

    probability: float
    method: TailMethod


# ---------------------------------------------------------------------------
# Tail computation (upper side only; lower side goes through flip_model)
# ---------------------------------------------------------------------------


def exact_tail(m: MixingMeasure, q: TailQuery) -> ExactTail:
    """P(Xbar - mu_plus >= t) or P(mu_minus - Xbar >= t), exactly.

    Thresholds are anchored at the model's own summary:
    S >= M*(mu_plus + t) for the upper side, S <= M*(mu_minus - t) for
    the lower side, answered as the flipped model's S' >= M*(a + t) with
    a = 1 - mu_minus.
    """
    a = side_anchor(summarize(m), q.side)
    if q.side is Side.LOWER:
        m = flip_model(m)
    return exact_sum_tail(m, q.M, sum_threshold(q.M, a, q.t), Side.UPPER)


def sum_threshold(M: int, a: Fraction, t: float) -> Fraction:
    """M*(a + t) exactly, t taken at its IEEE value, built in ints (``bounds.exact_ratio``).

    M may be a numpy integer, whose products would overflow int64.
    """
    (an, ad), (tn, td) = (a.numerator, a.denominator), exact_ratio(t)
    return Fraction(operator.index(M) * (an * td + tn * ad), ad * td)


def exact_sum_tail(
    m: MixingMeasure, M: int, threshold, side: Side
) -> ExactTail:
    """Exact tail of the sum S = X_1 + ... + X_M against a raw threshold.

    Upper side: P(S >= threshold); lower side: P(S <= threshold),
    computed as P(S' >= M - threshold) for the reflected model.  The
    threshold may be any finite real (float or Fraction); comparisons are
    exact in rational arithmetic.
    """
    check_engine_m(M)
    try:
        thr = Fraction(threshold)
    except (ValueError, OverflowError):  # NaN or an infinity
        raise DomainError(f"threshold must be finite, got {threshold!r}") from None
    if side is Side.LOWER:
        return exact_sum_tail(flip_model(m), M, M - thr, Side.UPPER)
    if isinstance(m, FiniteMixture):
        return _finite_mixture_sum_tail(m, M, thr)
    if isinstance(m, BernoulliParamMixture):
        return _param_mixture_sum_tail(m, M, thr)
    raise TypeError(f"not a MixingMeasure: {m!r}")


def _finite_mixture_sum_tail(m: FiniteMixture, M: int, thr: Fraction) -> ExactTail:
    # every support first: a Beta atom raises UnsupportedModel before any lattice law is built
    laws = [(w, c.discrete_law()) for w, c in m.atoms]
    parts = []
    for w, (points, weights) in laws:
        if len(points) == 2:
            parts.append(w * _two_point_sum_tail(points, weights[1], M, thr))
            continue
        table = _lattice_law(points, weights, M)
        if table is None:
            raise MTooLarge(f"the sum of M={M} draws from {len(points)} points lies on more "
                            f"than {LATTICE_DENSE_MAX} grid sums and takes more than "
                            f"{LATTICE_MAX_STATES} values")
        parts.append(w * float(table.tail(thr)))
    prob = min(1.0, max(0.0, math.fsum(parts)))  # fsum is exact, so atom order cannot matter
    two_point = all(len(points) == 2 for _, (points, _) in laws)
    method = TailMethod.BINOMIAL_CLOSED_FORM if two_point else TailMethod.DISCRETE_CONVOLUTION
    return ExactTail(probability=prob, method=method)


def _two_point_sum_tail(points: tuple, w1: float, M: int, thr: Fraction) -> float:
    """P(S >= thr) for M draws from x0 < x1, x1 of weight w1: S = M*x0 + (x1 - x0)*B
    with B ~ Binomial(M, w1), so S >= thr iff B >= k = ceil((thr - M*x0) / (x1 - x0))."""
    (a0, b0), (a1, b1) = (x.as_integer_ratio() for x in points)
    num = (thr.numerator * b0 - M * a0 * thr.denominator) * b1
    k = -(-num // (thr.denominator * (a1 * b0 - a0 * b1)))  # an exact ceiling in ints
    if k <= 0:
        return 1.0
    if k > M:
        return 0.0
    return float(special.betainc(k, M - k + 1, w1))  # P(Bin(M, w1) >= k)


def lattice_points(points: Sequence[Scalar]) -> tuple[int, tuple[int, ...]]:
    """(D, (D*x, ...)): the points scaled to integers by D, the lcm of their
    exact denominators, so that a sum S of points is decided as the integer S*D."""
    D = math.lcm(*(Fraction(x).denominator for x in points))
    return D, tuple(int(Fraction(x) * D) for x in points)


class SumTable:
    """A law of the sum S: ascending distinct keys with their tail masses.

    ``keys`` are the integers S*scale on a lattice of factor ``scale``
    (``lattice_points``), or float sums S when ``scale`` is None;
    ``at_least[i]`` is the mass (a probability, or a count of draws) of the
    keys >= keys[i], and ``at_least[-1]`` is 0.  Both engines read every
    event through :meth:`tail`.
    """

    def __init__(self, scale: Optional[int], keys: Sequence, masses: np.ndarray):
        """keys ascending, masses[i] the mass of keys[i]; cached tables are shared,
        so the arrays are read-only."""
        self.scale, self.keys = scale, keys
        self.at_least = np.append(np.cumsum(masses[::-1])[::-1], 0)
        for array in (keys, self.at_least):
            if isinstance(array, np.ndarray):
                array.setflags(write=False)

    def tail(self, thr: Fraction):
        """The mass of the sums S >= thr."""
        # on the lattice S >= thr iff S*D >= ceil(thr*D), an exact ceiling in ints;
        # a float S >= thr iff S >= _float_ceil(thr)
        if self.scale is None:
            k = _float_ceil(thr)
        else:
            k = -(-thr.numerator * self.scale // thr.denominator)
        return self.at_least[bisect.bisect_left(self.keys, k)]


def _float_ceil(x: Fraction) -> float:
    """Smallest float >= x; compares float sums against exact thresholds."""
    try:
        f = float(x)
    except OverflowError:  # a positive x past the float range: no sum reaches it
        return math.inf
    # float(x) rounds to nearest, so no float below an f >= x is still >= x
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


@functools.lru_cache(maxsize=128)
def _lattice_law(points: tuple, weights: tuple, M: int) -> Optional[SumTable]:
    """The law of the sum S of M draws, keyed by S*D, D as in lattice_points.
    None past both guards, so that the cache keeps a refusal as it keeps a law."""
    D, ints = lattice_points(points)
    low = min(ints)
    g = math.gcd(*(z - low for z in ints)) or 1  # one point: no gaps, span 0
    span = (max(ints) - low) // g
    if M * span + 1 <= LATTICE_DENSE_MAX:
        step = np.zeros(span + 1)
        for z, w in zip(ints, weights):
            step[(z - low) // g] = w
        return SumTable(D, range(M * low, M * (low + span * g) + 1, g), _dense_power(step, M))
    sparse = _sparse_law(ints, weights, M)
    return None if sparse is None else SumTable(D, *sparse)


def _dense_power(step: np.ndarray, M: int) -> np.ndarray:
    """The M-fold convolution power of step, by repeated squaring."""
    law = None
    while True:
        if M & 1:
            law = step if law is None else np.convolve(law, step)
        M >>= 1
        if not M:
            return law
        step = np.convolve(step, step)


def _sparse_law(ints: tuple, weights: tuple, M: int) -> Optional[tuple[tuple, np.ndarray]]:
    """(sums, probs) of M draws of the points ints, one draw at a time; None
    past LATTICE_MAX_STATES attainable sums."""
    if M * (len(ints) - 1) + 1 > LATTICE_MAX_STATES:  # M draws of n reals take >= M(n-1)+1 sums
        return None
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
    sums = tuple(sorted(dist))
    return sums, np.array([dist[s] for s in sums])


def _param_mixture_sum_tail(
    m: BernoulliParamMixture, M: int, thr: Fraction
) -> ExactTail:
    d = m.density
    k = math.ceil(thr)
    if k <= 0:
        return ExactTail(1.0, TailMethod.QUADRATURE_OVER_BINOMIAL)
    if k > M:
        return ExactTail(0.0, TailMethod.QUADRATURE_OVER_BINOMIAL)
    if M - k + 1 > PARAM_MAX_TERMS:
        raise MTooLarge(f"the tail of M={M} draws sums {M - k + 1} terms, "
                        f"more than {PARAM_MAX_TERMS}")
    terms = _term_table(d, M).from_index(k)
    return ExactTail(
        probability=min(1.0, math.fsum(terms.tolist()) / (M + 1)),
        method=TailMethod.QUADRATURE_OVER_BINOMIAL,
    )


class _TermTable:
    """The terms of one (density, M) for j = k0..M, extended down to a
    smaller k when a threshold asks for one.  Every term is computed
    elementwise, so a slice equals the terms computed for its k alone, and
    a concurrent extension only replaces the table with another valid one."""

    def __init__(self, d: ParamDensity, M: int):
        self.d, self.M = d, M
        self.table = (M + 1, np.empty(0))  # (k0, terms for j = k0..M)

    def from_index(self, k: int) -> np.ndarray:
        k0, terms = self.table
        if k < k0:
            terms = np.concatenate((_beta_binomial_terms(self.d, self.M, k, k0), terms))
            self.table = k0, terms = k, terms
        return terms[k - k0:]


@functools.lru_cache(maxsize=16)  # a table of PARAM_MAX_TERMS terms holds 2 MB
def _term_table(d: ParamDensity, M: int) -> _TermTable:
    return _TermTable(d, M)


def _beta_binomial_terms(d: ParamDensity, M: int, start: int, stop: int) -> np.ndarray:
    """(M+1) BetaBin(j; M, a, b) mass(j+a, M-j+b) / mass(a, b) for start <= j < stop."""
    a, b = d.alpha, d.beta
    j = np.arange(start, stop, dtype=float)
    # log_w = log((M+1) BetaBin(j; M, a, b)), as C(M, j) = 1 / ((M+1) B(j+1, M-j+1));
    # it is exactly 0 for the uniform density (a = b = 1)
    log_w = (
        special.betaln(j + a, M - j + b) - special.betaln(j + 1, M - j + 1) - special.betaln(a, b)
    )
    with np.errstate(divide="ignore"):  # a mass that underflows to 0 adds a term 0
        log_mass = np.log(beta_interval_mass(j + a, M - j + b, d.lo, d.hi))
    return np.exp(log_w + log_mass - math.log(beta_interval_mass(a, b, d.lo, d.hi)))
