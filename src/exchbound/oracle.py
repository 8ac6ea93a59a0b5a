"""Exact tail probabilities for mixture models, used as ground truth.

Conditional on the drawn component, the sum S = X_1 + ... + X_M of a
batch is a sum of i.i.d. draws, so the tail of the sample mean is the
fsum over the mixing measure of each atom's weight times its tail.
Every lattice law of one (component, M) is a cached :class:`SumTable`
(``_lattice_law``), shared by every threshold (a refusal is cached too),
and the law of one (model, M, side) group is a cached :class:`GroupLaw`
(:func:`group_law`): the side's exact anchor, each atom's weight and
table, and the method label, built once and read by every t of the
group.  A parameter mixture's table is cached there alone.  The laws:

* Atoms of two points x0 < x1, Bernoulli or discrete, at any M: on the
  integers of ``lattice_points``, S*D = M*z0 + (z1 - z0)*B with
  B ~ Binomial(M, w1), w1 the weight of x1, so each tail the table is
  asked for is one regularized incomplete beta from ``scipy.special``.
  Below ``BETAINC_FLOOR`` (1e-240), where that loses digits, the tail is
  the positive sum of the binomial masses from k up, each in Loader's
  saddle-point form (:func:`binomial_pmf`).
  A mixture of such atoms only is labelled ``binomial``, any other
  ``convolution``.
* Point masses and discrete atoms of three or more points: the pmf
  convolved M times over the points scaled to integers.
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
  p^(a-1) (1-p)^(b-1) on [lo, hi] (a = b = 1 if uniform), one atom of
  weight 1 whose law is keyed by the count S, in closed form:
  P(S >= k) = sum_{j>=k} BetaBin(j; M, a, b) mass(j+a, M-j+b) / mass(a, b),
  mass(a, b) = P(Beta(a, b) in [lo, hi]) taken from its smaller tail
  (``model.beta_interval_mass``); positive terms keep deep tails precise.
  A sum of more than ``PARAM_MAX_TERMS`` terms is refused.

Boundary convention: tail events use non-strict inequalities,
S >= M*(mu_plus + t) and S <= M*(mu_minus - t).  Thresholds and lattice
sums are handled in exact rational arithmetic on the IEEE values of the
inputs, so boundary atoms are never dropped or double-counted by float
rounding.  A threshold meets a law in one place, ``SumTable.tail``, one
exact integer ceiling that decides every exact law here and every drawn
law of the Monte Carlo engine.

Lower tails are computed by reflection: mu_minus - Xbar >= t holds for a
model exactly when the reflected model (X' = 1 - X) has
S' >= M*(a + t), where a = 1 - mu_minus is the lower side's anchor taken
exactly (``bounds.side_anchor``), and S <= thr holds exactly when
S' >= M - thr.  ``exact_tail`` and ``exact_sum_tail`` route lower queries
through :func:`flip_model` in the one upper-tail law, ``group_law``,
which makes that duality an identity of the implementation, not merely
of the mathematics.  The validity window t < 1 - a of the same anchor is
decided exactly by ``bounds.tail_bound_report``, whose float forms are
None within an ulp of the window's end.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import _special as special
from .bounds import Side, TailQuery, check_engine_m, check_side, side_anchor
from .errors import DomainError, MTooLarge
from .model import (
    BernoulliParamMixture,
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

BETAINC_FLOOR = 1e-240  # scipy 1.17.1's betainc: within 1.6e-12 above, up to 85% off below
BINOMIAL_SUM_MAX_TERMS = 1 << 16  # masses a two-point tail below the floor may sum (~12 ms)


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
    a = 1 - mu_minus, read from the group's law (:func:`group_law`).
    """
    law = group_law(m, q.M, q.side)  # q's M and side were checked when it was built
    return law.tail(sum_threshold(q.M, law.anchor, q.t))


def sum_threshold(M: int, a: Fraction, t: float) -> Fraction:
    """M*(a + t) exactly, t the float ``TailQuery.t`` holds, built in ints for speed."""
    (an, ad), (tn, td) = (a.numerator, a.denominator), t.as_integer_ratio()
    return Fraction(M * (an * td + tn * ad), ad * td)


def exact_sum_tail(
    m: MixingMeasure, M: int, threshold, side: Side
) -> ExactTail:
    """Exact tail of the sum S = X_1 + ... + X_M against a raw threshold.

    Upper side: P(S >= threshold); lower side: P(S <= threshold),
    computed as P(S' >= M - threshold) for the reflected model.  The
    threshold may be any finite real (float or Fraction); comparisons are
    exact in rational arithmetic.
    """
    M = check_engine_m(M)
    try:
        thr = Fraction(threshold)
    except (ValueError, OverflowError):  # NaN or an infinity
        raise DomainError(f"threshold must be finite, got {threshold!r}") from None
    side = check_side(side)
    return group_law(m, M, side).tail(M - thr if side is Side.LOWER else thr)


@dataclass(frozen=True)
class GroupLaw:
    """The exact law of the sum S of one (model, M, side) group, read by every t.

    ``anchor`` is the side's anchor (``bounds.side_anchor``); ``laws`` holds
    each atom's weight and :class:`SumTable`, of the model itself on the
    upper side and of its reflection on the lower side; ``method`` labels
    every tail read from it.
    """

    anchor: Fraction
    laws: tuple[tuple[float, SumTable], ...]
    method: TailMethod

    def tail(self, thr: Fraction) -> ExactTail:
        """P(S >= thr), S the sum of the model the tables hold (the reflected
        one on the lower side): the fsum of each atom's weighted tail."""
        # fsum is exact, so the order of the atoms cannot matter
        prob = math.fsum(w * float(table.tail(thr)) for w, table in self.laws)
        return ExactTail(probability=min(1.0, max(0.0, prob)), method=self.method)


@functools.lru_cache(maxsize=16)  # a parameter mixture's table of PARAM_MAX_TERMS terms holds 2 MB
def group_law(m: MixingMeasure, M: int, side: Side) -> GroupLaw:
    """The law of one group, for an M and a side already checked; an atom
    without one raises (UnsupportedModel, MTooLarge), and is not cached.
    A parameter mixture's law is the count S of ones, keyed by S."""
    anchor = side_anchor(summarize(m), side)
    if side is Side.LOWER:
        m = flip_model(m)
    if isinstance(m, BernoulliParamMixture):
        table = SumTable(1, range(M + 1), at_least=_TermTable(m.density, M))
        return GroupLaw(anchor, ((1.0, table),), TailMethod.QUADRATURE_OVER_BINOMIAL)
    # a FiniteMixture, as summarize refuses any other type; every support
    # first: a Beta atom raises UnsupportedModel before any law is built
    supports = [(w, c.discrete_law()) for w, c in m.atoms]
    laws = []
    for w, (points, weights) in supports:
        table = _lattice_law(points, weights, M)
        if table is None:
            raise MTooLarge(f"the sum of M={M} draws from {len(points)} points lies on more "
                            f"than {LATTICE_DENSE_MAX} grid sums and takes more than "
                            f"{LATTICE_MAX_STATES} values")
        laws.append((w, table))
    two_point = all(len(points) == 2 for _, (points, _) in supports)
    method = TailMethod.BINOMIAL_CLOSED_FORM if two_point else TailMethod.DISCRETE_CONVOLUTION
    return GroupLaw(anchor, tuple(laws), method)


def lattice_points(points: Sequence[Scalar]) -> tuple[int, tuple[int, ...]]:
    """(D, (D*x, ...)): the points scaled to integers by D, the lcm of their
    exact denominators, so that a sum S of points is decided as the integer S*D."""
    exact = [Fraction(x) for x in points]
    D = math.lcm(*(x.denominator for x in exact))
    return D, tuple(x.numerator * (D // x.denominator) for x in exact)


class SumTable:
    """A law of the sum S: ascending distinct keys with their tail masses.

    ``keys`` are the integers S*scale on a lattice of factor ``scale``
    (``lattice_points``), or float sums S when ``scale`` is None;
    ``at_least[i]`` is the mass (a probability, or a count of draws) of the
    keys >= keys[i], for i up to len(keys), where it is 0.  Every exact law
    of the oracle and every drawn law of the Monte Carlo engine is one, and
    both engines read every event through :meth:`tail`.
    """

    def __init__(self, scale: Optional[int], keys: Sequence, masses=None, *, at_least=None):
        """keys ascending, masses[i] the mass of keys[i]; or, for a law read on
        demand, ``at_least`` itself, indexed as the array would be.  Cached
        tables are shared, so the arrays are read-only."""
        at_least = np.append(np.cumsum(masses[::-1])[::-1], 0) if at_least is None else at_least
        self.scale, self.keys, self.at_least = scale, keys, at_least
        for array in (keys, at_least):
            if isinstance(array, np.ndarray):
                array.setflags(write=False)
        # range keys as (first, step, count), read by one ceiling, as bisect
        # takes len(), which fails past 2^63 keys
        self.grid = None
        if isinstance(keys, range):
            self.grid = keys.start, keys.step, (keys[-1] - keys.start) // keys.step + 1

    def tail(self, thr: Fraction):
        """The mass of the sums S >= thr."""
        # on the lattice S >= thr iff S*D >= ceil(thr*D), an exact ceiling in ints;
        # a float S >= thr iff S >= _float_ceil(thr)
        if self.scale is None:
            k = _float_ceil(thr)
        else:
            k = -(-thr.numerator * self.scale // thr.denominator)
        if self.grid is None:
            return self.at_least[bisect.bisect_left(self.keys, k)]
        first, step, count = self.grid
        i = -(-(k - first) // step)
        return self.at_least[0 if i < 0 else min(i, count)]


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
    if len(ints) == 2:  # S*D = M*z0 + (z1 - z0)*B with B ~ Binomial(M, w1), at any M
        (z0, z1), w1 = ints, weights[1]
        return SumTable(D, range(M * z0, M * z1 + 1, z1 - z0), at_least=_BinomialTail(M, w1))
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


class _BinomialTail:
    """at_least[k] = P(Binomial(M, w1) >= k), one incomplete beta per read; below
    BETAINC_FLOOR, the sum of the masses from k up (:func:`_binomial_tail_sum`)."""

    def __init__(self, M: int, w1: float):
        self.M, self.w1 = M, w1

    def __getitem__(self, k: int) -> float:
        if not 0 < k <= self.M:
            return 1.0 if k <= 0 else 0.0
        tail = float(special.betainc(k, self.M - k + 1, self.w1))
        return tail if tail >= BETAINC_FLOOR else _binomial_tail_sum(k, self.M, self.w1, tail)


def _binomial_tail_sum(k: int, M: int, p: float, fallback: float) -> float:
    """P(Binomial(M, p) >= k), for a k past the mode, as the positive sum of the
    masses from k up, in blocks of doubling length, until the rest adds less
    than 2^-55 of it: past the mode the ratio r of two consecutive masses
    falls, so the rest is at most last * r / (1 - r).

    ``fallback``, the incomplete beta, past BINOMIAL_SUM_MAX_TERMS terms or
    an M past 2^53, whose counts are not all floats: there M*p*(1 - p) is
    about 10^9 or more, and the two agreed within 4e-11 at M = 10^10 (both
    read the mean M*p as a float).
    """
    total, start, size = 0.0, k, 64
    while M < 2**53 and start - k < BINOMIAL_SUM_MAX_TERMS:
        stop = min(start + size, M + 1)
        terms = binomial_pmf(np.arange(start, stop, dtype=np.float64), M, p)
        total += math.fsum(terms.tolist())
        last = float(terms[-1])
        if stop > M or last == 0.0:
            return total
        r = last / float(terms[-2])
        if r < 1.0 and last * r <= total * (1.0 - r) * 2.0**-55:
            return total
        start, size = stop, 2 * size
    return fallback


def binomial_pmf(k, M, p: float) -> np.ndarray:
    """Binomial(M, p) masses at k, elementwise over arrays 0 <= k <= M, each within
    about 5e-13 relative: Loader's saddle-point form, with stirlerr and bd0
    (C. Loader, "Fast and accurate computation of binomial probabilities", 2000).
    """
    k, M, q = np.asarray(k, dtype=np.float64), np.asarray(M, dtype=np.float64), 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):  # each end is its own case
        lc = _stirlerr(M) - _stirlerr(k) - _stirlerr(M - k) - _bd0(k, M * p) - _bd0(M - k, M * q)
        inner = np.exp(lc - 0.5 * (_LN_2PI + np.log(k) + np.log1p(-k / M)))
        ends = np.where(k == 0, np.exp(M * np.log1p(-p)), np.exp(M * np.log(p)))
        return np.where((k == 0) | (k == M), ends, inner)


_LN_2PI = math.log(2 * math.pi)

# stirlerr(n) for n = 0..15, as Loader tables them; past 15 the series of 1/n
_STIRLERR = np.array([
    0.0, 0.0810614667953272582196702, 0.0413406959554092940938221, 0.02767792568499833914878929,
    0.02079067210376509311152277, 0.01664469118982119216319487, 0.01387612882307074799874573,
    0.01189670994589177009505572, 0.010411265261972096497478567, 0.009255462182712732917728637,
    0.008330563433362871256469318, 0.007573675487951840794972024, 0.006942840107209529865664152,
    0.006408994188004207068439631, 0.005951370112758847735624416, 0.005554733551962801371038690,
])


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n) at integer-valued n >= 0."""
    big = np.maximum(n, 16.0)
    nn = big * big
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / big
    return np.where(n < 16, _STIRLERR[np.minimum(n, 15).astype(np.int64)], series)


def _bd0(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """x log(x / mean) + mean - x, by its series in ((x - mean) / (x + mean))^2 near the
    mean, where the three terms cancel."""
    d = x - mean
    near = np.abs(d) < 0.1 * (x + mean)
    far = x * np.log1p(d / mean) - d
    v = np.where(near, d / (x + mean), 0.0)
    s, term, v2 = d * v, 2 * x * v, v * v
    j = 3
    while True:  # v2 < 0.01 near the mean, so each term is 100 times smaller
        term = term * v2
        s, prev = s + term / j, s
        if np.array_equal(s, prev):
            return np.where(near, s, far)
        j += 2


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


class _TermTable:
    """at_least[k] = P(S >= k) of one (density, M): the fsum of its terms for
    j = k..M over M + 1.  Terms are tabled for j = k0..M and extended down to
    a smaller k when a read asks for one.  Every term is computed
    elementwise, so a slice equals the terms computed for its k alone."""

    def __init__(self, d: ParamDensity, M: int):
        self.d, self.M = d, M
        self.table = (M + 1, np.empty(0))  # (k0, terms for j = k0..M)

    def __getitem__(self, k: int) -> float:
        if not 0 < k <= self.M:
            return 1.0 if k <= 0 else 0.0
        if self.M - k + 1 > PARAM_MAX_TERMS:
            raise MTooLarge(f"the tail of M={self.M} draws sums {self.M - k + 1} terms, "
                            f"more than {PARAM_MAX_TERMS}")
        return min(1.0, math.fsum(self.from_index(k).tolist()) / (self.M + 1))

    def from_index(self, k: int) -> np.ndarray:
        k0, terms = self.table
        if k < k0:
            terms = np.concatenate((_beta_binomial_terms(self.d, self.M, k, k0), terms))
            self.table = k0, terms = k, terms
        return terms[k - k0:]


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
