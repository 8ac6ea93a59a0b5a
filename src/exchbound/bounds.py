"""Closed-form tail bounds for sample means of exchangeable [0,1] variables.

Let X_1, ..., X_M be exchangeable with values in [0,1], let mu_plus and
mu_minus be the largest and smallest component means over the support of
the mixing measure, and write Xbar for the sample mean.  The bounds
implemented here are, for 0 < t < 1 - mu_plus,

    P(Xbar - mu_plus >= t)  <=  exp(-2 M t^2),

and symmetrically for 0 < t < mu_minus,

    P(mu_minus - Xbar >= t) <=  exp(-2 M t^2).

The sub-exponential form arises from the exponential-moment argument: for
every h > 0 and mu = mu_plus,

    P(Xbar - mu >= t)  <=  [ exp(-(mu + t) h) * (1 - mu + mu e^h) ]^M

(``chernoff_curve``).  The curve is minimized at the closed-form

    h0 = ln( (1 - mu)(t + mu) / ((1 - mu - t) mu) )

(``optimal_h``), where it equals the relative-entropy form

    [ (mu/(mu+t))^(mu+t) * ((1-mu)/(1-mu-t))^(1-mu-t) ]^M

(``kl_form_bound``), which in turn is at most exp(-2 M t^2).  The last
step rests on three scalar functions, exposed for direct property
testing: writing the optimized bound as exp(-t^2 G(t, mu)),

    G(t, mu) = ((t+mu)/t^2) ln((mu+t)/mu)
             + ((1-mu-t)/t^2) ln((1-mu-t)/(1-mu))        (``big_g``)

has t-minimum g(mu) (``little_g``), which is >= 2 everywhere with
equality at mu = 1/2; monotonicity of the derivative factor
H(x) = (1 - 2/x) ln(1-x) (``big_h``) locates the minimizing t.

One-sided bounds carry constant 1.  The two-sided statement (both tails
simultaneously) is exposed only through :func:`t_for_confidence`, whose
containment holds with probability >= 1 - 2*delta by a union of the two
one-sided bounds.

Everything here is a pure function; outside the validity window the
operations raise :class:`~exchbound.errors.OutOfValidityRange` instead of
returning a clamped value.  Each check of a numeric argument returns the
Python float it decided (:func:`as_float`), in which the form computes.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Union

from .errors import (
    DomainError,
    InvalidDelta,
    InvalidH,
    InvalidT,
    MeanOutOfRange,
    OutOfValidityRange,
)

if TYPE_CHECKING:  # only its attributes are read; importing model would load numpy
    from .model import ModelSummary

ENGINE_M_LIMIT = 1 << 63  # Monte Carlo hands M to numpy as an int64


def _shown(x) -> str:
    """x for a message: its repr, but a power of two past 2^32 as 2^k, an int
    past 64 bits by its size, as repr() of a huge int is slow, and refused
    past 4300 digits, and a str past 20 characters by its length."""
    if isinstance(x, str) and len(x) > 20:
        return f"a text of {len(x)} characters"
    if isinstance(x, int) and x > 1 << 32 and not x & (x - 1):
        return f"2^{x.bit_length() - 1}"
    if isinstance(x, int) and x.bit_length() > 64:
        return f"an integer of {x.bit_length()} bits"
    return repr(x)


def check_int(name: str, value, low: int, high=math.inf) -> int:
    """value as a Python int with low <= value < high.

    The one rule for every M, count, seed and thread count, applied where
    the argument enters: a numpy integer becomes the int it holds, whose
    products cannot wrap in int64, and a float such as 2.5 is refused,
    which numpy would truncate.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {_shown(value)}") from None
    if not low <= value < high:
        raise DomainError(f"{name} must lie in [{low}, {_shown(high)}), got {_shown(value)}")
    return value


def as_float(x) -> float:
    """x as a Python float if it is a real number that fits in one, else nan,
    which fails every comparison: the value each float argument's check decides."""
    if type(x) is float:
        return x
    try:
        if type(x) is int or isinstance(x, numbers.Real):  # an int skips the slower ABC check
            return float(x)
    except OverflowError:  # an int or Fraction past the largest float
        pass
    return math.nan


class Side(enum.Enum):
    """Which tail of the sample mean is queried.

    ``Side(side)`` returns a member as it is, takes the report spelling
    "upper" or "lower", and raises DomainError on any other value.  Every
    entry takes a side through :func:`check_side`, since ``enum`` itself
    formats a refused value by its repr, which fails past 4300 digits.
    """

    UPPER = "upper"
    LOWER = "lower"

    def __str__(self) -> str:  # CSV/report spelling
        return self.value

    @classmethod
    def _missing_(cls, value):
        return check_side(value)  # raises: a member or a spelling never misses


def check_side(side) -> Side:
    """side as a Side: a member as it is, or its report spelling "upper" or
    "lower"; any other value raises DomainError, named by :func:`_shown`."""
    if isinstance(side, Side):
        return side
    if isinstance(side, str) and side in ("upper", "lower"):
        return Side(side)
    raise DomainError(f"side must be a Side, 'upper' or 'lower', got {_shown(side)}")


def side_anchor(summary: ModelSummary, side: Side) -> Fraction:
    """The side's upper-side anchor mean a, exactly: mu_plus, or 1 - mu_minus.

    The lower tail of a model is the upper tail of its reflection 1 - X,
    whose largest component mean is 1 - mu_minus.  Taken in rationals on
    the IEEE means, the reflected event S' >= M*(a + t) is the lower event
    S <= M*(mu_minus - t), and the window t < 1 - a is t < mu_minus.
    """
    if check_side(side) is Side.UPPER:
        return Fraction(summary.mu_plus)
    n, d = summary.mu_minus.as_integer_ratio()
    return Fraction(d - n, d)


@dataclass(frozen=True)
class TailQuery:
    """A single tail question: sample count M, deviation t (the float
    :func:`check_t` returns, so ``Fraction(1, 10)`` asks about 0.1), and side."""

    M: int
    t: float
    side: Side

    def __post_init__(self) -> None:
        # frozen: M, t and side become the int, float and Side every engine reads
        object.__setattr__(self, "M", check_engine_m(self.M))
        object.__setattr__(self, "t", check_t(self.t))
        object.__setattr__(self, "side", check_side(self.side))


@dataclass(frozen=True)
class RangeBounds:
    """A nonempty value range [a, b] of finite width, its ends kept as floats."""

    a: float
    b: float

    def __post_init__(self) -> None:
        a, b = as_float(self.a), as_float(self.b)
        if not (a < b and math.isfinite(b - a)):
            shown = f"[{_shown(self.a)}, {_shown(self.b)}]"
            raise DomainError(f"range requires finite a < b, got {shown}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class BoundReport:
    """All closed-form bound values for one (anchor, M, t) query.

    ``h0`` and ``kl_form`` are None when the query lies outside the
    validity window (no guarantee exists there), and within an ulp of the
    window's end, where the float forms are undefined.
    """

    hoeffding_form: float
    h0: Optional[float]
    kl_form: Optional[float]
    in_validity_range: bool


def _check_m(M: int) -> float:
    """M as a float, a real M >= 1 that fits in one, in which the closed forms compute."""
    if as_float(M) >= 1:
        return float(M)
    raise DomainError(f"M must be >= 1 and fit in a float, got {_shown(M)}")


def check_engine_m(M: int) -> int:
    """M as an int in [1, 2^63), the sample counts the exact and Monte Carlo engines take."""
    return check_int("M", M, 1, ENGINE_M_LIMIT)


def _check_mu(mu_tilde: float) -> float:
    if 0.0 < as_float(mu_tilde) < 1.0:
        return float(mu_tilde)
    raise DomainError(f"mu_tilde must lie in (0,1), got {_shown(mu_tilde)}")


def check_t(t: float) -> float:
    """t as a float, finite and > 0: the one rule for a deviation.

    ``TailQuery``, the closed forms and ``run_sweep`` keep the float it returns,
    which every threshold and window decides; by :func:`as_float`, a value that
    is not a real number, or an int past the largest float, is not finite.
    """
    if 0.0 < as_float(t) < math.inf:
        return float(t)
    raise InvalidT(f"t must be finite and > 0, got {_shown(t)}")


def _check_window(mu_tilde: float, t: float) -> tuple[float, float]:
    """(mu_tilde, t) as floats, with 0 < mu_tilde < 1 and 0 < t < 1 - mu_tilde."""
    mu = _check_mu(mu_tilde)
    if 0.0 < as_float(t) < 1.0 - mu:
        return mu, float(t)
    raise OutOfValidityRange(
        f"t={_shown(t)} outside (0, {1.0 - mu!r}) for mu_tilde={_shown(mu_tilde)}"
    )


def hoeffding_tail_bound(M: int, t: float) -> float:
    """The sub-Gaussian tail value exp(-2 M t^2)."""
    M, t = _check_m(M), check_t(t)
    return math.exp(-2.0 * M * t * t)


def chernoff_curve(mu_tilde: float, t: float, M: int, h: float) -> float:
    """Exponential-moment envelope [e^{-(mu+t)h} (1 - mu + mu e^h)]^M.

    Valid as an upper bound on the tail for every h > 0.  Evaluated in
    log space so large h and large M do not overflow.
    """
    mu_tilde, M, t = _check_mu(mu_tilde), _check_m(M), check_t(t)
    if not 0.0 < as_float(h) < math.inf:
        raise InvalidH(f"h must be finite and > 0, got {_shown(h)}")
    h = float(h)
    x, y = math.log1p(-mu_tilde), math.log(mu_tilde) + h
    # log(e^x + e^y) as np.logaddexp computes it; the grouping keeps every bit
    log_factor = (-mu_tilde - t) * h + (max(x, y) + math.log1p(math.exp(-abs(x - y))))
    try:
        return math.exp(M * log_factor)
    except OverflowError:  # envelope diverges for large h; saturate honestly
        return math.inf


def optimal_h(mu_tilde: float, t: float) -> float:
    """Closed-form minimizer of the exponential-moment envelope.

    h0 = ln((1 - mu)(t + mu) / ((1 - mu - t) mu)), strictly positive for
    0 < t < 1 - mu.  Evaluated as log1p(t/(1-mu-t)) + log1p(t/mu), a sum
    of two positive terms, so that h0 stays finite and positive where the
    quotient would round to 1, underflow or overflow (tiny t, tiny mu);
    where t/mu overflows, the second term is log(t+mu) - log(mu).
    """
    return _optimal_h(*_check_window(mu_tilde, t))


def _optimal_h(mu: float, t: float) -> float:
    """h0 of floats already checked: 0 < mu < 1 and 0 < t < 1 - mu."""
    ratio = t / mu
    if ratio < math.inf:
        upper = math.log1p(ratio)
    else:
        upper = math.log(t + mu) - math.log(mu)
    return math.log1p(t / (1.0 - mu - t)) + upper


def kl_form_bound(mu_tilde: float, t: float, M: int) -> float:
    """Optimized envelope [(mu/(mu+t))^(mu+t) ((1-mu)/(1-mu-t))^(1-mu-t)]^M.

    Equals ``chernoff_curve`` at ``optimal_h`` and never exceeds
    exp(-2 M t^2) on the validity window.  Evaluated in log space.
    """
    M, (mu_tilde, t) = _check_m(M), _check_window(mu_tilde, t)
    return _kl_form(mu_tilde, t, M)


def _kl_form(mu: float, t: float, M: float) -> float:
    """The KL form of floats already checked: M >= 1, 0 < mu < 1 and 0 < t < 1 - mu."""
    a = mu + t
    b = 1.0 - mu - t
    log_value = a * math.log(mu / a) + b * math.log((1.0 - mu) / b)
    return math.exp(M * log_value)


def big_g(t: float, mu_tilde: float) -> float:
    """Exponent profile G with kl_form(mu, t, 1) = exp(-t^2 G(t, mu)).

    Uses log1p so the 1/t^2 amplification stays accurate for small t.
    """
    mu_tilde, t = _check_window(mu_tilde, t)
    t2 = t * t
    term1 = ((t + mu_tilde) / t2) * math.log1p(t / mu_tilde)
    term2 = ((1.0 - mu_tilde - t) / t2) * math.log1p(-t / (1.0 - mu_tilde))
    return term1 + term2


def little_g(mu_tilde: float) -> float:
    """Minimum of G(., mu) over the validity window; >= 2, equal at 1/2."""
    mu_tilde = _check_mu(mu_tilde)
    if mu_tilde < 0.5:
        return math.log((1.0 - mu_tilde) / mu_tilde) / (1.0 - 2.0 * mu_tilde)
    return 1.0 / (2.0 * mu_tilde * (1.0 - mu_tilde))


def big_h(x: float) -> float:
    """H(x) = (1 - 2/x) ln(1 - x), increasing on (0, 1)."""
    if not (0.0 < as_float(x) < 1.0):
        raise DomainError(f"x must lie in (0,1), got {_shown(x)}")
    x = float(x)
    return (1.0 - 2.0 / x) * math.log1p(-x)


def mgf_convexity_bound(mean_x: float, r: RangeBounds, h: float) -> float:
    """Chord bound on a moment generating function.

    For any distribution on [a, b] with the given mean, E e^{hX} is at
    most the chord of e^{hx} through (a, e^{ha}) and (b, e^{hb}):

        ((b - EX)/(b - a)) e^{ha} + ((EX - a)/(b - a)) e^{hb}.

    Holds for every real h by convexity of the exponential.
    """
    mean, h = as_float(mean_x), as_float(h)
    if not (r.a <= mean <= r.b):
        raise MeanOutOfRange(f"mean {_shown(mean_x)} outside [{r.a!r}, {r.b!r}]")
    width = r.b - r.a
    return ((r.b - mean) / width) * math.exp(h * r.a) + (
        (mean - r.a) / width
    ) * math.exp(h * r.b)


def t_for_confidence(M: int, delta: float) -> float:
    """Deviation t with exp(-2 M t^2) = delta, i.e. sqrt(-ln(delta)/(2M)).

    With this t, Xbar lies in [mu_minus - t, mu_plus + t] with probability
    at least 1 - 2*delta, provided t falls inside both validity windows
    (union of the two one-sided bounds).
    """
    M = _check_m(M)
    if not (0.0 < as_float(delta) <= 1.0):
        raise InvalidDelta(f"delta must lie in (0,1], got {_shown(delta)}")
    # -ln(delta), as 1/delta overflows for a subnormal delta; written
    # 0.0 - ln(delta) so that delta = 1 gives t = 0.0, not -0.0
    return math.sqrt((0.0 - math.log(delta)) / (2.0 * M))


def tail_bound_report(anchor: Union[float, Fraction], M: int, t: float) -> BoundReport:
    """All bound forms for one query against an upper-side anchor mean.

    ``anchor`` is the queried side's anchor a (:func:`side_anchor`), a
    Fraction, or any number taken as its float, exact in [0, 1].  The
    window 0 < t < 1 - a is decided exactly.  The optimized forms are
    evaluated at mu = float(a) and are None outside the window, within an
    ulp of its end (where t < 1 - mu fails in floats), or when mu lies on
    the boundary of (0,1); only the raw exp(-2Mt^2) value is then reported.
    An anchor outside [0, 1], or NaN, raises DomainError.
    """
    hoeffding = hoeffding_tail_bound(M, t)  # checks M and t before the window
    M, t = float(M), float(t)  # the values hoeffding_tail_bound checked
    if isinstance(anchor, Fraction):  # its range is decided in ints: ad > 0
        an, ad = anchor.numerator, anchor.denominator
    else:  # a float outside [0, 1], or NaN, takes the ratio -1/1 and is refused
        an, ad = float(anchor).as_integer_ratio() if 0 <= anchor <= 1 else (-1, 1)
    if not 0 <= an <= ad:
        raise DomainError(f"anchor must lie in [0,1], got {_shown(anchor)}")
    tn, td = t.as_integer_ratio()
    in_range = tn * ad < (ad - an) * td  # t < 1 - a, exactly
    mu = an / ad  # float(anchor), correctly rounded
    if in_range and 0.0 < mu < 1.0 and t < 1.0 - mu:  # the window _check_window decides
        return BoundReport(hoeffding, _optimal_h(mu, t), _kl_form(mu, t, M), True)
    return BoundReport(hoeffding, None, None, in_range)
