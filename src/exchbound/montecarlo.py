"""Replicated simulation of tail events, and verification sweeps.

One sampler, ``_block_sums``, draws the conditional law of the batch
sum: given the drawn component, S = X_1 + ... + X_M is a sum of M Beta
draws for a Beta component, and for a Bernoulli, point-mass or discrete
component the count vector of M draws over its points, Multinomial(M,
weights), which costs O(k) binomials for k points rather than O(M) draws.
Only the count of each sum is kept, so the n batches of a block draw
their count vectors together, counting the batches that share one
(``_counted_multinomial``); a one-point atom draws nothing, its sum
being M times its point.  The count S of a Bernoulli parameter mixture
is Beta-binomial: a law with many batches per sum takes the oracle's
exact masses of S once and draws how many reach each sum 0..M as one
multinomial over them, and a smaller law draws each batch's parameter p
by ``quantile``, then its binomial sum.  Every counted draw, that one and
each stage of a lattice atom's chain, is one routine,
``_counted_outcomes``, with one group as its smallest case.
This is distributionally identical to materializing the M individual
observations (the batch is conditionally i.i.d.), and it is what makes
10^5-replication sweeps over hundreds of cells affordable.  The
per-observation sampler in :mod:`exchbound.sampler` remains the
reference mechanism and the tests cross-validate the two.

A law's replications are drawn in blocks, one derived stream per
(master_seed, block_index).  A counted law whose draws hold at most 2^16
rows of count vectors, however many batches it has (``_one_block``), is
one block of all its replications, on stream 0, so its stage chain runs
once.  A law drawn batch by batch (a Beta atom, or a parameter mixture
with few batches per sum), whose memory grows with its batches, is drawn
in fixed blocks of 2^16, and so is a lattice atom that could hold more
rows (a Bernoulli past M = 2^16 - 1, three points past M = 255).
``_block_stream`` is SFC64, seeded with
the first three words of the Philox stream ``sampler.derive_stream``
gives the block: Beta draws, the bulk of a block's work, are bound by
the generator, and SFC64 makes its words about four times faster;
replays (``sample_sequence``) stay on Philox.  The mixing weights of a
finite mixture fix only how many of a block's n replications each atom
gets, so a block first draws those counts as one Multinomial(n,
weights), then each atom's sums in atom order (a one-atom mixture's
count takes no draw).  Within a block, the Beta sums of an atom are
drawn in row chunks of about 2^17 variates from
that one stream, so memory stays at one chunk, or one row past 2^17,
however large replications grows, and the sums are those of drawing the
whole block at once.  A row is held whole, so M is at most 2^24 for a Beta atom.
Every atom's share of a block is counted: distinct ascending sums, each
with how many batches reached it.  The drawn sums of one (model, M,
replications, seed) form one empirical law (``_empirical_law``): one
``oracle.SumTable`` of draw counts per scale, its pieces added by sum,
kept in a small cache, from which every threshold reads an exact
integer count and histograms bin.  Results
therefore do not depend on execution order or thread count, and an
estimate can only fall as t grows.  Estimation computes upper tails
only: a lower-tail query is the reflected model's upper tail, exactly as
in the oracle.  The event S >= M*(a + t) is decided against the exact
rational threshold, with a the side's anchor (``bounds.side_anchor``):
mu_plus, or 1 - mu_minus for the reflected model, so that the lower event
is S <= M*(mu_minus - t) exactly.  The oracle's own ``SumTable.tail``
decides it: lattice sums (Bernoulli, parameter-mixture, point-mass and
discrete components) are exact integers, and Beta sums are float sums,
exact only up to their summation rounding.

Sweeps evaluate a grid of (model, M, t, side) cells, preferring the
exact oracle and falling back to Monte Carlo where no exact path exists.
A whole report is one sweep: the t grid is either explicit or a count of
deviations spanning each (model, side) validity window.  The seed of a
Monte Carlo cell is derived from the master seed and the cell's (model,
M, side), so the t values of one window share one drawn law, and an
estimate does not depend on the rest of the grid, the other models or
the thread count; its exact cells likewise read one cached law
(``oracle.group_law``).  The window t < 1 - a is decided exactly.  One rule
flags a cell inside it, whichever engine answered: the least value the
engine vouches for (the exact value, or the lower Clopper-Pearson limit
of the estimate) exceeds either bound form, exp(-2Mt^2) or the optimized
envelope.  The envelope is None, and so not checked, within an ulp of
the window's end.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from . import _special as special
from .bounds import (
    Side,
    TailQuery,
    _shown,
    as_float,
    check_engine_m,
    check_int,
    check_side,
    check_t,
    side_anchor,
    tail_bound_report,
)
from .errors import DomainError, EmptyGrid, ExchboundError, MTooLarge, UnsupportedModel
from .model import (
    Beta,
    BernoulliParamMixture,
    FiniteMixture,
    MixingMeasure,
    flip_model,
    summarize,
)
from .oracle import SumTable, _beta_binomial_terms, exact_tail, lattice_points, sum_threshold
from .sampler import SeedSpec, _Words, check_master_seed, derive_stream, mix64

BLOCK_SIZE = 1 << 16  # batches per block of a blocked law; most rows a one-block law holds

# replications and Clopper-Pearson n stay below this: each limit's distance
# to k/n is within 1e-4 of the exact one below it, over k/n in [1e-4, 0.999]
# (scipy 1.17.1's betaincinv: 6.8e-5 just below 2^44, 2.5e-3 at 2^45, 30% at
# 2^50), and numpy's multinomial rounds its counts past 2^53
REPLICATIONS_LIMIT = 1 << 44

BETA_CHUNK = 1 << 17  # Beta draws held at once: 1 MB of float64

BETA_MAX_M = 1 << 24  # one row of M Beta draws, held whole: 128 MB of float64

HISTOGRAM_MAX_BINS = 10**6

T_GRID_MAX = 10**6  # deviations per window; like a bin, each is a report row

DEFAULT_CI_LEVEL = 0.999

METHODS = ("auto", "exact", "montecarlo")  # sweep engines, see run_sweep

THREADS_LIMIT = 1 << 10  # sweep threads share one GIL; more would only wait

_INT64_MAX = int(np.iinfo(np.int64).max)

PARAM_COUNT_FACTOR = 16  # batches per sum from which a parameter-mixture block is counted; measured


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo estimate of a tail probability with its Clopper-Pearson interval."""

    p_hat: float
    ci_low: float
    ci_high: float
    replications: int
    exceed_count: int
    master_seed: int


def _check_level(level) -> float:
    """level as a float, a real number in (0, 1) such as 0.999, or else DomainError."""
    if 0.0 < as_float(level) < 1.0:
        return float(level)
    raise DomainError(f"level must lie in (0,1), got {_shown(level)}")


def clopper_pearson_interval(successes: int, n: int, level: float = DEFAULT_CI_LEVEL):
    """Two-sided Clopper-Pearson interval for a binomial proportion.

    Each limit inverts the exact binomial tail at (1 - level)/2, so a true
    proportion lies below the lower limit with probability at most
    (1 - level)/2, whatever it is.  Wilson's score interval passes that
    rate several-fold near 0 (Brown, Cai and DasGupta, Statist. Sci. 2001),
    where the bounds of large M lie.  n lies below REPLICATIONS_LIMIT, from
    which scipy's limits come out measurably too narrow.
    """
    n = check_int("n", n, 1, REPLICATIONS_LIMIT)
    successes = check_int("successes", successes, 0, n + 1)
    return _clopper_pearson(successes, n, _check_level(level))


@functools.lru_cache(maxsize=1024)  # a default sweep's 600 cells hold 148 distinct counts
def _clopper_pearson(k: int, n: int, level: float) -> tuple[float, float]:
    """The interval of k successes in n at level, all three already checked."""
    alpha = 1.0 - level
    lo = 0.0 if k == 0 else float(special.betaincinv(k, n - k + 1, alpha / 2))
    hi = 1.0 if k == n else float(special.betaincinv(k + 1, n - k, 1.0 - alpha / 2))
    # the exact interval always contains k/n; rounding must not lose that
    p = k / n
    return min(p, lo), max(p, hi)


def _lattice_sums(counts: np.ndarray, ints: Sequence[int], bound: int) -> np.ndarray:
    """counts @ ints, row by row, for sums known to be at most ``bound``.

    In int64 when the bound fits; otherwise in Python ints (an object array).
    """
    dtype = np.int64 if bound <= _INT64_MAX else object
    return counts.astype(dtype, copy=False) @ np.array(ints, dtype=dtype)


def _block_sums(
    m: MixingMeasure, M: int, n: int, gen: np.random.Generator,
    masses: Optional[np.ndarray] = None,
) -> Iterator[tuple[Optional[int], np.ndarray, np.ndarray]]:
    """Draw n conditional sums S as (scale, keys, counts), per drawn atom in atom order.

    A finite mixture's weights fix only how many of the n batches each
    atom gets, so one multinomial draw gives those counts, and the sums
    of each atom are then drawn in atom order.  A lattice atom yields the
    integers S*scale: parameter-mixture sums at scale 1, and Bernoulli,
    point-mass and discrete atoms as count vectors over the points of
    their ``discrete_law()`` (``_counted_multinomial``), scaled by the lcm
    D of their denominators (``lattice_points``).  A Beta atom yields
    float sums at scale None.

    ``keys`` are distinct ascending sums and ``counts`` how many batches
    reached each (``np.unique`` counts the sums of a Beta atom or of a
    parameter mixture's single batches).
    A one-point atom's sum is the constant M*D*x, so it yields that key
    with count ni and draws nothing.  A Bernoulli(p) atom's one stage is
    the counted draw of one group over the Binomial(M, p) pmf when it has
    ni > M batches, else the ni binomials.

    A parameter mixture, uniform or truncated Beta, yields its count S at
    scale 1.  Given ``masses``, the exact law of S over 0..M that its law
    is counted from (``_empirical_law`` decides that once per law), the
    block draws how many of its n batches reach each sum as one
    multinomial over them (``_counted_outcomes`` of one group, whose row
    of M + 1 masses it leaves as it is); without, at any M up to 2^63 - 1,
    it draws n parameters by ``quantile``, then n binomial sums.
    """
    if isinstance(m, BernoulliParamMixture):
        if masses is not None:
            _, sums, counts = _counted_outcomes(gen, np.array([n]), masses[None], np.array([[M]]))
            yield 1, sums, counts
        else:
            p = m.density.quantile(gen.random(n))
            yield 1, *np.unique(gen.binomial(M, p), return_counts=True)
        return
    assert isinstance(m, FiniteMixture)
    for ni, c in zip(_multinomial(gen, n, m.weights).tolist(), m.components):
        if ni == 0:
            continue
        if isinstance(c, Beta):
            yield None, *np.unique(_beta_sums(c, M, ni, gen), return_counts=True)
            continue
        points, weights = c.discrete_law()
        D, ints = lattice_points(points)
        vectors, counts = _counted_multinomial(gen, ni, M, weights)
        keys = _lattice_sums(vectors, ints, M * D)
        yield D, *_add_by_key(keys, counts)


def _multinomial(gen: np.random.Generator, n: int, weights: Sequence[float]) -> np.ndarray:
    """Counts of n draws over the categories of ``weights``; one category takes no draw."""
    w = np.asarray(weights, dtype=np.float64)
    # multinomial rejects weights whose leading sum passes 1 + 1e-12
    return gen.multinomial(n, w / w.sum())


def _counted_multinomial(
    gen: np.random.Generator, n: int, M: int, weights: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """(vectors, counts): the count vectors of n Multinomial(M, weights) draws as
    rows, and how many of the n batches each row stands for.

    The chain rule places one point per stage, from the last point down:
    given the counts already placed, n_j ~ Binomial(left, w_j / (w_1 + ... +
    w_j)), with ``left`` the draws not yet placed, and the first point
    takes what is left (Devroye, Non-Uniform Random Variate Generation,
    1986, ch. XI).  A group of r batches with r > left draws how many of
    them reach each n_j as one multinomial over the Binomial(left, q) pmf
    and splits by it; these draws go group by group, in one call
    (``_counted_outcomes``).  Then a group
    with r <= left splits into its r batches, and all of those draw their
    binomials in one ``gen.binomial`` call, in row order.  The first stage
    is a stage of one group.  A group with nothing left, or a point of zero
    weight, draws nothing, so a one-point atom draws nothing at all.  Two
    rows may hold one vector; with no counted group, each row is one batch,
    in row order.
    """
    w = np.asarray(weights, dtype=np.float64)
    below = np.cumsum(w)  # below[j] = w_1 + ... + w_j
    vectors = np.zeros((1, len(w)), dtype=np.int64)
    reps, left = np.array([n], dtype=np.int64), np.array([M], dtype=np.int64)
    for j in range(len(w) - 1, 0, -1):
        if w[j] == 0:
            continue
        q = float(w[j] / below[j])
        raw = reps <= left
        counted = ~raw & (left > 0)
        spawn = np.where(raw, reps, 1)  # the rows each group splits into
        if counted.any():
            outcomes = left[counted][:, None]
            pmf = _binomial_pmf(outcomes, q)
            group, sums, counts = _counted_outcomes(gen, reps[counted], pmf, outcomes)
            spawn[counted] = np.bincount(group, minlength=np.count_nonzero(counted))
        if spawn.sum() > len(spawn):  # some group splits: one row per part
            rows = np.repeat(np.arange(len(reps)), spawn)
            vectors, reps, left, raw, counted = (
                a[rows] for a in (vectors, reps, left, raw, counted)
            )
        if counted.any():
            vectors[counted, j] = sums
            reps[counted] = counts
        if raw.any():
            vectors[raw, j] = gen.binomial(left[raw], q)
            reps[raw] = 1
        left -= vectors[:, j]
    vectors[:, 0] = left
    return vectors, reps


def _binomial_pmf(M, p: float) -> np.ndarray:
    """The Binomial(M, p) masses of 0..M, as exp(log C(M, k) + k log p + (M - k) log(1 - p)).

    For a column of M, one row per M, as long as the largest; a row
    repeats its mass at M past its M.  The log-factorials of log C(M, k)
    come from ``_log_factorials``.  Near M = 2^16 they are about 6.6e5,
    whose ulp is 1.2e-10, so a mass is within about 2e-10 relative of the
    exact one there, and within about 4e-13 up to M = 200.  Their last
    bits order near-tied masses in a counted draw (``_counted_outcomes``),
    so the draws read CPython's ``lgamma``, not scipy's ``gammaln``.
    """
    top = np.max(M)
    k = np.minimum(np.arange(top + 1), M)
    if p == 1.0:  # a stage after points of weight 0; log(1 - p) is -inf
        return (k == M).astype(np.float64)
    lf = _log_factorials(top)
    log_choose = lf[M] - lf[k] - lf[M - k]
    return np.exp(log_choose + k * math.log(p) + (M - k) * math.log1p(-p))


_LOG_FACTORIALS = np.zeros(1)  # log(n!) for n below its length; replaced whole, never written


def _log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0..n at least, by ``math.lgamma``.

    The table grows to the largest n asked so far.  A longer one is built
    whole before it replaces the module's, so a pool thread reads either
    table, each complete.
    """
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if len(table) <= n:
        more = np.fromiter(map(math.lgamma, range(len(table) + 1, n + 2)), np.float64)
        table = _LOG_FACTORIALS = np.concatenate((table, more))
    return table


def _counted_outcomes(
    gen: np.random.Generator, n: np.ndarray, pmf: np.ndarray, M: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(group, outcomes, counts): for each group g, the outcomes 0..M[g] that n[g]
    i.i.d. draws with masses pmf[g] reached, ascending, and how many reached
    each; group by group.  ``M`` is a column, and ``pmf`` has one row per
    group, max(M) + 1 wide; pmf[g] past M[g] is ignored and overwritten.
    This is the one counted draw: each stage of ``_counted_multinomial``,
    and a parameter mixture's law of S (``_block_sums``), one group.

    The counts of n i.i.d. draws are Multinomial(n, pmf), one multinomial
    per group, drawn in group order in one call.  numpy draws a
    multinomial one category at a time, each as a binomial with
    probability p_j / (1 - p_0 - ... - p_{j-1}); that remainder cancels if
    the bulk comes first, so the outcomes are drawn in ascending order of
    mass, equal masses in outcome order.  A group's row is padded in front
    to the longest with categories of mass 0, which draw nothing and leave
    the remainder as it is, and is normalized over its own outcomes, so
    each group draws as ``gen.multinomial(n[g], pmf / pmf.sum())`` alone
    would.
    """
    columns = np.arange(pmf.shape[1])
    pmf[columns > M] = -1.0  # the padding sorts first
    order = np.argsort(pmf, axis=1, kind="stable")
    rows = np.arange(len(M))[:, None]
    ascending = pmf[rows, order]
    pad = np.max(M) - M
    ascending[columns < pad] = 0.0
    # each row's sum over its own outcomes, in the order pmf.sum() alone adds them
    ascending /= np.array([[row[p:].sum()] for row, p in zip(ascending, pad.ravel().tolist())])
    counts = np.empty_like(order)
    counts[rows, order] = gen.multinomial(n, ascending)
    group, sums = np.nonzero(counts)
    return group, sums, counts[group, sums]


def _beta_sums(c: Beta, M: int, n: int, gen: np.random.Generator) -> np.ndarray:
    """Row sums of n rows of M Beta draws, drawn about BETA_CHUNK draws at a time.

    Consecutive draws continue one stream and each row is summed on its
    own, so the sums equal ``gen.beta(..., size=(n, M)).sum(axis=1)`` bit
    for bit, while only one chunk (or one row, when M is larger) is held.
    """
    sums = np.empty(n)
    rows = max(1, BETA_CHUNK // M)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        gen.beta(c.alpha, c.beta, size=(stop - start, M)).sum(axis=1, out=sums[start:stop])
    return sums


def _block_stream(seed: SeedSpec) -> np.random.Generator:
    """The stream of one block: SFC64 seeded with the first three words of
    derive_stream(seed)."""
    words = derive_stream(seed).bit_generator.random_raw(3)
    return np.random.Generator(np.random.SFC64(_Words(words)))


def _draws_per_batch(m: MixingMeasure, M: int, replications: int) -> bool:
    """Whether a drawn law of ``replications`` batches of M draws draws every
    batch: a Beta atom's rows always, and a parameter mixture's parameters
    below PARAM_COUNT_FACTOR * (M + 1) replications.  Every other law is
    counted from exact masses (``_block_sums``)."""
    if isinstance(m, BernoulliParamMixture):
        # below F*(M + 1); no product: M may be 2^63 - 1
        return replications // PARAM_COUNT_FACTOR <= M
    return any(isinstance(c, Beta) for c in m.components)


def _one_block(m: MixingMeasure, M: int) -> bool:
    """Whether a counted law holds at most BLOCK_SIZE rows, however many
    batches it draws, and so is drawn as one block of them all.

    A parameter mixture's rows are its sums 0..M, whose masses it holds in
    any case.  A lattice atom's chain (``_counted_multinomial``) has one
    stage per point of positive weight past the first, and each stage
    splits a group into at most M + 1 rows, its drawn outcomes or its
    batches, so (M + 1)^stages bounds the rows of every atom.
    """
    if isinstance(m, BernoulliParamMixture):
        return True
    stages = max(sum(w != 0 for w in c.discrete_law()[1][1:]) for c in m.components)
    # M first: the power of an M near 2^63 over many stages is a huge int
    return stages == 0 or (M < BLOCK_SIZE and (M + 1) ** stages <= BLOCK_SIZE)


@functools.lru_cache(maxsize=16)  # a 10^5-replication Beta table holds 1.6 MB
def _empirical_law(
    m: MixingMeasure, M: int, replications: int, seed: int
) -> tuple[SumTable, ...]:
    """The sums S of ``replications`` batches of M draws, one table per scale.

    Every threshold of one (model, M, seed) reads the same draws, so a
    tail estimate can only fall as t grows.  A Beta atom needs one whole
    row of M draws, so past BETA_MAX_M it raises DomainError before any draw.
    A parameter mixture's law that is not drawn batch by batch
    (``_draws_per_batch``) takes its exact masses of S = 0..M, the oracle's
    Beta-binomial terms, here once, and is counted from them (``_block_sums``).
    A counted law of at most BLOCK_SIZE rows (``_one_block``) is one block
    of all its replications, on stream SeedSpec(seed, 0); every other law is
    drawn in blocks of BLOCK_SIZE, block i on stream SeedSpec(seed, i).
    Each lattice piece is added by key into its scale's running table as
    it arrives, so a lattice law holds at most its distinct sums however
    many blocks it has; a Beta atom's float sums, nearly all distinct,
    are added once, at the end.
    """
    per_batch = _draws_per_batch(m, M, replications)
    masses = None
    if isinstance(m, BernoulliParamMixture):
        if not per_batch:
            masses = _beta_binomial_terms(m.density, M, 0, M + 1)
    elif per_batch and M > BETA_MAX_M:  # a Beta atom
        raise DomainError(f"M must be <= {BETA_MAX_M} for a Beta component, got {M}")
    block = replications if not per_batch and _one_block(m, M) else BLOCK_SIZE
    parts: dict[Optional[int], list[tuple[np.ndarray, np.ndarray]]] = {}
    for block_index, start in enumerate(range(0, replications, block)):
        gen = _block_stream(SeedSpec(master_seed=seed, replication_index=block_index))
        size = min(block, replications - start)
        for scale, keys, counts in _block_sums(m, M, size, gen, masses):
            pieces = parts.setdefault(scale, [])
            pieces.append((keys, counts))
            if scale is not None and len(pieces) > 1:  # lattice sums repeat: keep the distinct
                pieces[:] = [_add_by_key(*map(np.concatenate, zip(*pieces)))]
    return tuple(SumTable(scale, *_add_by_key(*map(np.concatenate, zip(*pieces))))
                 for scale, pieces in parts.items())


def _add_by_key(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending distinct keys, and the total of the counts of each.

    A law's pieces arrive concatenated, each ascending, and a stable sort
    merges such runs in about linear time; a block's lattice keys come in
    row order.
    """
    if (keys[1:] > keys[:-1]).all():  # already so, as a single piece's are
        return keys, counts
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order]
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    if first.all():  # distinct, as a Beta atom's float sums nearly always are
        return keys, counts
    first = np.flatnonzero(first)
    return keys[first], np.add.reduceat(counts, first)


def estimate_tail(
    m: MixingMeasure,
    q: TailQuery,
    replications: int,
    master_seed: int,
    level: float = DEFAULT_CI_LEVEL,
) -> TailEstimate:
    """Estimate P(Xbar - mu_plus >= t) or P(mu_minus - Xbar >= t).

    Counts replications where the event holds (non-strict inequality,
    matching the oracle convention); the count is an exact integer, so
    the estimate is independent of block execution order.  Estimates
    with the same model, M, replications and seed share one drawn law
    (``_empirical_law``), whatever their t.
    """
    replications = check_int("replications", replications, 1, REPLICATIONS_LIMIT)
    master_seed = check_master_seed(master_seed)
    a = side_anchor(summarize(m), q.side)
    if q.side is Side.LOWER:
        m = flip_model(m)
    thr = sum_threshold(q.M, a, q.t)
    law = _empirical_law(m, q.M, replications, master_seed)
    exceed = sum(int(table.tail(thr)) for table in law)
    ci_low, ci_high = clopper_pearson_interval(exceed, replications, level)
    return TailEstimate(
        p_hat=exceed / replications,
        ci_low=ci_low,
        ci_high=ci_high,
        replications=replications,
        exceed_count=exceed,
        master_seed=master_seed,
    )


# ---------------------------------------------------------------------------
# Sample-mean histograms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HistogramResult:
    """Empirical distribution of the sample mean over replications."""

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    replications: int
    M: int
    master_seed: int


def sample_mean_histogram(
    m: MixingMeasure, M: int, replications: int, bins: int, master_seed: int
) -> HistogramResult:
    """Histogram of Xbar over replications, bins uniform on [0, 1]."""
    bins = check_int("bins", bins, 2, HISTOGRAM_MAX_BINS + 1)
    replications = check_int("replications", replications, 1, REPLICATIONS_LIMIT)
    M = check_engine_m(M)
    master_seed = check_master_seed(master_seed)
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts = np.zeros(bins, dtype=np.int64)
    for table in _empirical_law(m, M, replications, master_seed):
        sums = table.keys if table.scale is None else table.keys / table.scale
        means = np.clip(np.asarray(sums, dtype=np.float64) / M, 0.0, 1.0)
        counts += np.histogram(means, bins=edges, weights=-np.diff(table.at_least))[0]
    return HistogramResult(
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        replications=replications,
        M=M,
        master_seed=master_seed,
    )


# ---------------------------------------------------------------------------
# Verification sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One evaluated (model, M, t, side) cell.

    A cell an engine refused has method "error:<name>" and no value or
    interval, but keeps the bound forms and the ``valid`` flag computed
    before the refusal; it is never a violation.
    """

    model_id: str
    M: int
    t: float
    side: str
    method: str
    value: Optional[float] = None
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    hoeffding: Optional[float] = None
    kl_form: Optional[float] = None
    h0: Optional[float] = None
    valid: bool = False
    violation: bool = False


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    master_seed: int
    replications: int
    level: float

    @property
    def violations(self) -> tuple[SweepRow, ...]:
        return tuple(r for r in self.rows if r.violation)

    @property
    def failures(self) -> tuple[SweepRow, ...]:
        return tuple(r for r in self.rows if r.method.startswith("error:"))


def window_t_grid(anchor: Fraction, n: int) -> list[float]:
    """n deviations spanning the validity window t < 1 - anchor of a side.

    A window that cannot hold n distinct positive floats, such as an empty
    one (degenerate models) or a subnormal one, falls back to spanning
    (0, 1) so the sweep still exercises and flags the invalid cells.
    """
    grid = [float(1 - anchor) * i / (n + 1) for i in range(1, n + 1)]
    if grid[0] > 0.0 and all(a < b for a, b in zip(grid, grid[1:])):
        return grid
    return [i / (n + 1) for i in range(1, n + 1)]


def _law_seed(master_seed: int, model_id: str, M: int, side: Side) -> int:
    """mix64(master_seed, k), k a 64-bit digest of (model_id, M, side)."""
    # hashlib, not hash(): the built-in is salted per process
    key = repr((model_id, M, str(side))).encode()
    return mix64(master_seed, int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))


@dataclass(frozen=True)
class _Group:
    """The cells of one (model, side, M): one anchor, one seed, so one drawn law."""

    model_id: str
    model: MixingMeasure
    anchor: Fraction  # side_anchor(summarize(model), side)
    M: int
    side: Side
    seed: int  # _law_seed(master_seed, model_id, M, side)
    ts: Sequence[float]


def _sweep_group(group: _Group, replications: int, method: str, level: float) -> list[SweepRow]:
    """One row per t of the group: exact where asked and possible, else Monte Carlo."""
    rows = []
    model_id, M, side = group.model_id, group.M, group.side
    spelling = str(side)
    for t in group.ts:
        value = ci_low = ci_high = hoeffding = kl_form = h0 = None
        valid = violation = False
        try:
            query = TailQuery(M=M, t=t, side=side)
            report = tail_bound_report(group.anchor, M, t)
            hoeffding, kl_form, h0 = report.hoeffding_form, report.kl_form, report.h0
            valid = report.in_validity_range
            exact = None
            if method != "montecarlo":
                try:
                    exact = exact_tail(group.model, query)
                except (UnsupportedModel, MTooLarge):
                    if method == "exact":
                        raise
            if exact is not None:
                engine, value = exact.method.value, exact.probability
                low = value
            else:
                estimate = estimate_tail(group.model, query, replications, group.seed, level)
                engine, value = "montecarlo", estimate.p_hat
                ci_low, ci_high = estimate.ci_low, estimate.ci_high
                low = ci_low
            violation = valid and (low > hoeffding or (kl_form is not None and low > kl_form))
        except ExchboundError as e:
            engine = f"error:{type(e).__name__}"
        rows.append(SweepRow(model_id, M, t, spelling, engine, value, ci_low, ci_high,
                             hoeffding, kl_form, h0, valid, violation))
    return rows


def _check_t_grid(t_grid):
    """t_grid as a count of deviations per window, an int in [0, T_GRID_MAX] by
    the integer rule, or as a list of deviations, each the float
    ``bounds.check_t`` returns, which every cell decides, none repeated."""
    forms = "a count of deviations per window or a sequence of deviations"
    if isinstance(t_grid, str) or not isinstance(t_grid, Sequence):
        try:
            operator.index(t_grid)
        except TypeError:
            raise DomainError(f"t_grid must be {forms}, got {t_grid!r}") from None
        return check_int("t_grid", t_grid, 0, T_GRID_MAX + 1)
    ts = [check_t(t) for t in t_grid]
    seen = set()
    for t in ts:  # one list serves every group, so a repeat would repeat rows in each
        if t in seen:
            raise DomainError(f"t_grid repeats t={t!r}")
        seen.add(t)
    return ts


def run_sweep(
    models: Sequence[tuple[str, MixingMeasure]],
    M_grid: Sequence[int],
    t_grid: Union[int, Sequence[float]],
    sides: Sequence[Side],
    replications: int,
    master_seed: int,
    *,
    method: str = "auto",
    level: float = DEFAULT_CI_LEVEL,
    threads: int = 1,
) -> SweepResult:
    """Evaluate every (model, M, t, side) cell of the grid.

    ``t_grid`` is either a list of deviations shared by every model and
    side, or an integer n <= T_GRID_MAX, a numpy integer too: n increasing
    deviations spanning each (model, side) validity window
    (:func:`window_t_grid`).  The sweep's unit is the group of the cells
    of one (model, side, M), which share an anchor and a drawn law.
    Rows come out model by model, then side, then M, then t.

    ``method`` selects the engine per cell: "auto" prefers the exact
    oracle and falls back to Monte Carlo, "exact" and "montecarlo" force
    one engine.  What an engine refuses about one cell (UnsupportedModel,
    MTooLarge, or DomainError for a Beta atom past BETA_MAX_M) becomes a
    row with method "error:<name>" rather than aborting the sweep.

    Every argument is checked before any cell runs, and kept as the type
    its report column declares, so every report parses back to its rows:
    each M by ``bounds.check_engine_m``, each explicit t as the float
    ``bounds.check_t`` returns, the level as a float, and replications in
    [1, REPLICATIONS_LIMIT).  A model id that is not a str, an unknown
    method, a level that is not a real number in (0, 1), a ``t_grid``
    that is neither an integer in [0, T_GRID_MAX] nor a sequence, an
    explicit t repeated, a side other than a Side, "upper" or "lower", a
    master seed outside [0, 2^64), a thread count outside [1,
    THREADS_LIMIT), or two groups with one key (model_id, M, side), even
    of different models or t grids, raise DomainError; a t that is not a
    real number, finite and > 0 raises InvalidT.

    With ``threads`` > 1, a pool of that many threads takes the groups
    whose cells read a law drawn batch by batch (``_draws_per_batch``: a
    Beta atom, or a parameter mixture with few batches per sum), as such
    draws release the GIL: one group per task, largest M first.  Under
    "auto" only a Beta atom's groups qualify, as the oracle answers a
    parameter mixture; they go straight to Monte Carlo at any thread
    count, as the oracle refuses each of their cells.  Under "exact" none
    does.  Every other group, an exact law or a counted Monte Carlo law,
    holds the GIL, so it runs on the caller's thread, in row order, while
    the pool draws, and ``oracle.group_law`` is called from the caller's
    thread alone.  A sweep without a per-batch group starts no pool.  The
    sweep reads no environment variable.

    A Monte Carlo cell is seeded with mix64(master_seed, k), where k is a
    64-bit SHA-256 digest of (model_id, M, side): every t of the group
    reads one drawn law.  A cell's result therefore depends only on the
    master seed and the cell itself: not on the grid, the other models,
    the thread count or the caller.
    """
    if not models:
        raise EmptyGrid("models list is empty")
    if not M_grid:
        raise EmptyGrid("M grid is empty")
    M_grid = [check_engine_m(M) for M in M_grid]
    t_grid = _check_t_grid(t_grid)
    if not t_grid:
        raise EmptyGrid("t grid is empty")
    if not sides:
        raise EmptyGrid("sides list is empty")
    sides = [check_side(side) for side in sides]
    replications = check_int("replications", replications, 1, REPLICATIONS_LIMIT)
    if method not in METHODS:
        raise DomainError(f"unknown sweep method {_shown(method)}")
    level = _check_level(level)
    master_seed = check_master_seed(master_seed)
    n_threads = check_int("threads", threads, 1, THREADS_LIMIT)

    groups: list[_Group] = []
    keys = set()
    for model_id, m in models:
        if not isinstance(model_id, str):
            raise DomainError(f"model_id must be a str, got {_shown(model_id)}")
        summary = summarize(m)
        for side in sides:
            anchor = side_anchor(summary, side)
            ts = window_t_grid(anchor, t_grid) if isinstance(t_grid, int) else t_grid
            for M in M_grid:
                # a repeated group would repeat its rows and draw from its stream
                if (model_id, M, side) in keys:
                    raise DomainError(f"duplicate group model_id={_shown(model_id)} M={M} side={side}")
                keys.add((model_id, M, side))
                seed = _law_seed(master_seed, model_id, M, side)
                groups.append(_Group(model_id, m, anchor, M, side, seed, ts))

    # the groups whose cells read a law drawn batch by batch: none under
    # "exact", and under "auto" a Beta atom's alone, as the oracle answers a
    # parameter mixture and refuses every cell of a Beta atom
    per_batch = [
        method != "exact" and _draws_per_batch(g.model, g.M, replications)
        and not (method == "auto" and isinstance(g.model, BernoulliParamMixture))
        for g in groups
    ]

    def evaluate(i: int) -> list[SweepRow]:
        engine = "montecarlo" if per_batch[i] else method
        return _sweep_group(groups[i], replications, engine, level)

    pooled = [i for i in range(len(groups)) if per_batch[i]] if n_threads > 1 else []
    if not pooled:
        done = list(map(evaluate, range(len(groups))))
    else:
        # a group per task, so two threads never draw one law; largest M
        # first, so the longest draws do not start last
        pooled.sort(key=lambda i: groups[i].M, reverse=True)
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            futures = {i: pool.submit(evaluate, i) for i in pooled}
            # the GIL-bound groups, here and in row order, while the pool draws
            own = {i: evaluate(i) for i in range(len(groups)) if i not in futures}
            done = [futures[i].result() if i in futures else own[i] for i in range(len(groups))]
    return SweepResult(
        rows=tuple(row for group in done for row in group),
        replications=replications,
        master_seed=master_seed,
        level=level,
    )
