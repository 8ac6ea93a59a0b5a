"""Replicated simulation of tail events, and verification sweeps.

One sampler, ``_block_sums``, draws the conditional law of the batch
sum: given the drawn component, S = X_1 + ... + X_M is Binomial(M, p)
for Bernoulli components, a sum of M Beta draws for Beta components, and
for point masses and discrete components a multinomial count vector over
the component's points, which costs O(k) for k points rather than O(M);
a one-point atom draws nothing, its sum being M times its point.  Only
the count of each sum is kept, so a Bernoulli atom given n > M batches
of a block draws those counts over the M + 1 sums as one Multinomial(n,
Binomial(M, p) pmf), outcomes in ascending order of mass (Devroye,
Non-Uniform Random Variate Generation, 1986, ch. XI), rather than n
binomials; with n <= M, as at huge M, it draws the n binomials.
This is distributionally identical to materializing the M individual
observations (the batch is conditionally i.i.d.), and it is what makes
10^5-replication sweeps over hundreds of cells affordable.  The
per-observation sampler in :mod:`exchbound.sampler` remains the
reference mechanism and the tests cross-validate the two.

Replications are processed in fixed blocks of 2^16, one derived stream
per (master_seed, block_index).  A block's stream is SFC64, seeded with
the first three words of the Philox stream ``sampler.derive_stream``
gives the block: Beta draws, the bulk of a block's work, are bound by
the generator, and SFC64 makes its words about four times faster;
replays (``sample_sequence``) stay on Philox.  The mixing weights of a
finite mixture fix only how many of a block's n replications each atom
gets, so a block first draws those counts as one Multinomial(n,
weights), then each atom's sums in atom order (a one-atom mixture's
count takes no draw).  A parameter-mixture block draws n Bernoulli
parameters, then their n binomial sums.  Within a block, the Beta sums
of an atom are drawn in row chunks of about 2^17 variates from that one stream, so
memory stays at one chunk, or one row past 2^17, however large
replications grows, and the sums are those of drawing the whole block
at once.  A row is held whole, so M is at most 2^24 for a Beta atom.
The drawn sums of one (model, M, replications, seed) form one empirical law
(``_empirical_law``): one ``oracle.SumTable`` of draw counts per scale,
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
the thread count.  The window t < 1 - a is decided exactly.  One rule
flags a cell inside it, whichever engine answered: the least value the
engine vouches for (the exact value, or the lower Clopper-Pearson limit
of the estimate) exceeds either bound form, exp(-2Mt^2) or the optimized
envelope.  The envelope is None, and so not checked, within an ulp of
the window's end.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

import numpy as np
from scipy import special

from .bounds import Side, TailQuery, check_engine_m, side_anchor, tail_bound_report
from .errors import DomainError, EmptyGrid, ExchboundError, MTooLarge, UnsupportedModel
from .model import (
    Bernoulli,
    Beta,
    BernoulliParamMixture,
    FiniteMixture,
    MixingMeasure,
    flip_model,
    summarize,
)
from .oracle import SumTable, exact_tail, lattice_points
from .sampler import SeedSpec, _block_stream, check_master_seed, mix64
from .sampler import derive_stream  # noqa: F401  perfbench/tracing.py wraps this name

BLOCK_SIZE = 1 << 16

BETA_CHUNK = 1 << 17  # Beta draws held at once: 1 MB of float64

BETA_MAX_M = 1 << 24  # one row of M Beta draws, held whole: 128 MB of float64

HISTOGRAM_MAX_BINS = 10**6

DEFAULT_CI_LEVEL = 0.999

METHODS = ("auto", "exact", "montecarlo")  # sweep engines, see run_sweep

THREADS_ENV_VAR = "EXCHBOUND_THREADS"

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo estimate of a tail probability with its Clopper-Pearson interval."""

    p_hat: float
    ci_low: float
    ci_high: float
    replications: int
    exceed_count: int
    master_seed: int


def clopper_pearson_interval(successes: int, n: int, level: float = DEFAULT_CI_LEVEL):
    """Two-sided Clopper-Pearson interval for a binomial proportion.

    Each limit inverts the exact binomial tail at (1 - level)/2, so a true
    proportion lies below the lower limit with probability at most
    (1 - level)/2, whatever it is.  Wilson's score interval passes that
    rate several-fold near 0 (Brown, Cai and DasGupta, Statist. Sci. 2001),
    where the bounds of large M lie.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not (0 <= successes <= n):
        raise DomainError(f"successes must lie in [0, {n}], got {successes}")
    if not (0.0 < level < 1.0):
        raise DomainError(f"level must lie in (0,1), got {level!r}")
    k, alpha = successes, 1.0 - level
    lo = 0.0 if k == 0 else float(special.betaincinv(k, n - k + 1, alpha / 2))
    hi = 1.0 if k == n else float(special.betaincinv(k + 1, n - k, 1.0 - alpha / 2))
    # the exact interval always contains k/n; rounding must not lose that
    p = k / n
    return min(p, lo), max(p, hi)


def _lattice_sums(counts: np.ndarray, ints: Sequence[int], bound: int) -> np.ndarray:
    """counts @ ints, row by row, for sums known to be at most ``bound``.

    In int64 when the bound fits; otherwise in Python ints (an object
    array), one dot product per distinct count vector.
    """
    if bound <= _INT64_MAX:
        return counts @ np.array(ints, dtype=np.int64)
    rows, inverse = np.unique(counts, axis=0, return_inverse=True)
    keys = np.array([sum(map(operator.mul, row, ints)) for row in rows.tolist()], dtype=object)
    return keys[inverse.reshape(-1)]


def _block_sums(
    m: MixingMeasure, M: int, n: int, gen: np.random.Generator
) -> Iterator[tuple[Optional[int], np.ndarray, Optional[np.ndarray]]]:
    """Draw n conditional sums S as (scale, keys, counts), per drawn atom in atom order.

    A finite mixture's weights fix only how many of the n batches each
    atom gets, so one multinomial draw gives those counts, and the sums
    of each atom are then drawn in atom order.  A lattice atom yields the
    integers S*scale: Bernoulli and parameter-mixture sums at scale 1,
    point masses and discrete atoms as multinomial counts over the points
    of their ``discrete_law()``, scaled by the lcm D of their denominators
    (``lattice_points``).  A Beta atom yields float sums at scale None.

    ``counts`` is None when ``keys`` holds one raw sum per batch.
    Otherwise ``keys`` are distinct sums and ``counts`` how many batches
    reached each.  A one-point atom's sum is the constant M*D*x, so it
    yields that key with count ni and draws nothing.  A Bernoulli(p) atom
    with ni > M batches draws their counts over the sums 0..M as one
    multinomial (``_counted_binomial``) rather than ni binomials; with
    ni <= M, as at huge M, it draws the ni binomials.  ``_empirical_law``
    only counts the sums, so they need not come in replication order.
    """
    if isinstance(m, BernoulliParamMixture):
        p = m.density.quantile(gen.random(n))
        yield 1, gen.binomial(M, p), None
        return
    assert isinstance(m, FiniteMixture)
    for ni, c in zip(_multinomial(gen, n, m.weights).tolist(), m.components):
        if ni == 0:
            continue
        if isinstance(c, Bernoulli):
            if ni > M:
                yield 1, *_counted_binomial(gen, ni, M, float(c.p))
            else:
                yield 1, gen.binomial(M, float(c.p), size=ni), None
        elif isinstance(c, Beta):
            yield None, _beta_sums(c, M, ni, gen), None
        else:
            points, weights = c.discrete_law()
            D, ints = lattice_points(points)
            if len(ints) == 1:  # in int64 or Python ints, as _lattice_sums decides
                key = np.array([M * ints[0]], dtype=np.int64 if M * D <= _INT64_MAX else object)
                yield D, key, np.array([ni])
            else:
                yield D, _lattice_sums(_multinomial(gen, M, weights, size=ni), ints, M * D), None


def _multinomial(gen: np.random.Generator, n: int, weights: Sequence[float], size=None):
    """Counts of n draws over the categories of ``weights``; one category takes no draw."""
    w = np.asarray(weights, dtype=np.float64)
    # multinomial rejects weights whose leading sum passes 1 + 1e-12
    return gen.multinomial(n, w / w.sum(), size=size)


def _binomial_pmf(M: int, p: float) -> np.ndarray:
    """The Binomial(M, p) masses of 0..M, each within about 1e-10 relative up to M = 2^16."""
    k = np.arange(M + 1, dtype=np.float64)
    log_choose = special.gammaln(M + 1) - special.gammaln(k + 1) - special.gammaln(M - k + 1)
    return np.exp(log_choose + special.xlogy(k, p) + special.xlog1py(M - k, -p))


def _counted_binomial(
    gen: np.random.Generator, n: int, M: int, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """(sums, counts) of n Binomial(M, p) draws, drawn as one multinomial over 0..M.

    The counts of n i.i.d. draws are Multinomial(n, pmf).  numpy draws a
    multinomial one category at a time, each as a binomial with
    probability p_j / (1 - p_0 - ... - p_{j-1}); that remainder cancels if
    the bulk comes first, so the outcomes are drawn in ascending order of
    mass.  Only sums drawn at least once are returned.
    """
    pmf = _binomial_pmf(M, p)
    order = np.argsort(pmf, kind="stable")
    counts = np.empty(M + 1, dtype=np.int64)
    counts[order] = _multinomial(gen, n, pmf[order])
    sums = np.flatnonzero(counts)
    return sums, counts[sums]


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


@functools.lru_cache(maxsize=16)  # a 10^5-replication Beta table holds 1.6 MB
def _empirical_law(
    m: MixingMeasure, M: int, replications: int, seed: int
) -> tuple[SumTable, ...]:
    """The sums S of ``replications`` batches of M draws, one table per scale.

    Every threshold of one (model, M, seed) reads the same draws, so a
    tail estimate can only fall as t grows.  A Beta atom needs one whole
    row of M draws, so past BETA_MAX_M it raises DomainError before any draw.
    """
    if M > BETA_MAX_M and isinstance(m, FiniteMixture):
        if any(isinstance(c, Beta) for c in m.components):
            raise DomainError(f"M must be <= {BETA_MAX_M} for a Beta component, got {M}")
    parts: dict[Optional[int], list[tuple[np.ndarray, Optional[np.ndarray]]]] = {}
    for block_index, start in enumerate(range(0, replications, BLOCK_SIZE)):
        gen = _block_stream(SeedSpec(master_seed=seed, replication_index=block_index))
        size = min(BLOCK_SIZE, replications - start)
        for scale, keys, counts in _block_sums(m, M, size, gen):
            parts.setdefault(scale, []).append((keys, counts))
    return tuple(SumTable(scale, *_merge_counts(pieces)) for scale, pieces in parts.items())


def _merge_counts(
    pieces: list[tuple[np.ndarray, Optional[np.ndarray]]]
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending distinct keys and their total counts, over raw sums (counts None)
    and counted ones."""
    raw = [keys for keys, counts in pieces if counts is None]
    counted = [(keys, counts) for keys, counts in pieces if counts is not None]
    if raw:
        counted.append(np.unique(np.concatenate(raw), return_counts=True))
    if len(counted) == 1:
        return counted[0]
    keys, inverse = np.unique(np.concatenate([k for k, _ in counted]), return_inverse=True)
    totals = np.zeros(len(keys), dtype=np.int64)
    np.add.at(totals, inverse.reshape(-1), np.concatenate([c for _, c in counted]))
    return keys, totals


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
    if replications < 1:
        raise DomainError(f"replications must be >= 1, got {replications}")
    a = side_anchor(summarize(m), q.side)
    if q.side is Side.LOWER:
        m = flip_model(m)
    thr = q.M * (a + Fraction(q.t))
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
    if not 2 <= bins <= HISTOGRAM_MAX_BINS:
        raise DomainError(f"bins must lie in [2, {HISTOGRAM_MAX_BINS}], got {bins}")
    if replications < 1:
        raise DomainError(f"replications must be >= 1, got {replications}")
    check_engine_m(M)
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
    """One evaluated (model, M, t, side) cell; a failed cell keeps the defaults."""

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


def _resolve_threads(threads: Optional[int]) -> int:
    if threads is not None:
        return max(1, threads)
    text = os.environ.get(THREADS_ENV_VAR, "1")
    if not text.isdecimal() or int(text) < 1:
        raise DomainError(f"{THREADS_ENV_VAR} must be a positive integer, got {text!r}")
    return int(text)


def _law_seed(master_seed: int, model_id: str, M: int, side: Side) -> Optional[int]:
    """mix64(master_seed, k), k a 64-bit digest of (model_id, M, side); None for an
    M that is not an integer, whose cells are error rows before any engine runs."""
    try:
        M = operator.index(M)  # a numpy integer keys as the int it holds
    except TypeError:
        return None
    # hashlib, not hash(): the built-in is salted per process
    key = repr((model_id, M, str(side))).encode()
    return mix64(master_seed, int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))


# (model_id, model, side_anchor(summary, side), M, t, side, _law_seed(...))
_Cell = tuple[str, MixingMeasure, Fraction, int, float, Side, Optional[int]]


def _answer(
    cell: _Cell,
    query: TailQuery,
    replications: int,
    method: str,
    level: float,
) -> tuple[str, float, Optional[float], Optional[float]]:
    """(method, value, ci_low, ci_high): exact where asked and possible, else Monte Carlo."""
    _, m, *_, seed = cell
    if method != "montecarlo":
        try:
            exact = exact_tail(m, query)
            return str(exact.method), exact.probability, None, None
        except (UnsupportedModel, MTooLarge):
            if method == "exact":
                raise
    estimate = estimate_tail(m, query, replications, seed, level)
    return "montecarlo", estimate.p_hat, estimate.ci_low, estimate.ci_high


def _sweep_cell(cell: _Cell, **engine_args) -> SweepRow:
    model_id, _, anchor, M, t, side, _ = cell
    row = dict(model_id=model_id, M=M, t=t, side=str(side))
    try:
        query = TailQuery(M=M, t=t, side=side)
        report = tail_bound_report(anchor, M, t)
        row.update(
            hoeffding=report.hoeffding_form,
            kl_form=report.kl_form,
            h0=report.h0,
            valid=report.in_validity_range,
        )
        method, value, ci_low, ci_high = _answer(cell, query, **engine_args)
        low = value if ci_low is None else ci_low
        row.update(
            method=method,
            value=value,
            ci_low=ci_low,
            ci_high=ci_high,
            violation=report.in_validity_range and (
                low > report.hoeffding_form
                or (report.kl_form is not None and low > report.kl_form)
            ),
        )
    except ExchboundError as e:
        row["method"] = f"error:{type(e).__name__}"
    return SweepRow(**row)


def _sweep_group(cells: list[_Cell], **kwargs) -> list[SweepRow]:
    return [_sweep_cell(cell, **kwargs) for cell in cells]


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
    threads: Optional[int] = None,
) -> SweepResult:
    """Evaluate every (model, M, t, side) cell of the grid.

    ``t_grid`` is either a list of deviations shared by every model and
    side, or an int n: n deviations spanning each (model, side) validity
    window (:func:`window_t_grid`).  Rows come out model by model, then
    side, then M, then t.

    ``method`` selects the engine per cell: "auto" prefers the exact
    oracle and falls back to Monte Carlo, "exact" and "montecarlo" force
    one engine.  Per-cell failures become rows with method "error:<name>"
    rather than aborting the sweep.  An unknown method, a master seed
    outside [0, 2^64), or two cells with the same row key (model_id, M, t,
    side), raise DomainError before any cell runs.

    With ``threads`` > 1 (or the EXCHBOUND_THREADS environment variable)
    the cells are evaluated concurrently, one (model, side, M) group per
    task.  A Monte Carlo cell is seeded with mix64(master_seed, k), where
    k is a 64-bit SHA-256 digest of (model_id, M, side): every t of the
    group reads one drawn law.  A cell's result therefore depends only on
    the master seed and the cell itself: not on the grid, the other
    models, the thread count or the caller.
    """
    if not models:
        raise EmptyGrid("models list is empty")
    if not M_grid:
        raise EmptyGrid("M grid is empty")
    if (isinstance(t_grid, int) and t_grid < 1) or not t_grid:
        raise EmptyGrid("t grid is empty")
    if not sides:
        raise EmptyGrid("sides list is empty")
    if replications < 1:
        raise DomainError(f"replications must be >= 1, got {replications}")
    if method not in METHODS:
        raise DomainError(f"unknown sweep method {method!r}")
    check_master_seed(master_seed)
    n_threads = _resolve_threads(threads)

    # one group of cells per (model, side, M): the cells that share a drawn law
    groups: list[list[_Cell]] = []
    keys = set()
    for model_id, m in models:
        summary = summarize(m)
        for side in sides:
            anchor = side_anchor(summary, side)
            ts = window_t_grid(anchor, t_grid) if isinstance(t_grid, int) else t_grid
            for M in M_grid:
                seed = _law_seed(master_seed, model_id, M, side)
                groups.append([])
                for t in ts:
                    # a repeated key would repeat a row and share its random stream
                    key = (model_id, M, t, side)
                    if key in keys:
                        raise DomainError(
                            f"duplicate cell model_id={model_id!r} M={M} t={t!r} side={side}"
                        )
                    keys.add(key)
                    groups[-1].append((model_id, m, anchor, M, t, side, seed))

    evaluate = functools.partial(
        _sweep_group,
        replications=replications,
        method=method,
        level=level,
    )
    if n_threads == 1:
        done = list(map(evaluate, groups))
    else:
        # a group per task, so two threads never draw one law; largest M
        # first, so the longest draws do not start last
        order = sorted(range(len(groups)), key=lambda i: -groups[i][0][3])
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            futures = {i: pool.submit(evaluate, groups[i]) for i in order}
            done = [futures[i].result() for i in range(len(groups))]
    return SweepResult(
        rows=tuple(row for group in done for row in group),
        replications=replications,
        master_seed=master_seed,
        level=level,
    )
