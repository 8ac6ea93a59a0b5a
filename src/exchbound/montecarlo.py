"""Replicated simulation of tail events, and verification sweeps.

One sampler, ``_block_sums``, draws the conditional law of the batch
sum for both estimates and histograms: given the drawn component,
S = X_1 + ... + X_M is Binomial(M, p) for Bernoulli components, a
deterministic constant for point masses, a sum of M Beta draws for Beta
components, and a sum of M inverse-CDF draws (the sampler's own
``pick_index`` over the point weights) for discrete components.  This is
distributionally identical to materializing the M individual
observations (the batch is conditionally i.i.d.), and it is what makes
10^5-replication sweeps over hundreds of cells affordable.  The
per-observation sampler in :mod:`exchbound.sampler` remains the
reference mechanism and the tests cross-validate the two.

Replications are processed in fixed blocks of 2^16, one derived stream
per (master_seed, block_index); exceedance counts are exact integers
summed over blocks, so results do not depend on execution order or
thread count.  Estimation computes upper tails only: a lower-tail query
is the reflected model's upper tail, exactly as in the oracle.  The
event S >= M*(mu_plus + t) is decided against the exact rational
threshold: integer sums (Bernoulli and parameter-mixture components) and
point masses match the oracle's decision exactly, while discrete and
Beta sums are float sums, exact only up to their summation rounding.

Sweeps evaluate a grid of (model, M, t, side) cells, preferring the
exact oracle and falling back to Monte Carlo where no exact path exists.
A whole report is one sweep: the t grid is either explicit or a count of
deviations spanning each (model, side) validity window, and each cell's
seed is derived from the master seed and the cell's own row key, so an
estimate does not depend on the rest of the grid, the other models or
the thread count.  A cell inside the validity window is flagged as a
violation when its exact value (or the lower confidence limit of its
estimate) exceeds the exp(-2Mt^2) bound; exact cells are additionally
checked against the optimized envelope.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

import numpy as np
from scipy import stats

from .bounds import Side, TailQuery, effective_mu, tail_bound_report
from .errors import DomainError, EmptyGrid, ExchboundError, MTooLarge, UnsupportedModel
from .model import (
    Bernoulli,
    Beta,
    BernoulliParamMixture,
    Component,
    DiscreteOnUnit,
    FiniteMixture,
    MixingMeasure,
    ModelSummary,
    PointMass,
    summarize,
)
from .oracle import ExactTail, exact_tail, flip_model
from .sampler import SeedSpec, derive_stream, mix64, pick_index

BLOCK_SIZE = 1 << 16

DEFAULT_CI_LEVEL = 0.999

THREADS_ENV_VAR = "EXCHBOUND_THREADS"


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo estimate of a tail probability with a score interval."""

    p_hat: float
    ci_low: float
    ci_high: float
    replications: int
    exceed_count: int
    master_seed: int


def wilson_interval(successes: int, n: int, level: float = DEFAULT_CI_LEVEL):
    """Two-sided Wilson score interval for a binomial proportion.

    Chosen over the normal approximation because it stays honest at
    p_hat in {0, 1}, which degenerate models produce routinely.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not (0 <= successes <= n):
        raise DomainError(f"successes must lie in [0, {n}], got {successes}")
    if not (0.0 < level < 1.0):
        raise DomainError(f"level must lie in (0,1), got {level!r}")
    z = float(stats.norm.ppf(0.5 + 0.5 * level))
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    # the score interval always contains p; rounding must not lose that
    # at the extremes, where the exact endpoints are 0 and 1
    lo = min(p, max(0.0, center - half))
    hi = max(p, min(1.0, center + half))
    return lo, hi


# ---------------------------------------------------------------------------
# Exact-boundary comparisons for float-valued sums
# ---------------------------------------------------------------------------


def _float_ceil(x: Fraction) -> float:
    """Smallest float >= x; compares float sums against exact thresholds."""
    try:
        f = float(x)
    except OverflowError:  # a positive x past the float range: no sum reaches it
        return math.inf
    if Fraction(f) >= x:
        g = math.nextafter(f, -math.inf)
        while Fraction(g) >= x:
            f, g = g, math.nextafter(g, -math.inf)
        return f
    return math.nextafter(f, math.inf)


def _upper_threshold(summary: ModelSummary, M: int, t: float) -> Fraction:
    return Fraction(M) * (Fraction(summary.mu_plus) + Fraction(t))


def _block_sums(
    m: MixingMeasure, M: int, n: int, gen: np.random.Generator
) -> Iterator[tuple[Optional[Component], np.ndarray]]:
    """Draw n conditional sums S, grouped by drawn atom in atom order.

    Yields (component, sums) per atom drawn at least once; a parameter
    mixture yields (None, sums) once.  A point-mass sum is M*float(c).
    Both callers only count, so the sums need not be put back in
    replication order.
    """
    if isinstance(m, BernoulliParamMixture):
        p = m.density.quantile(gen.random(n))
        yield None, gen.binomial(M, p)
        return
    assert isinstance(m, FiniteMixture)
    idx = pick_index(m.weights, gen.random(n))
    for i, (_, c) in enumerate(m.atoms):
        ni = int(np.count_nonzero(idx == i))
        if ni == 0:
            continue
        if isinstance(c, Bernoulli):
            yield c, gen.binomial(M, float(c.p), size=ni)
        elif isinstance(c, PointMass):
            yield c, np.full(ni, M * float(c.c))
        elif isinstance(c, Beta):
            yield c, gen.beta(c.alpha, c.beta, size=(ni, M)).sum(axis=1)
        elif isinstance(c, DiscreteOnUnit):
            # component_quantile's draw, with the (ni, M) uniforms freed
            # before the gather: two such arrays live at once, not three
            points = np.asarray(c.points, dtype=np.float64)
            yield c, points[pick_index(c.weights, gen.random((ni, M)))].sum(axis=1)
        else:
            raise TypeError(f"not a Component: {c!r}")


def _blocks(replications: int):
    start = 0
    index = 0
    while start < replications:
        yield index, min(BLOCK_SIZE, replications - start)
        start += BLOCK_SIZE
        index += 1


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
    the estimate is independent of block execution order.
    """
    if replications < 1:
        raise DomainError(f"replications must be >= 1, got {replications}")
    if q.side is Side.LOWER:
        return estimate_tail(
            flip_model(m),
            TailQuery(M=q.M, t=q.t, side=Side.UPPER),
            replications,
            master_seed,
            level,
        )
    thr = _upper_threshold(summarize(m), q.M, q.t)
    f_thr = _float_ceil(thr)  # a float sum s has s >= thr iff s >= f_thr
    exceed = 0
    for block_index, size in _blocks(replications):
        gen = derive_stream(SeedSpec(master_seed=master_seed, replication_index=block_index))
        for c, sums in _block_sums(m, q.M, size, gen):
            if isinstance(c, PointMass):
                # M*float(c) can round across thr; decide the constant exactly
                exceed += len(sums) if q.M * Fraction(c.c) >= thr else 0
            else:
                exceed += int(np.count_nonzero(sums >= f_thr))
    ci_low, ci_high = wilson_interval(exceed, replications, level)
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
    if bins < 2:
        raise DomainError(f"bins must be >= 2, got {bins}")
    if replications < 1:
        raise DomainError(f"replications must be >= 1, got {replications}")
    if M < 1:
        raise DomainError(f"M must be >= 1, got {M}")
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts = np.zeros(bins, dtype=np.int64)
    for block_index, size in _blocks(replications):
        gen = derive_stream(SeedSpec(master_seed=master_seed, replication_index=block_index))
        for _, sums in _block_sums(m, M, size, gen):
            counts += np.histogram(np.clip(sums / M, 0.0, 1.0), bins=edges)[0]
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
    replications: int
    master_seed: int
    level: float

    @property
    def violations(self) -> tuple[SweepRow, ...]:
        return tuple(r for r in self.rows if r.violation)


def window_t_grid(summary: ModelSummary, side: Side, n: int) -> list[float]:
    """n deviations spanning the side's validity window.

    An empty window (degenerate models) falls back to spanning (0, 1) so
    the sweep still exercises and flags the invalid cells.
    """
    t_max = summary.t_max_upper if side is Side.UPPER else summary.t_max_lower
    if t_max <= 0.0:
        t_max = 1.0
    return [t_max * i / (n + 1) for i in range(1, n + 1)]


def _resolve_threads(threads: Optional[int]) -> int:
    if threads is not None:
        return max(1, threads)
    text = os.environ.get(THREADS_ENV_VAR, "1")
    if not text.isdecimal() or int(text) < 1:
        raise DomainError(f"{THREADS_ENV_VAR} must be a positive integer, got {text!r}")
    return int(text)


def _cell_seed(master_seed: int, model_id: str, M: int, t: float, side: Side) -> int:
    """mix64(master_seed, k), k a 64-bit digest of the cell's row key."""
    # hashlib, not hash(): the built-in is salted per process
    key = repr((model_id, int(M), float(t).hex(), str(side))).encode()
    return mix64(master_seed, int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))


# (model_id, model, summary, M, t, side)
_Cell = tuple[str, MixingMeasure, ModelSummary, int, float, Side]


def _sweep_cell(
    cell: _Cell,
    replications: int,
    master_seed: int,
    method: str,
    level: float,
    bound_scale: float,
) -> SweepRow:
    model_id, m, summary, M, t, side = cell
    row = dict(model_id=model_id, M=M, t=t, side=str(side))
    try:
        query = TailQuery(M=M, t=t, side=side)
        report = tail_bound_report(effective_mu(summary, side), M, t)
        hoeffding = report.hoeffding_form * bound_scale
        row.update(
            hoeffding=hoeffding,
            kl_form=report.kl_form,
            h0=report.h0,
            valid=report.in_validity_range,
        )
        exact: Optional[ExactTail] = None
        if method in ("auto", "exact"):
            try:
                exact = exact_tail(m, query)
            except (UnsupportedModel, MTooLarge):
                if method == "exact":
                    raise
        elif method != "montecarlo":
            raise DomainError(f"unknown sweep method {method!r}")

        if exact is not None:
            value = exact.probability
            row.update(
                method=str(exact.method),
                value=value,
                violation=report.in_validity_range and (
                    value > hoeffding
                    or (report.kl_form is not None and value > report.kl_form)
                ),
            )
        else:
            seed = _cell_seed(master_seed, model_id, M, t, side)
            estimate = estimate_tail(m, query, replications, seed, level)
            row.update(
                method="montecarlo",
                value=estimate.p_hat,
                ci_low=estimate.ci_low,
                ci_high=estimate.ci_high,
                violation=report.in_validity_range and estimate.ci_low > hoeffding,
            )
    except ExchboundError as e:
        row["method"] = f"error:{type(e).__name__}"
    return SweepRow(**row)


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
    bound_scale: float = 1.0,
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
    rather than aborting the sweep.  Two cells with the same row key
    (model_id, M, t, side) raise DomainError before any cell runs.
    ``bound_scale`` is a verification hook that scales the exp(-2Mt^2)
    value used in violation checks.

    Cells are independent; with ``threads`` > 1 (or the EXCHBOUND_THREADS
    environment variable) they are evaluated concurrently.  A Monte Carlo
    cell is seeded with mix64(master_seed, k), where k is a 64-bit
    SHA-256 digest of the cell's row key (model_id, M, float(t).hex(),
    side).  A cell's result therefore depends only on the master seed and
    the cell itself: not on the grid, the other models, the thread count
    or the caller.
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
    n_threads = _resolve_threads(threads)

    cells: list[_Cell] = []
    keys = set()
    for model_id, m in models:
        summary = summarize(m)
        for side in sides:
            ts = window_t_grid(summary, side, t_grid) if isinstance(t_grid, int) else t_grid
            for M in M_grid:
                for t in ts:
                    # a repeated key would repeat a row and share its random stream
                    key = (model_id, M, t, side)
                    if key in keys:
                        raise DomainError(
                            f"duplicate cell model_id={model_id!r} M={M} t={t!r} side={side}"
                        )
                    keys.add(key)
                    cells.append((model_id, m, summary, M, t, side))

    evaluate = functools.partial(
        _sweep_cell,
        replications=replications,
        master_seed=master_seed,
        method=method,
        level=level,
        bound_scale=bound_scale,
    )
    if n_threads == 1:
        rows = list(map(evaluate, cells))
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            rows = list(pool.map(evaluate, cells))
    return SweepResult(
        rows=tuple(rows),
        replications=replications,
        master_seed=master_seed,
        level=level,
    )
