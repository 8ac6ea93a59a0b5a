"""Exact tail probabilities for every verify cell, computed without exchbound.

Every input is taken at its exact IEEE value as a rational, and every
probability is computed in exact rational arithmetic:

* Bernoulli components: binomial pmf with integer numerators;
* discrete components: integer-lattice convolution of the scaled points
  (an independent lattice computation, so it also covers the M=200 cells
  that the library answers by Monte Carlo);
* uniform Bernoulli-parameter mixtures: the closed form
  int_0^x P(Bin(M,p) >= k) dp = E[(Bin(M+1,x) - k)^+] / (M+1).

Cells, deviations and validity follow the CLI conventions: ``auto:N``
deviations are ``t_max * i / (N+1)``, the upper event is
``S >= M*(mu_plus + t)`` and the lower event ``S <= M*(mu_minus - t)``.

    python3 perfbench/reference.py   # rewrite reference.json
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from workloads import M_GRID, SUITE, T_AUTO_N

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def component_mean(c: dict) -> float:
    if c["kind"] == "bernoulli":
        return float(c["p"])
    if c["kind"] == "pointmass":
        return float(c["c"])
    if c["kind"] == "discrete":
        return math.fsum(w * x for w, x in zip(c["weights"], c["points"]))
    raise ValueError(f"no exact law for component kind {c['kind']!r}")


def anchors(doc: dict) -> tuple[float, float]:
    """(mu_plus, mu_minus) as the floats the CLI computes them."""
    if doc["type"] == "finite":
        means = [component_mean(a["component"]) for a in doc["atoms"]]
        return max(means), min(means)
    d = doc["density"]
    return float(d["hi"]), float(d["lo"])


def t_grid(mu_plus: float, mu_minus: float, side: str, n: int = T_AUTO_N) -> list[float]:
    t_max = 1.0 - mu_plus if side == "upper" else mu_minus
    if t_max <= 0.0:
        t_max = 1.0
    return [t_max * i / (n + 1) for i in range(1, n + 1)]


@lru_cache(maxsize=None)
def _binomial_numerators(p: Fraction, M: int) -> tuple[tuple[int, ...], int]:
    """Integer pmf numerators of Bin(M, p) and their common denominator."""
    a, d = p.numerator, p.denominator
    nums = tuple(math.comb(M, j) * a**j * (d - a) ** (M - j) for j in range(M + 1))
    return nums, d**M


def _binomial_at_least(p: Fraction, M: int, k: int) -> Fraction:
    if k <= 0:
        return Fraction(1)
    if k > M:
        return Fraction(0)
    nums, den = _binomial_numerators(p, M)
    return Fraction(sum(nums[k:]), den)


@lru_cache(maxsize=None)
def _lattice_law(points: tuple[Fraction, ...], weights: tuple[Fraction, ...], M: int):
    """Law of the M-fold sum on the lattice of the scaled points.

    Returns (scale D, integer coefficients c_z, denominator W**M):
    P(S = z/D) = c_z / W**M.
    """
    scale = math.lcm(*(x.denominator for x in points))
    steps = [int(x * scale) for x in points]
    wden = math.lcm(*(w.denominator for w in weights))
    wnum = [int(w * wden) for w in weights]
    law = [1]
    for _ in range(M):
        nxt = [0] * (len(law) + max(steps))
        for z, c in enumerate(law):
            if c:
                for step, u in zip(steps, wnum):
                    nxt[z + step] += c * u
        law = nxt
    return scale, law, wden**M


def _check_off_lattice(x: Fraction, what: str) -> None:
    # every cell's threshold is far from a lattice point, so the event
    # convention (>= versus >) cannot change any reference value
    gap = abs(x - round(x))
    if gap < Fraction(1, 10**9):
        raise AssertionError(f"{what}: threshold {float(x)!r} sits on a lattice point")


def _component_tail(c: dict, M: int, thr: Fraction, upper: bool) -> Fraction:
    kind = c["kind"]
    if kind == "bernoulli":
        _check_off_lattice(thr, "bernoulli")
        p = Fraction(c["p"])
        if upper:
            return _binomial_at_least(p, M, math.ceil(thr))
        return 1 - _binomial_at_least(p, M, math.floor(thr) + 1)
    if kind == "pointmass":
        s = M * Fraction(c["c"])
        return Fraction(int(s >= thr if upper else s <= thr))
    if kind == "discrete":
        points = tuple(Fraction(x) for x in c["points"])
        weights = tuple(Fraction(w) for w in c["weights"])
        scale, law, den = _lattice_law(points, weights, M)
        _check_off_lattice(thr * scale, "discrete")
        if upper:
            first = max(0, math.ceil(thr * scale))
            return Fraction(sum(law[first:]), den)
        last = math.floor(thr * scale)
        return Fraction(sum(law[: max(0, last + 1)]), den)
    raise ValueError(f"no exact law for component kind {kind!r}")


def _uniform_integral(x: Fraction, M: int, k: int) -> Fraction:
    """int_0^x P(Bin(M,p) >= k) dp for 1 <= k <= M."""
    nums, den = _binomial_numerators(x, M + 1)
    excess = sum(n * (b - k) for b, n in enumerate(nums) if b > k)
    return Fraction(excess, den * (M + 1))


def _param_tail(density: dict, M: int, thr: Fraction, upper: bool) -> Fraction:
    if density["kind"] != "uniform":
        raise ValueError("only uniform parameter densities have a closed form here")
    _check_off_lattice(thr, "bernoulli_param")
    lo, hi = Fraction(density["lo"]), Fraction(density["hi"])
    k = math.ceil(thr) if upper else math.floor(thr) + 1  # P(S >= k)
    if k <= 0:
        at_least = Fraction(1)
    elif k > M:
        at_least = Fraction(0)
    else:
        at_least = (_uniform_integral(hi, M, k) - _uniform_integral(lo, M, k)) / (hi - lo)
    return at_least if upper else 1 - at_least


def exact_tail(doc: dict, M: int, side: str, t: float) -> Fraction:
    mu_plus, mu_minus = anchors(doc)
    upper = side == "upper"
    if upper:
        thr = M * (Fraction(mu_plus) + Fraction(t))
    else:
        thr = M * (Fraction(mu_minus) - Fraction(t))
    if doc["type"] == "finite":
        return sum(
            (Fraction(a["weight"]) * _component_tail(a["component"], M, thr, upper)
             for a in doc["atoms"]),
            Fraction(0),
        )
    return _param_tail(doc["density"], M, thr, upper)


def cells(m_grid=M_GRID):
    """(model_id, M, side, t, p, valid) in the order ``exchbound verify`` writes rows."""
    for model_id, doc in SUITE:
        mu_plus, mu_minus = anchors(doc)
        for side in ("upper", "lower"):
            mu_tilde = mu_plus if side == "upper" else 1.0 - mu_minus
            for M in m_grid:
                for t in t_grid(mu_plus, mu_minus, side):
                    p = float(exact_tail(doc, M, side, t))
                    yield model_id, M, side, t, p, t < 1.0 - mu_tilde


def load(path: Path = REFERENCE) -> dict:
    """Reference cells keyed by (model_id, M, side, t)."""
    payload = json.loads(path.read_text())
    return {
        (model_id, M, side, t): (p, valid)
        for model_id, M, side, t, p, valid in payload["cells"]
    }


def _dump(rows) -> str:
    lines = ",\n".join("  " + json.dumps(list(r)) for r in rows)
    return (
        '{"columns": ["model_id", "M", "side", "t", "p", "valid"],\n'
        f'"cells": [\n{lines}\n]}}\n'
    )


def main() -> None:
    rows = list(cells())
    REFERENCE.write_text(_dump(rows))
    print(f"wrote {len(rows)} cells to {REFERENCE.name}")


if __name__ == "__main__":
    main()
