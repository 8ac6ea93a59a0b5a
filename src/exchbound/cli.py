"""Command-line interface.

Subcommands
-----------
bounds     closed-form bound report for both tails of a (mu_plus, mu_minus) model
simulate   Monte Carlo estimate of one tail query against its bounds
verify     sweep models x M x t x sides, flag bound violations, write a report
ci         deviation radius for a target two-sided confidence level
histogram  empirical distribution of the sample mean

Exit codes: 0 success (verify: every cell evaluated, zero violations),
1 verify found violations (a valid cell beat either bound form), 2
invalid arguments or model file (verify and simulate: also when a cell
failed; the report is still written), 3 output I/O failure.

Observations on a general range [a, b] are supported by affine
rescaling at this boundary only: pass ``--range a b`` to bounds/ci and
deviations are interpreted in data units (t_unit = t / (b - a)).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence, Union, get_origin, get_type_hints

from . import __version__
from .bounds import (
    RangeBounds,
    Side,
    side_anchor,
    t_for_confidence,
    tail_bound_report,
)
from .errors import DomainError, ExchboundError
from .model import (
    Bernoulli,
    Beta,
    BernoulliParamMixture,
    DiscreteOnUnit,
    FiniteMixture,
    MixingMeasure,
    ModelSummary,
    PointMass,
    TruncatedBetaDensity,
    UniformDensity,
)
from .montecarlo import DEFAULT_CI_LEVEL, METHODS, run_sweep, sample_mean_histogram
from .reporting import ENCODERS, HistogramReport, Report, format_value, write_report
from .suite import standard_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

DEFAULT_M_GRID = (1, 2, 5, 10, 50, 200)
DEFAULT_T_GRID = "auto:10"


class ModelFileError(ExchboundError):
    """A model file failed validation; ``field`` addresses the offender."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


# ---------------------------------------------------------------------------
# Model file ingestion
# ---------------------------------------------------------------------------


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ModelFileError(f"{where}.{key}" if where else key, "missing field")
    return obj[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFileError(where, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal past the float range
        raise ModelFileError(where, "number too large for a float") from None


_COMPONENT_KINDS = {
    "bernoulli": Bernoulli, "pointmass": PointMass, "discrete": DiscreteOnUnit, "beta": Beta,
}
_DENSITY_KINDS = {"uniform": UniformDensity, "truncated_beta": TruncatedBetaDensity}

# per class, its fields in order: True where a field is a tuple, which a
# file holds as a JSON list of numbers, False where it is one number
_KIND_FIELDS = {
    cls: {f.name: get_origin(get_type_hints(cls)[f.name]) is tuple for f in fields(cls)}
    for cls in (*_COMPONENT_KINDS.values(), *_DENSITY_KINDS.values())
}


def _from_kind(obj, where: str, kinds: dict, noun: str):
    """The ``kinds[obj["kind"]]`` built from the keys named after its fields."""
    if not isinstance(obj, dict):
        raise ModelFileError(where, "expected an object")
    kind = _require(obj, "kind", where)
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ModelFileError(f"{where}.kind", f"unknown {noun} kind {kind!r}")
    values = {}
    for name, is_list in _KIND_FIELDS[cls].items():
        value, path = _require(obj, name, where), f"{where}.{name}"
        if not is_list:
            values[name] = _number(value, path)
        elif isinstance(value, list):
            values[name] = [_number(x, f"{path}[{i}]") for i, x in enumerate(value)]
        else:
            raise ModelFileError(path, "expected a list")
    try:
        return cls(**values)
    except ExchboundError as e:
        raise ModelFileError(where, str(e)) from e


def model_from_obj(obj) -> MixingMeasure:
    """Build a MixingMeasure from the canonical document schema."""
    if not isinstance(obj, dict):
        raise ModelFileError("$", "model document must be an object")
    mtype = _require(obj, "type", "")
    if mtype == "finite":
        atoms_obj = _require(obj, "atoms", "")
        if not isinstance(atoms_obj, list) or not atoms_obj:
            raise ModelFileError("atoms", "expected a non-empty list")
        atoms = []
        for i, atom in enumerate(atoms_obj):
            where = f"atoms[{i}]"
            if not isinstance(atom, dict):
                raise ModelFileError(where, "expected an object")
            weight = _number(_require(atom, "weight", where), f"{where}.weight")
            component = _require(atom, "component", where)
            component = _from_kind(component, f"{where}.component", _COMPONENT_KINDS, "component")
            atoms.append((weight, component))
        try:
            return FiniteMixture(atoms)
        except ExchboundError as e:
            raise ModelFileError("atoms[*].weight", str(e)) from e
    if mtype == "bernoulli_param":
        density = _from_kind(_require(obj, "density", ""), "density", _DENSITY_KINDS, "density")
        return BernoulliParamMixture(density)
    raise ModelFileError("type", f"unknown model type {mtype!r}")


def load_model_file(path: str) -> MixingMeasure:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ModelFileError("$", f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ModelFileError("$", f"not UTF-8 text: {e}") from e
    try:
        obj = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an integer literal past 4300 digits
        raise ModelFileError("$", f"cannot parse JSON: {e}") from e
    except RecursionError:  # the parser recurses once per nested array or object
        raise ModelFileError("$", "JSON nested too deeply to parse") from None
    return model_from_obj(obj)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _bound_line(side: Side, summary: ModelSummary, M: int, t: float) -> str:
    a = side_anchor(summary, side)
    report = tail_bound_report(a, M, t)
    mean = summary.mu_plus if side is Side.UPPER else summary.mu_minus
    return (
        f"side={side} anchor_mu={format_value(mean)} "
        f"t_max={format_value(float(1 - a))} valid={format_value(report.in_validity_range)} "
        f"hoeffding={format_value(report.hoeffding_form)} h0={format_value(report.h0)} "
        f"kl_form={format_value(report.kl_form)}"
    )


_SIDES = {"upper": [Side.UPPER], "lower": [Side.LOWER], "both": [Side.UPPER, Side.LOWER]}


def _load_models(args) -> list[tuple[str, MixingMeasure]]:
    models = []
    if args.models_dir:
        paths = sorted(Path(args.models_dir).glob("*.json"))
        if not paths:
            raise ExchboundError(f"no *.json model files in {args.models_dir}")
        models = [(p.stem, load_model_file(str(p))) for p in paths]
    models += [(Path(p).stem, load_model_file(p)) for p in args.model or []]
    return models or list(standard_suite())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_bounds(args) -> int:
    r = RangeBounds(*args.range)
    scale = r.b - r.a
    mu_plus, mu_minus = args.mu_plus, args.mu_minus
    if not (0.0 <= mu_minus <= mu_plus <= 1.0):
        raise ExchboundError(f"need 0 <= mu_minus <= mu_plus <= 1, got {mu_minus}, {mu_plus}")
    t = args.t / scale
    summary = ModelSummary(mu_plus=mu_plus, mu_minus=mu_minus, mu=mu_minus)  # mu is not read
    # both reports validate M and t before anything is printed
    upper = _bound_line(Side.UPPER, summary, args.m, t)
    lower = _bound_line(Side.LOWER, summary, args.m, t)
    print(
        f"M={args.m} t={format_value(t)}"
        + (f" (data units: {format_value(args.t)})" if scale != 1.0 else "")
    )
    print(upper)
    print(lower)
    return EXIT_OK


def cmd_ci(args) -> int:
    r = RangeBounds(*args.range)
    scale = r.b - r.a
    t = t_for_confidence(args.m, args.delta)
    t_data = t * scale
    if not math.isfinite(t_data):  # a finite width can still carry t past the float range
        raise DomainError(f"t in data units passes the float range: t={format_value(t)} at "
                          f"unit scale times a width of {format_value(scale)}")
    print(
        f"t={format_value(t_data)}"
        + (f" (unit scale: {format_value(t)})" if scale != 1.0 else "")
    )
    confidence = 1.0 - 2.0 * args.delta
    print(
        "Xbar lies in [mu_minus - t, mu_plus + t] with probability >= "
        + (f"1 - 2*delta = {format_value(confidence)}, provided t < 1 - mu_plus and "
           "t < mu_minus (validity windows)." if confidence > 0.0
           else "0: for delta >= 0.5 the two-sided statement is vacuous.")
    )
    return EXIT_OK


def _write_or_fail(table: Union[Report, HistogramReport], out: Optional[str], fmt: str):
    """Write the table to ``out``, or to stdout without one.

    Returns the stream for the command's own lines: stderr when the table
    went to stdout, so stdout stays one parseable CSV or JSON document.
    """
    if out is None:
        sys.stdout.write(ENCODERS[fmt](table))
        return sys.stderr
    try:
        write_report(table, out, fmt)
    except OSError as e:
        raise _IOFailure(f"cannot write {out}: {e}") from e
    return sys.stdout


class _IOFailure(Exception):
    pass


def _sweep_report(args, lines, **sweep_args) -> Report:
    """Run one sweep and write its report, then the command's ``lines(report)``.

    A failed cell is also counted on stderr, and its command exits 2.
    """
    sweep = run_sweep(
        sides=_SIDES[args.side], replications=args.reps, master_seed=args.seed,
        level=args.level, **sweep_args,
    )
    report = Report.from_sweep(sweep, __version__, _timestamp())
    log = _write_or_fail(report, args.out, args.format)
    for line in lines(report):
        print(line, file=log)
    if report.failures:
        print(f"error: {len(report.failures)} cells failed", file=sys.stderr)
    return report


def _estimate_lines(report: Report):
    for row in report.rows:
        yield (
            f"{row.model_id} M={row.M} t={format_value(row.t)} side={row.side} "
            f"p_hat={format_value(row.value)} "
            f"ci=[{format_value(row.ci_low)}, {format_value(row.ci_high)}] "
            f"hoeffding={format_value(row.hoeffding)} kl_form={format_value(row.kl_form)} "
            f"valid={format_value(row.valid)} violation={format_value(row.violation)}"
        )


def cmd_simulate(args) -> int:
    models = [(Path(args.model).stem, load_model_file(args.model))]
    report = _sweep_report(
        args, _estimate_lines, models=models, M_grid=[args.m], t_grid=[args.t],
        method="montecarlo",
    )
    return EXIT_USAGE if report.failures else EXIT_OK


def _parse_t_grid(tokens: Sequence[str]) -> Union[int, list[float]]:
    """``auto:N`` as the int N, or explicit deviations as floats; run_sweep decides their range."""
    if any(token.startswith("auto:") for token in tokens):
        if len(tokens) > 1:
            raise ExchboundError("--t-grid takes either auto:N or explicit values, not both")
        n = tokens[0].split(":", 1)[1]
        if n.isdecimal() and len(n) <= 20:  # int() refuses past 4300 digits
            return int(n)
        shown = repr(tokens[0]) if len(n) <= 20 else f"an N of {len(n)} characters"
        raise ExchboundError(f"--t-grid auto:N needs a decimal integer N, got {shown}")
    ts = []
    for token in tokens:
        try:
            ts.append(float(token))
        except ValueError:
            raise ExchboundError(f"--t-grid values must be numbers, got {token!r}") from None
    return ts


def cmd_verify(args) -> int:
    models = _load_models(args)
    m_grid = args.m_grid or list(DEFAULT_M_GRID)
    t_grid = _parse_t_grid(args.t_grid or [DEFAULT_T_GRID])

    def lines(report: Report):
        yield (
            f"cells={len(report.rows)} violations={len(report.violations)} "
            f"errors={len(report.failures)} models={len(models)} reps={args.reps}"
        )
        for row in report.violations:
            yield (
                f"VIOLATION {row.model_id} M={row.M} t={format_value(row.t)} side={row.side} "
                f"value={format_value(row.value)} ci_low={format_value(row.ci_low)} "
                f"hoeffding={format_value(row.hoeffding)} kl_form={format_value(row.kl_form)}"
            )

    report = _sweep_report(
        args, lines, models=models, M_grid=m_grid, t_grid=t_grid, method=args.method,
    )
    if report.violations:
        return EXIT_VIOLATION
    return EXIT_USAGE if report.failures else EXIT_OK


def cmd_histogram(args) -> int:
    model = load_model_file(args.model)
    hist = sample_mean_histogram(
        model, M=args.m, replications=args.reps, bins=args.bins, master_seed=args.seed
    )
    table = HistogramReport.from_histogram(hist, __version__, _timestamp())
    log = _write_or_fail(table, args.out, args.format)
    print(f"M={hist.M} replications={sum(hist.counts)} bins={len(hist.counts)}", file=log)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exchbound",
        description="Tail bounds for sample means of exchangeable [0,1] variables: "
        "calculators, exact oracles, and Monte Carlo verification.",
    )
    parser.add_argument("--version", action="version", version=f"exchbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="closed-form bound report for both tails")
    p_bounds.add_argument("--mu-plus", type=float, required=True, dest="mu_plus")
    p_bounds.add_argument("--mu-minus", type=float, required=True, dest="mu_minus")
    p_bounds.add_argument("--m", type=int, required=True, help="sample count M")
    p_bounds.add_argument("--t", type=float, required=True, help="deviation (data units)")
    p_bounds.add_argument(
        "--range", type=float, nargs=2, default=(0.0, 1.0), metavar=("A", "B"),
        help="data range [a,b]; deviations are rescaled to the unit interval",
    )
    p_bounds.set_defaults(func=cmd_bounds)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimate of one tail query")
    p_sim.add_argument("--model", required=True, help="model file (JSON)")
    p_sim.add_argument("--m", type=int, required=True)
    p_sim.add_argument("--t", type=float, required=True)
    p_sim.add_argument("--side", default="upper", choices=_SIDES)
    p_sim.add_argument("--reps", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--level", type=float, default=DEFAULT_CI_LEVEL)
    p_sim.add_argument("--format", default="csv", choices=ENCODERS)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="sweep models and flag bound violations")
    p_ver.add_argument("--model", action="append", help="model file (repeatable)")
    p_ver.add_argument("--models-dir", dest="models_dir", help="directory of *.json models")
    p_ver.add_argument("--m-grid", dest="m_grid", type=int, nargs="+")
    p_ver.add_argument(
        "--t-grid", dest="t_grid", nargs="+",
        help="deviations, or auto:N for N values spanning each validity window",
    )
    p_ver.add_argument("--side", default="both", choices=_SIDES)
    p_ver.add_argument("--reps", type=int, default=100_000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--level", type=float, default=DEFAULT_CI_LEVEL)
    p_ver.add_argument("--format", default="csv", choices=ENCODERS)
    p_ver.add_argument("--out", default=None)
    p_ver.add_argument("--method", default="auto", choices=METHODS)
    p_ver.set_defaults(func=cmd_verify)

    p_ci = sub.add_parser("ci", help="deviation for a two-sided confidence level")
    p_ci.add_argument("--m", type=int, required=True)
    p_ci.add_argument("--delta", type=float, required=True)
    p_ci.add_argument(
        "--range", type=float, nargs=2, default=(0.0, 1.0), metavar=("A", "B"),
        help="data range [a,b]; the printed t is in data units",
    )
    p_ci.set_defaults(func=cmd_ci)

    p_hist = sub.add_parser("histogram", help="empirical distribution of the sample mean")
    p_hist.add_argument("--model", required=True)
    p_hist.add_argument("--m", type=int, required=True)
    p_hist.add_argument("--reps", type=int, default=10_000)
    p_hist.add_argument("--bins", type=int, default=20)
    p_hist.add_argument("--seed", type=int, default=0)
    p_hist.add_argument("--format", default="csv", choices=ENCODERS)
    p_hist.add_argument("--out", default=None)
    p_hist.set_defaults(func=cmd_histogram)

    return parser


def _range_values(argv: Sequence[str]) -> list[str]:
    """argv with each number after ``--range`` marked as a value.

    argparse takes a token such as ``-1e3`` for an option, because its
    negative-number test knows no exponents.  It reads a token that does
    not start with ``-`` as a value, and float() ignores the leading space.
    """
    out = list(argv)
    for i, token in enumerate(out):
        if token != "--range":
            continue
        for j in range(i + 1, min(i + 3, len(out))):
            try:
                float(out[j])
            except ValueError:
                break
            out[j] = " " + out[j]
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_range_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except _IOFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ExchboundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
