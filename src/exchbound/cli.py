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
failed; the report is still written), 3 output I/O failure (a report
file, or stdout, a closed pipe included).  Each subcommand returns its
exit code, table and lines; ``main`` alone writes them.

Observations on a general range [a, b] are supported by affine
rescaling at this boundary only: pass ``--range a b`` to bounds/ci and
deviations are interpreted in data units (t_unit = t / (b - a)).
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence, Union, get_origin, get_type_hints

from . import __version__
from .bounds import (
    RangeBounds,
    Side,
    _shown,
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
THREADS_ENV_VAR = "EXCHBOUND_THREADS"  # the sweep's thread count, 1 when unset


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


def _decimal(text: str, what: str) -> int:
    """text as an int if it is at most 20 decimal digits, else DomainError: int()
    also reads " 2" and "+2", and a longer text is past every range checked."""
    if text.isdecimal() and len(text) <= 20:
        return int(text)
    raise DomainError(f"{what} must be a decimal integer of at most 20 digits, got {_shown(text)}")


def _flag(convert, refusal: str):
    """The type of a flag whose value is ``convert(text)``; the command decides
    its range.  A text that convert refuses is named in ``refusal``'s ``{}``
    by :func:`bounds._shown`: argparse's own message would echo it whole."""
    def flag(text: str):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(refusal.format(_shown(text))) from None
    return flag


_int_flag = _flag(int, "invalid int value: {}")
_float_flag = _flag(float, "invalid float value: {}")


def _choice_flag(choices):
    """The type of a flag that takes one of ``choices``, for ``add_argument``
    beside ``choices=``: argparse's own refusal would echo the literal whole."""
    def choice(text: str) -> str:
        if text in choices:
            return text
        raise argparse.ArgumentTypeError(
            f"invalid choice: {_shown(text)} (choose from {', '.join(map(repr, choices))})")
    return choice


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


# Each command returns (exit code, table or None, lines, stderr lines) and
# writes nothing; main writes the table to --out or stdout, then the lines
# to stdout, or to stderr when the table took stdout, then the stderr lines.
Result = tuple[int, Optional[Union[Report, HistogramReport]], list[str], list[str]]


def cmd_bounds(args) -> Result:
    r = RangeBounds(*args.range)
    scale = r.b - r.a
    mu_plus, mu_minus = args.mu_plus, args.mu_minus
    if not (0.0 <= mu_minus <= mu_plus <= 1.0):
        raise ExchboundError(f"need 0 <= mu_minus <= mu_plus <= 1, got {mu_minus}, {mu_plus}")
    t = args.t / scale
    summary = ModelSummary(mu_plus=mu_plus, mu_minus=mu_minus, mu=mu_minus)  # mu is not read
    lines = [f"M={args.m} t={format_value(t)}"
             + (f" (data units: {format_value(args.t)})" if scale != 1.0 else "")]
    for side in (Side.UPPER, Side.LOWER):
        lines.append(_bound_line(side, summary, args.m, t))
    return EXIT_OK, None, lines, []


def cmd_ci(args) -> Result:
    r = RangeBounds(*args.range)
    scale = r.b - r.a
    t = t_for_confidence(args.m, args.delta)
    t_data = t * scale
    if not math.isfinite(t_data):  # a finite width can still carry t past the float range
        raise DomainError(f"t in data units passes the float range: t={format_value(t)} at "
                          f"unit scale times a width of {format_value(scale)}")
    confidence = 1.0 - 2.0 * args.delta
    lines = [
        f"t={format_value(t_data)}" + (f" (unit scale: {format_value(t)})" if scale != 1.0 else ""),
        "Xbar lies in [mu_minus - t, mu_plus + t] with probability >= "
        + (f"1 - 2*delta = {format_value(confidence)}, provided t < 1 - mu_plus and "
           "t < mu_minus (validity windows)." if confidence > 0.0
           else "0: for delta >= 0.5 the two-sided statement is vacuous."),
    ]
    return EXIT_OK, None, lines, []


def _sweep_report(args, **sweep_args) -> tuple[Report, list[str]]:
    """One sweep's report, and the stderr line that counts its failed cells
    if any: a failed cell also makes its command exit 2."""
    threads = _decimal(os.environ.get(THREADS_ENV_VAR, "1"), THREADS_ENV_VAR)
    sweep = run_sweep(
        sides=_SIDES[args.side], replications=args.reps, master_seed=args.seed,
        level=args.level, threads=threads, **sweep_args,
    )
    report = Report.from_sweep(sweep, __version__, _timestamp())
    return report, [f"error: {len(report.failures)} cells failed"] if report.failures else []


def cmd_simulate(args) -> Result:
    models = [(Path(args.model).stem, load_model_file(args.model))]
    report, errors = _sweep_report(
        args, models=models, M_grid=[args.m], t_grid=[args.t], method="montecarlo",
    )
    lines = [
        f"{row.model_id} M={row.M} t={format_value(row.t)} side={row.side} "
        f"p_hat={format_value(row.value)} "
        f"ci=[{format_value(row.ci_low)}, {format_value(row.ci_high)}] "
        f"hoeffding={format_value(row.hoeffding)} kl_form={format_value(row.kl_form)} "
        f"valid={format_value(row.valid)} violation={format_value(row.violation)}"
        for row in report.rows
    ]
    return EXIT_USAGE if report.failures else EXIT_OK, report, lines, errors


def _parse_t_grid(tokens: Sequence[str]) -> Union[int, list[float]]:
    """``auto:N`` as the int N, or explicit deviations as floats; run_sweep decides their range."""
    if any(token.startswith("auto:") for token in tokens):
        if len(tokens) > 1:
            raise ExchboundError("--t-grid takes either auto:N or explicit values, not both")
        return _decimal(tokens[0].split(":", 1)[1], "N of --t-grid auto:N")
    ts = []
    for token in tokens:
        try:
            ts.append(float(token))
        except ValueError:
            raise ExchboundError(f"--t-grid values must be numbers, got {_shown(token)}") from None
    return ts


def cmd_verify(args) -> Result:
    models = _load_models(args)
    m_grid = args.m_grid or list(DEFAULT_M_GRID)
    t_grid = _parse_t_grid(args.t_grid or [DEFAULT_T_GRID])
    report, errors = _sweep_report(
        args, models=models, M_grid=m_grid, t_grid=t_grid, method=args.method,
    )
    lines = [
        f"cells={len(report.rows)} violations={len(report.violations)} "
        f"errors={len(report.failures)} models={len(models)} reps={args.reps}"
    ]
    lines += [
        f"VIOLATION {row.model_id} M={row.M} t={format_value(row.t)} side={row.side} "
        f"value={format_value(row.value)} ci_low={format_value(row.ci_low)} "
        f"hoeffding={format_value(row.hoeffding)} kl_form={format_value(row.kl_form)}"
        for row in report.violations
    ]
    code = EXIT_VIOLATION if report.violations else EXIT_USAGE if report.failures else EXIT_OK
    return code, report, lines, errors


def cmd_histogram(args) -> Result:
    model = load_model_file(args.model)
    hist = sample_mean_histogram(
        model, M=args.m, replications=args.reps, bins=args.bins, master_seed=args.seed
    )
    table = HistogramReport.from_histogram(hist, __version__, _timestamp())
    line = f"M={hist.M} replications={sum(hist.counts)} bins={len(hist.counts)}"
    return EXIT_OK, table, [line], []


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
    p_bounds.add_argument("--mu-plus", type=_float_flag, required=True, dest="mu_plus")
    p_bounds.add_argument("--mu-minus", type=_float_flag, required=True, dest="mu_minus")
    p_bounds.add_argument("--m", type=_int_flag, required=True, help="sample count M")
    p_bounds.add_argument("--t", type=_float_flag, required=True, help="deviation (data units)")
    p_bounds.add_argument(
        "--range", type=_float_flag, nargs=2, default=(0.0, 1.0), metavar=("A", "B"),
        help="data range [a,b]; deviations are rescaled to the unit interval",
    )
    p_bounds.set_defaults(func=cmd_bounds)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimate of one tail query")
    p_sim.add_argument("--model", required=True, help="model file (JSON)")
    p_sim.add_argument("--m", type=_int_flag, required=True)
    p_sim.add_argument("--t", type=_float_flag, required=True)
    p_sim.add_argument("--side", default="upper", type=_choice_flag(_SIDES), choices=_SIDES)
    p_sim.add_argument("--reps", type=_int_flag, default=100_000)
    p_sim.add_argument("--seed", type=_int_flag, default=0)
    p_sim.add_argument("--level", type=_float_flag, default=DEFAULT_CI_LEVEL)
    p_sim.add_argument("--format", default="csv", type=_choice_flag(ENCODERS), choices=ENCODERS)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="sweep models and flag bound violations")
    p_ver.add_argument("--model", action="append", help="model file (repeatable)")
    p_ver.add_argument("--models-dir", dest="models_dir", help="directory of *.json models")
    p_ver.add_argument("--m-grid", dest="m_grid", type=_int_flag, nargs="+")
    p_ver.add_argument(
        "--t-grid", dest="t_grid", nargs="+",
        help="deviations, or auto:N for N values spanning each validity window",
    )
    p_ver.add_argument("--side", default="both", type=_choice_flag(_SIDES), choices=_SIDES)
    p_ver.add_argument("--reps", type=_int_flag, default=100_000)
    p_ver.add_argument("--seed", type=_int_flag, default=0)
    p_ver.add_argument("--level", type=_float_flag, default=DEFAULT_CI_LEVEL)
    p_ver.add_argument("--format", default="csv", type=_choice_flag(ENCODERS), choices=ENCODERS)
    p_ver.add_argument("--out", default=None)
    p_ver.add_argument("--method", default="auto", type=_choice_flag(METHODS), choices=METHODS)
    p_ver.set_defaults(func=cmd_verify)

    p_ci = sub.add_parser("ci", help="deviation for a two-sided confidence level")
    p_ci.add_argument("--m", type=_int_flag, required=True)
    p_ci.add_argument("--delta", type=_float_flag, required=True)
    p_ci.add_argument(
        "--range", type=_float_flag, nargs=2, default=(0.0, 1.0), metavar=("A", "B"),
        help="data range [a,b]; the printed t is in data units",
    )
    p_ci.set_defaults(func=cmd_ci)

    p_hist = sub.add_parser("histogram", help="empirical distribution of the sample mean")
    p_hist.add_argument("--model", required=True)
    p_hist.add_argument("--m", type=_int_flag, required=True)
    p_hist.add_argument("--reps", type=_int_flag, default=10_000)
    p_hist.add_argument("--bins", type=_int_flag, default=20)
    p_hist.add_argument("--seed", type=_int_flag, default=0)
    p_hist.add_argument("--format", default="csv", type=_choice_flag(ENCODERS), choices=ENCODERS)
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
    """Run one command and write what it returns; the only writer of output.

    A failed write exits 3, a closed pipe included.  Stdout is flushed
    before stderr is written, so a failed stderr costs it nothing.
    """
    parser = build_parser()
    args = parser.parse_args(_range_values(sys.argv[1:] if argv is None else argv))
    try:
        code, table, lines, errors = args.func(args)
    except ExchboundError as e:
        code, table, lines, errors = EXIT_USAGE, None, [], [f"error: {e}"]
    to_stdout = table is not None and args.out is None
    out_lines, err_lines = ([], lines + errors) if to_stdout else (lines, errors)
    stream = None  # the standard stream being written; None while the report file is
    try:
        if table is not None and not to_stdout:
            write_report(table, args.out, args.format)
        stream = sys.stdout
        if to_stdout:
            sys.stdout.write(ENCODERS[args.format](table))
        for line in out_lines:
            print(line)
        sys.stdout.flush()  # all of stdout is out before stderr is written
        stream = sys.stderr
        for line in err_lines:
            print(line, file=sys.stderr)
    except OSError as e:
        if stream is not None:
            _to_devnull(stream)
        if stream is not sys.stderr:  # a failed stderr has nowhere to be reported
            try:
                print(f"error: cannot write {args.out if stream is None else 'stdout'}: {e}",
                      file=sys.stderr)
            except OSError:  # stderr is closed too, as under 2>&1
                _to_devnull(sys.stderr)
        return EXIT_IO
    return code


def _to_devnull(stream) -> None:
    """Point stream's file descriptor, if any, at os.devnull: the exit's flush cannot fail."""
    try:
        fd = stream.fileno()
    except (OSError, ValueError):  # an in-process stream such as StringIO has none
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
