"""Model-file ingestion, report encodings, and CLI contracts."""

import csv
import hashlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exchbound import (
    Bernoulli,
    BernoulliParamMixture,
    Beta,
    FiniteMixture,
    PointMass,
    Side,
    TruncatedBetaDensity,
    run_sweep,
    standard_suite,
    suite_model,
)
import exchbound
from exchbound import montecarlo
from exchbound.cli import ModelFileError, load_model_file, main, model_from_obj
from exchbound.montecarlo import SweepRow
from exchbound.reporting import Report, format_value, from_csv, from_json, to_csv, to_json

TWO_ATOM_DOC = {
    "type": "finite",
    "atoms": [
        {"weight": 0.5, "component": {"kind": "bernoulli", "p": 0.2}},
        {"weight": 0.5, "component": {"kind": "bernoulli", "p": 0.8}},
    ],
}


def truncated_beta_doc(alpha, beta, lo, hi):
    density = {"kind": "truncated_beta", "alpha": alpha, "beta": beta, "lo": lo, "hi": hi}
    return {"type": "bernoulli_param", "density": density}


# Beta(2, 200) has mass 6.4e-30 on [0.3, 0.9]; Beta(800, 800) has less than
# the smallest float on [0, 0.01] and on [0.99, 1]
TRUNCATED_BETA_DOCS = {
    "beta-deep": truncated_beta_doc(2, 200, 0.3, 0.9),
    "beta-no-mass-low": truncated_beta_doc(800, 800, 0.0, 0.01),
    "beta-no-mass-high": truncated_beta_doc(800, 800, 0.99, 1.0),
}


def one_component_doc(component):
    return {"type": "finite", "atoms": [{"weight": 1, "component": component}]}


BETA_BERN_DOC = {
    "type": "finite",
    "atoms": [
        {"weight": 0.6, "component": {"kind": "beta", "alpha": 2, "beta": 5}},
        {"weight": 0.4, "component": {"kind": "bernoulli", "p": 0.7}},
    ],
}

# model files the bad-argument test reads, besides the truncated-Beta ones
ARGUMENT_TEST_DOCS = {
    "huge-int": one_component_doc({"kind": "bernoulli", "p": 10**400}),
    "kind-unhashable": one_component_doc({"kind": []}),
    "beta-bern": BETA_BERN_DOC,
    "disc": one_component_doc(
        {"kind": "discrete", "points": [0, 0.5, 1], "weights": [0.2, 0.3, 0.5]}
    ),
    "bern": one_component_doc({"kind": "bernoulli", "p": 0.3}),
    "unif": {"type": "bernoulli_param", "density": {"kind": "uniform", "lo": 0.2, "hi": 0.8}},
}

M_PAST_INT64 = str(10**19)
M_PAST_FLOAT = str(10**310)

# valid arguments of each command, which a bad-argument test extends
COMMAND_ARGS = {
    "verify": ["--m-grid", "2", "--t-grid", "0.1", "--reps", "100"],
    "simulate": ["--model", "a/m.json", "--m", "2", "--t", "0.1", "--reps", "100"],
    "bounds": ["--mu-plus", "0.8", "--mu-minus", "0.2", "--m", "2", "--t", "0.1"],
    "ci": ["--m", "3", "--delta", "0.1"],
    "histogram": ["--model", "a/m.json", "--m", "2", "--reps", "10"],
}


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def strip_timestamps(text: str) -> str:
    return re.sub(r"(\"?timestamp\"?[:,] ?)\"?[^\",\n]*\"?", r"\1", text)


# one valid document of each component and density kind
VALID_KINDS = {
    "atoms[0].component": [
        {"kind": "bernoulli", "p": 0.5},
        {"kind": "pointmass", "c": 0.5},
        {"kind": "discrete", "points": [0.0, 1.0], "weights": [0.5, 0.5]},
        {"kind": "beta", "alpha": 2, "beta": 3},
    ],
    "density": [
        {"kind": "uniform", "lo": 0.2, "hi": 0.8},
        {"kind": "truncated_beta", "alpha": 2, "beta": 3, "lo": 0.1, "hi": 0.9},
    ],
}


def _model_doc(where, obj):
    if where == "density":
        return {"type": "bernoulli_param", "density": obj}
    return one_component_doc(obj)


def _model_file_errors():
    """(document, field path) for each way one field of one kind can be wrong."""
    cases = []
    for where, kinds in VALID_KINDS.items():
        cases.append((_model_doc(where, []), where))
        for valid in kinds:
            bad_kind = {**valid, "kind": "no_such_kind"}
            cases.append((_model_doc(where, bad_kind), f"{where}.kind"))
            for name, value in valid.items():
                path = f"{where}.{name}"
                missing = {k: v for k, v in valid.items() if k != name}
                cases.append((_model_doc(where, missing), path))
                if name == "kind":
                    continue
                if isinstance(value, list):
                    cases.append((_model_doc(where, {**valid, name: 0.5}), path))
                    for bad in ("x", True):
                        doc = _model_doc(where, {**valid, name: [bad, *value[1:]]})
                        cases.append((doc, f"{path}[0]"))
                else:
                    for bad in ("x", True, [0.5]):
                        cases.append((_model_doc(where, {**valid, name: bad}), path))
    return cases


MODEL_FILE_ERRORS = _model_file_errors()


class TestModelFiles:
    def test_finite_mixture_round_trip(self, tmp_path):
        m = load_model_file(write_model(tmp_path, TWO_ATOM_DOC))
        assert m == FiniteMixture([(0.5, Bernoulli(0.2)), (0.5, Bernoulli(0.8))])

    def test_param_mixture_document(self):
        doc = {
            "type": "bernoulli_param",
            "density": {"kind": "truncated_beta", "alpha": 2, "beta": 3, "lo": 0.1, "hi": 0.9},
        }
        m = model_from_obj(doc)
        assert m == BernoulliParamMixture(TruncatedBetaDensity(2.0, 3.0, 0.1, 0.9))

    def test_all_component_kinds(self):
        doc = {
            "type": "finite",
            "atoms": [
                {"weight": 0.25, "component": {"kind": "bernoulli", "p": 0.5}},
                {"weight": 0.25, "component": {"kind": "pointmass", "c": 0.7}},
                {
                    "weight": 0.25,
                    "component": {
                        "kind": "discrete",
                        "points": [0.0, 0.5, 1.0],
                        "weights": [0.2, 0.3, 0.5],
                    },
                },
                {"weight": 0.25, "component": {"kind": "beta", "alpha": 2, "beta": 2}},
            ],
        }
        model_from_obj(doc)  # validates

    def test_bad_weight_sum_names_field(self):
        doc = {
            "type": "finite",
            "atoms": [
                {"weight": 0.5, "component": {"kind": "bernoulli", "p": 0.2}},
                {"weight": 0.4, "component": {"kind": "bernoulli", "p": 0.8}},
            ],
        }
        with pytest.raises(ModelFileError) as err:
            model_from_obj(doc)
        assert "atoms[*].weight" in str(err.value)

    def test_missing_field_is_addressed(self):
        doc = {"type": "finite", "atoms": [{"weight": 1.0, "component": {"kind": "bernoulli"}}]}
        with pytest.raises(ModelFileError) as err:
            model_from_obj(doc)
        assert "atoms[0].component.p" in str(err.value)

    def test_bad_parameter_is_addressed(self):
        doc = {"type": "finite", "atoms": [{"weight": 1.0, "component": {"kind": "bernoulli", "p": 1.5}}]}
        with pytest.raises(ModelFileError) as err:
            model_from_obj(doc)
        assert "atoms[0].component" in str(err.value)

    @pytest.mark.parametrize("doc,path", MODEL_FILE_ERRORS, ids=[p for _, p in MODEL_FILE_ERRORS])
    def test_every_kind_and_field_error_names_its_path(self, doc, path):
        with pytest.raises(ModelFileError) as err:
            model_from_obj(doc)
        assert err.value.field == path
        assert str(err.value).startswith(f"{path}: ")

    def test_invalid_json_is_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelFileError):
            load_model_file(str(path))

    # the bytes of a model file, and the start of the one error line it exits 2 with
    BAD_FILES = {
        "not-utf8": (b"\xff\xfe\x00", "error: $: not UTF-8 text"),
        "nested-too-deeply": (b"[" * 100_000, "error: $: JSON nested too deeply"),
        "infinite-beta-alpha": (
            b'{"type": "finite", "atoms": [{"weight": 1, '
            b'"component": {"kind": "beta", "alpha": 1e999, "beta": 2}}]}',
            "error: atoms[0].component: Beta parameters must be positive with a finite sum",
        ),
        "concentrated-truncated-beta": (
            b'{"type": "bernoulli_param", "density": {"kind": "truncated_beta", '
            b'"alpha": 1e15, "beta": 1e15, "lo": 0.2, "hi": 0.8}}',
            "error: density: TruncatedBeta parameters must be positive with alpha + beta <= 1e+06",
        ),
        "integer-of-5000-digits": (
            b'{"type": "finite", "atoms": [{"weight": 1, '
            b'"component": {"kind": "bernoulli", "p": 1' + b"0" * 5000 + b'}}]}',
            "error: $: cannot parse JSON: Exceeds the limit (4300 digits)",
        ),
    }

    @pytest.mark.parametrize("bad", sorted(BAD_FILES))
    @pytest.mark.parametrize(
        "command",
        [
            ["verify", "--m-grid", "5", "--out", "report.csv"],
            ["simulate", "--m", "5", "--t", "0.1", "--reps", "10"],
            ["histogram", "--m", "5", "--reps", "100"],
        ],
        ids=lambda command: command[0],
    )
    def test_a_bad_model_file_exits_2_without_a_traceback(
        self, tmp_path, monkeypatch, capsys, command, bad
    ):
        content, message = self.BAD_FILES[bad]
        (tmp_path / "model.json").write_bytes(content)
        monkeypatch.chdir(tmp_path)
        assert main([command[0], "--model", "model.json", *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err
        assert not (tmp_path / "report.csv").exists()


def make_report(reps=2_000, seed=5):
    sweep = run_sweep(
        models=list(standard_suite())[:2],
        M_grid=[2, 10],
        t_grid=[0.05, 0.12],
        sides=[Side.UPPER, Side.LOWER],
        replications=reps,
        master_seed=seed,
    )
    return Report.from_sweep(sweep, tool_version="0.1.0", timestamp="2026-01-01T00:00:00+00:00")


PINNED_CSV_HEAD = """\
# master_seed: 9
# replications: 5000
# level: 0.999
# tool_version: 0.1.0
# timestamp: 2026-01-01T00:00:00+00:00
model_id,M,t,side,method,value,ci_low,ci_high,hoeffding,kl_form,h0,valid,violation
"""

PINNED_JSON_HEAD = """\
{
  "metadata": {
    "master_seed": 9,
    "replications": 5000,
    "level": 0.999,
    "tool_version": "0.1.0",
    "timestamp": "2026-01-01T00:00:00+00:00"
  },
  "rows": [
"""

# an exact row (no interval), a Monte Carlo row and a failed cell, each with
# its CSV line and its JSON row object as the encoders must spell them
PINNED_ROWS = [
    (
        SweepRow("bern03", 10, 0.06363636363636363, "upper", "binomial", 0.35038928159999982,
                 None, None, 0.92220131291156815, 0.91117998825858038, 0.28768207245178085,
                 True, False),
        "bern03,10,0.06363636363636363,upper,binomial,0.35038928159999982,,,"
        "0.92220131291156815,0.91117998825858038,0.28768207245178085,true,false",
        """\
    {
      "model_id": "bern03",
      "M": 10,
      "t": "0.06363636363636363",
      "side": "upper",
      "method": "binomial",
      "value": "0.35038928159999982",
      "ci_low": null,
      "ci_high": null,
      "hoeffding": "0.92220131291156815",
      "kl_form": "0.91117998825858038",
      "h0": "0.28768207245178085",
      "valid": true,
      "violation": false
    }""",
    ),
    (
        SweepRow("three_atom_discrete", 200, 0.06363636363636363, "upper", "montecarlo", 0.004,
                 0.0019480801312816913, 0.0081954671170435985, 0.19793141231588732,
                 0.15914540830169618, 0.29407187055055167, True, False),
        "three_atom_discrete,200,0.06363636363636363,upper,montecarlo,0.0040000000000000001,"
        "0.0019480801312816913,0.0081954671170435985,0.19793141231588732,0.15914540830169618,"
        "0.29407187055055167,true,false",
        """\
    {
      "model_id": "three_atom_discrete",
      "M": 200,
      "t": "0.06363636363636363",
      "side": "upper",
      "method": "montecarlo",
      "value": "0.0040000000000000001",
      "ci_low": "0.0019480801312816913",
      "ci_high": "0.0081954671170435985",
      "hoeffding": "0.19793141231588732",
      "kl_form": "0.15914540830169618",
      "h0": "0.29407187055055167",
      "valid": true,
      "violation": false
    }""",
    ),
    (
        SweepRow("three_atom_discrete", 600, 0.1, "lower", "error:MTooLarge",
                 hoeffding=6.1442123533282098e-06, kl_form=1.753798446108156e-08,
                 h0=0.63598876671999682, valid=True),
        "three_atom_discrete,600,0.10000000000000001,lower,error:MTooLarge,,,,"
        "6.1442123533282098e-06,1.753798446108156e-08,0.63598876671999682,true,false",
        """\
    {
      "model_id": "three_atom_discrete",
      "M": 600,
      "t": "0.10000000000000001",
      "side": "lower",
      "method": "error:MTooLarge",
      "value": null,
      "ci_low": null,
      "ci_high": null,
      "hoeffding": "6.1442123533282098e-06",
      "kl_form": "1.753798446108156e-08",
      "h0": "0.63598876671999682",
      "valid": true,
      "violation": false
    }""",
    ),
]


class TestReportEncodings:
    def test_csv_round_trip_lossless(self):
        report = make_report()
        assert from_csv(to_csv(report)) == report

    def test_json_round_trip_lossless(self):
        report = make_report()
        assert from_json(to_json(report)) == report

    def test_csv_and_json_rows_agree(self):
        report = make_report()
        assert from_csv(to_csv(report)).rows == from_json(to_json(report)).rows

    def test_header_matches_contract(self):
        text = to_csv(make_report())
        header = [line for line in text.splitlines() if not line.startswith("#")][0]
        assert header == (
            "model_id,M,t,side,method,value,ci_low,ci_high,"
            "hoeffding,kl_form,h0,valid,violation"
        )

    @pytest.mark.parametrize("row,csv_line,json_row", PINNED_ROWS, ids=["exact", "montecarlo", "error"])
    def test_encodings_pinned(self, row, csv_line, json_row):
        report = Report(rows=(row,), master_seed=9, replications=5000, level=0.999,
                        tool_version="0.1.0", timestamp="2026-01-01T00:00:00+00:00")
        assert to_csv(report) == PINNED_CSV_HEAD + csv_line + "\n"
        assert to_json(report) == PINNED_JSON_HEAD + json_row + "\n  ]\n}\n"
        assert from_csv(to_csv(report)) == from_json(to_json(report)) == report

    def test_an_m_past_the_digit_limit_is_refused_by_name(self):
        # str() refuses it past 4300 digits; run_sweep refuses it first, so no report holds it
        message = r"^M must lie in \[1, 2\^63\), got an integer of 16610 bits$"
        with pytest.raises(exchbound.DomainError, match=message):
            run_sweep(list(standard_suite())[:1], [10**5000, 5], [0.1], [Side.UPPER], 100, 0)
        sweep = run_sweep(list(standard_suite())[:1], [5], [0.1], [Side.UPPER], 100, 0)
        report = Report.from_sweep(sweep, "0", "now")
        assert from_csv(to_csv(report)) == from_json(to_json(report)) == report

    # every row kind: binomial (two_atom), convolution (three_atom_discrete),
    # quadrature (uniform_param), montecarlo and error:DomainError (beta_point at
    # M = 2, and past a lowered Beta row limit at M = 9), error:UnsupportedModel
    # (beta_point, exactly) and error:MTooLarge (three_atom_discrete at M = 8192)
    ROUND_TRIP_SWEEPS = [
        ("auto", [2, 9], 3, 0.999,
         {"binomial", "convolution", "quadrature", "montecarlo", "error:DomainError"}),
        ("exact", [2, 8192], [0.1], 0.999,
         {"binomial", "convolution", "quadrature", "error:UnsupportedModel", "error:MTooLarge"}),
        ("montecarlo", [2, 9], [0.1, 0.3], 0.999, {"montecarlo", "error:DomainError"}),
        ("auto", [2], [1, Fraction(1, 10), np.float32(0.1)], Fraction(999, 1000),
         {"binomial", "convolution", "quadrature", "montecarlo"}),
    ]

    @pytest.mark.parametrize(
        "method,M_grid,t_grid,level,kinds", ROUND_TRIP_SWEEPS,
        ids=["auto", "exact", "montecarlo", "library-t-and-level"],
    )
    def test_every_sweep_report_parses_back_to_its_rows(
        self, monkeypatch, method, M_grid, t_grid, level, kinds
    ):
        monkeypatch.setattr(montecarlo, "BETA_MAX_M", 5)
        models = [(name, suite_model(name))
                  for name in ("two_atom", "three_atom_discrete", "uniform_param")]
        models.append(("beta_point", FiniteMixture([(0.5, Beta(2.0, 5.0)), (0.5, PointMass(0.5))])))
        # model ids also joined by each character str.splitlines ends a line at, but "\n"
        for join in ["_", "\r", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]:
            joined = [(name.replace("_", join), model) for name, model in models]
            sweep = run_sweep(joined, M_grid, t_grid, [Side.UPPER, Side.LOWER], 2_000, 5,
                              method=method, level=level)
            report = Report.from_sweep(sweep, "0.1.0", "2026-01-01T00:00:00+00:00")
            assert {row.method for row in report.rows} == kinds
            # every field has the type its column declares
            assert type(report.level) is float and all(type(row.t) is float for row in report.rows)
            assert from_csv(to_csv(report)) == report, repr(join)
            assert from_json(to_json(report)) == report, repr(join)

    def test_17_digit_floats_survive(self):
        report = make_report()
        parsed = from_csv(to_csv(report))
        for a, b in zip(report.rows, parsed.rows):
            assert a.value == b.value
            assert a.hoeffding == b.hoeffding


class TestCliCommands:
    def test_bounds_symmetric_windows(self, capsys):
        assert main(["bounds", "--mu-plus", "0.8", "--mu-minus", "0.2", "--m", "100", "--t", "0.1"]) == 0
        out = capsys.readouterr().out
        assert out.count("valid=true") == 2
        assert f"{math.exp(-2.0):.17g}"[:12] in out

    def test_bounds_flags_out_of_window_side(self, capsys):
        assert main(["bounds", "--mu-plus", "0.95", "--mu-minus", "0.2", "--m", "100", "--t", "0.1"]) == 0
        out = capsys.readouterr().out
        upper_line = [l for l in out.splitlines() if "side=upper" in l][0]
        lower_line = [l for l in out.splitlines() if "side=lower" in l][0]
        assert "valid=false" in upper_line
        assert "valid=true" in lower_line

    @pytest.mark.parametrize("mu_minus,t,valid", [
        ("0.2", "0.1", "true"), ("0.1", "0.1", "false"), ("0.3", "0.3", "false"),
        ("0.2", "0.19999999999999998", "true"),
    ])
    def test_bounds_lower_window_ends_at_mu_minus(self, capsys, mu_minus, t, valid):
        argv = ["bounds", "--mu-plus", "0.8", "--mu-minus", mu_minus, "--m", "10", "--t", t]
        assert main(argv) == 0
        lower = [l for l in capsys.readouterr().out.splitlines() if "side=lower" in l][0]
        fields = dict(item.split("=", 1) for item in lower.split())
        assert float(fields["t_max"]) == float(mu_minus)
        assert fields["valid"] == valid

    @pytest.mark.parametrize("mu_plus,t", [
        ("5e-324", "0.5"), ("1e-300", "0.9999999999999999"), ("0.7", "1e-320"),
    ])
    def test_bounds_at_the_window_edges_print_a_finite_h0(self, capsys, mu_plus, t):
        argv = ["bounds", "--mu-plus", mu_plus, "--mu-minus", "0", "--m", "10", "--t", t]
        assert main(argv) == 0
        upper = [l for l in capsys.readouterr().out.splitlines() if "side=upper" in l][0]
        h0 = float(dict(item.split("=", 1) for item in upper.split())["h0"])
        assert math.isfinite(h0) and h0 > 0.0

    def test_verify_at_a_tiny_t_writes_no_error_rows(self, tmp_path):
        # at t = 1e-17 the quotient inside h0's log rounds to 1
        out_path = tmp_path / "v.csv"
        args = ["verify", "--m-grid", "2", "--t-grid", "1e-17", "--out", str(out_path)]
        assert main(args) == 0
        rows = from_csv(out_path.read_text()).rows
        assert len(rows) == 10 and not [r for r in rows if r.method.startswith("error:")]
        assert all(r.h0 > 0.0 for r in rows if r.valid)

    @pytest.mark.parametrize("c", [5e-324, 1e-320])
    def test_verify_a_subnormal_point_mass_writes_its_report(self, tmp_path, c):
        # its lower window (0, c) holds no 10 distinct floats at 5e-324
        model_path = write_model(tmp_path, one_component_doc({"kind": "pointmass", "c": c}))
        out_path = tmp_path / "v.csv"
        assert main(["verify", "--model", model_path, "--m-grid", "1", "10",
                     "--out", str(out_path)]) == 0
        rows = from_csv(out_path.read_text()).rows
        assert len(rows) == 40 and not [r for r in rows if r.method.startswith("error:")]
        for side in ("upper", "lower"):
            ts = [r.t for r in rows if r.side == side and r.M == 1]
            assert len(set(ts)) == 10 and min(ts) > 0.0

    def test_bounds_rejects_bad_ordering(self, capsys):
        assert main(["bounds", "--mu-plus", "0.2", "--mu-minus", "0.8", "--m", "10", "--t", "0.1"]) == 2

    def test_ci_values(self, capsys):
        assert main(["ci", "--m", "200", "--delta", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "0.086540919130114" in out
        assert "1 - 2*delta" in out

    def test_ci_scaling_and_validation(self, capsys):
        assert main(["ci", "--m", "800", "--delta", "0.05"]) == 0
        t800 = float(capsys.readouterr().out.splitlines()[0].split("=")[1].split()[0])
        assert t800 == pytest.approx(0.5 * 0.08654091913011426, abs=1e-12)
        assert main(["ci", "--m", "10", "--delta", "0"]) == 2

    @pytest.mark.parametrize("delta,printed", [
        ("1e-320", "6.069708563394844"), ("5e-324", "6.1009838219806038"), ("1", "0"),
    ])
    def test_ci_prints_a_finite_nonnegative_t(self, capsys, delta, printed):
        # 1/delta overflows for a subnormal delta; delta = 1 prints 0, not -0
        assert main(["ci", "--m", "10", "--delta", delta]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"t={printed}"

    @pytest.mark.parametrize("delta", ["0.5", "0.9"])
    def test_ci_never_prints_a_negative_probability(self, capsys, delta):
        # 1 - 2*delta is no probability bound for delta >= 0.5
        assert main(["ci", "--m", "10", "--delta", delta]) == 0
        out = capsys.readouterr().out
        assert "vacuous" in out
        assert "1 - 2*delta" not in out
        assert not re.search(r"-\s*\d", out)  # no negative number

    def test_ci_range_rescaling(self, capsys):
        assert main(["ci", "--m", "200", "--delta", "0.05", "--range", "0", "10"]) == 0
        out = capsys.readouterr().out
        t_data = float(out.splitlines()[0].split("=")[1].split()[0])
        assert t_data == pytest.approx(10 * 0.08654091913011426, abs=1e-10)
        # argparse alone would take "-1e3" for an option
        assert main(["ci", "--m", "200", "--delta", "0.05", "--range", "-1e3", "1e3"]) == 0
        out = capsys.readouterr().out
        t_data = float(out.splitlines()[0].split("=")[1].split()[0])
        assert t_data == pytest.approx(2000 * 0.08654091913011426, abs=1e-8)

    def test_simulate_writes_report(self, tmp_path, capsys):
        model_path = write_model(tmp_path, TWO_ATOM_DOC)
        out_path = tmp_path / "report.csv"
        code = main(
            [
                "simulate", "--model", model_path, "--m", "2", "--t", "0.15",
                "--side", "upper", "--reps", "100000", "--seed", "42",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        report = from_csv(out_path.read_text())
        assert len(report.rows) == 1
        row = report.rows[0]
        assert abs(row.value - 0.34) < 0.002
        assert row.hoeffding == pytest.approx(math.exp(-2 * 2 * 0.15**2), abs=1e-12)
        out = capsys.readouterr().out
        assert "p_hat=" in out
        assert f" kl_form={format_value(row.kl_form)} " in out

    def test_simulate_parse_error_exit_2(self, tmp_path, capsys):
        doc = {
            "type": "finite",
            "atoms": [{"weight": 0.9, "component": {"kind": "bernoulli", "p": 0.2}}],
        }
        model_path = write_model(tmp_path, doc)
        code = main(["simulate", "--model", model_path, "--m", "2", "--t", "0.1"])
        assert code == 2
        assert "atoms[*].weight" in capsys.readouterr().err

    def test_simulate_io_error_exit_3(self, tmp_path):
        model_path = write_model(tmp_path, TWO_ATOM_DOC)
        code = main(
            [
                "simulate", "--model", model_path, "--m", "2", "--t", "0.1",
                "--reps", "10", "--out", str(tmp_path / "no_such_dir" / "r.csv"),
            ]
        )
        assert code == 3

    def test_simulate_deterministic_apart_from_timestamp(self, tmp_path):
        model_path = write_model(tmp_path, TWO_ATOM_DOC)
        args = [
            "simulate", "--model", model_path, "--m", "2", "--t", "0.15",
            "--reps", "20000", "--seed", "7",
        ]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert strip_timestamps(out1.read_text()) == strip_timestamps(out2.read_text())
        assert out1.read_text() != "" and out2.read_text() != ""

    def test_verify_standard_suite_small_grid(self, tmp_path):
        out_path = tmp_path / "verify.csv"
        code = main(
            [
                "verify", "--m-grid", "2", "10", "--t-grid", "auto:3",
                "--reps", "5000", "--seed", "3", "--out", str(out_path),
            ]
        )
        assert code == 0
        report = from_csv(out_path.read_text())
        # 5 models x 2 M x 3 t x 2 sides
        assert len(report.rows) == 60
        assert not any(r.violation for r in report.rows)

    def test_verify_corrupted_bound_exits_1(self, tmp_path, capsys, shrink_bounds):
        shrink_bounds()
        code = main(
            [
                "verify", "--m-grid", "2", "--t-grid", "0.1",
                "--reps", "2000", "--seed", "3",
                "--out", str(tmp_path / "v.csv"),
            ]
        )
        assert code == 1
        report = from_csv((tmp_path / "v.csv").read_text())
        rows = {(r.model_id, r.M, r.t, r.side): r for r in report.rows}
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("VIOLATION ")]
        assert lines
        for line in lines:  # each line prints both forms the verdict compares against
            _, model_id, *items = line.split()
            fields = dict(item.split("=", 1) for item in items)
            row = rows[(model_id, int(fields["M"]), float(fields["t"]), fields["side"])]
            assert row.violation
            assert fields["hoeffding"] == format_value(row.hoeffding)
            assert fields["kl_form"] == format_value(row.kl_form)

    @pytest.mark.parametrize(
        "command,extra,threads_env",
        [
            ("verify", ["--t-grid", "auto:abc"], None),
            ("verify", ["--t-grid", "auto:0"], None),
            ("verify", ["--t-grid", "inf"], None),
            ("verify", ["--t-grid", "nan"], None),
            ("verify", ["--t-grid", "abc"], None),
            ("verify", ["--level", "1.5", "--method", "montecarlo"], None),
            ("verify", ["--m-grid", "0"], None),
            ("verify", [], "abc"),
            ("verify", ["--m-grid", "2", "2"], None),
            ("verify", ["--t-grid", "0.1", "0.1"], None),
            ("verify", ["--model", "a/m.json", "--model", "b/m.json"], None),
            ("verify", ["--model", "a/m.json", "--model", "c/m.json", "--t-grid", "auto:3"], None),
            ("simulate", ["--t", "inf"], None),
            ("simulate", ["--t", "0"], None),
            ("simulate", ["--m", "0"], None),
            ("simulate", ["--level", "1.5"], None),
            ("bounds", ["--m", "0"], None),
            ("bounds", ["--t", "inf"], None),
            ("verify", ["--t-grid", "auto:\u00b2"], None),
            ("verify", [], "\u00b2"),
            ("ci", ["--range", "0", "inf"], None),
            ("ci", ["--range", "nan", "1"], None),
            ("bounds", ["--range", "0", "inf"], None),
            ("ci", ["--range", "-1e308", "1e308"], None),
            ("verify", ["--model", "beta-no-mass-low.json"], None),
            ("verify", ["--model", "beta-no-mass-high.json"], None),
            ("histogram", ["--bins", "1000000000000"], None),
            ("verify", ["--model", "huge-int.json"], None),
            ("verify", ["--model", "kind-unhashable.json"], None),
            ("histogram", ["--model", "beta-bern.json", "--m", "1000000000000"], None),
            ("verify", ["--model", "disc.json", "--m-grid", M_PAST_INT64], None),
            ("verify", ["--model", "unif.json", "--m-grid", M_PAST_INT64], None),
            ("simulate", ["--m", M_PAST_INT64], None),
            ("histogram", ["--model", "bern.json", "--m", M_PAST_INT64], None),
            ("ci", ["--m", M_PAST_FLOAT], None),
            ("bounds", ["--m", M_PAST_FLOAT], None),
            ("ci", ["--m", "1", "--delta", "1e-5", "--range", "0", "1e308"], None),
            ("simulate", ["--seed", str(2**64)], None),
            ("verify", ["--seed", "-1"], None),
            ("histogram", ["--seed", str(2**64)], None),
            ("verify", [], "1" + "0" * 4999),
            ("verify", ["--t-grid", "auto:1" + "0" * 5000], None),
            ("verify", ["--t-grid", "auto:" + "9" * 20], None),
            ("verify", ["--t-grid", "0" * 5000 + "x"], None),
            ("verify", ["--reps", str(2**44)], None),
            ("simulate", ["--reps", str(2**44)], None),
            ("histogram", ["--reps", str(2**44)], None),
        ],
        ids=[
            "auto-abc", "auto-0", "inf", "nan", "abc", "level", "m-0", "threads-env",
            "m-duplicate", "t-duplicate", "model-id-duplicate", "model-id-of-two-models",
            "simulate-inf", "simulate-t-0", "simulate-m-0", "simulate-level", "bounds-m-0",
            "bounds-t-inf",
            "auto-superscript", "threads-env-superscript", "ci-range-inf", "ci-range-nan",
            "bounds-range-inf", "ci-range-exponent", "beta-no-mass-low", "beta-no-mass-high",
            "histogram-bins-huge", "model-huge-int", "model-kind-unhashable",
            "histogram-beta-huge-m", "verify-discrete-m-past-int64",
            "verify-uniform-m-past-int64", "simulate-m-past-int64", "histogram-m-past-int64",
            "ci-m-past-float", "bounds-m-past-float", "ci-t-past-float",
            "simulate-seed-2^64", "verify-seed-negative", "histogram-seed-2^64",
            "threads-env-5000-digits", "auto-5000-digits", "auto-20-digits",
            "t-5000-characters", "verify-reps-2^44", "simulate-reps-2^44", "histogram-reps-2^44",
        ],
    )
    def test_verify_rejects_bad_arguments_before_any_cell(
        self, tmp_path, capsys, monkeypatch, command, extra, threads_env
    ):
        monkeypatch.setattr(montecarlo, "_sweep_group", lambda *a, **k: pytest.fail("a cell ran"))
        window_t_grid = montecarlo.window_t_grid  # a grid past a million t is refused, not built
        monkeypatch.setattr(montecarlo, "window_t_grid", lambda anchor, n: window_t_grid(anchor, n)
                            if n <= 10**6 else pytest.fail(f"a grid of {n} t was built"))
        if threads_env is not None:
            monkeypatch.setenv("EXCHBOUND_THREADS", threads_env)
        # three model files that share the stem "m", the third a different model
        stem_docs = {"a": TWO_ATOM_DOC, "b": TWO_ATOM_DOC, "c": ARGUMENT_TEST_DOCS["bern"]}
        for sub, doc in stem_docs.items():
            (tmp_path / sub).mkdir()
            write_model(tmp_path / sub, doc, name="m.json")
        for name, doc in {**TRUNCATED_BETA_DOCS, **ARGUMENT_TEST_DOCS}.items():
            write_model(tmp_path, doc, name=f"{name}.json")
        monkeypatch.chdir(tmp_path)
        out_path = tmp_path / "v.csv"
        out = [] if command in ("bounds", "ci") else ["--out", str(out_path)]
        assert main([command, *COMMAND_ARGS[command], *extra, *out]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""
        assert not out_path.exists()
        assert "0" * 20 not in captured.err  # a huge literal is not echoed

    @pytest.mark.parametrize(
        "command,flag",
        [("bounds", "--m"), ("simulate", "--m"), ("simulate", "--reps"), ("simulate", "--seed"),
         ("verify", "--m-grid"), ("verify", "--reps"), ("verify", "--seed"), ("ci", "--m"),
         ("histogram", "--m"), ("histogram", "--reps"), ("histogram", "--bins"),
         ("histogram", "--seed")],
    )
    def test_an_int_flag_past_int_digits_is_named_by_its_length(
        self, tmp_path, capsys, command, flag
    ):
        # int() refuses a literal past 4300 digits, and argparse would echo it whole
        out_path = tmp_path / "r.csv"
        out = [] if command in ("bounds", "ci") else ["--out", str(out_path)]
        with pytest.raises(SystemExit) as exit:
            main([command, *COMMAND_ARGS[command], flag, "1" + "0" * 4999, *out])
        assert exit.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out_path.exists()
        assert f"argument {flag}: invalid int value: a text of 5000 characters" in captured.err
        assert len(captured.err) < 1024

    def test_an_int_flag_takes_what_int_takes(self, capsys):
        # the command, not the parser, decides the range of what int() reads
        assert main(["bounds", *COMMAND_ARGS["bounds"], "--m", str(10**30)]) == 0
        assert capsys.readouterr().out.startswith(f"M={10**30} t=0.1")
        assert main(["ci", "--delta", "0.1", "--m", M_PAST_FLOAT]) == 2
        assert capsys.readouterr().err == (
            "error: M must be >= 1 and fit in a float, got an integer of 1030 bits\n")
        with pytest.raises(SystemExit):
            main(["ci", "--delta", "0.1", "--m", "abc"])
        assert "argument --m: invalid int value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag,refusal",
        [("bounds", "--t", "invalid float value"), ("bounds", "--mu-plus", "invalid float value"),
         ("bounds", "--mu-minus", "invalid float value"), ("bounds", "--range", "invalid float value"),
         ("simulate", "--t", "invalid float value"), ("simulate", "--level", "invalid float value"),
         ("verify", "--level", "invalid float value"), ("ci", "--delta", "invalid float value"),
         ("ci", "--range", "invalid float value"), ("simulate", "--side", "invalid choice"),
         ("simulate", "--format", "invalid choice"), ("verify", "--side", "invalid choice"),
         ("verify", "--format", "invalid choice"), ("verify", "--method", "invalid choice"),
         ("histogram", "--format", "invalid choice")],
    )
    def test_a_float_or_choice_flag_names_a_long_literal_by_its_length(
        self, tmp_path, capsys, command, flag, refusal
    ):
        out_path = tmp_path / "r.csv"
        out = [] if command in ("bounds", "ci") else ["--out", str(out_path)]
        values = ["x" * 5000, "0"] if flag == "--range" else ["x" * 5000]
        with pytest.raises(SystemExit) as exit:
            main([command, *COMMAND_ARGS[command], flag, *values, *out])
        assert exit.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out_path.exists()
        assert f"argument {flag}: {refusal}: a text of 5000 characters" in captured.err
        assert len(captured.err) < 1024

    def test_a_float_or_choice_flag_takes_what_it_took(self, tmp_path, capsys):
        # every value float() reads, and every choice, still reaches the command
        for t in ("1_0e-2", " 0.1", "+.1", "1E-1"):
            assert main(["bounds", "--mu-plus", "0.8", "--mu-minus", "0.2", "--m", "2",
                         "--t", t]) == 0
            assert capsys.readouterr().out.startswith(f"M=2 t={format_value(float(t))}")
        assert main(["bounds", "--mu-plus", "0.8", "--mu-minus", "0.2", "--m", "2",
                     "--t", "nan"]) == 2
        assert "error:" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["ci", "--m", "3", "--delta", "abc"])
        assert "argument --delta: invalid float value: 'abc'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["verify", "--side", "up"])
        assert ("argument --side: invalid choice: 'up' (choose from 'upper', 'lower', 'both')"
                in capsys.readouterr().err)
        write_model(tmp_path, ARGUMENT_TEST_DOCS["bern"], name="bern.json")
        model = str(tmp_path / "bern.json")
        for side in ("upper", "lower", "both"):
            for fmt in ("csv", "json"):
                for method in montecarlo.METHODS:
                    assert main(["verify", "--model", model, "--m-grid", "2", "--t-grid", "0.1",
                                 "--reps", "100", "--side", side, "--format", fmt,
                                 "--method", method]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args,message",
        [
            (["verify", "--m-grid", "0"], "M must lie in [1, 2^63), got 0"),
            (["verify", "--t-grid", "-0.1"], "t must be finite and > 0, got -0.1"),
            (["verify", "--m-grid", M_PAST_INT64], f"M must lie in [1, 2^63), got {M_PAST_INT64}"),
            (["simulate", "--m", "0", "--t", "0.1"], "M must lie in [1, 2^63), got 0"),
            (["simulate", "--m", "2", "--t", "inf"], "t must be finite and > 0, got inf"),
            (["verify", "--seed", "-1"], "master_seed must lie in [0, 2^64), got -1"),
        ],
        ids=["verify-m-0", "verify-t-negative", "verify-m-past-int64", "simulate-m-0",
             "simulate-t-inf", "verify-seed-negative"],
    )
    def test_the_sweep_refuses_a_bad_m_or_t_by_its_own_message(
        self, tmp_path, capsys, monkeypatch, args, message
    ):
        # run_sweep is the one check of a sweep argument; the commands print its
        # message, exit 2 and write nothing
        monkeypatch.setattr(montecarlo, "_sweep_group", lambda *a, **k: pytest.fail("a cell ran"))
        model_path = write_model(tmp_path, TWO_ATOM_DOC)
        out_path = tmp_path / "r.csv"
        model = ["--model", model_path] if args[0] == "simulate" else []
        assert main([*args, *model, "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_beta_at_huge_m_is_a_failed_cell_before_any_draw(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # one row of 10^12 Beta draws would take 7.28 TiB
        monkeypatch.setattr(montecarlo, "_block_sums", lambda *a: pytest.fail("a draw ran"))
        model_path = write_model(tmp_path, BETA_BERN_DOC)
        out_path = tmp_path / "r.csv"
        grid = {"simulate": ["--m", "1000000000000", "--t", "0.1"],
                "verify": ["--m-grid", "1000000000000", "--t-grid", "0.1", "--side", "upper"]}
        args = [command, "--model", model_path, *grid[command], "--reps", "10"]
        assert main(args + ["--out", str(out_path)]) == 2
        assert "error: 1 cells failed" in capsys.readouterr().err
        assert [r.method for r in from_csv(out_path.read_text()).rows] == ["error:DomainError"]

    def test_verify_answers_a_truncated_beta_deep_in_a_tail(self, tmp_path):
        model_path = write_model(tmp_path, TRUNCATED_BETA_DOCS["beta-deep"])
        out_path = tmp_path / "v.csv"
        args = ["verify", "--model", model_path, "--method", "exact", "--m-grid", "2", "50"]
        assert main(args + ["--t-grid", "auto:3", "--out", str(out_path)]) == 0
        rows = from_csv(out_path.read_text()).rows
        assert len(rows) == 12
        assert {r.method for r in rows} == {"quadrature"}
        assert all(0.0 <= r.value <= 1.0 for r in rows)

    def test_verify_failed_cells_exit_2_after_writing_the_report(self, tmp_path, capsys):
        # the sum of M draws from three_atom_discrete's [0, 0.5, 1] component lies on
        # 2M+1 lattice sums: M=8191 fits the dense guard of 2^14 sums, M=8192 does not
        out_path = tmp_path / "v.csv"
        args = ["verify", "--method", "exact", "--m-grid", "8191", "8192", "--t-grid", "0.1"]
        assert main(args + ["--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("cells=20 violations=0 errors=2 ")
        assert "error: 2 cells failed" in captured.err
        rows = from_csv(out_path.read_text()).rows
        failed = [(r.model_id, r.M) for r in rows if r.method == "error:MTooLarge"]
        assert failed == [("three_atom_discrete", 8192)] * 2
        assert [r.method for r in rows if (r.model_id, r.M) == ("three_atom_discrete", 8191)] == [
            "convolution", "convolution"
        ]
        assert len(rows) == 20

    def test_verify_keeps_rows_whose_model_id_looks_like_metadata(self, tmp_path):
        model_path = write_model(tmp_path, TWO_ATOM_DOC, name="# a.json")
        out_path = tmp_path / "v.csv"
        args = ["verify", "--model", model_path, "--m-grid", "2", "--t-grid", "0.1"]
        assert main(args + ["--out", str(out_path)]) == 0
        report = from_csv(out_path.read_text())
        assert [(r.model_id, r.side) for r in report.rows] == [("# a", "upper"), ("# a", "lower")]
        assert from_csv(to_csv(report)) == report

    @pytest.mark.parametrize("fmt,decode", [("csv", from_csv), ("json", from_json)])
    def test_verify_to_stdout_is_one_document(self, capsys, shrink_bounds, fmt, decode):
        # a bound shrunk 100-fold adds VIOLATION lines, which go to stderr too
        shrink_bounds()
        args = ["verify", "--m-grid", "2", "--t-grid", "0.1", "--reps", "1000", "--format", fmt]
        assert main(args) == 1
        captured = capsys.readouterr()
        if fmt == "json":
            json.loads(captured.out)
        assert len(decode(captured.out).rows) == 10
        assert "cells=10 violations=" in captured.err
        assert "VIOLATION" in captured.err

    def test_verify_formats_agree(self, tmp_path):
        common = [
            "verify", "--m-grid", "2", "5", "--t-grid", "0.05", "0.1",
            "--reps", "3000", "--seed", "11",
        ]
        csv_path, json_path = tmp_path / "v.csv", tmp_path / "v.json"
        assert main(common + ["--format", "csv", "--out", str(csv_path)]) == 0
        assert main(common + ["--format", "json", "--out", str(json_path)]) == 0
        csv_rows = sorted(map(repr, from_csv(csv_path.read_text()).rows))
        json_rows = sorted(map(repr, from_json(json_path.read_text()).rows))
        assert csv_rows == json_rows

    def test_verify_repeated_runs_identical_modulo_timestamp(self, tmp_path):
        args = [
            "verify", "--m-grid", "2", "--t-grid", "auto:2",
            "--reps", "2000", "--seed", "17",
        ]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert strip_timestamps(p1.read_text()) == strip_timestamps(p2.read_text())

    def test_verify_thread_count_changes_no_report(self, tmp_path, monkeypatch):
        # the CLI passes EXCHBOUND_THREADS on as the sweep's thread count
        passed = []

        def sweep(*args, threads, **kwargs):
            passed.append(threads)
            return run_sweep(*args, threads=threads, **kwargs)

        monkeypatch.setattr(exchbound.cli, "run_sweep", sweep)
        reports = []
        for threads in ("3", "1"):
            monkeypatch.setenv("EXCHBOUND_THREADS", threads)
            out_path = tmp_path / f"t{threads}.csv"
            assert main(["verify", "--method", "montecarlo", "--out", str(out_path)]) == 0
            reports.append(strip_timestamps(out_path.read_text()))
        assert passed == [3, 1] and reports[0] == reports[1]

    @pytest.mark.parametrize("command", COMMAND_ARGS)
    def test_commands_return_their_output_and_write_nothing(self, tmp_path, capsys, command):
        model = write_model(tmp_path, TWO_ATOM_DOC)
        argv = [command, *(model if a == "a/m.json" else a for a in COMMAND_ARGS[command])]
        args = exchbound.cli.build_parser().parse_args(argv)
        code, table, lines, errors = args.func(args)
        assert capsys.readouterr() == ("", "")
        assert (code, errors) == (0, []) and lines and all(isinstance(l, str) for l in lines)
        assert (table is None) == (command in ("bounds", "ci"))
        # main writes the lines to stdout, or to stderr when the table took stdout
        assert main(argv) == 0
        written = capsys.readouterr()
        shown = written.out if table is None else written.err
        assert shown == "".join(line + "\n" for line in lines)

    def test_a_failed_write_to_an_in_process_stream_exits_3(self, monkeypatch, capsys):
        class ClosedPipe(io.StringIO):  # an in-process stream: no file descriptor
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        closed = ClosedPipe()
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["bounds", *COMMAND_ARGS["bounds"]]) == 3
        assert sys.stdout is closed
        assert capsys.readouterr().err == "error: cannot write stdout: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("to_file", [False, True], ids=["table-on-stdout", "out"])
    def test_a_failed_stderr_exits_3_and_costs_stdout_nothing(
        self, tmp_path, monkeypatch, capsys, to_file
    ):
        class FullDevice(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        # with --out, stdout takes the summary line and stderr the failed cell's count
        model_path = write_model(tmp_path, BETA_BERN_DOC)
        argv = ["verify", "--model", model_path, "--m-grid", "1000000000000", "--t-grid", "0.1",
                "--side", "upper", "--reps", "10"]
        argv += ["--out", str(tmp_path / "r.csv")] if to_file else []
        assert main(argv) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout and stderr.endswith("error: 1 cells failed\n")
        monkeypatch.setattr(sys, "stderr", FullDevice())
        assert main(argv) == 3
        assert strip_timestamps(capsys.readouterr().out) == strip_timestamps(stdout)

    def test_histogram_ignores_exchbound_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXCHBOUND_THREADS", "abc")
        model_path = write_model(tmp_path, TWO_ATOM_DOC)
        out_path = tmp_path / "h.csv"
        args = ["histogram", "--model", model_path, "--m", "2", "--reps", "100"]
        assert main(args + ["--out", str(out_path)]) == 0 and out_path.exists()

    def test_verify_models_dir(self, tmp_path):
        write_model(tmp_path, TWO_ATOM_DOC, name="a.json")
        write_model(
            tmp_path,
            {"type": "bernoulli_param", "density": {"kind": "uniform", "lo": 0.2, "hi": 0.8}},
            name="b.json",
        )
        code = main(
            [
                "verify", "--models-dir", str(tmp_path), "--m-grid", "2",
                "--t-grid", "0.1", "--reps", "2000", "--seed", "1",
                "--out", str(tmp_path / "out.csv"),
            ]
        )
        assert code == 0
        report = from_csv((tmp_path / "out.csv").read_text())
        assert sorted({r.model_id for r in report.rows}) == ["a", "b"]

    def test_histogram_counts(self, tmp_path, capsys):
        model_path = write_model(tmp_path, TWO_ATOM_DOC)
        code = main(
            [
                "histogram", "--model", model_path, "--m", "50",
                "--reps", "2000", "--bins", "10", "--seed", "9",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "replications=2000" in captured.err
        rows = list(csv.DictReader(l for l in captured.out.splitlines() if not l.startswith("# ")))
        assert sum(int(r["count"]) for r in rows) == 2000

    def test_histogram_json_to_stdout(self, tmp_path, capsys):
        model_path = write_model(tmp_path, TWO_ATOM_DOC)
        args = ["histogram", "--model", model_path, "--m", "5", "--reps", "500", "--bins", "4"]
        assert main(args + ["--format", "json"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["metadata"]["replications"] == 500
        assert sum(r["count"] for r in doc["rows"]) == 500
        assert "replications=500" in captured.err

    def test_histogram_csv_and_json_carry_the_same_table(self, tmp_path):
        model_path = write_model(tmp_path, TWO_ATOM_DOC)
        args = ["histogram", "--model", model_path, "--m", "50", "--reps", "1000", "--bins", "4"]
        csv_path, json_path = tmp_path / "h.csv", tmp_path / "h.json"
        assert main(args + ["--out", str(csv_path)]) == 0
        assert main(args + ["--format", "json", "--out", str(json_path)]) == 0
        lines = csv_path.read_text().splitlines()
        csv_meta = dict(l[2:].split(": ", 1) for l in lines if l.startswith("# "))
        csv_rows = list(csv.DictReader(l for l in lines if not l.startswith("# ")))
        doc = json.loads(json_path.read_text())
        json_meta = {k: format_value(v) for k, v in doc["metadata"].items()}
        json_rows = [{k: format_value(v) for k, v in r.items()} for r in doc["rows"]]
        assert list(csv_meta) == list(json_meta) == [
            "M", "replications", "master_seed", "tool_version", "timestamp"
        ]
        del csv_meta["timestamp"], json_meta["timestamp"]
        assert csv_meta == json_meta == {
            "M": "50", "replications": "1000", "master_seed": "0", "tool_version": "0.1.0"
        }
        assert csv_rows == json_rows
        assert len(csv_rows) == 4 and float(json_rows[-1]["bin_high"]) == 1.0

    def test_histogram_csv_output(self, tmp_path):
        model_path = write_model(tmp_path, TWO_ATOM_DOC)
        out_path = tmp_path / "hist.csv"
        code = main(
            [
                "histogram", "--model", model_path, "--m", "50",
                "--reps", "1000", "--bins", "4", "--seed", "9",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        lines = [l for l in out_path.read_text().strip().splitlines() if not l.startswith("# ")]
        assert lines[0] == "bin_low,bin_high,count"
        assert sum(int(l.split(",")[2]) for l in lines[1:]) == 1000


def fresh_interpreter(code: str) -> str:
    """stdout of ``python -c code`` with this exchbound first on the path."""
    env = {**os.environ, "PYTHONPATH": str(Path(exchbound.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return done.stdout.strip()


@pytest.mark.parametrize(
    "argv",
    [["bounds", *COMMAND_ARGS["bounds"]], ["ci", *COMMAND_ARGS["ci"]],
     ["verify", "--m-grid", "2", "--method", "exact"], ["histogram", "--model", "@", "--m", "2"]],
    ids=["bounds", "ci", "verify", "histogram"],
)
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_pipe_exits_3_with_one_error_line(tmp_path, argv, unbuffered):
    # exit 1 means "bound violated"; a reader that went away is an output failure
    model = write_model(tmp_path, TWO_ATOM_DOC)
    path = str(Path(exchbound.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "exchbound.cli", *(model if a == "@" else a for a in argv)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 3
    assert done.stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"


GOLDEN_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}  # the versions CI pins

# SHA-256 of each default verify report with its timestamp line removed.  A
# change that moves a row updates its digest and names the row in CHANGES.md.
# Every default cell has an exact path, so auto's report is exact's.
GOLDEN_DIGESTS = {
    "auto": "f5c14115625b7975445b3a8555cec21d50b7f5965c2c0860ba110ee95662fb4f",
    "exact": "f5c14115625b7975445b3a8555cec21d50b7f5965c2c0860ba110ee95662fb4f",
    "montecarlo": "5292d7b8924b4ea5e87af5efe1d7a5e07d32f1851e3daa35c22345733719e1d8",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("method", GOLDEN_DIGESTS)
def test_default_verify_reports_match_their_golden_digests(tmp_path, monkeypatch, method, threads):
    import scipy

    found = {"numpy": np.__version__, "scipy": scipy.__version__}
    if found != GOLDEN_VERSIONS:
        pytest.skip(f"digests pinned under {GOLDEN_VERSIONS}, found {found}")
    monkeypatch.setenv("EXCHBOUND_THREADS", threads)
    out_path = tmp_path / "verify.csv"
    assert main(["verify", "--method", method, "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines(keepends=True)
    text = "".join(line for line in lines if not line.startswith("# timestamp:"))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[method]


def test_cli_import_leaves_out_heavy_scipy_modules():
    code = (
        "import sys, exchbound.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))"
    )
    assert fresh_interpreter(code) == "[]"


def test_closed_forms_load_without_numpy_or_scipy():
    code = (
        "import sys; from exchbound import (tail_bound_report, t_for_confidence, "
        "hoeffding_tail_bound, kl_form_bound, Side, TailQuery); "
        "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'scipy', 'exchbound.'))))"
    )
    assert fresh_interpreter(code) == "['exchbound.bounds', 'exchbound.errors']"


def test_closed_forms_replays_and_histograms_leave_out_scipy_special(tmp_path):
    # the CLI, the bounds and ci commands, a replay and a Beta or lattice
    # histogram evaluate no special function, so scipy.special never loads;
    # the models come from files, as suite_model builds uniform_param too
    three_atom = {"type": "finite", "atoms": [
        {"weight": 0.3, "component": {"kind": "bernoulli", "p": 0.25}},
        {"weight": 0.3, "component": ARGUMENT_TEST_DOCS["disc"]["atoms"][0]["component"]},
        {"weight": 0.4, "component": {"kind": "pointmass", "c": 0.5}}]}
    assert model_from_obj(three_atom) == suite_model("three_atom_discrete")
    three, mixture = (write_model(tmp_path, doc, f"{i}.json")
                      for i, doc in enumerate((three_atom, BETA_BERN_DOC)))
    code = f"""if True:
        import contextlib, io, sys
        from exchbound import cli, montecarlo, sampler
        three = cli.load_model_file({three!r})
        for i in range(300):
            sampler.sample_sequence(three, 3, sampler.SeedSpec(7, i))
        mixture = cli.load_model_file({mixture!r})
        for M in (10, 200):
            montecarlo.sample_mean_histogram(mixture, M, 20_000, 100, 7)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["bounds", *{COMMAND_ARGS["bounds"]!r}]),
                     cli.main(["ci", *{COMMAND_ARGS["ci"]!r}])]
        print(codes, "scipy.special" in sys.modules)
    """
    assert fresh_interpreter(code) == "[0, 0] False"


SUBMODULES = ("bounds", "errors", "model", "montecarlo", "oracle", "sampler", "suite")


def test_submodules_resolve_after_a_bare_import():
    code = (
        "import exchbound; "
        f"print([getattr(exchbound, name).__name__ for name in {SUBMODULES!r}])"
    )
    assert fresh_interpreter(code) == repr([f"exchbound.{name}" for name in SUBMODULES])


def test_every_public_name_is_its_module_attribute():
    modules = [importlib.import_module(f"exchbound.{name}") for name in SUBMODULES]
    listed = dir(exchbound)
    assert set(SUBMODULES) <= set(listed)
    for name in exchbound.__all__:
        assert name in listed
        if name == "__version__":
            continue
        holders = [module for module in modules if hasattr(module, name)]
        assert holders, name
        for module in holders:
            assert getattr(exchbound, name) is getattr(module, name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        exchbound.no_such_name
    with pytest.raises(ImportError):
        from exchbound import no_such_name  # noqa: F401


# ---------------------------------------------------------------------------
# Property: any argv ends in a documented exit code, never a traceback
# ---------------------------------------------------------------------------

PROPERTY_MODELS = {
    "two-atom": TWO_ATOM_DOC,
    "uniform": {"type": "bernoulli_param", "density": {"kind": "uniform", "lo": 0.2, "hi": 0.8}},
    "beta-bernoulli": {"type": "finite", "atoms": [
        {"weight": 0.6, "component": {"kind": "beta", "alpha": 2.0, "beta": 5.0}},
        {"weight": 0.4, "component": {"kind": "bernoulli", "p": 0.7}}]},
    **TRUNCATED_BETA_DOCS,
}


@pytest.fixture(scope="module")
def property_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("property")
    for name, doc in PROPERTY_MODELS.items():
        write_model(root, doc, name=f"{name}.json")
    (root / "not-json.json").write_text("{")
    return root


WILD_REALS = st.one_of(
    st.sampled_from(
        ["nan", "inf", "-inf", "0", "-0", "-1", "1e308", "-1e308", "1e-300", "2.5e-3", "abc", ""]
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
WILD_COUNTS = st.one_of(st.integers(-3, 0).map(str), st.sampled_from(["nan", "1e3", "x", ""]))


@st.composite
def argvs(draw, command, root):
    # Three examples in four draw every number from a plausible range, so
    # that they get past argparse and into the program; the fourth may draw
    # any of them from the wild values.
    wild = draw(st.sampled_from([False, False, False, True]))

    def real():
        unit = st.floats(0.0, 1.0).map(repr)
        return draw(st.one_of(unit, WILD_REALS) if wild else unit)

    def count(high):
        valid = st.integers(1, high).map(str)
        return draw(st.one_of(valid, WILD_COUNTS) if wild else valid)

    def maybe(flag, values):
        return [flag, *values] if draw(st.booleans()) else []

    model_names = [*PROPERTY_MODELS, "not-json", "missing"]
    model = str(root / f"{draw(st.sampled_from(model_names))}.json")
    out = str(root / draw(st.sampled_from(["v.csv", "v.json", "no-such-dir/v.csv"])))
    parts = [command]
    if command == "bounds":
        parts += ["--mu-plus", real(), "--mu-minus", real(), "--t", real(), "--m", count(50)]
        parts += maybe("--range", [real(), real()])
    elif command == "ci":
        parts += ["--m", count(50), "--delta", real()]
        parts += maybe("--range", [real(), real()])
    elif command == "simulate":
        parts += ["--model", model, "--m", count(50), "--t", real(), "--reps", count(2000)]
        parts += maybe("--side", [draw(st.sampled_from(["upper", "lower", "both"]))])
        parts += maybe("--level", [real()])
        parts += maybe("--out", [out])
    elif command == "verify":
        parts += maybe("--model", [model])
        parts += ["--m-grid", *[count(50) for _ in range(draw(st.integers(1, 2)))]]
        if draw(st.booleans()):
            parts += ["--t-grid", *[real() for _ in range(draw(st.integers(1, 3)))]]
        else:
            parts += ["--t-grid", draw(st.sampled_from(["auto:1", "auto:3", "auto:0", "auto:x"]))]
        parts += ["--reps", count(2000)]
        parts += maybe("--method", [draw(st.sampled_from(["auto", "exact", "montecarlo"]))])
        parts += maybe("--level", [real()])
        parts += maybe("--out", [out])
    else:  # histogram
        parts += ["--model", model, "--m", count(50), "--reps", count(2000), "--bins", count(50)]
        parts += maybe("--out", [out])
    return parts


@pytest.mark.parametrize("command", ["bounds", "ci", "simulate", "verify", "histogram"])
def test_any_argv_ends_in_a_documented_exit_code(property_dir, command):
    @given(argvs(command, property_dir))
    @settings(max_examples=100, deadline=None)
    def check(argv):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejects malformed argv with 2
            code = e.code
        assert code in (0, 1, 2, 3), argv

    if command == "histogram":  # a bin count far past the drawn ones
        model = str(property_dir / "two-atom.json")
        argv = [command, "--model", model, "--m", "2", "--reps", "10", "--bins", "1000000000000"]
        check = example(argv)(check)
    check()
