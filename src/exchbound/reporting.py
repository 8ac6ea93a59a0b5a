"""Report containers and their CSV / JSON encodings.

A report is sweep rows plus run metadata (seed, replications, tool
version, timestamp).  Both encodings round-trip losslessly: floats are
written with 17 significant digits, the shortest precision that
reproduces every double exactly.  In CSV, metadata travels in leading
``# key: value`` comment lines above the fixed header

    model_id,M,t,side,method,value,ci_low,ci_high,hoeffding,kl_form,h0,valid,violation

so the data block stays directly loadable by CSV tools that skip
comments.  Output files are written to a temporary name and renamed into
place, so a failed run never leaves a partial file behind.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

from .errors import ExchboundError
from .montecarlo import SweepResult, SweepRow

CSV_COLUMNS = (
    "model_id",
    "M",
    "t",
    "side",
    "method",
    "value",
    "ci_low",
    "ci_high",
    "hoeffding",
    "kl_form",
    "h0",
    "valid",
    "violation",
)

FLOAT_FORMAT = "%.17g"


@dataclass(frozen=True)
class Report:
    rows: tuple[SweepRow, ...]
    master_seed: int
    replications: int
    level: float
    tool_version: str
    timestamp: str  # ISO 8601, UTC

    @classmethod
    def from_sweep(
        cls, sweep: SweepResult, tool_version: str, timestamp: str
    ) -> "Report":
        return cls(
            rows=sweep.rows,
            master_seed=sweep.master_seed,
            replications=sweep.replications,
            level=sweep.level,
            tool_version=tool_version,
            timestamp=timestamp,
        )

    @property
    def violations(self) -> tuple[SweepRow, ...]:
        return tuple(r for r in self.rows if r.violation)


def format_value(value) -> str:
    """One field as reports and CLI output spell it.

    Floats get 17 significant digits, booleans true/false, None is empty.
    """
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    return str(value)


def _row_record(row: SweepRow) -> dict:
    return {
        "model_id": row.model_id,
        "M": row.M,
        "t": row.t,
        "side": row.side,
        "method": row.method,
        "value": row.value,
        "ci_low": row.ci_low,
        "ci_high": row.ci_high,
        "hoeffding": row.hoeffding,
        "kl_form": row.kl_form,
        "h0": row.h0,
        "valid": row.valid,
        "violation": row.violation,
    }


def _metadata(report: Report) -> dict:
    return {
        "master_seed": report.master_seed,
        "replications": report.replications,
        "level": report.level,
        "tool_version": report.tool_version,
        "timestamp": report.timestamp,
    }


def to_csv(report: Report) -> str:
    buf = io.StringIO()
    for key, value in _metadata(report).items():
        buf.write(f"# {key}: {format_value(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.rows:
        record = _row_record(row)
        writer.writerow([format_value(record[col]) for col in CSV_COLUMNS])
    return buf.getvalue()


def to_json(report: Report) -> str:
    payload = {
        "metadata": _metadata(report),
        "rows": [
            {k: (FLOAT_FORMAT % v) if isinstance(v, float) else v for k, v in _row_record(row).items()}
            for row in report.rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _parse_optional_float(text: str) -> Optional[float]:
    return None if text == "" else float(text)


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ExchboundError(f"not a boolean field: {text!r}")


def _row_from_strings(record: dict) -> SweepRow:
    return SweepRow(
        model_id=record["model_id"],
        M=int(record["M"]),
        t=float(record["t"]),
        side=record["side"],
        method=record["method"],
        value=_parse_optional_float(record["value"]),
        ci_low=_parse_optional_float(record["ci_low"]),
        ci_high=_parse_optional_float(record["ci_high"]),
        hoeffding=_parse_optional_float(record["hoeffding"]),
        kl_form=_parse_optional_float(record["kl_form"]),
        h0=_parse_optional_float(record["h0"]),
        valid=_parse_bool(record["valid"]),
        violation=_parse_bool(record["violation"]),
    )


def from_csv(text: str) -> Report:
    meta: dict[str, str] = {}
    data_lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif line.strip():
            data_lines.append(line)
    reader = csv.DictReader(data_lines)
    rows = tuple(_row_from_strings(record) for record in reader)
    return Report(
        rows=rows,
        master_seed=int(meta["master_seed"]),
        replications=int(meta["replications"]),
        level=float(meta["level"]),
        tool_version=meta["tool_version"],
        timestamp=meta["timestamp"],
    )


def from_json(text: str) -> Report:
    payload = json.loads(text)
    meta = payload["metadata"]
    rows = []
    for record in payload["rows"]:
        normalized = {}
        for k, v in record.items():
            if v is None:
                normalized[k] = ""
            elif isinstance(v, bool):
                normalized[k] = "true" if v else "false"
            else:
                normalized[k] = str(v)
        rows.append(_row_from_strings(normalized))
    return Report(
        rows=tuple(rows),
        master_seed=int(meta["master_seed"]),
        replications=int(meta["replications"]),
        level=float(meta["level"]),
        tool_version=str(meta["tool_version"]),
        timestamp=str(meta["timestamp"]),
    )


def atomic_write_text(path: str, text: str) -> None:
    """Write-then-rename, so a failed run never leaves a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".report-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_report(report: Report, path: str, fmt: str) -> None:
    """Serialize and atomically replace ``path``."""
    if fmt == "csv":
        text = to_csv(report)
    elif fmt == "json":
        text = to_json(report)
    else:
        raise ExchboundError(f"unknown report format {fmt!r}")
    atomic_write_text(path, text)
