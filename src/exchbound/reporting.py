"""Report tables and their CSV / JSON encodings.

A table is a frozen dataclass whose first field, ``rows``, holds row
dataclasses; its other fields are the run metadata.  There are two:
``Report``, a sweep's ``SweepRow`` rows, and ``HistogramReport``, one
``HistogramRow`` per bin.  Each column and each metadata key is declared
once, as a dataclass field: the CSV header is the row class's field
names, in field order, and the metadata follows the table's field order.
A report parses back with one parser per field type.

Both encodings round-trip losslessly: floats are written with 17
significant digits, the shortest precision that reproduces every double
exactly.  In CSV, metadata travels in leading ``# key: value`` comment
lines above the header, so the data block stays directly loadable by
CSV tools that skip comments; lines below the header are always data.
In JSON, the metadata is one object and each row an object whose floats
are 17-digit strings.  Output files are written to a temporary name and
renamed into place, so a failed run never leaves a partial file behind.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Optional, get_args, get_type_hints

from .bounds import _shown
from .errors import DomainError, ExchboundError
from .montecarlo import HistogramResult, SweepResult, SweepRow

FLOAT_FORMAT = "%.17g"


@dataclass(frozen=True)
class Report(SweepResult):
    tool_version: str
    timestamp: str  # ISO 8601, UTC

    @classmethod
    def from_sweep(
        cls, sweep: SweepResult, tool_version: str, timestamp: str
    ) -> "Report":
        return cls(**vars(sweep), tool_version=tool_version, timestamp=timestamp)


@dataclass(frozen=True)
class HistogramRow:
    bin_low: float
    bin_high: float
    count: int


@dataclass(frozen=True)
class HistogramReport:
    rows: tuple[HistogramRow, ...]
    M: int
    replications: int
    master_seed: int
    tool_version: str
    timestamp: str  # ISO 8601, UTC

    @classmethod
    def from_histogram(
        cls, hist: HistogramResult, tool_version: str, timestamp: str
    ) -> "HistogramReport":
        edges = hist.bin_edges
        rows = tuple(HistogramRow(edges[i], edges[i + 1], c) for i, c in enumerate(hist.counts))
        return cls(rows, hist.M, hist.replications, hist.master_seed, tool_version, timestamp)


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


def _parse_optional_float(text) -> Optional[float]:
    return None if text == "" or text is None else float(text)


def _parse_bool(text) -> bool:
    if text == "true" or text is True:
        return True
    if text == "false" or text is False:
        return False
    raise ExchboundError(f"not a boolean field: {text!r}")


# one parser per field type: each reads a field as CSV spells it (the
# inverse of format_value) or as JSON holds it
_PARSERS = {
    str: str,
    int: int,
    float: float,
    Optional[float]: _parse_optional_float,
    bool: _parse_bool,
}


@dataclass(frozen=True)
class _Layout:
    columns: tuple[str, ...]
    row_parsers: tuple
    metadata: dict  # key -> parser, in field order


def _layout(table_type: type) -> _Layout:
    hints = get_type_hints(table_type)
    row_type, _ = get_args(hints.pop("rows"))
    row_hints = get_type_hints(row_type)
    columns = tuple(f.name for f in fields(row_type))
    return _Layout(
        columns=columns,
        row_parsers=tuple(_PARSERS[row_hints[c]] for c in columns),
        metadata={f.name: _PARSERS[hints[f.name]] for f in fields(table_type) if f.name != "rows"},
    )


_LAYOUTS = {table_type: _layout(table_type) for table_type in (Report, HistogramReport)}
CSV_COLUMNS = _LAYOUTS[Report].columns


@contextmanager
def _long_ints_named(table):
    """Turn str()'s refusal of an int past Python's digit limit, such as the M
    of an error row, into DomainError naming the field of table that holds it."""
    try:
        yield
    except ValueError:
        for record in (table, *table.rows):
            for f in fields(record):
                value = getattr(record, f.name)
                if not isinstance(value, int):
                    continue
                try:
                    str(value)
                except ValueError:
                    message = f"{f.name} is {_shown(value)}, too long to write in a report"
                    raise DomainError(message) from None
        raise


def to_csv(table) -> str:
    layout = _LAYOUTS[type(table)]
    buf = io.StringIO()
    with _long_ints_named(table):
        for key in layout.metadata:
            buf.write(f"# {key}: {format_value(getattr(table, key))}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(layout.columns)
        writer.writerows([format_value(getattr(row, c)) for c in layout.columns]
                         for row in table.rows)
    return buf.getvalue()


def _json_value(value):
    return FLOAT_FORMAT % value if isinstance(value, float) else value


def to_json(table) -> str:
    layout = _LAYOUTS[type(table)]
    payload = {
        "metadata": {key: getattr(table, key) for key in layout.metadata},
        "rows": [
            {c: _json_value(getattr(row, c)) for c in layout.columns}
            for row in table.rows
        ],
    }
    with _long_ints_named(table):
        return json.dumps(payload, indent=2) + "\n"


def _decode(meta: dict, records) -> Report:
    layout = _LAYOUTS[Report]
    rows = tuple(
        SweepRow(*[parse(text) for parse, text in zip(layout.row_parsers, record)])
        for record in records
    )
    return Report(rows, **{key: parse(meta[key]) for key, parse in layout.metadata.items()})


def from_csv(text: str) -> Report:
    lines = text.splitlines(keepends=True)
    n_meta = next((i for i, line in enumerate(lines) if not line.startswith("# ")), len(lines))
    meta = {}
    for line in lines[:n_meta]:
        key, _, value = line[2:].rstrip("\r\n").partition(": ")
        meta[key] = value
    reader = csv.reader(lines[n_meta:])
    header = next((record for record in reader if record), [])
    if tuple(header) != CSV_COLUMNS:
        raise ExchboundError(f"report header {header} is not {list(CSV_COLUMNS)}")
    return _decode(meta, [record for record in reader if record])


def from_json(text: str) -> Report:
    payload = json.loads(text)
    records = [[record[c] for c in CSV_COLUMNS] for record in payload["rows"]]
    return _decode(payload["metadata"], records)


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


ENCODERS = {"csv": to_csv, "json": to_json}  # format -> table encoder


def write_report(report, path: str, fmt: str) -> None:
    """Serialize a table and atomically replace ``path``."""
    encode = ENCODERS.get(fmt) if isinstance(fmt, str) else None
    if encode is None:
        raise ExchboundError(f"unknown report format {fmt!r}")
    atomic_write_text(path, encode(report))
