"""Report assembly and serialization.

Every CLI run produces one report dict with a fixed top-level shape:
version, command, config, inputs, results, verdicts, timing_ms.  JSON
output uses sorted keys and Python's shortest round-trip float repr, so
identical runs serialize byte-identically.  CSV output flattens whatever
the command exposes as (x, param, residual) rows.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import sys

REPORT_VERSION = 1

__all__ = ["REPORT_VERSION", "to_jsonable", "build_report", "render_json", "render_csv", "emit"]


_LEAF_TYPES = (int, str, bool, type(None))


def to_jsonable(obj):
    """Recursively convert dataclasses/arrays/tuples into JSON-ready data."""
    # exact-type leaves first: reports are mostly plain floats and strings
    kind = type(obj)
    if kind is float:
        if math.isfinite(obj):
            return obj
    elif kind in _LEAF_TYPES:
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):
        # numpy scalar or array of any shape
        return to_jsonable(obj.tolist())
    if isinstance(obj, float) and obj != obj:
        return "nan"
    if isinstance(obj, float) and obj in (float("inf"), float("-inf")):
        return "inf" if obj > 0 else "-inf"
    return obj


def build_report(command, config, inputs, results, verdicts, timing_ms):
    return {
        "version": REPORT_VERSION,
        "command": command,
        "config": to_jsonable(config),
        "inputs": to_jsonable(inputs),
        "results": to_jsonable(results),
        "verdicts": to_jsonable(verdicts),
        "timing_ms": round(float(timing_ms), 3),
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def render_csv(rows) -> str:
    """Rows are (x, param, residual) triples; param may be None."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "param", "residual"])
    for x, param, residual in rows:
        writer.writerow(
            [
                repr(float(x)),
                "" if param is None else repr(float(param)),
                repr(float(residual)),
            ]
        )
    return buf.getvalue()


def emit(report: dict, rows, fmt: str, out: str | None) -> None:
    """Write the report in the requested format(s).

    With --out, json goes to <out> (or <out>.json under both) and csv to
    <out>.csv; without it everything lands on stdout."""
    chunks: list[tuple[str, str]] = []
    if fmt in ("json", "both"):
        chunks.append(("json", render_json(report)))
    if fmt in ("csv", "both"):
        chunks.append(("csv", render_csv(rows)))
    if out is None:
        for _, text in chunks:
            sys.stdout.write(text)
        return
    for kind, text in chunks:
        if fmt == "both":
            path = f"{out}.{kind}"
        else:
            path = out
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
