"""Frozen oracle for the report renderer.

``to_jsonable`` is the conversion that reports went through before
``render_json`` took the report objects directly: it copied dataclasses,
numpy values, tuples and non-finite floats into a plain tree, which
``json.dumps`` then wrote.  ``render_json(report)`` must equal
``json.dumps(to_jsonable(report), indent=2, sort_keys=True,
allow_nan=False) + "\n"`` for every input, or raise the same exception.  It
is kept unchanged so that the renderer is checked against a conversion
other than itself.  Do not edit it to follow the library.

``oracle_csv`` is the CSV writer that ``render_csv`` replaced, built on
``csv.writer``; ``render_csv(rows)`` must equal ``oracle_csv(rows)``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math


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


def oracle_json(tree) -> str:
    """What the report pipeline has always written for ``tree``."""
    return json.dumps(to_jsonable(tree), indent=2, sort_keys=True, allow_nan=False) + "\n"


def oracle_csv(rows) -> str:
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
