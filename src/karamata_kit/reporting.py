"""Report assembly and serialization.

Every CLI run produces one report dict with a fixed top-level shape:
version, command, config, inputs, results, verdicts, timing_ms.  JSON
output uses sorted keys and Python's shortest round-trip float repr, so
identical runs serialize byte-identically, exactly as ``json.dumps(report,
indent=2, sort_keys=True, allow_nan=False)`` would.  CSV output flattens
whatever the command exposes as (x, param, residual) rows.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import sys
from json.encoder import encode_basestring_ascii as _quote

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
    """``report`` as ``json.dumps(report, indent=2, sort_keys=True,
    allow_nan=False)`` writes it, plus a newline.

    With ``indent`` set, json.dumps runs its pure-Python encoder, a generator
    per container; this writes the same text in about half the time.  As
    there, a nan or infinite float raises ValueError and a value that JSON
    has no form for raises TypeError."""
    return _render(report, "\n") + "\n"


def _render(obj, newline: str) -> str:
    """``obj`` as JSON; ``newline`` is the line break and indent of its depth."""
    kind = type(obj)
    if kind is dict:
        return _render_dict(obj, newline)
    if kind is list or kind is tuple:
        return _render_list(obj, newline)
    # json.dumps's own order of tests, which also takes subclasses
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _render_float(obj)
    if isinstance(obj, (list, tuple)):
        return _render_list(obj, newline)
    if isinstance(obj, dict):
        return _render_dict(obj, newline)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _render_float(x: float) -> str:
    text = float.__repr__(x)
    if "n" in text:  # nan, inf or -inf
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return text


def _render_list(seq, newline: str) -> str:
    if not seq:
        return "[]"
    inner = newline + "  "
    sep = "," + inner
    if type(seq[0]) is float:
        # most of a report's leaves sit in lists of plain floats: one join,
        # then the non-finite check on its text
        try:
            text = sep.join(map(float.__repr__, seq))
        except TypeError:  # not floats only
            text = "n"
        if "n" not in text:
            return f"[{inner}{text}{newline}]"
    return f"[{inner}{sep.join([_render(v, inner) for v in seq])}{newline}]"


def _render_dict(mapping, newline: str) -> str:
    if not mapping:
        return "{}"
    inner = newline + "  "
    items = []
    for key in sorted(mapping):
        value = mapping[key]
        if type(key) is not str:
            key = _render_key(key)
        # the common leaves inline, the rest through _render
        kind = type(value)
        if kind is float:
            text = _render_float(value)
        elif kind is str:
            text = _quote(value)
        elif value is None:
            text = "null"
        else:
            text = _render(value, inner)
        items.append(f"{_quote(key)}: {text}")
    return f"{{{inner}{(',' + inner).join(items)}{newline}}}"


def _render_key(key) -> str:
    """A dict key that is not a str, as JSON writes it before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return _render(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


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
