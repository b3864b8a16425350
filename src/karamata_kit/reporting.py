"""Report assembly and serialization.

Every CLI run produces one report dict with a fixed top-level shape:
version, command, config, inputs, results, verdicts, timing_ms.  Its
values are the library's own objects; ``render_json`` turns them into text
in one walk.  It writes values of the exact types dict, list, tuple, str,
int, float and bool, and None; dataclasses as objects of their fields; and
numpy scalars and arrays through ``tolist()``.  nan and the infinities are
the strings ``"nan"``, ``"inf"`` and ``"-inf"``, and every dict key is
``str(key)``.  Keys are sorted and floats take Python's shortest round-trip
repr, so identical runs serialize byte-identically.  CSV output flattens
whatever the command exposes as (x, param, residual) rows.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
from json.encoder import encode_basestring_ascii as _quote

REPORT_VERSION = 1

__all__ = ["REPORT_VERSION", "build_report", "render_json", "render_csv", "emit"]


def build_report(command, config, inputs, results, verdicts, timing_ms):
    return {
        "version": REPORT_VERSION,
        "command": command,
        "config": config,
        "inputs": inputs,
        "results": results,
        "verdicts": verdicts,
        "timing_ms": round(float(timing_ms), 3),
    }


def render_json(report) -> str:
    """``report`` as JSON text, plus a newline, as the module docstring says.

    Those conversions aside, the text is what ``json.dumps(..., indent=2,
    sort_keys=True)`` writes.  With ``indent`` set, json.dumps runs its
    pure-Python encoder, a generator per container; this takes about half
    the time.  Any value of another type raises TypeError, a subclass of a
    JSON type included.  The one exception is a float subclass, numpy's
    float64 among them, past the head of a list that a float leads: it is
    written as its float."""
    return _render(report, "\n") + "\n"


def _render(obj, newline: str) -> str:
    """``obj`` as JSON; ``newline`` is the line break and indent of its depth."""
    # exact types first: reports are mostly plain floats, strings and containers
    kind = type(obj)
    if kind is float:
        return _render_float(obj)
    if kind is str:
        return _quote(obj)
    if kind is dict:
        return _render_dict(obj, newline)
    if kind is list or kind is tuple:
        return _render_list(obj, newline)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    names = _field_names(kind)
    if names is not None:  # a dataclass instance; a dataclass type falls through
        return _render_object([(name, getattr(obj, name)) for name in names], newline)
    if hasattr(obj, "tolist"):  # a numpy scalar or array of any shape
        return _render(obj.tolist(), newline)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


@functools.cache
def _field_names(kind: type) -> tuple[str, ...] | None:
    """The sorted field names of a dataclass type; None for any other type."""
    if not dataclasses.is_dataclass(kind):
        return None
    return tuple(sorted(f.name for f in dataclasses.fields(kind)))


def _render_float(x: float) -> str:
    text = float.__repr__(x)
    return f'"{text}"' if "n" in text else text  # nan, inf or -inf as a string


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
    if any(type(key) is not str for key in mapping):
        # a later key that writes as an earlier one replaces its value
        mapping = {str(key): value for key, value in mapping.items()}
    return _render_object([(key, mapping[key]) for key in sorted(mapping)], newline)


def _render_object(pairs, newline: str) -> str:
    """``pairs``, (str key, value) in key order, as a JSON object."""
    if not pairs:
        return "{}"
    inner = newline + "  "
    items = []
    for key, value in pairs:
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


def render_csv(rows) -> str:
    """Rows are (x, param, residual) triples, any iterable of them, read
    once; param may be None, which is written as an empty field.  Every other
    field is the repr of a float, which never needs quoting, so each line is
    one format of those strings."""
    return "".join(_csv_chunks(rows))


# lines per piece of CSV text that ``emit`` writes: about 150 KB of scan rows
_CSV_BATCH = 4096


def _csv_chunks(rows):
    """The CSV text of ``rows``, header first, in pieces of ``_CSV_BATCH``
    lines, so that a writer never holds the whole text."""
    r = float.__repr__
    lines = (
        f"{r(float(x))},{'' if param is None else r(float(param))},{r(float(residual))}\n"
        for x, param, residual in rows
    )
    yield "x,param,residual\n"
    while chunk := "".join(itertools.islice(lines, _CSV_BATCH)):
        yield chunk


def emit(report: dict, rows, fmt: str, out: str | None) -> None:
    """Write the report in the requested format(s), JSON before CSV.

    With --out, json goes to <out> (or <out>.json under both) and csv to
    <out>.csv; without it everything lands on stdout.  Each text is written
    before the next is rendered, so ``rows`` is read only when a CSV is
    written, and once; a CSV is rendered and written piece by piece.  Stdout
    is flushed after each text, so that a failed write raises here."""
    for kind in ("json", "csv"):
        if fmt not in (kind, "both"):
            continue
        pieces = [render_json(report)] if kind == "json" else _csv_chunks(rows)
        if out is None:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        else:
            with open(f"{out}.{kind}" if fmt == "both" else out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
