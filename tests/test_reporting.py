"""Report rendering: that ``render_json`` writes exactly what ``json.dumps``
does, and on report objects exactly what ``json.dumps`` wrote of the tree
that ``to_jsonable``, the frozen oracle in ``report_oracle``, makes of them.
The first tests pin the oracle itself.  Then come checks that ``render_csv``
writes what the ``csv.writer`` it replaced wrote, and that ``emit`` writes
one format at a time and reads the rows only for a CSV."""

import json
import math
import sys
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karamata_kit.reporting import build_report, emit, render_csv, render_json
from report_oracle import oracle_csv, oracle_json, to_jsonable


@pytest.mark.parametrize(
    "value, expected",
    [
        (1.5, 1.5),
        (-0.0, -0.0),
        (5e-324, 5e-324),
        (math.nan, "nan"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (np.float64(2.25), 2.25),
        (np.float64(math.nan), "nan"),
        (np.float64(math.inf), "inf"),
        (np.float64(-math.inf), "-inf"),
        (np.int64(7), 7),
        (np.bool_(True), True),
        (np.bool_(False), False),
        (True, True),
        (False, False),
        (0, 0),
        (1, 1),
        (-(2**70), -(2**70)),
        ("ln(x)", "ln(x)"),
        ("", ""),
        (None, None),
    ],
)
def test_leaf_values_convert_to_plain_python(value, expected):
    got = to_jsonable(value)
    assert type(got) is type(expected)
    if isinstance(expected, float):
        assert math.copysign(1.0, got) == math.copysign(1.0, expected)
    assert got == expected


@dataclass(frozen=True)
class _Inner:
    xs: np.ndarray
    pair: tuple
    flag: bool


@dataclass(frozen=True)
class _Outer:
    name: str
    inner: _Inner
    rows: tuple
    extra: dict
    missing: float | None


def test_nested_dataclass_with_array_and_tuple():
    obj = _Outer(
        name="scan",
        inner=_Inner(
            xs=np.array(math.inf),
            pair=(np.int64(3), np.float64(-math.inf)),
            flag=np.bool_(False),
        ),
        rows=((1, 2.5), [True, None]),
        extra={1: math.nan, "k": (0.5,)},
        missing=None,
    )
    got = to_jsonable(obj)
    assert got == {
        "name": "scan",
        "inner": {"xs": "inf", "pair": [3, "-inf"], "flag": False},
        "rows": [[1, 2.5], [True, None]],
        "extra": {"1": "nan", "k": [0.5]},
        "missing": None,
    }
    assert type(got["inner"]["pair"][0]) is int
    assert type(got["inner"]["flag"]) is bool
    assert type(got["rows"][0][0]) is int and type(got["rows"][1][0]) is bool
    # the result is strict JSON: no nan or inf literals remain
    json.dumps(got, allow_nan=False)


def test_arrays_convert_to_nested_lists_whatever_their_size():
    assert to_jsonable(np.array(0.5)) == 0.5
    assert to_jsonable(np.array([0.5])) == [0.5]
    assert to_jsonable(np.array([1.0, math.nan, -math.inf])) == [1.0, "nan", "-inf"]
    got = to_jsonable(np.arange(6, dtype=np.int64).reshape(2, 3))
    assert got == [[0, 1, 2], [3, 4, 5]]
    assert type(got[1][2]) is int


def test_a_dataclass_type_is_not_converted_as_an_instance():
    assert to_jsonable(_Inner) is _Inner


# ---------------------------------------------------------------------------
# render_json against its oracles: json.dumps on plain trees, and
# json.dumps of to_jsonable's tree on anything


def _oracle(tree) -> str:
    return json.dumps(tree, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _outcome(render, tree):
    """The text ``render`` writes for ``tree``, or the type of what it raised."""
    try:
        return render(tree)
    except (TypeError, ValueError) as exc:
        return type(exc)


_STRINGS = st.one_of(
    st.text(),
    st.sampled_from(['"quoted"', "back\\slash", "\x00\t\n\x1f\x7f", "naïve ∫ 😀  ", ""]),
)
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-05, sys.float_info.max]),
)
_LEAVES = st.one_of(
    _STRINGS,
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(2**64) - 1, 10**40]),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.none(),
)
# nan and the infinities, which json.dumps rejects with ValueError
_NON_FINITE = st.sampled_from([math.nan, -math.inf, math.inf, np.float64(math.nan)])
# values that json.dumps has no form for, which it rejects with TypeError
_UNSERIALIZABLE = st.sampled_from([np.int64(3), np.bool_(True), {1, 2}, b"bytes", 1j, object()])


def _trees(leaves, floats=_FLOATS):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children),
            st.lists(children).map(tuple),
            st.lists(floats),  # the plain-float lists that reports are full of
            st.dictionaries(_STRINGS, children),
        ),
        max_leaves=30,
    )


@given(_trees(_LEAVES))
@settings(max_examples=300)
def test_render_json_writes_what_json_dumps_writes(tree):
    assert render_json(tree) == _oracle(tree)


@given(_trees(st.one_of(_LEAVES, _NON_FINITE, _UNSERIALIZABLE), st.one_of(_FLOATS, _NON_FINITE)))
@settings(max_examples=300)
def test_render_json_raises_what_json_dumps_raises(tree):
    assert _outcome(render_json, tree) == _outcome(oracle_json, tree)


@pytest.mark.parametrize(
    "tree",
    [
        {1: "int"},
        {-0.5: [1.5]},
        {"value": math.inf},
        {False: None},
        {None: {}},
        {math.nan: 1},
        {(1, 2): "tuple key"},
        {1: 0, "a": 1},  # keys json.dumps cannot sort
        [1.5, "mixed", 2.5],
        [1.5, math.nan],
        (0.5, np.float64(0.25)),
        [np.float64(0.25), 0.5],
        [[], {}, ()],
        "top-level string",
        5e-324,
    ],
)
def test_render_json_matches_json_dumps_on_odd_inputs(tree):
    assert _outcome(render_json, tree) == _outcome(oracle_json, tree)


# report objects: dataclasses, numpy values, nan/inf and keys that are not str


@dataclass(frozen=True)
class _Node:
    left: object
    right: object = None
    kind: ClassVar[str] = "not a field"  # dataclasses.fields leaves it out


@dataclass
class _Row:
    values: object
    extra: dict = field(default_factory=dict)


_NUMPY_SCALARS = st.one_of(
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_ARRAYS = st.one_of(
    st.lists(st.floats(), max_size=6).map(np.array),
    st.lists(st.integers(-(2**31), 2**31), max_size=6).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.floats(), min_size=6, max_size=6).map(lambda xs: np.array(xs).reshape(2, 3)),
    st.floats().map(np.array),  # 0-d
)
_KEYS = st.one_of(
    _STRINGS,
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.tuples(st.integers(), st.text(max_size=3)),
    st.integers(-5, 5).map(np.int64),
    st.sampled_from([1, "1", None, "None", False, "False", 0.5, "0.5"]),  # keys that collide
)


def _report_trees():
    leaves = st.one_of(
        _LEAVES, _NON_FINITE, st.floats(), _NUMPY_SCALARS, _ARRAYS,
        st.sampled_from([_Node, b"bytes", 1j]),  # no JSON form: TypeError
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.lists(st.floats(), max_size=4),
            st.dictionaries(_KEYS, children, max_size=4),
            st.builds(_Node, children, children),
            st.builds(_Row, children, st.dictionaries(_KEYS, children, max_size=3)),
        ),
        max_leaves=30,
    )


@given(_report_trees())
@settings(max_examples=300)
def test_render_json_writes_report_objects_as_the_two_walks_did(tree):
    assert _outcome(render_json, tree) == _outcome(oracle_json, tree)


def test_render_json_writes_report_objects_in_one_walk():
    report = {
        "config": _Row(np.array([0.5, math.nan]), {1: np.float64(-math.inf), False: None}),
        "inputs": _Node((np.int64(3), np.bool_(True)), np.arange(4).reshape(2, 2)),
        "timing_ms": math.inf,
    }
    assert render_json(report) == oracle_json(report)
    assert json.loads(render_json(report)) == {
        "config": {"values": [0.5, "nan"], "extra": {"1": "-inf", "False": None}},
        "inputs": {"left": [3, True], "right": [[0, 1], [2, 3]]},
        "timing_ms": "inf",
    }


# ---------------------------------------------------------------------------
# render_csv against the csv.writer it replaced

_CSV_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(-(2**53), 2**53),
)


@given(st.lists(st.tuples(_CSV_NUMBERS, st.none() | _CSV_NUMBERS, _CSV_NUMBERS), max_size=20))
@settings(max_examples=200)
def test_render_csv_writes_what_csv_writer_wrote(rows):
    assert render_csv(rows) == oracle_csv(rows)


# ---------------------------------------------------------------------------
# emit: one format at a time, the rows read only for a CSV


class _Rows:
    """(x, param, residual) rows that count how often they are iterated."""

    def __init__(self, rows):
        self.rows = rows
        self.reads = 0

    def __iter__(self):
        self.reads += 1
        return iter(self.rows)


class _Unreadable:
    def __iter__(self):
        raise AssertionError("rows read for a JSON report")


_REPORT = build_report("uct scan", {"format": "json"}, {"g": "u/x"}, {"sup": [0.5]}, {}, 1.5)


def test_emit_json_never_reads_the_rows(capsys):
    emit(_REPORT, _Unreadable(), "json", None)
    assert capsys.readouterr().out == render_json(_REPORT)


@pytest.mark.parametrize("fmt", ["csv", "both"])
def test_emit_reads_the_rows_once(capsys, fmt):
    rows = _Rows([(10.0, 0.5, 0.05), (100.0, None, math.inf)])
    emit(_REPORT, rows, fmt, None)
    assert rows.reads == 1
    want = render_csv(rows.rows)
    if fmt == "both":
        want = render_json(_REPORT) + want
    assert capsys.readouterr().out == want
