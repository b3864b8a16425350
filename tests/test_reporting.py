"""Report conversion: what ``to_jsonable`` makes of each kind of value."""

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from karamata_kit.reporting import to_jsonable


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
