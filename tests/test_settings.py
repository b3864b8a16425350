"""Every setting of the public library, on any value: a result or a
documented error, and no numpy warning.

Each entry of ``SETTINGS`` calls one public function (of
``karamata_kit.__all__``, and ``halton_points``) with one setting replaced by
the drawn value and every other argument valid.  The call must return, or
raise ``PreconditionError``, an ``ExprError`` or ``ConfigError``; a
``TypeError``, a numpy warning or any other error fails the property.  A
value that is not a number (None, a string, a list, an array of two), a
non-finite number (a numpy float or a 0-d array among them, and an int past
the float range, for a setting that is not a count), and a count that is
not an integer or is past ``sys.maxsize``, must raise.  The draws are the
values that have slipped past a check before: nan, +-inf, 0, negatives,
non-integers, numpy integers and floats, 0-d arrays, values near the float
range, ints past it, None, a string, a list and an array of two.
"""

import math
import numbers
import sys
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import karamata_kit
from karamata_kit import (
    ClaimedClass,
    GeometricGrid,
    IntegralCache,
    PreconditionError,
    QuadTolerance,
    Region,
    apply_L,
    apply_L_detailed,
    apply_L_grid,
    apply_L_points,
    class_preservation_check,
    classify_limit,
    classify_rows,
    condition_scan_310,
    exponent_profile,
    guct_diagnose,
    hi_check,
    integral_asym_residual,
    integrate_log,
    interval_expand,
    karamata_uct_check,
    mult_closure_residual,
    parse,
    rv_index,
    sv_test,
    uct_scan,
)
from karamata_kit.config import ConfigError
from karamata_kit.exprlang import ExprError
from karamata_kit.uniformity import halton_points

_H = parse("1/(1+ln(x))")
_G = parse("x*u*exp(-x*u)")
_HI = parse("abs(ln(x+u) - ln(x))")
_GRID = GeometricGrid(10.0, 10.0, 8)
_REGION = dict(x=(10.0, 100.0), u=(0.0, 1.0), v=(0.0, 1.0))
_SAMPLES = np.linspace(1.0, 2.0, 12)


def _tol(**field) -> QuadTolerance:
    """A small budget, with ``field`` replaced."""
    return QuadTolerance(**{"abs_tol": 1e-10, "rel_tol": 1e-10, "max_evals": 3000, **field})


def _grid(**field) -> GeometricGrid:
    return GeometricGrid(**{"start": 10.0, "ratio": 10.0, "count": 8, **field})


# name: the call with the drawn value in place of that setting
SETTINGS = {
    "QuadTolerance.abs_tol": lambda v: _tol(abs_tol=v),
    "QuadTolerance.rel_tol": lambda v: _tol(rel_tol=v),
    "QuadTolerance.max_evals": lambda v: _tol(max_evals=v),
    "integrate_log.x": lambda v: integrate_log(_H, v, _tol()),
    "IntegralCache.extend": lambda v: IntegralCache(_H, tol=_tol()).extend(v),
    "apply_L.x": lambda v: apply_L(_H, v, _tol()),
    "apply_L_detailed.x": lambda v: apply_L_detailed(_H, v, _tol()),
    "apply_L_points.points": lambda v: apply_L_points(_H, [10.0, v], _tol()),
    "GeometricGrid.start": lambda v: _grid(start=v),
    "GeometricGrid.ratio": lambda v: _grid(ratio=v),
    "GeometricGrid.count": lambda v: _grid(count=v),
    "GeometricGrid.start-integer": lambda v: _grid(start=v, integer_mode=True),
    "apply_L_grid.grid": lambda v: apply_L_grid(_H, _grid(ratio=v), _tol()),
    "classify_limit.tol": lambda v: classify_limit(_SAMPLES, v),
    "classify_rows.tol": lambda v: classify_rows(np.ones((2, 9)), v),
    "rv_index.lambdas": lambda v: rv_index(parse("x^2"), [2.0, v]),
    "rv_index.classify_tol": lambda v: rv_index(parse("x^2"), classify_tol=v),
    "sv_test.lambdas": lambda v: sv_test(parse("ln(x)"), [2.0, v], _GRID),
    "sv_test.classify_tol": lambda v: sv_test(parse("ln(x)"), grid=_GRID, classify_tol=v),
    "sv_test.value_tol": lambda v: sv_test(parse("x"), [2.0, 10.0], _GRID, value_tol=v),
    "exponent_profile.classify_tol": lambda v: exponent_profile(
        parse("x^2"), _GRID, classify_tol=v
    ),
    "ClaimedClass.alpha": lambda v: ClaimedClass("r_alpha", alpha=v),
    "ClaimedClass.bounds": lambda v: ClaimedClass("bounded", bounds=(v, 3.0)),
    "class_preservation_check.lambdas": lambda v: class_preservation_check(
        _H, ClaimedClass("z0"), _GRID, (2.0, v), _tol()
    ),
    "class_preservation_check.value_tol": lambda v: class_preservation_check(
        _H, ClaimedClass("z0"), _GRID, tol=_tol(), value_tol=v
    ),
    "class_preservation_check.alpha": lambda v: class_preservation_check(
        parse("x^0.5"), ClaimedClass("r_alpha", alpha=0.5), _GRID, (2.0, v), _tol()
    ),
    "uct_scan.u_interval": lambda v: uct_scan(_G, (v, 1.0), _GRID),
    "uct_scan.u_count": lambda v: uct_scan(_G, (0.0, 1.0), _GRID, v),
    "uct_scan.classify_tol": lambda v: uct_scan(_G, (0.0, 1.0), _GRID, classify_tol=v),
    "karamata_uct_check.lambda_interval": lambda v: karamata_uct_check(
        parse("ln(x)"), (1.0, v), _GRID
    ),
    "karamata_uct_check.lambda_count": lambda v: karamata_uct_check(
        parse("ln(x)"), (1.0, 2.0), _GRID, v
    ),
    "condition_scan_310.lambda_interval": lambda v: condition_scan_310(
        parse("1/ln(x)"), (v, 2.0), _GRID
    ),
    "condition_scan_310.lambda_count": lambda v: condition_scan_310(
        parse("1/ln(x)"), (1.0, 2.0), _GRID, v
    ),
    "Region.x": lambda v: hi_check(_HI, 20, Region(**{**_REGION, "x": (v, 100.0)})),
    "hi_check.sample_count": lambda v: hi_check(_HI, v, Region(**_REGION)),
    "hi_check.region": lambda v: hi_check(_HI, 20, Region(**{**_REGION, "u": (0.0, v)})),
    "guct_diagnose.u_count": lambda v: guct_diagnose(_HI, parse("1"), (0.5, 2.0), _GRID, v, 20),
    "guct_diagnose.sample_count": lambda v: guct_diagnose(
        _HI, parse("1"), (0.5, 2.0), _GRID, sample_count=v
    ),
    "guct_diagnose.value_tol": lambda v: guct_diagnose(
        _HI, parse("1"), (0.5, 2.0), _GRID, sample_count=20, value_tol=v
    ),
    "mult_closure_residual.lam": lambda v: mult_closure_residual(parse("ln(x)"), v, 2.0, _GRID),
    "mult_closure_residual.mu": lambda v: mult_closure_residual(parse("ln(x)"), 2.0, v, _GRID),
    "interval_expand.a": lambda v: interval_expand(v, 2.0, 3),
    "interval_expand.b": lambda v: interval_expand(1.0, v, 0),
    "interval_expand.n": lambda v: interval_expand(1.0, 2.0, v),
    "integral_asym_residual.lam": lambda v: integral_asym_residual(
        parse("1"), v, _grid(start=1e4), 1.0, _tol()
    ),
    "integral_asym_residual.bound": lambda v: integral_asym_residual(
        parse("1"), 2.0, _grid(start=1e4), v, _tol()
    ),
    "halton_points.count": lambda v: halton_points(v, 2),
    "halton_points.dims": lambda v: halton_points(5, v),
    "halton_points.skip": lambda v: halton_points(5, 2, v),
}

# the settings that are counts, which take an integer (a numpy one too)
_COUNTS = {
    "QuadTolerance.max_evals", "GeometricGrid.count", "uct_scan.u_count",
    "karamata_uct_check.lambda_count", "condition_scan_310.lambda_count",
    "hi_check.sample_count", "guct_diagnose.u_count", "guct_diagnose.sample_count",
    "interval_expand.n", "halton_points.count", "halton_points.dims", "halton_points.skip",
}

_VALUES = st.one_of(
    st.floats(),
    st.integers(-3, 40),
    st.integers(-3, 40).map(np.int64),
    st.integers(0, 40).map(np.int32),
    st.sampled_from([1e300, -1e300, 5e-324, 1.7976931348623157e308]),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.array),  # 0-d
    st.sampled_from([None, "1"]),
)


# the public names that take no setting: the expression language, the
# symbolic inverse, the errors and the result types
_NO_SETTING = {
    "__version__", "Expr", "parse", "evaluate", "eval_array", "differentiate", "fold",
    "format_expr", "variables", "invert_L", "ExprSyntaxError", "EvalError", "DomainError",
    "UnboundVariableError", "PreconditionError", "QuadResult", "OperatorValue",
    "LimitVerdict", "IndexEstimate", "SvReport", "ProfileReport", "ClassCheckReport",
    "ScanReport", "HiReport", "GuctReport", "MultClosureReport", "AsymReport",
}


def test_every_public_function_that_takes_a_setting_is_drawn():
    drawn = {name.partition(".")[0] for name in SETTINGS}
    assert set(karamata_kit.__all__) - _NO_SETTING == drawn - {"halton_points"}


@pytest.mark.parametrize("name", sorted(SETTINGS))
@settings(max_examples=12, deadline=None)
@given(value=_VALUES)
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=0)
@example(value=-1.0)
@example(value=2.5)
@example(value=15.5)
@example(value=np.int64(9))
@example(value=np.int32(2))
@example(value=10**400)
@example(value=-(10**400))
@example(value=np.float64(1e300))
@example(value=np.float64(1.7e308))
@example(value=np.float32(3e38))
@example(value=np.float32(math.nan))
@example(value=np.array(5.0))
@example(value=np.array(-math.inf))
@example(value=None)
@example(value="1")
@example(value=[2.0])
@example(value=np.array([2.0, 3.0]))
def test_a_setting_ends_in_a_result_or_a_documented_error(name, value):
    event(name)
    past_floats = isinstance(value, int) and abs(value) > sys.float_info.max
    real = isinstance(value, (float, np.floating, np.ndarray))
    rejected = (
        value is None
        or isinstance(value, str)
        or np.ndim(value) > 0
        or (real and not math.isfinite(value))
        or (name in _COUNTS and not isinstance(value, numbers.Integral))
        or (name in _COUNTS and value > sys.maxsize)
        or (name not in _COUNTS and past_floats)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning raises
        try:
            SETTINGS[name](value)
        except (PreconditionError, ExprError, ConfigError):
            return
    assert not rejected, f"{name} accepted {value!r}"
