"""Operator tests: fixed points, linearity, the symbolic inverse, grids."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karamata_kit import (
    GeometricGrid,
    PreconditionError,
    QuadTolerance,
    apply_L,
    apply_L_detailed,
    apply_L_grid,
    apply_L_points,
    classify_limit,
    evaluate,
    invert_L,
    parse,
)


# ---------------------------------------------------------------------------
# fixed points and small-x behavior

@pytest.mark.parametrize("c", [-3.0, 0.0, 5.0])
@pytest.mark.parametrize("x", [2.0, 10.0, 1e3, 1e6])
def test_constants_are_fixed_points(c, x):
    assert abs(apply_L(parse(repr(c)), x) - c) <= 1e-12


def test_value_at_one_is_h_of_one():
    v = apply_L_detailed(parse("3 + sin(x)"), 1.0)
    assert v.value == 3.0 + math.sin(1.0)
    assert v.quad is None


def test_near_one_shortcut():
    v = apply_L_detailed(parse("ln(x) + 7"), 1.0 + 1e-9)
    assert v.value == 7.0
    assert v.quad is None


def test_x_below_one_rejected():
    with pytest.raises(PreconditionError):
        apply_L(parse("1"), 0.999)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_x_is_rejected(x):
    h = parse("sin(x)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning would raise
        with pytest.raises(PreconditionError, match="finite"):
            apply_L_detailed(h, x)
        with pytest.raises(PreconditionError, match="finite"):
            apply_L_points(h, [10.0, x])


def test_quad_diagnostics_attached_away_from_one():
    v = apply_L_detailed(parse("ln(x)"), 100.0)
    assert v.quad is not None
    assert v.quad.converged
    assert v.value == pytest.approx(math.log(100.0) / 2.0, rel=1e-10)


# ---------------------------------------------------------------------------
# linearity

@given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(2.0, 1e5))
@settings(max_examples=30, deadline=None)
def test_operator_is_linear(a, b, x):
    combo = parse(f"{a!r}*ln(x) + {b!r}*sin(ln(x))")
    direct = apply_L(combo, x)
    parts = a * apply_L(parse("ln(x)"), x) + b * apply_L(parse("sin(ln(x))"), x)
    assert direct == pytest.approx(parts, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# symbolic inverse

def test_invert_ln_gives_two_ln():
    assert invert_L(parse("ln(x)")) == parse("2.0 * ln(x)")


def test_invert_constant_is_constant():
    assert invert_L(parse("5")) == parse("5")


@pytest.mark.parametrize(
    "f_text",
    ["ln(x)", "ln(x) + 3", "sqrt(ln(x))", "ln(x)/2", "1/(1+ln(x))"],
)
@pytest.mark.parametrize("x", [10.0, 100.0, 1e4])
def test_apply_after_invert_recovers_f(f_text, x):
    f = parse(f_text)
    g = invert_L(f)
    got = apply_L(g, x)
    want = evaluate(f, {"x": x})
    assert got == pytest.approx(want, rel=1e-6)


def test_invert_recovers_identity_preimage():
    # L(t)(x) = (x-1)/ln x, so inverting that expression returns x up to
    # quadrature error when pushed back through the operator.
    f = parse("(x-1)/ln(x)")
    g = invert_L(f)
    for x in (2.0, 10.0, 100.0):
        assert apply_L(g, x) == pytest.approx(evaluate(f, {"x": x}), rel=1e-8)


# ---------------------------------------------------------------------------
# grid sweeps

def test_points_must_be_ascending_and_above_one():
    with pytest.raises(PreconditionError):
        apply_L_points(parse("1"), [10.0, 5.0])
    with pytest.raises(PreconditionError):
        apply_L_points(parse("1"), [0.5, 10.0])


def test_grid_sweep_matches_pointwise_calls():
    h = parse("1/(1+ln(x))")
    grid = GeometricGrid(10.0, 10.0, 6)
    swept = apply_L_grid(h, grid)
    for x, value in swept:
        assert value == pytest.approx(apply_L(h, x), rel=1e-10)


def test_grid_sweep_shares_one_cache():
    h = parse("sin(ln(x))")
    grid = GeometricGrid(10.0, 10.0, 6)
    detailed = apply_L_points(h, list(grid.points()))
    evals = [v.quad.evaluations for v in detailed]
    assert evals == sorted(evals)  # cumulative, one pass
    total_direct = sum(
        apply_L_detailed(h, x).quad.evaluations for x in grid.points()
    )
    assert evals[-1] < total_direct


def test_sweep_budget_is_hard():
    points = [float(x) for x in np.geomspace(10.0, 1e8, 8)]
    detailed = apply_L_points(parse("sin(x)"), points, QuadTolerance(max_evals=3_000))
    last = detailed[-1].quad
    assert last.evaluations <= 3_000
    assert not last.converged


# ---------------------------------------------------------------------------
# structural limit laws, measured numerically

def test_limit_preservation():
    # h -> 2 pointwise, and L(h) must track the same limit
    h = parse("2 + 1/x")
    grid = GeometricGrid(10.0, 10.0, 10)
    h_vals = [evaluate(h, {"x": x}) for x in grid.points()]
    l_vals = [v for _, v in apply_L_grid(h, grid)]
    for seq in (h_vals, l_vals):
        # 1e-2 matches the ratio-scale tolerance: L converges like 1/ln x
        verdict = classify_limit(np.array(seq), tol=1e-2)
        assert verdict.kind == "converges"
        assert abs(verdict.value - 2.0) <= 0.05


def test_boundedness_preserved():
    # h in [1, 3] pointwise implies L(h) in [1, 3] up to quadrature slack
    h = parse("2 + sin(ln(x))")
    for _, value in apply_L_grid(h, GeometricGrid(10.0, 10.0, 8)):
        assert 1.0 - 1e-9 <= value <= 3.0 + 1e-9


def test_monotone_average_lags_increasing_h():
    # for increasing h the running log-average sits below h itself
    h = parse("ln(x)")
    for x in (10.0, 1e3, 1e6):
        assert apply_L(h, x) < evaluate(h, {"x": x})
