"""Operator tests: fixed points, linearity, the symbolic inverse, grids, and
oracles that need no truth table: identities within the error estimates,
and the symbolic derivative and inverse against sympy."""

import math
import operator
import warnings

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from karamata_kit import (
    GeometricGrid,
    IntegralCache,
    PreconditionError,
    QuadTolerance,
    apply_L,
    apply_L_detailed,
    apply_L_grid,
    apply_L_points,
    classify_limit,
    differentiate,
    evaluate,
    integrate_log,
    invert_L,
    parse,
)
from karamata_kit import karamata, quad
from karamata_kit.exprlang import Bin, Const, Neg, Var

from expr_corpus import CORPUS


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


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 0.5, 1.0 - 5e-9])
def test_every_operator_entry_rejects_a_bad_point_before_integrating(x, monkeypatch):
    # 1 - 5e-9 lies in the near-one band, whose shortcut would return h(1);
    # every quadrature, one segment or a sweep's batch, runs the one wave loop
    calls = []
    monkeypatch.setattr(quad, "_waves", lambda *args: calls.append(args))
    monkeypatch.setattr(karamata, "evaluate", lambda *args: calls.append(args))
    h = parse("sin(x)")
    entries = {
        "integrate_log": lambda: integrate_log(h, x),
        "apply_L": lambda: apply_L(h, x),
        "apply_L_detailed": lambda: apply_L_detailed(h, x),
        "apply_L_points [10, x]": lambda: apply_L_points(h, [10.0, x]),
        "apply_L_points [x]": lambda: apply_L_points(h, [x]),
        "IntegralCache.extend": lambda: IntegralCache(h).extend(x),
    }
    messages = {}
    for name, entry in entries.items():
        with pytest.raises(PreconditionError, match="finite") as exc:
            entry()
        messages[name] = str(exc.value)
    assert len(set(messages.values())) == 1, messages
    assert calls == []


def test_near_one_points_come_before_one_cache_sweep():
    # h(1) at the points of the near-one band, then one sweep of the rest,
    # duplicates and a point one ulp up included, with the results of a
    # cache extended one point at a time
    h = parse("1/(1+ln(x))")
    points = [1.0, 1.000000001, 2.0, 4.0, 4.0, math.nextafter(4.0, 5.0), 1e8]
    cache = IntegralCache(h)
    want = [karamata.OperatorValue(x, 1.0, None) for x in points[:2]]
    for x in points[2:]:
        quad_result = cache.extend(x)
        want.append(karamata.OperatorValue(x, quad_result.value / math.log(x), quad_result))
    assert apply_L_points(h, points) == want


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


# ---------------------------------------------------------------------------
# identities that need no truth table, each bounded by the operator-level
# error estimates (quad error / ln x) of its terms plus a few ulps

IDENTITY_XS = [10.0, 1e3, 1e5]


def _operator(text, x):
    """``(L(h)(x), its error bound)`` for the expression ``text``."""
    v = apply_L_detailed(parse(text), x)
    assert v.quad.converged
    return v.value, v.quad.error_estimate / math.log(x)


def _slack(*terms):
    return 4 * math.ulp(sum(abs(t) for t in terms))


@pytest.mark.parametrize("c", ["7", "-2.5", "pi"])
@pytest.mark.parametrize("x", IDENTITY_XS)
def test_a_constant_is_its_own_average_within_the_estimate(c, x):
    value, bound = _operator(c, x)
    want = evaluate(parse(c), {})
    assert abs(value - want) <= bound + _slack(value, want)


@pytest.mark.parametrize("x", IDENTITY_XS)
def test_linearity_holds_within_the_estimates(x):
    combo, e_combo = _operator("2*sin(x) - 3/(1+ln(x))", x)
    s, e_s = _operator("sin(x)", x)
    g, e_g = _operator("1/(1+ln(x))", x)
    gap = abs(combo - (2 * s - 3 * g))
    assert gap <= e_combo + 2 * e_s + 3 * e_g + _slack(combo, 2 * s, 3 * g)


@pytest.mark.parametrize("h", ["sin(x)", "1/(1+ln(x))"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("x", IDENTITY_XS)
def test_the_substitution_t_equals_s_to_the_k_holds_within_the_estimates(h, k, x):
    # t = s^k turns dt/t into k ds/s and ln x into k ln(x^(1/k)), so
    # L(h)(x) = L(h(s^k))(x^(1/k))
    direct, e_direct = _operator(h, x)
    substituted, e_sub = _operator(h.replace("x", f"(x^{k})"), x ** (1 / k))
    assert abs(direct - substituted) <= e_direct + e_sub + _slack(direct, substituted)


# ---------------------------------------------------------------------------
# differentiate and invert_L against sympy at 40 digits

_SYMPY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": operator.pow}
_SYMPY_FUNCS = {"ln": sympy.log, "exp": sympy.exp, "sin": sympy.sin, "cos": sympy.cos,
                "sqrt": sympy.sqrt, "abs": sympy.Abs, "pow": sympy.Pow}


def _sympy_of(expr, x):
    """``expr`` as a sympy expression in the symbol ``x``, its constants the
    exact values of the floats the evaluator uses."""
    if isinstance(expr, Const):
        return sympy.Rational(expr.value)
    if isinstance(expr, Var):
        return x
    if isinstance(expr, Neg):
        return -_sympy_of(expr.arg, x)
    if isinstance(expr, Bin):
        return _SYMPY_OPS[expr.op](_sympy_of(expr.lhs, x), _sympy_of(expr.rhs, x))
    return _SYMPY_FUNCS[expr.func](*(_sympy_of(arg, x) for arg in expr.args))


@pytest.mark.parametrize("source, lo, hi", CORPUS, ids=[s for s, _, _ in CORPUS])
def test_derivative_and_inverse_match_sympy(source, lo, hi):
    x = sympy.Symbol("x", positive=True)
    tree = parse(source)
    f = _sympy_of(tree, x)
    df = sympy.diff(f, x)
    pairs = [(differentiate(tree, "x"), df), (invert_L(tree), f + x * df * sympy.log(x))]
    for point in np.linspace(lo, hi, 7).tolist():
        for ours, truth in pairs:
            got = evaluate(ours, {"x": point})
            want = float(truth.subs(x, sympy.Rational(point)).evalf(40))
            # a derivative that is 0 to 40 digits (2 sin(x/2)^2 + cos(x) is
            # constant) is the difference of terms of order 1
            scale = abs(want) if abs(want) > 1e-30 else 1.0
            assert abs(got - want) <= 1e-13 * scale, (point, got, want)
