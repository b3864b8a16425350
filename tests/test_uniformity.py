"""Scan, hypothesis-inequality, closure, interval and asymptotics tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karamata_kit import (
    GeometricGrid,
    PreconditionError,
    QuadTolerance,
    Region,
    condition_scan_310,
    evaluate,
    guct_diagnose,
    hi_check,
    integral_asym_residual,
    interval_expand,
    karamata_uct_check,
    mult_closure_residual,
    parse,
    uct_scan,
)
from karamata_kit.exprlang import EvalError, eval_array
from karamata_kit.uniformity import halton_points

X_GRID = GeometricGrid(10.0, 10.0, 8)


# ---------------------------------------------------------------------------
# uct_scan

def test_scan_linear_example_sup_is_reciprocal():
    rep = uct_scan(parse("u/x"), (0.0, 1.0), X_GRID)
    assert rep.verdict == "uniform"
    for x, s in zip(rep.xs, rep.suprema):
        assert s == pytest.approx(1.0 / x, rel=1e-12)


def test_scan_zero_function_is_uniform_with_zero_matrix():
    rep = uct_scan(parse("0"), (0.0, 1.0), X_GRID)
    assert rep.verdict == "uniform"
    assert all(r == 0.0 for row in rep.residuals for r in row)
    assert all(s == 0.0 for s in rep.suprema)


def test_scan_peak_chasing_counterexample():
    # sup of x*u*exp(-x*u) is e^-1 at u = 1/x: the peak never flattens, so
    # convergence cannot be uniform; the witness tracks the moving argmax
    rep = uct_scan(parse("x*u*exp(-x*u)"), (1e-3, 1.0), GeometricGrid(2.0, 2.0, 8))
    assert rep.verdict == "not_uniform"
    assert rep.floor == pytest.approx(math.exp(-1.0), abs=1e-3)
    assert rep.witness_param == pytest.approx(1.0 / rep.xs[-1], abs=2e-4)


def test_scan_residuals_are_absolute_values():
    rep_pos = uct_scan(parse("u/x"), (0.0, 1.0), X_GRID)
    rep_neg = uct_scan(parse("-(u/x)"), (0.0, 1.0), X_GRID)
    assert rep_neg.verdict == rep_pos.verdict
    assert rep_neg.residuals == rep_pos.residuals


def test_scan_matrix_shape_and_params():
    rep = uct_scan(parse("u/x"), (0.25, 0.75), X_GRID, u_count=9)
    assert len(rep.residuals) == 8
    assert all(len(row) == 9 for row in rep.residuals)
    assert rep.params[0] == 0.25 and rep.params[-1] == 0.75


def test_scan_few_rows_is_inconclusive():
    rep = uct_scan(parse("u/x"), (0.0, 1.0), GeometricGrid(10.0, 10.0, 4))
    assert rep.verdict == "inconclusive"


def test_scan_validation():
    with pytest.raises(PreconditionError):
        uct_scan(parse("u/x"), (1.0, 0.0), X_GRID)
    with pytest.raises(PreconditionError):
        uct_scan(parse("u/x"), (0.0, 1.0), X_GRID, u_count=8)


def test_scan_reports_offending_x_on_evaluation_error():
    with pytest.raises(EvalError) as exc:
        uct_scan(parse("ln(u - 2)/x"), (0.0, 1.0), X_GRID)
    assert "scan row x" in str(exc.value)
    assert str(exc.value).endswith("(scan row x = 10.0)")
    # the first failing row is named, not the first row or the last one
    for text, x in [("u/(x - 1000)", "1000.0"), ("sqrt(1000 - x)*u", "10000.0"),
                    ("u/(x*u - 50)", "100.0")]:
        with pytest.raises(EvalError) as exc:
            uct_scan(parse(text), (0.0, 1.0), X_GRID)
        assert str(exc.value).endswith(f"(scan row x = {x})")


def test_scan_column_verdicts_cover_every_param():
    rep = uct_scan(parse("u/x"), (0.0, 1.0), X_GRID, u_count=9)
    assert len(rep.column_verdicts) == 9


def _row_by_row(row_fn, xs, params):
    """Reference scan: one x row at a time, refined once at each argmax."""
    rows, suprema, sup_params = [], [], []
    for x in xs:
        row = row_fn(x, params)
        j = int(np.argmax(np.abs(row)))
        sup, arg = float(np.abs(row[j])), float(params[j])
        lo, hi = params[max(j - 1, 0)], params[min(j + 1, params.size - 1)]
        if hi > lo:
            fine = np.linspace(lo, hi, 33)
            fine_row = np.abs(row_fn(x, fine))
            k = int(np.argmax(fine_row))
            if float(fine_row[k]) > sup:
                sup, arg = float(fine_row[k]), float(fine[k])
        rows.append(tuple(float(v) for v in row))
        suprema.append(sup)
        sup_params.append(arg)
    return tuple(rows), tuple(suprema), tuple(sup_params)


def _f_at(expr, x):
    return eval_array(expr, {"x": np.asarray([x])})[0]


@pytest.mark.parametrize(
    "kind, text, window, grid",
    [
        ("uct", "x*u*exp(-x*u)", (1e-3, 1.0), GeometricGrid(2.0, 2.0, 12)),
        ("uct", "sin(x*u)/ln(x)", (-1.0, 2.0), GeometricGrid(3.0, 1.5, 20)),
        # x-only exponents hit 2, 0.5 and -1 exactly, where np.power has a
        # shortcut that the row scan took
        ("uct", "u^x/2^x", (0.5, 1.9), GeometricGrid(2.0, 1.3, 10)),
        ("uct", "(x*u)^(1/x) + u^(x - 3) + pow(x, 4 - x)", (0.5, 1.9), GeometricGrid(2.0, 1.5, 9)),
        ("karamata", "exp(sin(x))", (0.5, 2.0), X_GRID),
        ("karamata", "x^0.5*ln(x)", (1.0, 3.0), GeometricGrid(5.0, 1.7, 15)),
        # F(x) keeps the general pow for exponents that depend on x
        ("karamata", "x^(x/x + 1) + x^(x/x - 2)", (1.0, 2.0), GeometricGrid(3.0, 1.3, 20)),
        ("cond310", "sin(x)/ln(x)", (0.5, 2.0), GeometricGrid(1000.0, 2.0, 33, True)),
        ("cond310", "ln(ln(x))/ln(x)", (0.2, 5.0), GeometricGrid(10.0, 3.0, 9)),
        ("cond310", "x^(x/x + 1)/x^2 + x^(x/x - 2)", (0.5, 2.0), GeometricGrid(3.0, 1.3, 20)),
    ],
)
def test_scan_is_bit_identical_to_row_by_row_reference(kind, text, window, grid):
    expr = parse(text)
    params = np.linspace(window[0], window[1], 33)
    if kind == "uct":
        rep = uct_scan(expr, window, grid)
        row_fn = lambda x, ps: np.abs(eval_array(expr, {"x": x, "u": ps}))  # noqa: E731
    elif kind == "karamata":
        rep = karamata_uct_check(expr, window, grid)
        row_fn = lambda x, ps: np.abs(  # noqa: E731
            eval_array(expr, {"x": ps * x}) / _f_at(expr, x) - 1.0
        )
    else:
        rep = condition_scan_310(expr, window, grid)
        row_fn = lambda x, ps: (  # noqa: E731
            (eval_array(expr, {"x": ps * x}) - _f_at(expr, x)) * math.log(x)
        )
    rows, suprema, sup_params = _row_by_row(row_fn, grid.points(), params)
    assert rep.residuals == rows
    assert rep.suprema == suprema
    assert rep.sup_params == sup_params


# ---------------------------------------------------------------------------
# karamata_uct_check

def test_karamata_scan_of_ln_decays_like_analytic_sup():
    rep = karamata_uct_check(parse("ln(x)"), (1.0, 2.0), GeometricGrid(100.0, 100.0, 4))
    for x, s in zip(rep.xs, rep.suprema):
        assert s == pytest.approx(math.log(2.0) / math.log(x), rel=1e-12)
    assert list(rep.suprema) == sorted(rep.suprema, reverse=True)


def test_karamata_scan_constant_residuals_are_exactly_zero():
    rep = karamata_uct_check(parse("42"), (1.0, 2.0), X_GRID)
    assert rep.verdict == "uniform"
    assert all(r == 0.0 for row in rep.residuals for r in row)


def test_karamata_scan_flags_oscillating_function():
    rep = karamata_uct_check(parse("exp(sin(x))"), (1.0, 2.0), X_GRID)
    assert rep.verdict == "not_uniform"
    assert rep.floor > 0.5


@pytest.mark.parametrize(
    "text, window, grid, error, message",
    [
        ("x - 100", (1.0, 2.0), X_GRID, PreconditionError,
         "F must be positive; failed at x = 10.0"),
        # the window fails at x = 80 before the base value fails at x = 160
        ("150 - x", (0.5, 2.0), GeometricGrid(10.0, 2.0, 8), PreconditionError,
         "F must be positive on the lambda window at x = 80.0"),
        # the base value fails at x = 100 before the window fails at x = 1e4
        ("(x - 100)^2 * (5000 - x)", (0.5, 0.9), X_GRID, PreconditionError,
         "F must be positive; failed at x = 100.0"),
        ("(x - 500)^2", (1.0, 2.0), GeometricGrid(100.0, 2.0, 8), PreconditionError,
         "F must be positive on the lambda window at x = 400.0"),
        ("ln(x - 50)", (0.1, 1.0), GeometricGrid(60.0, 1.5, 8), EvalError,
         "ln of non-positive value in 'ln(x - 50.0)' (scan row x = 60.0)"),
        ("ln(x - 55)", (0.9, 1.0), GeometricGrid(40.0, 1.5, 8), EvalError,
         "ln of non-positive value in 'ln(x - 55.0)' (scan row x = 40.0)"),
    ],
)
def test_karamata_scan_names_the_first_failing_row(text, window, grid, error, message):
    with pytest.raises(error) as exc:
        karamata_uct_check(parse(text), window, grid)
    assert str(exc.value) == message


def test_karamata_scan_requires_positive_f():
    with pytest.raises(PreconditionError):
        karamata_uct_check(parse("sin(x)"), (1.0, 2.0), X_GRID)
    with pytest.raises(PreconditionError):
        karamata_uct_check(parse("ln(x)"), (-1.0, 2.0), X_GRID)


# ---------------------------------------------------------------------------
# condition_scan_310

def test_condition_scan_zero_xi_is_uniform():
    rep = condition_scan_310(parse("0"), (1.0, 2.0), X_GRID)
    assert rep.verdict == "uniform"
    assert all(r == 0.0 for row in rep.residuals for r in row)


def test_condition_scan_keeps_signed_residuals():
    rep = condition_scan_310(parse("1/ln(x)"), (2.0, 4.0), X_GRID)
    # xi decreasing means xi(lam x) - xi(x) < 0: signs must survive
    assert min(min(row) for row in rep.residuals) < 0.0


def test_condition_scan_of_counterexample_exponent():
    # integer x walk and a lambda window starting exactly at pi: since
    # sin(pi n) vanishes, the residual at lambda = pi collapses to -sin(n),
    # which oscillates without shrinking
    rep = condition_scan_310(
        parse("sin(x)/ln(x)"),
        (math.pi, math.pi + 0.3),
        GeometricGrid(1000.0, 2.0, 33, integer_mode=True),
    )
    assert rep.verdict == "not_uniform"
    assert rep.xs[:3] == (1000.0, 1001.0, 1002.0)
    for i, n in enumerate(rep.xs):
        assert rep.residuals[i][0] == pytest.approx(-math.sin(n), abs=1e-6)
    assert rep.column_verdicts[0].kind == "oscillates"


def test_condition_scan_flat_exponent_is_uniform():
    rep = condition_scan_310(
        parse("1/ln(x)"), (1.0, 2.0), GeometricGrid(1e4, 1e4, 11)
    )
    assert rep.verdict == "uniform"


# ---------------------------------------------------------------------------
# hi_check

def test_halton_points_are_deterministic_and_in_unit_cube():
    a = halton_points(100, 3)
    b = halton_points(100, 3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (100, 3)
    assert np.all((a > 0.0) & (a < 1.0))


def _halton_reference(count, dims, skip):
    # the scalar radical-inverse loop, one index at a time
    bases = (2, 3, 5, 7, 11, 13)[:dims]
    out = np.empty((count, dims))
    for d, base in enumerate(bases):
        for i in range(count):
            n = i + 1 + skip
            value, f = 0.0, 1.0
            while n > 0:
                f /= base
                n, digit = divmod(n, base)
                value += digit * f
            out[i, d] = value
    return out


@pytest.mark.parametrize("skip", [0, 20, 999, 10**9])
@pytest.mark.parametrize("count", [0, 1, 7, 10_000])
def test_halton_points_match_the_scalar_loop_bit_for_bit(count, skip):
    got = halton_points(count, 6, skip=skip)
    want = _halton_reference(count, 6, skip)
    assert got.shape == want.shape == (count, 6)
    assert got.tobytes() == want.tobytes()
    for dims in range(1, 6):
        assert halton_points(count, dims, skip=skip).tobytes() == want[:, :dims].tobytes()


@pytest.mark.parametrize(
    "count, dims, skip",
    [(5, 0, 20), (5, 7, 20), (5, -1, 20), (-1, 3, 20), (5, 3, -1), (5, 3, 2**63)],
)
def test_halton_points_reject_bad_arguments(count, dims, skip):
    with pytest.raises(PreconditionError):
        halton_points(count, dims, skip=skip)


def test_hi_holds_for_log_increment():
    rep = hi_check(
        parse("abs(ln(x+u) - ln(x))"),
        1000,
        Region(x=(1.0, 100.0), u=(0.0, 1.0), v=(0.0, 1.0)),
    )
    assert rep.ok
    assert rep.violations == ()
    assert rep.samples == 1000


def test_hi_holds_trivially_for_zero():
    rep = hi_check(parse("0"), 500, Region(x=(1.0, 10.0), u=(0.0, 1.0), v=(0.0, 1.0)))
    assert rep.ok


def test_hi_violations_record_both_sides():
    rep = hi_check(
        parse("exp(-u)"), 1000, Region(x=(1.0, 10.0), u=(0.0, 1.0), v=(0.0, 1.0))
    )
    assert not rep.ok
    assert len(rep.violations) > 0
    for v in rep.violations:
        assert v.lhs > v.rhs
    # analytic worst case: H(x,0)=1 against 2/e when u=0, v=1
    assert rep.max_margin <= 1.0 - 2.0 / math.e + 1e-9
    assert rep.max_margin > 0.2


def test_hi_violation_matches_manual_evaluation():
    h = parse("exp(-u)")
    lhs = evaluate(h, {"x": 5.0, "u": 0.0, "v": 1.0})
    rhs = evaluate(h, {"x": 5.0, "u": 1.0, "v": 1.0}) + evaluate(
        h, {"x": 5.0, "u": 1.0, "v": 1.0}
    )
    assert lhs == 1.0
    assert rhs == pytest.approx(2.0 / math.e, rel=1e-12)
    assert lhs > rhs


def test_region_validation():
    with pytest.raises(PreconditionError):
        Region(x=(2.0, 1.0), u=(0.0, 1.0), v=(0.0, 1.0))
    with pytest.raises(PreconditionError):
        hi_check(parse("0"), 0, Region(x=(1.0, 2.0), u=(0.0, 1.0), v=(0.0, 1.0)))


# ---------------------------------------------------------------------------
# guct_diagnose

def test_guct_all_hypotheses_hold_for_log_increment():
    rep = guct_diagnose(
        parse("abs(ln(x+u) - ln(x))"), parse("1"), (0.0, 1.0), X_GRID
    )
    assert rep.hi.ok
    assert rep.monotone_ok
    assert rep.pointwise_ok
    assert rep.hypotheses_ok
    assert rep.scan.verdict == "uniform"
    for x, s in zip(rep.scan.xs, rep.scan.suprema):
        assert s == pytest.approx(math.log1p(1.0 / x), abs=1e-9)


def test_guct_flags_decreasing_m():
    rep = guct_diagnose(
        parse("abs(ln(x+u) - ln(x))"), parse("1/x"), (0.0, 1.0), X_GRID
    )
    assert not rep.monotone_ok
    assert not rep.hypotheses_ok
    assert "decreases" in rep.monotone_detail


def test_guct_nondecreasing_m_passes_monotone_check():
    rep = guct_diagnose(
        parse("abs(ln(x+u) - ln(x))"), parse("ln(x)"), (0.0, 1.0), X_GRID
    )
    assert rep.monotone_ok


# ---------------------------------------------------------------------------
# multiplicative closure

def test_closure_identity_is_exact_to_a_few_ulps():
    rep = mult_closure_residual(parse("ln(ln(x))"), 2.0, 3.0, X_GRID)
    assert rep.identity_ok
    assert rep.max_ulp_deviation <= 4.0


def test_closure_columns_converge_to_log_lambda():
    # (f(lam x) - f(x)) ln x -> ln lam for f = ln ln x, and the three
    # columns must agree with ln 2, ln 3, ln 6 on a deep grid
    rep = mult_closure_residual(
        parse("ln(ln(x))"), 2.0, 3.0, GeometricGrid(1e4, 1e4, 11)
    )
    targets = (math.log(2.0), math.log(3.0), math.log(6.0))
    for verdict, target in zip(rep.verdicts, targets):
        assert verdict.kind == "converges"
        assert abs(verdict.value - target) <= 0.05


def test_closure_constant_function_gives_zero_columns():
    rep = mult_closure_residual(parse("5"), 2.0, 3.0, X_GRID)
    assert rep.identity_ok
    assert all(v == 0.0 for v in rep.step_lam)
    assert all(v == 0.0 for v in rep.combined)


def test_closure_rejects_nonpositive_factors():
    with pytest.raises(PreconditionError):
        mult_closure_residual(parse("ln(x)"), -2.0, 3.0, X_GRID)
    with pytest.raises(PreconditionError):
        mult_closure_residual(parse("ln(x)"), 2.0, 0.0, X_GRID)


# ---------------------------------------------------------------------------
# interval_expand

def test_expand_zero_steps_is_identity():
    assert interval_expand(2.0, 4.0, 0) == (2.0, 4.0)


def test_expand_single_step():
    assert interval_expand(2.0, 4.0, 1) == (0.5, 2.0)


def test_expand_dyadic_is_exact():
    for n in range(21):
        lo, hi = interval_expand(2.0, 4.0, n) if n else (2.0, 4.0)
        if n:
            assert lo == 2.0**-n
            assert hi == 2.0**n


def test_expand_rejects_overflow():
    with pytest.raises(PreconditionError, match="overflow"):
        interval_expand(1.0, 2.0, 2000)
    with pytest.raises(PreconditionError, match="overflow"):
        interval_expand(1e-300, 1e300, 1)
    assert interval_expand(1.0, 2.0, 1023) == (2.0**-1023, 2.0**1023)


def test_expand_validation():
    with pytest.raises(PreconditionError):
        interval_expand(0.0, 2.0, 1)
    with pytest.raises(PreconditionError):
        interval_expand(3.0, 2.0, 1)
    with pytest.raises(PreconditionError):
        interval_expand(2.0, 4.0, -1)


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1.0 + 1e-6, max_value=1e3),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=100)
def test_expand_nests_and_centers_on_one(a, ratio, n):
    b = a * ratio
    lo, hi = interval_expand(a, b, n)
    lo2, hi2 = interval_expand(a, b, n + 1)
    assert lo2 <= lo and hi <= hi2  # growing n widens the window
    assert lo * hi == pytest.approx(1.0, rel=1e-9)  # geometric center at 1
    assert lo < 1.0 < hi


# ---------------------------------------------------------------------------
# integral_asym_residual

def test_asym_constant_integrand_closed_form():
    # for h = c the residual is (ln lam)^2 c / (ln lam + ln x) exactly
    lam = 2.0
    rep = integral_asym_residual(
        parse("3"), lam, GeometricGrid(math.exp(9.0), math.e, 8), bound=3.0
    )
    for row in rep.rows:
        want = math.log(lam) ** 2 * 3.0 / (math.log(lam) + math.log(row.x))
        assert row.residual == pytest.approx(want, abs=1e-9)
    assert rep.residual_verdict.kind == "converges"


def test_asym_zero_integrand_degenerates_cleanly():
    rep = integral_asym_residual(
        parse("0"), 2.0, GeometricGrid(math.exp(9.0), math.e, 8), bound=1.0
    )
    assert all(row.residual == 0.0 for row in rep.rows)
    assert rep.residual_verdict.kind == "converges"
    assert not rep.bound_ok  # h is not positive, reported but not fatal


def test_asym_bounded_oscillation():
    rep = integral_asym_residual(
        parse("1 + 0.5*sin(x)"),
        math.e,
        GeometricGrid(math.exp(2.0), math.e, 10),
        bound=1.5,
        tol=QuadTolerance(max_evals=20_000_000),
    )
    assert rep.bound_ok
    assert rep.quad_converged
    assert rep.residual_verdict.kind == "converges"
    assert rep.lcond_verdict.kind == "converges"
    residuals = [row.residual for row in rep.rows]
    assert residuals == sorted(residuals, reverse=True)


def test_asym_validation():
    grid = GeometricGrid(math.exp(2.0), math.e, 8)
    with pytest.raises(PreconditionError):
        integral_asym_residual(parse("1"), 1.0, grid, bound=1.0)
    with pytest.raises(PreconditionError):
        integral_asym_residual(parse("1"), 2.0, grid, bound=0.0)
