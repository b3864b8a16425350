"""Quadrature engine tests.

Closed-form targets used here:
    int_1^x c/t dt          = c ln x
    int_1^x ln t / t dt     = (ln x)^2 / 2
    int_1^x 1/((1+ln t) t)  = ln(1 + ln x)
    int_1^x sin t / t dt    = Si(x) - Si(1)
The Si values were frozen from an independent scipy.special.sici run.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karamata_kit import (
    IntegralCache,
    PreconditionError,
    QuadTolerance,
    eval_array,
    integrate_log,
    parse,
)
from karamata_kit import quad as quad_mod

SI_1 = 0.9460830703671831
SI_1E6 = 1.570795390043119


# ---------------------------------------------------------------------------
# the raw Gauss/Kronrod pair

def _apply_rule(weights, degree):
    # integrate t^degree over [0, 1] with the rule mapped from [-1, 1]
    t = 0.5 + 0.5 * quad_mod._NODES
    return float((t**degree * weights).sum() * 0.5)


@pytest.mark.parametrize("degree", range(0, 14))
def test_gauss7_exact_through_degree_13(degree):
    exact = 1.0 / (degree + 1)
    assert _apply_rule(quad_mod._WEIGHTS_G, degree) == pytest.approx(exact, rel=5e-15)


def test_gauss7_not_exact_at_degree_14():
    exact = 1.0 / 15.0
    err = abs(_apply_rule(quad_mod._WEIGHTS_G, 14) - exact) / exact
    assert err > 1e-9


@pytest.mark.parametrize("degree", range(0, 24))
def test_kronrod15_exact_through_degree_23(degree):
    exact = 1.0 / (degree + 1)
    assert _apply_rule(quad_mod._WEIGHTS_K, degree) == pytest.approx(exact, rel=5e-15)


def test_kronrod15_not_exact_at_degree_25():
    exact = 1.0 / 26.0
    err = abs(_apply_rule(quad_mod._WEIGHTS_K, 25) - exact) / exact
    assert err > 1e-14


def test_gauss_nodes_are_odd_kronrod_nodes():
    gauss = quad_mod._NODES[quad_mod._WEIGHTS_G != 0.0]
    assert gauss.size == 7


# ---------------------------------------------------------------------------
# integrate_log against closed forms

@pytest.mark.parametrize("c", [-3.0, 1.0, 5.0])
@pytest.mark.parametrize("x", [2.0, 10.0, 1e4, 1e9])
def test_constant_integrand_gives_c_ln_x(c, x):
    res = integrate_log(parse(repr(c)), x)
    assert res.converged
    assert res.value == pytest.approx(c * math.log(x), rel=1e-12)


@pytest.mark.parametrize("x", [10.0, 1e4, 1e8])
def test_ln_integrand_gives_half_log_squared(x):
    res = integrate_log(parse("ln(x)"), x)
    assert res.converged
    assert res.value == pytest.approx(math.log(x) ** 2 / 2.0, rel=1e-10)


@pytest.mark.parametrize("x", [10.0, 1e4, 1e8])
def test_shifted_reciprocal_log_integrand(x):
    res = integrate_log(parse("1/(1+ln(x))"), x)
    assert res.converged
    assert res.value == pytest.approx(math.log1p(math.log(x)), rel=1e-10)


def test_oscillatory_integrand_matches_sine_integral_oracle():
    res = integrate_log(parse("sin(x)"), 1e6, QuadTolerance(max_evals=50_000_000))
    assert res.converged
    assert res.value == pytest.approx(SI_1E6 - SI_1, abs=1e-9)
    # perfbench/README.md quotes this count for `apply-l "sin(x)" --x 1e6`
    assert res.evaluations == 9_054_825


@given(
    st.floats(-4.0, 4.0),
    st.floats(-4.0, 4.0),
    st.floats(-4.0, 4.0),
    st.floats(2.0, 1e6),
)
@settings(max_examples=40, deadline=None)
def test_polynomials_in_ln_t_integrate_exactly(c0, c1, c2, x):
    h = parse(f"{c0!r} + {c1!r}*ln(x) + {c2!r}*ln(x)^2")
    L = math.log(x)
    exact = c0 * L + c1 * L**2 / 2.0 + c2 * L**3 / 3.0
    res = integrate_log(h, x)
    assert res.converged
    assert res.value == pytest.approx(exact, rel=1e-9, abs=1e-9)


def test_error_estimate_brackets_true_error():
    for x in (10.0, 1e4, 1e8):
        res = integrate_log(parse("ln(x)"), x)
        true_err = abs(res.value - math.log(x) ** 2 / 2.0)
        assert true_err <= max(res.error_estimate, 1e-13)


# ---------------------------------------------------------------------------
# boundary and precondition behavior

def test_x_equal_one_is_zero_with_no_evaluations():
    res = integrate_log(parse("sin(x)"), 1.0)
    assert res == quad_mod.QuadResult(0.0, 0.0, 0, True)


def test_x_below_one_rejected():
    with pytest.raises(PreconditionError):
        integrate_log(parse("1"), 0.5)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_x_is_rejected(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning would raise
        with pytest.raises(PreconditionError, match="finite"):
            integrate_log(parse("sin(x)"), x)


def test_tolerance_validation():
    with pytest.raises(PreconditionError):
        QuadTolerance(abs_tol=0.0)
    with pytest.raises(PreconditionError):
        QuadTolerance(rel_tol=-1.0)
    with pytest.raises(PreconditionError):
        QuadTolerance(max_evals=10)
    for bad in (math.nan, math.inf):
        with pytest.raises(PreconditionError):
            QuadTolerance(abs_tol=bad)
        with pytest.raises(PreconditionError):
            QuadTolerance(rel_tol=bad)


def test_budget_exhaustion_reports_honestly():
    res = integrate_log(parse("sin(x)"), 1e6, QuadTolerance(max_evals=3_000))
    assert not res.converged
    assert res.evaluations <= 3_000
    assert math.isfinite(res.value)
    assert res.error_estimate > 0.0


def test_budget_counts_evaluations():
    res = integrate_log(parse("ln(x)"), 100.0)
    assert res.evaluations % 15 == 0
    assert res.evaluations >= 15


# ---------------------------------------------------------------------------
# incremental cache

def test_cache_additivity_matches_direct_integration():
    h = parse("ln(x)")
    cache = IntegralCache(h)
    part = cache.extend(100.0)
    assert part.value == pytest.approx(math.log(100.0) ** 2 / 2.0, rel=1e-10)
    full = cache.extend(1e6)
    direct = integrate_log(h, 1e6)
    tol = full.error_estimate + direct.error_estimate + 1e-12
    assert abs(full.value - direct.value) <= tol


def test_cache_extend_is_idempotent_at_frontier():
    cache = IntegralCache(parse("1"))
    first = cache.extend(50.0)
    again = cache.extend(50.0)
    assert again == first


def test_cache_rejects_backward_motion():
    cache = IntegralCache(parse("1"))
    cache.extend(10.0)
    with pytest.raises(PreconditionError):
        cache.extend(5.0)


def test_cache_accumulates_evaluation_counts():
    cache = IntegralCache(parse("sin(ln(x))"))
    a = cache.extend(100.0)
    b = cache.extend(1e4)
    assert b.evaluations >= a.evaluations
    assert b.converged


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_cache_rejects_non_finite_x(x):
    cache = IntegralCache(parse("1"))
    cache.extend(10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning would raise
        with pytest.raises(PreconditionError, match="finite"):
            cache.extend(x)
    assert cache.frontier == 10.0


def test_cache_with_less_than_one_panel_left_evaluates_nothing():
    cache = IntegralCache(parse("sin(x)"), tol=QuadTolerance(max_evals=20))
    first = cache.extend(1e3)
    assert first.evaluations == 15
    assert not first.converged
    second = cache.extend(1e4)
    assert second == first
    assert cache.frontier == 1e4


# ---------------------------------------------------------------------------
# the blocked panel rule and the sort-free bisection

def _wave(rng, n, lo=0.0, hi=12.0):
    # n sorted, disjoint panels with gaps, as a refinement wave leaves them
    edges = np.sort(rng.uniform(lo, hi, 2 * n))
    return edges[0::2], edges[1::2]


def test_panel_rule_does_not_depend_on_block_size(monkeypatch):
    rng = np.random.default_rng(2024)
    n = 3 * quad_mod._BLOCK + 7
    lo, hi = _wave(rng, n)
    h = parse("sin(x) * ln(x) + 1/(1+x)")

    def f(points):
        return eval_array(h, {"x": np.exp(points)})

    resk, err = quad_mod._panel_rule(f, lo, hi)
    monkeypatch.setattr(quad_mod, "_BLOCK", n + 1)
    ref_resk, ref_err = quad_mod._panel_rule(f, lo, hi)
    assert np.array_equal(resk, ref_resk)
    assert np.array_equal(err, ref_err)


def _sorted_children(lo, hi):
    # children ordered by a stable sort of their left ends
    mid = 0.5 * (lo + hi)
    lo2 = np.concatenate([lo, mid])
    hi2 = np.concatenate([mid, hi])
    order = np.argsort(lo2, kind="stable")
    return lo2[order], hi2[order]


@pytest.mark.parametrize("n", [1, 2, 9, 1000])
def test_bisect_matches_stable_sort_of_children(n):
    lo, hi = _wave(np.random.default_rng(n), n)
    got_lo, got_hi = quad_mod._bisect(lo, hi)
    ref_lo, ref_hi = _sorted_children(lo, hi)
    assert np.array_equal(got_lo, ref_lo)
    assert np.array_equal(got_hi, ref_hi)


def test_bisect_keeps_sorted_order_for_ulp_wide_panels():
    # [1+u, 1+2u] halves to a midpoint equal to the next panel's left end
    edges = 1.0 + np.array([0.0, 1.0, 2.0, 6.0]) * 2.0**-52
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    ref_lo, ref_hi = _sorted_children(lo, hi)
    assert not np.array_equal(np.ravel(np.column_stack([mid, hi])), ref_hi)
    got_lo, got_hi = quad_mod._bisect(lo, hi)
    assert np.array_equal(got_lo, ref_lo)
    assert np.array_equal(got_hi, ref_hi)
