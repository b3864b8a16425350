"""Quadrature engine tests.

Closed-form targets used here:
    int_1^x c/t dt          = c ln x
    int_1^x ln t / t dt     = (ln x)^2 / 2
    int_1^x 1/((1+ln t) t)  = ln(1 + ln x)
    int_1^x sin t / t dt    = Si(x) - Si(1)
The Si values were frozen from an independent scipy.special.sici run.
"""

import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karamata_kit import (
    IntegralCache,
    PreconditionError,
    QuadTolerance,
    apply_L_points,
    eval_array,
    integrate_log,
    parse,
)
from karamata_kit import quad as quad_mod
from karamata_kit.config import ConfigError
from karamata_kit.exprlang import Bin, Const, DomainError

import quad_oracle
from expr_corpus import CORPUS

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
# the truth table: mpmath integrals of the corpus, made by
# tools/make_truth_table.py

_TRUTH = json.loads((Path(__file__).parent / "truth_table.json").read_text())


def _truth_rows(source):
    return [row for row in _TRUTH["entries"] if row["expr"] == source]


def _assert_near_truth(res, row):
    """``res`` lies within its error estimate of the truth, and within the
    default tolerance of it."""
    truth = Decimal(row["value"])
    error = abs(Decimal(res.value) - truth)
    tol_total = max(QuadTolerance().abs_tol, QuadTolerance().rel_tol * abs(float(truth)))
    assert error <= Decimal(res.error_estimate), (row, float(error), res.error_estimate)
    assert error <= Decimal(tol_total), (row, float(error), tol_total)


def test_truth_table_covers_the_corpus():
    assert _TRUTH["mpmath"] == "1.3.0" and _TRUTH["digits"] == 30
    assert [(row["expr"], float(row["x"])) for row in _TRUTH["entries"]] == [
        (source, x) for source, _, hi in CORPUS for x in (hi, 10.0 * hi)
    ]


def test_truth_table_rows_recompute():
    # guards the table against its generator: two rows computed again
    path = Path(__file__).parents[1] / "tools" / "make_truth_table.py"
    spec = importlib.util.spec_from_file_location("make_truth_table", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for source, x in (("1/(1+ln(x))", 200.0), ("sin(x)", 20.0)):
        (row,) = [row for row in _truth_rows(source) if float(row["x"]) == x]
        value, _ = tool.integral(source, x)
        assert tool.mpmath.nstr(value, tool.DPS) == row["value"]


# the entries integrate_log converges on: the table notes the others
_INTEGRABLE = [source for source, _, _ in CORPUS if "library" not in _truth_rows(source)[0]]


@pytest.mark.parametrize("source", [source for source, _, _ in CORPUS])
def test_integrals_lie_within_their_error_estimate_of_the_truth(source):
    for row in _truth_rows(source):
        res = integrate_log(parse(source), float(row["x"]))
        assert res.converged == ("library" not in row), row
        if res.converged:
            _assert_near_truth(res, row)


@pytest.mark.parametrize("source", [
    pytest.param(source, marks=pytest.mark.xfail(
        strict=True, reason="the segment [5, 50] of x^x is off by 2.1 times its error estimate",
    )) if source == "x^x" else source
    for source in _INTEGRABLE
])
def test_sweep_points_lie_within_their_error_estimate_of_the_truth(source):
    # one sweep over both points: the second integrates only [hi, 10 hi]
    rows = _truth_rows(source)
    for point, row in zip(apply_L_points(parse(source), [float(row["x"]) for row in rows]), rows):
        assert point.quad.converged, row
        _assert_near_truth(point.quad, row)


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
        # every budget comparison is false for nan: it would lift the cap
        with pytest.raises(PreconditionError, match="finite"):
            QuadTolerance(max_evals=bad)
    assert QuadTolerance(max_evals=10**400).max_evals == 10**400  # an int past the floats


def test_an_evaluation_budget_must_be_an_integer():
    # 15.5 was accepted
    with pytest.raises(PreconditionError, match=r"^max_evals must be an integer, got 15\.5$"):
        QuadTolerance(max_evals=15.5)
    assert QuadTolerance(max_evals=np.int64(15)).max_evals == 15


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


def test_cache_state_is_not_a_constructor_argument():
    # a nan frontier once integrated nothing and returned 0.0, converged
    for name in ("frontier", "value", "error_estimate", "evaluations", "converged"):
        with pytest.raises(TypeError, match=name):
            IntegralCache(parse("1"), **{name: math.nan})
    cache = IntegralCache(parse("1"))
    assert (cache.frontier, cache.value, cache.error_estimate) == (1.0, 0.0, 0.0)
    assert (cache.evaluations, cache.converged) == (0, True)


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


def test_one_ulp_segment_of_a_huge_integrand_leaks_no_warning():
    # on [4, 4 + 1 ulp] the panel's 200 * err / resasc is so large that its
    # 1.5th power overflows; QUADPACK's min(1, ...) caps it at 1
    cache = IntegralCache(parse("x*1e300"))
    first = cache.extend(4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning would raise
        got = cache.extend(4.000000000000001)
    assert got.converged and got.value == pytest.approx(first.value, rel=1e-12)


def test_an_integral_that_overflows_names_its_segment():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning would raise
        with pytest.raises(PreconditionError, match=r"overflows on the segment \[1.0, 10.0\]$"):
            IntegralCache(parse("1.7e308")).extend(10.0)
        # each segment is finite, their sum is not
        cache = IntegralCache(parse("5e307"))
        cache.extend(10.0)
        with pytest.raises(PreconditionError, match=r"overflows on the segment \[10.0, 100.0\]$"):
            cache.extend(100.0)


def test_a_panel_too_wide_for_its_values_is_split_not_rejected():
    # the first panels of 8e307*sin(t) on [1, 1000] sum past the float range;
    # the integral, about 5e307, does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning would raise
        got = integrate_log(parse("8e307*sin(x)"), 1000.0)
    assert got.converged
    assert got.value == pytest.approx(8e307 * integrate_log(parse("sin(x)"), 1000.0).value, rel=1e-9)


def test_an_overflowing_panel_is_measured_again_within_the_budget():
    # the one panel's weighted sums of 1e308 pass the float range; its
    # integral, 1e308 * ln 1.5, does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning would raise
        got = integrate_log(parse("1e308"), 1.5)
        assert got.converged and got.evaluations == 30
        assert got.value == pytest.approx(1e308 * math.log(1.5), rel=1e-12)
        # a budget of one panel leaves no evaluations for a second measurement
        with pytest.raises(PreconditionError, match="overflows"):
            integrate_log(parse("1e308"), 1.5, QuadTolerance(max_evals=29))


@pytest.mark.parametrize("k", [1, 7, 100, 1000])
def test_a_power_of_two_scales_the_integral_bit_for_bit(k):
    # 2**k * h(t) is exact, so every panel sum and error estimate scales by
    # 2**k and every bisection decision stays the same.  abs_tol does not
    # scale with the integrand, so it is set below every relative share.
    c = 2.0**k
    tol = QuadTolerance(abs_tol=1e-300)
    for text, _, hi in CORPUS:
        h = parse(text)
        base = integrate_log(h, hi, tol)
        got = integrate_log(Bin("*", Const(c), h), hi, tol)
        want = ((c * base.value).hex(), (c * base.error_estimate).hex(), base.evaluations)
        assert (got.value.hex(), got.error_estimate.hex(), got.evaluations) == want, text


def test_cache_with_less_than_one_panel_left_evaluates_nothing():
    cache = IntegralCache(parse("sin(x)"), tol=QuadTolerance(max_evals=20))
    first = cache.extend(1e3)
    assert first.evaluations == 15
    assert not first.converged
    second = cache.extend(1e4)
    # nothing is evaluated, and nothing bounds the error of the skipped segment
    assert second == quad_mod.QuadResult(first.value, math.inf, first.evaluations, False)
    assert cache.frontier == 1e4
    assert cache.extend(1e5) == second


# ---------------------------------------------------------------------------
# the blocked panel rule and the sort-free bisection

def _wave(rng, n, lo=0.0, hi=12.0):
    # n sorted, disjoint panels with gaps, as a refinement wave leaves them
    edges = np.sort(rng.uniform(lo, hi, 2 * n))
    return edges[0::2], edges[1::2]


def _measure(f, lo, hi):
    # the blocked rule on the worker count KARAMATA_KIT_THREADS gives
    return quad_mod._panel_rule(f, lo, hi, quad_mod.thread_count())


def test_panel_rule_does_not_depend_on_block_size(monkeypatch):
    rng = np.random.default_rng(2024)
    n = 3 * quad_mod._BLOCK + 7
    lo, hi = _wave(rng, n)
    h = parse("sin(x) * ln(x) + 1/(1+x)")

    def f(points):
        return eval_array(h, {"x": np.exp(points)})

    resk, err = _measure(f, lo, hi)
    monkeypatch.setattr(quad_mod, "_BLOCK", n + 1)
    ref_resk, ref_err = _measure(f, lo, hi)
    assert np.array_equal(resk, ref_resk)
    assert np.array_equal(err, ref_err)


def _reference_rule(f, lo, hi):
    # the rule as a (panels, 15) array with one numpy row sum per panel;
    # the blocked (15, panels) kernel must reproduce it bit for bit
    width = hi - lo
    half = 0.5 * width
    points = half[:, None] * quad_mod._NODES
    points += (0.5 * (lo + hi))[:, None]
    fx = f(points)
    resk = np.multiply(fx, quad_mod._WEIGHTS_K, out=points).sum(axis=1) * half
    resg = np.multiply(fx, quad_mod._WEIGHTS_G, out=points).sum(axis=1) * half
    np.subtract(fx, (resk / width)[:, None], out=points)
    np.abs(points, out=points)
    points *= quad_mod._WEIGHTS_K
    resasc = points.sum(axis=1) * half
    np.abs(fx, out=points)
    points *= quad_mod._WEIGHTS_K
    resabs = points.sum(axis=1) * half
    err = np.abs(resk - resg)
    measured = resasc > 0.0
    scale = np.where(measured, resasc, 1.0)
    err = np.where(measured, resasc * np.minimum(1.0, (200.0 * err / scale) ** 1.5), err)
    return resk, np.maximum(err, quad_mod._FLOOR * resabs)


def _wave_sizes():
    # 160 and 161 take the row rule inside its range, small and small + 1
    # at its edge.  block + half + 7 ends in a partial block that takes the
    # column rule, 3 * block + 7 in one that takes the row rule
    small, block = quad_mod._SMALL_BLOCK, quad_mod._BLOCK
    half = block // 2
    return [1, 2, 15, 160, 161, small, small + 1, half, half + 1, block, block + 1,
            block + half + 7, 3 * block + 7]


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def _log_integrand(text):
    h = parse(text)
    return lambda points: eval_array(h, {"x": np.exp(points)})


@pytest.mark.parametrize("n", _wave_sizes())
def test_panel_rule_matches_row_sums_bit_for_bit(n):
    for k, (text, lo, hi) in enumerate(CORPUS):
        f = _log_integrand(text)
        a, b = _wave(np.random.default_rng(1000 * n + k), n, math.log(lo), math.log(hi))
        _assert_same_bits(_measure(f, a, b), _reference_rule(f, a, b))


@pytest.mark.parametrize("n", _wave_sizes())
def test_negative_zero_integrand_sums_to_positive_zero(n):
    # numpy's row sum starts from +0.0, so rows of -0.0 sum to +0.0
    def f(points):
        return np.full_like(points, -0.0)

    lo, hi = _wave(np.random.default_rng(n), n)
    resk, err = _measure(f, lo, hi)
    _assert_same_bits((resk, err), _reference_rule(f, lo, hi))
    assert not np.signbit(resk).any()


def _zero_at_gauss_nodes(points):
    # +0.0 or -0.0 at every Gauss node (odd index), sin elsewhere
    fx = np.sin(40.0 * points)
    fx[:, 1::2] = np.copysign(0.0, np.cos(300.0 * points[:, 1::2]))
    return fx


def _antisymmetric(points):
    # f(c - d) = -f(c + d) about each panel's centre c: the weighted sums
    # cancel to round-off or to a signed zero; about a fifth of the panels,
    # picked by their centre, are all zeros
    left = np.sin(40.0 * points[:, :7]) * np.exp(points[:, :7])
    zero = np.sin(1000.0 * points[:, 7]) > 0.6
    left[zero] = np.copysign(0.0, left[zero])
    mid = np.copysign(0.0, np.sin(300.0 * points[:, 7:8]))
    return np.hstack([left, mid, -left[:, ::-1]])


def _zero_at_gauss_nodes_c_ordered(points):
    # the values as a C-ordered (panels, 15) array, which the column rule
    # reads through a strided view
    return np.ascontiguousarray(_zero_at_gauss_nodes(points))


@pytest.mark.parametrize(
    "f", [_zero_at_gauss_nodes, _zero_at_gauss_nodes_c_ordered, _antisymmetric]
)
@pytest.mark.parametrize(
    "n", [1, 161, quad_mod._SMALL_BLOCK + 1, quad_mod._BLOCK, 2 * quad_mod._BLOCK + 1]
)
def test_gauss_sum_of_the_odd_nodes_matches_row_sums(f, n):
    # the column rule adds only the seven nonzero Gauss products; the skipped
    # ones are +-0, which may flip the sign of a zero Gauss value only
    lo, hi = _wave(np.random.default_rng(7 * n), n)
    _assert_same_bits(_measure(f, lo, hi), _reference_rule(f, lo, hi))


def test_column_rule_hands_f_each_panels_nodes_as_a_row():
    n = quad_mod._SMALL_BLOCK + 100
    lo, hi = _wave(np.random.default_rng(17), n)
    seen = []

    def f(points):
        seen.append(points.copy())
        return np.sin(points)

    quad_mod._column_rule(f, lo, hi)
    (points,) = seen
    half = 0.5 * (hi - lo)
    want = half[:, None] * quad_mod._NODES + (0.5 * (lo + hi))[:, None]
    assert points.shape == (n, 15)
    assert np.array_equal(points.view(np.int64), want.view(np.int64))
    assert (np.diff(points, axis=1) > 0.0).all()


@pytest.mark.parametrize("text", ["sin(x)", "sin(x)*ln(x)"])
def test_column_rule_reads_the_cache_integrands_values_node_major(monkeypatch, text):
    # the values IntegralCache's integrand returns for the column rule are
    # the transpose of a C-contiguous (15, panels) array, so every weighted
    # sum reads whole rows
    column_rule = quad_mod._column_rule
    layouts = []

    def spy(f, lo, hi):
        def recorded(points):
            fx = f(points)
            layouts.append(fx.T.flags.c_contiguous and fx.shape == (lo.size, 15))
            return fx

        return column_rule(recorded, lo, hi)

    monkeypatch.setattr(quad_mod, "_column_rule", spy)
    integrate_log(parse(text), 1e5, QuadTolerance(max_evals=5_000_000))
    assert layouts and all(layouts)


@pytest.mark.parametrize("small_block", [1, 160, quad_mod._SMALL_BLOCK, quad_mod._BLOCK])
def test_both_node_sum_branches_agree(monkeypatch, small_block):
    # 1: column ops for every block of two or more panels; _BLOCK: row sums only
    monkeypatch.setattr(quad_mod, "_SMALL_BLOCK", small_block)
    f = _log_integrand("sin(x) * ln(x) + 1/(1+x)")
    for n in (2, 3, 15, 160, 161, 256, 257, 2048, 2049):
        lo, hi = _wave(np.random.default_rng(n), n)
        _assert_same_bits(_measure(f, lo, hi), _reference_rule(f, lo, hi))


@pytest.mark.parametrize("text", ["sin(x)", "cos(3*x) * ln(x)"])
def test_cache_sweep_matches_row_sum_kernel(monkeypatch, text):
    grid = [10.0**k for k in range(1, 6)]

    def sweep():
        cache = IntegralCache(parse(text), tol=QuadTolerance(max_evals=5_000_000))
        return [cache.extend(x) for x in grid]

    got = sweep()
    monkeypatch.setattr(quad_mod, "_rule_block", _reference_rule)
    want = sweep()
    assert got == want
    assert [r.value.hex() for r in got] == [r.value.hex() for r in want]
    assert [r.error_estimate.hex() for r in got] == [r.error_estimate.hex() for r in want]


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


# ---------------------------------------------------------------------------
# the block pool: worker count, bit identity, errors, fork, errstate

@pytest.fixture
def three_cores(monkeypatch):
    # three usable cores, so that KARAMATA_KIT_THREADS=3 really runs three
    monkeypatch.setattr(quad_mod, "_usable_cores", lambda: 3)
    return monkeypatch


@pytest.mark.parametrize(
    "raw, workers",
    [("", 3), ("  ", 3), ("1", 1), ("2", 2), ("3", 3), ("0", 1), ("-4", 1),
     ("1000000", 3), ("9" * 40, 3)],
)
def test_thread_count_is_capped_at_the_usable_cores(three_cores, raw, workers):
    # computed only: no pool is built and no thread is started
    three_cores.setenv("KARAMATA_KIT_THREADS", raw)
    assert quad_mod.thread_count() == workers


def test_thread_count_defaults_to_the_usable_cores(monkeypatch):
    monkeypatch.delenv("KARAMATA_KIT_THREADS", raising=False)
    assert quad_mod.thread_count() == quad_mod._usable_cores() >= 1
    monkeypatch.delattr(quad_mod.os, "sched_getaffinity", raising=False)
    assert quad_mod._usable_cores() == (quad_mod.os.cpu_count() or 1)


@pytest.mark.parametrize("raw", ["many", "2.5", "0x2"])
def test_thread_count_rejects_a_non_integer(monkeypatch, raw):
    monkeypatch.setenv("KARAMATA_KIT_THREADS", raw)
    with pytest.raises(ConfigError, match="KARAMATA_KIT_THREADS must be an integer"):
        quad_mod.thread_count()


def _hexes(results):
    return [(r.value.hex(), r.error_estimate.hex(), r.evaluations, r.converged) for r in results]


def _pooled_runs(monkeypatch, run):
    # run() under 1, 2 and 3 workers, recording the threads that measured blocks
    rule_block = quad_mod._rule_block
    runs = {}
    for workers in (1, 2, 3):
        threads = set()

        def spy(f, lo, hi):
            threads.add(threading.get_ident())
            return rule_block(f, lo, hi)

        monkeypatch.setattr(quad_mod, "_rule_block", spy)
        monkeypatch.setenv("KARAMATA_KIT_THREADS", str(workers))
        runs[workers] = (_hexes(run()), threads)
    return runs


def test_pooled_oscillatory_integral_is_bit_identical(three_cores):
    h = parse("sin(x)")
    tol = QuadTolerance(max_evals=5_000_000)
    runs = _pooled_runs(three_cores, lambda: [integrate_log(h, 1e5, tol)])
    assert runs[1][0] == runs[2][0] == runs[3][0]
    assert runs[1][0][0][2] == 858_315
    main = threading.get_ident()
    assert runs[1][1] == {main}  # serial: every block on the calling thread
    # pooled: the caller measures blocks next to a pool of workers - 1 threads
    assert main in runs[2][1] and main in runs[3][1]
    assert len(runs[3][1] - {main}) >= 2
    assert quad_mod._pools[2]._max_workers == 1
    assert quad_mod._pools[3]._max_workers == 2


@pytest.mark.parametrize("text", ["sin(x)", "cos(3*x) * ln(x)"])
def test_pooled_cache_sweep_is_bit_identical(three_cores, text):
    grid = [10.0**k for k in range(1, 6)]

    def sweep():
        cache = IntegralCache(parse(text), tol=QuadTolerance(max_evals=5_000_000))
        return [cache.extend(x) for x in grid]

    runs = _pooled_runs(three_cores, sweep)
    assert runs[1][0] == runs[2][0] == runs[3][0]
    assert len(runs[3][1]) > 1


@pytest.mark.parametrize(
    "text", ["sin(x)*ln(x)", "sin(x)+x", "x*exp(-x)", "cos(3*x)*ln(x)", "sin(3*x)"]
)
def test_cache_integrand_keeps_the_bits_of_plain_eval_array(three_cores, text):
    # IntegralCache hands its exp(points) buffer to eval_array only when h
    # names x once (the last case); where x occurs twice, computing in that
    # buffer would feed sin(x) to ln(x).  Serial and pooled, every result
    # must equal the quadrature of eval_array on a copy of the points.
    h = parse(text)
    tol = QuadTolerance(max_evals=5_000_000)
    x = 1e5
    plain = quad_mod._adaptive(
        lambda points: eval_array(h, {"x": np.exp(points).copy()}), 0.0, math.log(x), tol,
        tol.max_evals,
    )
    runs = _pooled_runs(three_cores, lambda: [integrate_log(h, x, tol)])
    for workers in (1, 2, 3):
        assert runs[workers][0] == _hexes([plain])
    # x exp(-x) is smooth: its waves never fill two blocks
    assert (len(runs[3][1]) > 1) == (text != "x*exp(-x)")


def test_pooled_wave_raises_the_first_failing_blocks_error(three_cores):
    # block k's panels lie in [k, k + 1); blocks 1 and 3 fail, and block 1
    # fails last in time, yet its error is the one raised, as in serial
    block = quad_mod._BLOCK
    lo = np.arange(4 * block) / block
    hi = lo + 1.0 / block

    def f(points):
        k = int(points[0, 7])  # the middle node is the panel's midpoint
        if k == 1:
            time.sleep(0.1)
            raise DomainError("block 1")
        if k == 3:
            raise DomainError("block 3")
        return np.sin(points)

    for workers in ("1", "2", "3"):
        three_cores.setenv("KARAMATA_KIT_THREADS", workers)
        with pytest.raises(DomainError, match="^block 1$"):
            _measure(f, lo, hi)


def test_pooled_wave_keeps_the_callers_errstate(three_cores):
    # exp(-1000 u) underflows past u ~ 0.75: ignored by numpy's default
    # errstate, raised under errstate(all="raise"), in the workers as well
    lo, hi = _wave(np.random.default_rng(3), 3 * quad_mod._BLOCK)

    def f(points):
        return np.exp(-1000.0 * points)

    h = parse("sin(x)")
    tol = QuadTolerance(max_evals=5_000_000)
    plain, strict = {}, {}
    for workers in ("1", "2", "3"):
        three_cores.setenv("KARAMATA_KIT_THREADS", workers)
        plain[workers] = [a.tobytes() for a in _measure(f, lo, hi)]
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError, match="underflow"):
                _measure(f, lo, hi)
            strict[workers] = _hexes([integrate_log(h, 1e5, tol)])
    assert plain["1"] == plain["2"] == plain["3"]
    assert strict["1"] == strict["2"] == strict["3"]


def test_pooled_waves_from_many_callers_lose_no_block(monkeypatch):
    # more workers than cores, four callers at once, each building the pool
    # if it is not there yet, and a thread switch every few microseconds; a
    # block whose write were lost would leave np.empty garbage in its slice
    monkeypatch.setattr(quad_mod, "_usable_cores", lambda: 8)
    monkeypatch.setenv("KARAMATA_KIT_THREADS", "8")
    f = _log_integrand("sin(x) * ln(x) + 1/(1+x)")
    waves = [_wave(np.random.default_rng(100 + k), 6 * quad_mod._BLOCK + k) for k in range(12)]
    wants = [_reference_rule(f, lo, hi) for lo, hi in waves]
    results, errors = {}, []

    def caller(first):
        try:
            for k in range(first, len(waves), 4):
                results[k] = _measure(f, *waves[k])
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(first,)) for first in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sorted(results) == list(range(12))
    for k, want in enumerate(wants):
        _assert_same_bits(results[k], want)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_finishes_a_pooled_integral(three_cores):
    # the parent's pool has running threads; the child inherits none of them
    three_cores.setenv("KARAMATA_KIT_THREADS", "2")
    h = parse("sin(x)")
    tol = QuadTolerance(max_evals=5_000_000)
    want = repr(_hexes([integrate_log(h, 1e5, tol)])).encode()
    assert 2 in quad_mod._pools
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report the result, then leave at once
        code = 1
        try:
            os.close(read_end)
            os.write(write_end, repr(_hexes([integrate_log(h, 1e5, tol)])).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)
            pytest.fail("the forked child hung on a pooled integral")
        time.sleep(0.02)
    with os.fdopen(read_end, "rb") as pipe:
        got = pipe.read()
    assert os.waitstatus_to_exitcode(status) == 0
    assert got == want


def test_single_block_waves_never_touch_the_pool(three_cores):
    def no_pool(workers):
        raise AssertionError("the pool was used")

    three_cores.setattr(quad_mod, "_pool", no_pool)
    three_cores.setenv("KARAMATA_KIT_THREADS", "3")
    f = _log_integrand("1/(1+ln(x))")
    lo, hi = _wave(np.random.default_rng(5), quad_mod._BLOCK)
    _measure(f, lo, hi)
    assert integrate_log(parse("1/(1+ln(x))"), 1e8).converged
    with pytest.raises(AssertionError, match="pool"):
        _measure(f, *_wave(np.random.default_rng(5), quad_mod._BLOCK + 1))


def test_import_does_not_load_the_pool_module():
    src = os.path.dirname(os.path.dirname(quad_mod.__file__))
    code = "import sys, karamata_kit; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


# ---------------------------------------------------------------------------
# the wave loop: its frozen oracle, its memory, its worker count

def _oracle_outcome(text, x, tol, workers):
    try:
        got = quad_oracle.adaptive(
            _log_integrand(text), 0.0, math.log(x), tol, tol.max_evals, workers
        )
    except Exception as exc:
        return repr(exc)
    return _hexes([got])


def _integral_outcome(text, x, tol):
    try:
        return _hexes([integrate_log(parse(text), x, tol)])
    except Exception as exc:
        return repr(exc)


@pytest.mark.parametrize("workers", [1, 2])
def test_wave_loop_matches_its_frozen_oracle(three_cores, workers):
    three_cores.setenv("KARAMATA_KIT_THREADS", str(workers))
    for text, _, hi in CORPUS:
        for x in (hi, 10.0 * hi):
            want = _oracle_outcome(text, x, QuadTolerance(), workers)
            assert _integral_outcome(text, x, QuadTolerance()) == want, (text, x)
    # the budget runs out inside waves of several blocks
    tol = QuadTolerance(max_evals=2_000_000)
    want = _oracle_outcome("sin(x)", 1e6, tol, workers)
    assert want[0][2:] == (1_265_475, False)
    assert _integral_outcome("sin(x)", 1e6, tol) == want


@pytest.mark.parametrize(
    "text, x, max_evals",
    [("8e307*sin(x)", 1000.0, 1_000_000), ("1e308", 1.5, 1_000_000), ("1e308", 1.5, 29),
     ("1.7e308", 10.0, 3000), ("x*1e300", 4.000000000000001, 1_000_000)],
)
def test_wave_loop_rescues_overflowing_panels_as_its_frozen_oracle(text, x, max_evals):
    # integrals near the float range, whose panels are measured again on
    # h * 2**-4 or split; an integral that overflows is compared before
    # IntegralCache rejects it
    tol = QuadTolerance(max_evals=max_evals)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning would raise
        got = quad_mod._adaptive(_log_integrand(text), 0.0, math.log(x), tol, max_evals)
        want = _oracle_outcome(text, x, tol, quad_mod.thread_count())
    assert _hexes([got]) == want


def test_wave_loop_holds_one_wave_at_a_time(monkeypatch):
    # while a wave is measured only its lo, hi, resk and err are alive, 32
    # bytes a panel, next to one block's work; the tolerance test after it
    # adds a fifth array and a mask
    monkeypatch.setenv("KARAMATA_KIT_THREADS", "1")
    h = parse("sin(x)")
    tol = QuadTolerance(max_evals=50_000_000)
    panel_rule = quad_mod._panel_rule
    waves = []

    def spy(f, lo, hi, workers):
        waves.append(lo.size)
        return panel_rule(f, lo, hi, workers)

    monkeypatch.setattr(quad_mod, "_panel_rule", spy)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        got = integrate_log(h, 1e6, tol)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert got.evaluations == 9_054_825
    assert max(waves) == 150_070
    assert peak <= 40 * max(waves) + 2 * 2**20


def test_a_malformed_thread_count_fails_before_the_first_wave(monkeypatch):
    # read once per integral, before any block: an integral of one-block
    # waves fails as one of pooled waves does, and neither measures a block
    rule_block = quad_mod._rule_block
    blocks = []

    def spy(f, lo, hi):
        blocks.append(lo.size)
        return rule_block(f, lo, hi)

    monkeypatch.setattr(quad_mod, "_rule_block", spy)
    monkeypatch.setenv("KARAMATA_KIT_THREADS", "abc")
    for x in (1e3, 1e6):
        with pytest.raises(ConfigError, match="KARAMATA_KIT_THREADS must be an integer"):
            integrate_log(parse("sin(x)"), x)
    assert blocks == []
