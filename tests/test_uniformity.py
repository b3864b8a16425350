"""Scan, hypothesis-inequality, closure, interval and asymptotics tests."""

import concurrent.futures
import copy
import dataclasses
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karamata_kit import (
    GeometricGrid,
    LimitVerdict,
    PreconditionError,
    QuadTolerance,
    Region,
    ScanReport,
    classify_rows,
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
from karamata_kit import asymptotics, uniformity
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
# a scan computes in place only in arrays it made itself

_ROW_FNS = {
    "uct": lambda expr: lambda x, ps: np.abs(eval_array(expr, {"x": x, "u": ps})),
    "karamata": lambda expr: lambda x, ps: np.abs(
        eval_array(expr, {"x": ps * x}) / _f_at(expr, x) - 1.0
    ),
    "cond310": lambda expr: lambda x, ps: (
        (eval_array(expr, {"x": ps * x}) - _f_at(expr, x)) * math.log(x)
    ),
}
_SCANNERS = {"uct": uct_scan, "karamata": karamata_uct_check, "cond310": condition_scan_310}


@pytest.fixture
def env_arrays(monkeypatch):
    """Every array the scans hand to ``eval_array``, except the one handed
    over as ``owned``, with a copy taken at the call."""
    seen = []

    def spy(expr, env, owned=None):
        seen.extend(
            (value, value.copy())
            for name, value in env.items()
            if name != owned and isinstance(value, np.ndarray)
        )
        return eval_array(expr, env, owned)

    monkeypatch.setattr(uniformity, "eval_array", spy)
    monkeypatch.setattr(asymptotics, "eval_array", spy)
    return seen


def _unchanged(seen):
    assert seen
    for value, before in seen:
        assert value.tobytes() == before.tobytes()


@pytest.mark.parametrize(
    "kind, text, window, grid",
    [
        # eval_array returns the refinement's (n, 33) parameter matrix
        # itself, whose negative entries an in-place abs would flip
        ("uct", "u", (-1.0, 0.5), GeometricGrid(2.0, 1.5, 12)),
        ("uct", "x", (-1.0, 0.5), GeometricGrid(2.0, 1.5, 12)),
        # x read more than once: the product lam * x is not handed over
        ("karamata", "x^(x/x + 1) + x^(x/x - 2)", (1.0, 2.0), GeometricGrid(3.0, 1.3, 20)),
        ("cond310", "x^(x/x + 1)/x^2 + x^(x/x - 2)", (0.5, 2.0), GeometricGrid(3.0, 1.3, 20)),
        # x read once: F is computed in the product, or is the product
        ("karamata", "ln(x)", (1.0, 3.0), GeometricGrid(5.0, 1.7, 15)),
        ("karamata", "x", (0.5, 2.0), X_GRID),
        ("cond310", "sin(x)/ln(x)", (0.5, 2.0), GeometricGrid(1000.0, 2.0, 33, True)),
        ("cond310", "x", (0.5, 2.0), X_GRID),
    ],
)
def test_a_scan_writes_into_no_array_it_did_not_make(env_arrays, kind, text, window, grid):
    expr = parse(text)
    rep = _SCANNERS[kind](expr, window, grid)
    _unchanged(env_arrays)
    params = np.linspace(window[0], window[1], 33)
    assert rep.xs == tuple(grid.points()) and rep.params == tuple(params.tolist())
    rows, suprema, sup_params = _row_by_row(_ROW_FNS[kind](expr), grid.points(), params)
    assert rep.residuals == rows
    assert rep.suprema == suprema
    assert rep.sup_params == sup_params


@pytest.mark.parametrize("text", ["u", "x", "x + u", "abs(ln(x+u) - ln(x))"])
def test_hi_check_writes_into_no_array_it_did_not_make(env_arrays, text):
    region = Region(x=(2.0, 50.0), u=(0.0, 1.0), v=(0.0, 1.0))
    hi_check(parse(text), 300, region)
    _unchanged(env_arrays)


def test_guct_writes_into_no_array_it_did_not_make(env_arrays):
    guct_diagnose(parse("abs(ln(x+u) - ln(x))"), parse("x"), (0.5, 2.0), X_GRID, sample_count=50)
    _unchanged(env_arrays)


def _transient_peak(call) -> int:
    """The ``tracemalloc`` peak, in bytes, of a second ``call()``: the first
    one parses and fills every cache."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "call",
    [
        lambda: karamata_uct_check(parse("ln(x)"), (1.0, 3.0), GeometricGrid(20.0, 1.05, 300), 257),
        lambda: condition_scan_310(
            parse("0.75/ln(x)"), (1.0, 3.0), GeometricGrid(20.0, 1.05, 300), 257
        ),
    ],
    ids=["karamata", "cond310"],
)
def test_a_wide_scan_holds_few_matrices_at_once(call):
    # one 300 x 257 matrix is 617 KB.  A scan whose steps each made a new
    # matrix peaked at 3.92 MB; computing in its own arrays, at 2.73 MB
    assert _transient_peak(call) <= 2_750_000


# ---------------------------------------------------------------------------
# residuals and column verdicts, built on their first read

_LAZY = ("residuals", "column_verdicts")
_CHEAP = ("verdict", "suprema", "sup_params", "suprema_verdict", "xs", "params")

_SCANS = {
    "uct": lambda: uct_scan(parse("x*u*exp(-x*u)"), (1e-3, 1.0), GeometricGrid(2.0, 1.5, 20)),
    "karamata": lambda: karamata_uct_check(
        parse("exp(sin(x))"), (0.5, 2.0), GeometricGrid(5.0, 1.7, 15), lambda_count=40
    ),
    "cond310": lambda: condition_scan_310(
        parse("ln(ln(x))/ln(x)"), (0.2, 5.0), GeometricGrid(10.0, 3.0, 9)
    ),
    "cond310_integer": lambda: condition_scan_310(
        parse("sin(x)/ln(x)"), (0.5, 2.0), GeometricGrid(1000.0, 2.0, 33), integer_mode=True
    ),
    "guct": lambda: guct_diagnose(
        parse("abs(ln(x+u) - ln(x))"), parse("1"), (0.5, 2.0), X_GRID, sample_count=50
    ).scan,
}


@pytest.mark.parametrize("kind", sorted(_SCANS))
def test_lazy_fields_are_what_an_eager_scan_built(kind):
    rep = _SCANS[kind]()
    matrix = vars(rep)["residuals"].args[0]
    assert not matrix.flags.writeable
    eager = classify_rows(np.vstack((matrix.T, rep.suprema)), 1e-2)
    assert rep.residuals == tuple(map(tuple, matrix.tolist()))
    assert [repr(v) for v in rep.column_verdicts] == [repr(v) for v in eager[:-1]]
    assert repr(rep.suprema_verdict) == repr(eager[-1])


@pytest.fixture
def builds(monkeypatch):
    """Counts of what the builders made: residual tuples and verdicts."""
    counts = {"residuals": 0, "verdicts": 0}
    tuples, verdicts = uniformity._tuples, asymptotics._row_verdicts

    def counted_tuples(rows):
        counts["residuals"] += 1
        return tuples(rows)

    def counted_verdicts(*args):
        built = verdicts(*args)
        counts["verdicts"] += len(built)
        return built

    monkeypatch.setattr(uniformity, "_tuples", counted_tuples)
    monkeypatch.setattr(uniformity, "_row_verdicts", counted_verdicts)
    monkeypatch.setattr(asymptotics, "_row_verdicts", counted_verdicts)
    return counts


@pytest.mark.parametrize("kind", ["uct", "karamata", "cond310", "cond310_integer"])
def test_reading_the_suprema_builds_no_residual_tuple_or_column_verdict(kind, builds):
    rep = _SCANS[kind]()
    for name in _CHEAP:
        getattr(rep, name)
    # the suprema verdict alone, and nothing stored for the lazy fields yet
    assert builds == {"residuals": 0, "verdicts": 1}
    assert not any(isinstance(vars(rep)[name], tuple) for name in _LAZY)

    residuals, columns = rep.residuals, rep.column_verdicts
    assert builds == {"residuals": 1, "verdicts": 1 + len(rep.params)}
    assert len(residuals) == len(rep.xs) and len(columns) == len(rep.params)
    # kept: a second read builds nothing
    assert rep.residuals is residuals and rep.column_verdicts is columns
    assert builds == {"residuals": 1, "verdicts": 1 + len(rep.params)}


def test_a_scan_of_few_rows_keeps_no_column_verdicts(builds):
    rep = uct_scan(parse("u/x"), (0.0, 1.0), GeometricGrid(10.0, 10.0, 4))
    assert vars(rep)["column_verdicts"] is None
    assert rep.column_verdicts is None and rep.suprema_verdict is None
    assert builds["verdicts"] == 0


def _same_report(a, b):
    assert a == b and repr(a) == repr(b) and hash(a) == hash(b)


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("how", ["pickle", "deepcopy", "replace"])
def test_a_scan_report_pickles_and_copies_with_its_lazy_fields(how, read_first):
    copy_of = {
        "pickle": lambda rep: pickle.loads(pickle.dumps(rep)),
        "deepcopy": copy.deepcopy,
        "replace": dataclasses.replace,
    }[how]
    reference = _SCANS["karamata"]()
    rep = _SCANS["karamata"]()
    if read_first:
        repr(rep)
    twin = copy_of(rep)
    _same_report(twin, reference)
    _same_report(rep, reference)


def test_a_hand_built_scan_report_keeps_what_it_was_given():
    rows, verdicts = [[0.5, 0.25]], (LimitVerdict(kind="inconclusive"),)
    rep = ScanReport(
        xs=(10.0,), params=(1.0, 2.0), residuals=rows, suprema=(0.5,), sup_params=(1.0,),
        verdict="inconclusive", witness_param=None, floor=None, suprema_verdict=None,
        column_verdicts=verdicts,
    )
    assert rep.residuals is rows and rep.column_verdicts is verdicts
    empty = dataclasses.replace(rep, residuals=None, column_verdicts=None)
    assert empty.residuals is None and empty.column_verdicts is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.residuals = ()
    assert [f.name for f in dataclasses.fields(ScanReport)] == [
        "xs", "params", "residuals", "suprema", "sup_params", "verdict", "witness_param",
        "floor", "suprema_verdict", "column_verdicts", "note",
    ]


def _read_at_once(barrier, rep, name):
    barrier.wait()
    return getattr(rep, name)


def test_threads_reading_a_lazy_field_at_once_get_the_same_tuple():
    reference = _SCANS["uct"]()
    threads = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(threads) as pool:
            for _ in range(5):
                rep = _SCANS["uct"]()
                for name in _LAZY:
                    barrier = threading.Barrier(threads, timeout=10)
                    futures = [
                        pool.submit(_read_at_once, barrier, rep, name) for _ in range(threads)
                    ]
                    for future in futures:
                        assert future.result(timeout=10) == getattr(reference, name)
                    assert getattr(rep, name) == getattr(reference, name)
    finally:
        sys.setswitchinterval(interval)


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


# 8,193 indices cross a block; past 3**20 and 2**62 the high digits run
# beyond every base's low-digit table
@pytest.mark.parametrize("skip", [0, 20, 999, 10**9, 3**20, 2**62])
@pytest.mark.parametrize("count", [0, 1, 7, 8_193, 10_000])
def test_halton_points_match_the_scalar_loop_bit_for_bit(count, skip):
    got = halton_points(count, 6, skip=skip)
    want = _halton_reference(count, 6, skip)
    assert got.shape == want.shape == (count, 6)
    assert got.tobytes() == want.tobytes()
    for dims in range(1, 6):
        assert halton_points(count, dims, skip=skip).tobytes() == want[:, :dims].tobytes()


def test_importing_the_package_builds_no_halton_table():
    # the tables are built on first use, so set-up pays nothing for them
    src = os.path.dirname(os.path.dirname(uniformity.__file__))
    code = (
        "import karamata_kit; "
        "print(karamata_kit.uniformity._halton_table.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "0"


@pytest.mark.parametrize(
    "count, dims, skip",
    [(5, 0, 20), (5, 7, 20), (5, -1, 20), (-1, 3, 20), (5, 3, -1), (5, 3, 2**63),
     (sys.maxsize, 1, 1)],  # count + skip past int64, raised before the array is sized
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


_X_GRID_8 = GeometricGrid(10.0, 10.0, 8)


@pytest.mark.parametrize(
    "call, message",
    [
        # returned (1.0, inf)
        (lambda: interval_expand(1.0, math.inf, 0), "[a, b] must be finite, got inf"),
        # reported "(b/a)^n overflows"
        (lambda: interval_expand(math.nan, 2.0, 3), "a must be finite, got nan"),
        # reported "lam * x overflows": lam <= 0 let nan through
        (lambda: mult_closure_residual(parse("ln(x)"), math.nan, 2.0, _X_GRID_8),
         "lam must be finite, got nan"),
        (lambda: mult_closure_residual(parse("ln(x)"), 2.0, math.nan, _X_GRID_8),
         "mu must be finite, got nan"),
        (lambda: integral_asym_residual(parse("1"), math.nan, _X_GRID_8, 1.0),
         "lam must be finite, got nan"),
        # an int past the float range is no finite float either
        (lambda: interval_expand(10**400, 10**401, 1), f"a must be finite, got {10**400!r}"),
        # raised OverflowError
        (lambda: uct_scan(parse("u/x"), (10**400, 1.0), X_GRID),
         f"u interval must be finite, got {10**400!r}"),
        # accepted; only hi_check rejected it, as a sample point that overflows
        (lambda: Region(x=(-math.inf, 100.0), u=(0.0, 1.0), v=(0.0, 1.0)),
         "region x range must be finite, got -inf"),
    ],
    ids=["expand-b", "expand-a", "closure-lam", "closure-mu", "asym-lam", "expand-huge-int",
         "scan-huge-int", "region-x"],
)
def test_a_non_finite_ratio_or_window_is_named_as_such(call, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        call()


_HI = parse("abs(ln(x+u) - ln(x))")
_HI_REGION = Region(x=(10.0, 100.0), u=(0.0, 1.0), v=(0.0, 1.0))


@pytest.mark.parametrize(
    "call, message",
    [
        # each of these but the budget raised TypeError, and the window was returned
        (lambda: interval_expand(1.0, 2.0, 2.5), "n must be an integer, got 2.5"),
        (lambda: hi_check(_HI, 2.5, _HI_REGION), "sample_count must be an integer, got 2.5"),
        (lambda: halton_points(2.5, 2), "count must be an integer, got 2.5"),
        (lambda: halton_points(5, 2.0), "dims must be an integer, got 2.0"),
        (lambda: halton_points(5, 2, 0.5), "skip must be an integer, got 0.5"),
        (lambda: uct_scan(parse("u/x"), (0.0, 1.0), X_GRID, u_count=9.5),
         "u_count must be an integer, got 9.5"),
        (lambda: karamata_uct_check(parse("ln(x)"), (1.0, 2.0), X_GRID, lambda_count=9.5),
         "lambda_count must be an integer, got 9.5"),
        (lambda: condition_scan_310(parse("1/ln(x)"), (1.0, 2.0), X_GRID, lambda_count=9.5),
         "lambda_count must be an integer, got 9.5"),
        (lambda: guct_diagnose(_HI, parse("1"), (0.5, 2.0), X_GRID, u_count=9.5),
         "u_count must be an integer, got 9.5"),
        (lambda: guct_diagnose(_HI, parse("1"), (0.5, 2.0), X_GRID, sample_count=2.5),
         "sample_count must be an integer, got 2.5"),
        (lambda: uct_scan(parse("u/x"), (0.0, 1.0), X_GRID, u_count=math.nan),
         "u_count must be finite, got nan"),
        (lambda: uct_scan(parse("u/x"), (0.0, 1.0), X_GRID, u_count=8),
         "u_count must be at least 9, got 8"),
    ],
    ids=["expand-n", "hi_check", "halton-count", "halton-dims", "halton-skip", "uct_scan",
         "karamata_uct_check", "condition_scan_310", "guct-u_count", "guct-samples",
         "uct_scan-nan", "uct_scan-short"],
)
def test_a_count_must_be_an_integer(call, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        call()


def test_a_count_may_be_a_numpy_integer():
    assert np.array_equal(halton_points(np.int64(5), np.int32(2), np.int64(3)),
                          halton_points(5, 2, 3))
    assert interval_expand(1.0, 2.0, np.int64(3)) == interval_expand(1.0, 2.0, 3)
    assert hi_check(_HI, np.int64(20), _HI_REGION) == hi_check(_HI, 20, _HI_REGION)
    assert uct_scan(parse("u/x"), (0.0, 1.0), X_GRID, np.int64(9)) == uct_scan(
        parse("u/x"), (0.0, 1.0), X_GRID, 9
    )


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


@pytest.mark.parametrize("bound", [math.nan, math.inf])
def test_asym_rejects_a_non_finite_bound(bound):
    # "0 < h <= nan" once passed as a bound that holds
    with pytest.raises(PreconditionError, match="^bound must be finite, got"):
        integral_asym_residual(parse("1"), 2.0, GeometricGrid(10.0, 10.0, 8), bound)
    with pytest.raises(PreconditionError, match="^bound must be > 0, got 0.0$"):
        integral_asym_residual(parse("1"), 2.0, GeometricGrid(10.0, 10.0, 8), 0.0)
