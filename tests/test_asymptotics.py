"""Index estimation, slow-variation testing, profiles, class preservation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karamata_kit import (
    ClaimedClass,
    GeometricGrid,
    PreconditionError,
    class_preservation_check,
    classify_limit,
    classify_rows,
    condition_scan_310,
    exponent_profile,
    guct_diagnose,
    karamata_uct_check,
    mult_closure_residual,
    parse,
    rv_index,
    sv_test,
    uct_scan,
)
from karamata_kit.asymptotics import (
    DEEP_GRID,
    DEFAULT_INTEGER_GRID,
    DEFAULT_LAMBDAS,
    _grid_values,
    _log_ratios,
)
from karamata_kit.exprlang import EvalError, eval_array

from classify_oracle import _reference_classify
from expr_corpus import CORPUS


# ---------------------------------------------------------------------------
# grids

def test_grid_points_are_geometric():
    g = GeometricGrid(10.0, 10.0, 4)
    assert g.points() == [10.0, 100.0, 1000.0, 10000.0]


def test_integer_grid_walks_consecutive_integers():
    g = GeometricGrid(1000.0, 2.0, 5, integer_mode=True)
    assert g.points() == [1000.0, 1001.0, 1002.0, 1003.0, 1004.0]


def test_grid_validation():
    with pytest.raises(PreconditionError):
        GeometricGrid(1.0, 10.0, 8)
    with pytest.raises(PreconditionError):
        GeometricGrid(10.0, 1.0, 8)
    with pytest.raises(PreconditionError):
        GeometricGrid(10.0, 10.0, 0)
    # integer mode does not constrain the ratio
    GeometricGrid(10.0, 1.0, 8, integer_mode=True)


@pytest.mark.parametrize(
    "start, ratio, count, integer_mode",
    [
        (10.0, 1e300, 8, False),  # ratio**k overflows
        (1e300, 1e10, 3, False),  # start * ratio**k overflows
        (math.inf, 10.0, 8, False),
        (math.inf, 2.0, 8, True),
    ],
)
def test_grid_rejects_non_finite_last_point(start, ratio, count, integer_mode):
    with pytest.raises(PreconditionError, match="finite"):
        GeometricGrid(start, ratio, count, integer_mode)


@pytest.mark.parametrize(
    "start, ratio, message",
    [
        (10.0, math.inf, "grid ratio must be finite, got inf"),  # a one-point grid took it
        (math.nan, 2.0, "grid start must be finite, got nan"),
        (10**400, 2.0, f"grid start must be finite, got {10**400!r}"),
    ],
    ids=["inf-ratio", "nan-start", "huge-int-start"],
)
def test_a_grid_start_or_ratio_must_be_finite(start, ratio, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        GeometricGrid(start, ratio, 1)


def test_a_grid_keeps_its_fields_as_given():
    # the checks convert to float, but the fields, and so the reports, keep ints
    assert repr(GeometricGrid(10, 2, 8)) == (
        "GeometricGrid(start=10, ratio=2, count=8, integer_mode=False)"
    )


@pytest.mark.parametrize("count", [2.5, 8.0, "8", None])
def test_grid_count_must_be_an_integer(count):
    with pytest.raises(PreconditionError, match=r"^grid count must be an integer, got "):
        GeometricGrid(10.0, 2.0, count)


def test_grid_count_may_be_a_numpy_integer():
    assert GeometricGrid(10.0, 2.0, np.int64(3)).points() == [10.0, 20.0, 40.0]


_SHORT_GRID = GeometricGrid(10.0, 2.0, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: sv_test(parse("ln(x)"), grid=_SHORT_GRID),
        lambda: sv_test(parse("ln(x)"), grid=GeometricGrid(1000.0, 2.0, 3, integer_mode=True)),
        lambda: exponent_profile(parse("x^2"), _SHORT_GRID),
        lambda: class_preservation_check(parse("1/x"), ClaimedClass("z0"), _SHORT_GRID),
        lambda: class_preservation_check(parse("ln(x)"), ClaimedClass("r0"), _SHORT_GRID),
        # once a verdict from tracks called "too short to classify"
        lambda: rv_index(parse("ln(x)"), grid=_SHORT_GRID),
        # once named classify_rows, which the caller did not call
        lambda: guct_diagnose(
            parse("abs(ln(x+u) - ln(x))"), parse("1"), (0.5, 2.0), _SHORT_GRID, sample_count=20
        ),
    ],
    ids=["sv_test", "sv_test-integer", "exponent_profile", "class-z0", "class-r0", "rv_index",
         "guct_diagnose"],
)
def test_a_grid_too_short_to_classify_is_named_as_such(call):
    with pytest.raises(PreconditionError, match=r"^grid count must be >= 8 to classify its samples, got 3$"):
        call()


def test_a_bounded_claim_needs_no_classifiable_grid():
    rep = class_preservation_check(parse("2"), ClaimedClass("bounded", bounds=(1.0, 3.0)), _SHORT_GRID)
    assert rep.hypothesis_holds and rep.conclusion_holds


def test_integer_grid_must_start_above_one():
    # round(1.4) = 1, where ln F / ln x is 0/0
    with pytest.raises(PreconditionError, match="got 1.4"):
        GeometricGrid(1.4, 2.0, 8, integer_mode=True)
    assert GeometricGrid(1.5, 2.0, 8, integer_mode=True).points()[0] == 2.0


# ---------------------------------------------------------------------------
# sequence classification

def test_classify_needs_eight_samples():
    with pytest.raises(PreconditionError):
        classify_limit(np.ones(7))


def test_classify_constant_sequence():
    v = classify_limit(np.full(12, 3.25))
    assert v.kind == "converges"
    assert v.value == 3.25


def test_classify_geometric_decay():
    v = classify_limit(2.0 + 0.5 ** np.arange(12))
    assert v.kind == "converges"
    assert v.value == pytest.approx(2.0, abs=1e-3)


def test_classify_alternating_sequence():
    v = classify_limit(np.where(np.arange(16) % 2 == 0, 0.5, -0.5))
    assert v.kind == "oscillates"


def test_classify_divergence():
    v = classify_limit(10.0 ** np.arange(8, 18))
    assert v.kind == "diverges"
    assert v.sign == 1


def test_classify_divergence_negative():
    v = classify_limit(-(10.0 ** np.arange(8, 18)))
    assert v.sign == -1


def test_classify_non_finite_is_inconclusive():
    vals = np.ones(10)
    vals[4] = np.nan
    assert classify_limit(vals).kind == "inconclusive"


def test_classify_tiny_noise_is_convergence():
    vals = 1.0 + 1e-13 * np.where(np.arange(16) % 2 == 0, 1.0, -1.0)
    v = classify_limit(vals)
    assert v.kind == "converges"
    assert v.value == pytest.approx(1.0, abs=1e-12)


def test_classify_rejects_bad_tolerance():
    with pytest.raises(PreconditionError):
        classify_limit(np.ones(10), tol=0.0)


_BAD_TOLS = [math.nan, math.inf, -math.inf, 0.0, -1e-3]


def _broken_rule(tol) -> str:
    """The rule a bad tolerance breaks, worded as its message words it."""
    return "must be > 0" if math.isfinite(tol) else "must be finite"


@pytest.mark.parametrize("tol", _BAD_TOLS)
@pytest.mark.parametrize(
    "call",
    [
        lambda tol: classify_limit(np.arange(1.0, 20.0), tol=tol),
        lambda tol: classify_rows(np.ones((2, 9)), tol),
        lambda tol: rv_index(parse("x^2"), classify_tol=tol),
        lambda tol: sv_test(parse("x"), [2, 10], classify_tol=tol),
        lambda tol: karamata_uct_check(parse("ln(x)"), (1.0, 2.0), DEEP_GRID, classify_tol=tol),
    ],
    ids=["classify_limit", "classify_rows", "rv_index", "sv_test", "karamata_uct_check"],
)
def test_a_classification_tolerance_must_be_positive_and_finite(call, tol):
    message = f"classification tolerance {_broken_rule(tol)}, got {tol!r}"
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        call(tol)


@pytest.mark.parametrize("tol", _BAD_TOLS)
@pytest.mark.parametrize(
    "call",
    [
        lambda tol: sv_test(parse("x"), [2, 10], value_tol=tol),
        lambda tol: class_preservation_check(parse("1/x"), ClaimedClass("z0"), value_tol=tol),
        lambda tol: uct_scan(parse("u/x"), (0.0, 1.0), DEEP_GRID, value_tol=tol),
        lambda tol: karamata_uct_check(parse("ln(x)"), (1.0, 2.0), DEEP_GRID, value_tol=tol),
        lambda tol: condition_scan_310(parse("1/ln(x)"), (1.0, 2.0), DEEP_GRID, value_tol=tol),
        lambda tol: guct_diagnose(
            parse("abs(ln(x+u) - ln(x))"), parse("1"), (0.5, 2.0), DEEP_GRID, value_tol=tol
        ),
    ],
    ids=["sv_test", "class_preservation_check", "uct_scan", "karamata_uct_check",
         "condition_scan_310", "guct_diagnose"],
)
def test_a_value_tolerance_must_be_positive_and_finite(call, tol):
    # nan and inf used to pass: sv_test called x slowly varying
    message = f"value_tol {_broken_rule(tol)}, got {tol!r}"
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        call(tol)


# ---------------------------------------------------------------------------
# the batched kernel against the frozen one-sequence oracle

_ROW_KINDS = (
    "geometric", "alternating", "constant", "jitter", "growth", "non-finite", "wide", "any"
)


@st.composite
def _kernel_row(draw, n):
    """One sequence of ``n`` samples of a kind the classifier must tell apart."""
    k = np.arange(n, dtype=float)
    kind = draw(st.sampled_from(_ROW_KINDS))
    if kind == "geometric":
        limit, amp = draw(st.floats(-10.0, 10.0)), draw(st.floats(-5.0, 5.0))
        row = limit + amp * draw(st.floats(0.05, 1.0)) ** k
    elif kind == "alternating":
        center, amp = draw(st.floats(-3.0, 3.0)), draw(st.floats(1e-4, 5.0))
        row = center + amp * (-1.0) ** k * draw(st.floats(0.8, 1.1)) ** k
    elif kind == "constant":
        row = np.full(n, draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))))
    elif kind == "jitter":
        # about the noise floor of the sign test (1e-12 of the tail's scale)
        eps = draw(st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n))
        row = draw(st.floats(-2.0, 2.0)) + 1e-13 * np.array(eps)
    elif kind == "growth":
        row = draw(st.sampled_from([1.0, -1.0])) * np.geomspace(1e9, 1e12, n)
        if draw(st.booleans()):  # one stalled step among the last four
            row[-draw(st.integers(1, 3))] = row[-4]
    elif kind == "non-finite":
        row = 1.0 + 0.5 ** k
        row[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif kind == "wide":
        # a swing from near the float maximum to its negative through 0,
        # ahead of the tail: the range overflows, no increment does
        row = 1.0 + 0.5 ** k
        big = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(1e308, 1.7e308))
        i = draw(st.integers(0, n // 2 - 3))
        row[i : i + 3] = big, 0.0, -big
    else:
        row = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    return row


@st.composite
def _kernel_matrix(draw):
    n = draw(st.integers(8, 64))
    return np.array(draw(st.lists(_kernel_row(n), min_size=1, max_size=40)))


@given(_kernel_matrix(), st.sampled_from([1e-3, 1e-2, 0.5, 1e-9]))
@settings(max_examples=200, deadline=None)
def test_kernel_rows_match_the_one_sequence_oracle(matrix, tol):
    got = classify_rows(matrix, tol)
    assert [repr(v) for v in got] == [repr(_reference_classify(row, tol)) for row in matrix]
    # a strided column classifies as its contiguous copy, alone or in a batch
    columns = np.ascontiguousarray(matrix.T)
    j = len(got) // 2
    assert repr(classify_limit(columns[:, j], tol)) == repr(got[j])
    assert repr(classify_rows(columns.T, tol)) == repr(got)


def _scan_reports():
    g = GeometricGrid(1000.0, 2.0, 64, integer_mode=True)
    return [
        uct_scan(parse("x*u*exp(-x*u)"), (0.004, 0.7), GeometricGrid(300.0, 1.1, 64), 65),
        karamata_uct_check(parse("ln(x)"), (1.0, 2.5), GeometricGrid(40.0, 1.05, 64), 65),
        condition_scan_310(parse("0.7/ln(x)"), (1.0, 3.0), g, 65, integer_mode=True),
        condition_scan_310(parse("sin(x)/ln(x)"), (0.5, 2.0), g, 65, integer_mode=True),
    ]


@pytest.mark.parametrize("which", range(4))
def test_scan_matrix_verdicts_match_the_oracle(which):
    rep = _scan_reports()[which]
    tol = 1e-2  # the scanners' default classification tolerance
    columns = np.array(rep.residuals).T
    assert [repr(v) for v in rep.column_verdicts] == [
        repr(_reference_classify(c, tol)) for c in columns
    ]
    assert repr(rep.suprema_verdict) == repr(_reference_classify(rep.suprema, tol))


def test_batched_callers_keep_the_oracle_verdicts():
    tol = 1e-2
    est = rv_index(parse("exp(sin(x))"), grid=DEEP_GRID)
    for track in est.tracks:
        assert repr(track.verdict) == repr(_reference_classify(track.estimates, tol))
    rep = sv_test(parse("x^(sin(x)/ln(x))"))
    for track in (t for p in rep.passes for t in p.tracks):
        assert repr(track.verdict) == repr(_reference_classify(track.ratios, tol))
    closure = mult_closure_residual(parse("ln(ln(x))"), 2.0, 3.0, DEEP_GRID)
    steps = (closure.step_lam, closure.step_mu, closure.combined)
    assert [repr(v) for v in closure.verdicts] == [
        repr(_reference_classify(s, tol)) for s in steps
    ]
    H, x_grid = parse("abs(ln(x+u) - ln(x))"), GeometricGrid(10.0, 10.0, 8)
    guct = guct_diagnose(H, parse("1"), (0.0, 1.0), x_grid, sample_count=50)
    xs = np.array(x_grid.points())
    for u0, verdict in guct.pointwise:
        samples = np.abs(np.log(xs + u0) - np.log(xs))
        assert repr(verdict) == repr(_reference_classify(samples, tol))


def test_kernel_returns_one_verdict_per_row():
    assert classify_rows(np.ones((3, 9))) == (classify_limit(np.ones(9)),) * 3
    assert classify_rows(np.empty((0, 9))) == ()
    with pytest.raises(PreconditionError):
        classify_rows(np.ones(9))
    with pytest.raises(PreconditionError):
        classify_limit(np.ones((2, 9)))


_ONE_ROW_CASES = {
    # the tail of one C-contiguous row is a view of the array itself
    "converges": 1.0 + 1.0 / np.arange(1.0, 21.0),
    "oscillates": np.sin(np.arange(20.0)),
    # noise-level tail samples, compacted away from the sign changes
    "noisy": np.r_[np.ones(10), [1.0, 0.0, -1.0, 0.0, 1.0e-20, -1.0, 1.0, 0.0, -1.0, 1.0]],
    "diverges": np.geomspace(1e9, 1e14, 12),
    "non-finite": np.r_[np.ones(9), np.inf],
}


@pytest.mark.parametrize("case", sorted(_ONE_ROW_CASES))
def test_classify_rows_writes_into_no_array_it_is_given(case):
    row = _ONE_ROW_CASES[case]
    want = repr(_reference_classify(row))
    for values in (row[None, :].copy(), np.vstack([row, row[::-1], row])):
        assert values.flags.c_contiguous
        before = values.tobytes()
        got = classify_rows(values)
        assert values.tobytes() == before
        assert repr(got[0]) == want


def test_too_few_samples_name_the_function_called():
    with pytest.raises(PreconditionError, match=r"^classify_rows needs >= 8 samples, got 5$"):
        classify_rows(np.ones((2, 5)))
    with pytest.raises(PreconditionError, match=r"^classify_limit needs >= 8 samples, got 5$"):
        classify_limit(np.ones(5))


# ---------------------------------------------------------------------------
# overflow among finite samples

def test_classify_overflowing_increment_raises():
    with pytest.raises(PreconditionError, match="overflows: an increment"):
        classify_limit([1.5e308, -1.5e308] * 6)


def test_classify_overflowing_tail_sum_raises():
    with pytest.raises(PreconditionError, match="overflows: the sum of the tail"):
        classify_limit([1.5e308] * 12)


def test_classify_overflowing_tail_deviation_raises():
    # increments of 1.7e308 and a tail sum of -1.7e308 are finite; the
    # first tail sample's distance from the tail mean, 2.1e308, is not
    with pytest.raises(PreconditionError, match="overflows: the sum of the tail"):
        classify_limit([0.0] * 4 + [1.7e308, 0.0, -1.7e308, -1.7e308])


def test_classify_overflowing_range_without_an_overflowing_increment():
    # max - min is past the float range, every step is 1e308
    samples = [1e308, 0.0, -1e308, 0.0] * 3
    v = classify_limit(samples)
    assert repr(v) == repr(_reference_classify(samples))
    assert (v.kind, v.sign_changes, v.band) == ("oscillates", 3, (-1e308, 1e308))
    assert classify_rows([samples, np.ones(12)]) == (v, classify_limit(np.ones(12)))


def test_classify_overflow_in_one_row_fails_the_batch():
    with pytest.raises(PreconditionError, match="overflow"):
        classify_rows([np.ones(12), [1.5e308] * 12])


def test_classify_diverging_row_needs_no_finite_tail_sum():
    # the last six samples sum to about 2.1e308, past the float range, but
    # divergence is decided first, as it always was
    for sign in (1, -1):
        v = classify_limit(sign * np.geomspace(1e300, 1.7e308, 12))
        assert v.kind == "diverges" and v.sign == sign


def test_classify_non_finite_rows_beside_finite_ones():
    rows = np.ones((3, 10))
    rows[0, 3], rows[2, 9] = np.inf, np.nan
    kinds = [v.kind for v in classify_rows(rows)]
    assert kinds == ["inconclusive", "converges", "inconclusive"]


# ---------------------------------------------------------------------------
# variation index

def test_pure_power_index_is_exact():
    est = rv_index(parse("x^2"))
    assert est.verdict == "regularly_varying"
    assert est.rho_hat == pytest.approx(2.0, abs=1e-12)
    assert est.spread <= 1e-12


def test_negative_power_index():
    est = rv_index(parse("x^(-0.5)"))
    assert est.verdict == "regularly_varying"
    assert est.rho_hat == pytest.approx(-0.5, abs=1e-12)


def test_slowly_varying_factor_shifts_nothing():
    est = rv_index(parse("x^2 * ln(x)"), grid=DEEP_GRID)
    assert est.verdict == "regularly_varying"
    assert est.rho_hat == pytest.approx(2.0, abs=0.05)


def test_oscillating_function_is_not_rv():
    est = rv_index(parse("exp(sin(x))"))
    assert est.verdict == "not_regularly_varying"
    assert est.witness_lambda is not None


def test_rv_rejects_bad_lambdas():
    with pytest.raises(PreconditionError):
        rv_index(parse("x"), lambdas=(1.0,))
    with pytest.raises(PreconditionError):
        rv_index(parse("x"), lambdas=(-2.0,))
    with pytest.raises(PreconditionError):
        rv_index(parse("x"), lambdas=())


@pytest.mark.parametrize(
    "lambdas, message",
    [
        ((), "need at least one lambda"),
        ((1.0,), "lambda must be positive and != 1, got 1.0"),
        ((0.0,), "lambda must be positive and != 1, got 0.0"),
        ((-2.0,), "lambda must be positive and != 1, got -2.0"),
        ((2.0, math.nan), "lambda must be finite, got nan"),
        ((math.inf,), "lambda must be finite, got inf"),
    ],
)
def test_ratio_tests_share_one_lambda_check(lambdas, message):
    # every ratio classifier raises the same error before evaluating
    # anything: no math domain error, no leaked numpy warning, no nan index
    runs = [
        lambda: rv_index(parse("x^2"), lambdas=lambdas),
        lambda: class_preservation_check(parse("x+1"), ClaimedClass("r0"), lambdas=lambdas),
    ]
    if lambdas:  # sv_test adds pi, so only an empty set passes there
        runs.append(lambda: sv_test(parse("x^2"), lambdas=lambdas))
    for run in runs:
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            run()


def test_ratio_tests_reject_an_overflowing_lambda_block():
    # the class check once leaked an overflow warning, then a DomainError
    grid = GeometricGrid(1e290, 10.0, 8)
    runs = [
        lambda: rv_index(parse("ln(x)"), lambdas=(1e20,), grid=grid),
        lambda: sv_test(parse("ln(x)"), lambdas=(1e20,), grid=grid),
        lambda: class_preservation_check(
            parse("ln(x)"), ClaimedClass("r0"), grid=grid, lambdas=(1e20,)
        ),
    ]
    for run in runs:
        with pytest.raises(PreconditionError, match=r"^lam \* x overflows: 1e\+20 \* "):
            run()


def test_rv_requires_positive_function():
    with pytest.raises(PreconditionError) as exc:
        rv_index(parse("10 - x"))
    assert "positive" in str(exc.value)


@given(st.floats(0.01, 100.0))
@settings(max_examples=30, deadline=None)
def test_index_ignores_constant_scaling(c):
    base = rv_index(parse("x^1.5"))
    scaled = rv_index(parse(f"{c!r} * x^1.5"))
    assert scaled.verdict == base.verdict
    assert abs(scaled.rho_hat - base.rho_hat) <= 1e-12


@given(st.floats(-1.5, 2.0), st.floats(-1.5, 2.0))
@settings(max_examples=30, deadline=None)
def test_index_of_products_adds(a, b):
    est = rv_index(parse(f"x^{a!r} * x^{b!r}"))
    assert est.rho_hat == pytest.approx(a + b, abs=1e-9)
    assert est.spread <= 2 * 1e-9 + 1e-12


def _per_lambda_log_ratios(F, lams, xs):
    """ln F(lam x) - ln F(x), one ``eval_array`` call per lambda, raising
    what a per-lambda loop raises first."""
    logs = []
    for arg in [xs] + [lam * xs for lam in lams]:
        vals = eval_array(F, {"x": arg})
        if np.any(vals <= 0.0):
            bad = float(arg[np.argmax(vals <= 0.0)])
            raise PreconditionError(f"F must be positive; failed at x = {bad!r}")
        logs.append(np.log(vals))
    return [row - logs[0] for row in logs[1:]]


def _same_bits(got, want):
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


@pytest.mark.parametrize(
    "grid", [GeometricGrid(10.0, 10.0, 8), DEEP_GRID, DEFAULT_INTEGER_GRID],
    ids=["geometric8", "deep", "integer"],
)
@pytest.mark.parametrize("text", [src for src, _, _ in CORPUS])
def test_lambda_block_matches_per_lambda_calls_bit_for_bit(text, grid):
    # rv_index and sv_test evaluate F once on the grid and once on the whole
    # (lambda, x) block; every row must keep the bits of its own call
    F = parse(text)
    lams = DEFAULT_LAMBDAS + (1.1,)
    xs = np.asarray(grid.points())
    try:
        want = _per_lambda_log_ratios(F, lams, xs)
    except (PreconditionError, EvalError) as exc:
        for run in (rv_index, sv_test):
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                run(F, lams, grid)
        return
    est = rv_index(F, lams, grid)
    for lam, track, row in zip(lams, est.tracks, want):
        assert _same_bits(track.estimates, row / math.log(lam)), (text, lam)
    sv_grids = [grid] if grid.integer_mode else [grid, DEFAULT_INTEGER_GRID]
    try:
        wants = [_per_lambda_log_ratios(F, lams, np.asarray(g.points())) for g in sv_grids]
    except (PreconditionError, EvalError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            sv_test(F, lams, grid)
        return
    for sv_pass, rows in zip(sv_test(F, lams, grid).passes, wants):
        assert len(sv_pass.tracks) == len(rows)
        for track, row in zip(sv_pass.tracks, rows):
            assert _same_bits(track.log_ratios, row), (text, track.lam)


@pytest.mark.parametrize("text", ["x^(x/x + 1)", "x^(x/x - 0.5)", "x^(x/x - 2)"])
def test_one_point_grid_keeps_per_lambda_bits(text):
    # exponents that are arrays holding 2, 0.5 or -1: a (lambda, 1) block
    # would take eval_array's exact powers for a column exponent.  rv_index
    # rejects a one-point grid, so its index kernel is called directly.
    F = parse(text)
    lams = DEFAULT_LAMBDAS + (1.1,)
    for start in np.linspace(1.5, 9.0, 31):
        xs = np.asarray(GeometricGrid(float(start), 2.0, 1).points())
        want = _per_lambda_log_ratios(F, lams, xs)
        got = _log_ratios(*_grid_values(F, lams, xs, "x"), lams)
        for lam, estimates, row in zip(lams, got, want):
            assert _same_bits(estimates, row / math.log(lam)), (start, lam)


# ---------------------------------------------------------------------------
# slow variation

@pytest.mark.parametrize("text", ["ln(x)", "7", "ln(ln(x))", "ln(x)^2"])
def test_slowly_varying_examples(text):
    rep = sv_test(parse(text))
    assert rep.verdict == "slowly_varying", rep.reason


def test_small_power_is_not_slowly_varying():
    rep = sv_test(parse("x^0.1"))
    assert rep.verdict == "not_slowly_varying"
    assert rep.witness_lambda == 2.0
    assert rep.implied_index == pytest.approx(0.1, abs=1e-9)


def test_counterexample_oscillates_at_pi():
    rep = sv_test(parse("x^(sin(x)/ln(x))"), lambdas=())
    assert rep.verdict == "not_slowly_varying"
    assert rep.witness_lambda == math.pi
    assert "oscillates" in rep.reason


def test_counterexample_integer_grid_log_ratios_track_minus_sin():
    rep = sv_test(parse("x^(sin(x)/ln(x))"), lambdas=(math.pi,),
                  grid=DEFAULT_INTEGER_GRID)
    assert rep.verdict == "not_slowly_varying"
    (only_pass,) = rep.passes
    track = next(t for t in only_pass.tracks if t.lam == math.pi)
    for n, lr in zip(track.xs, track.log_ratios):
        assert lr == pytest.approx(-math.sin(n), abs=1e-6)


@pytest.mark.parametrize("lambdas", [(2.0, 10.0), (10.0, 2.0)])
def test_sv_implied_index_does_not_depend_on_lambda_order(lambdas):
    # the ratio at lambda = 2 settles at 2^0.5, while the one at 10
    # oscillates; an oscillating track outranks a settled one, so the
    # witness is 10 in either order and carries no implied index
    F = parse("x^0.5*exp(sin(6.283185307179586*ln(x)/ln(2)))")
    rep = sv_test(F, lambdas=lambdas)
    assert rep.verdict == "not_slowly_varying"
    assert rep.witness_lambda == 10.0
    assert rep.reason == "ratio F(10 x)/F(x) oscillates along the geometric grid"
    assert rep.implied_index is None


def test_sv_always_includes_an_integer_pass():
    rep = sv_test(parse("ln(x)"))
    modes = [p.integer_mode for p in rep.passes]
    assert modes == [False, True]


def test_sv_implies_flat_exponent_profile():
    # structural link: a slowly varying verdict must come with a profile
    # that converges to 0 on the same default grid
    for text in ("ln(x)", "7", "ln(ln(x))"):
        if sv_test(parse(text)).verdict == "slowly_varying":
            prof = exponent_profile(parse(text))
            assert prof.verdict.kind == "converges"
            assert abs(prof.verdict.value) <= 0.05


# ---------------------------------------------------------------------------
# exponent profile

def test_profile_of_pure_power_is_exact():
    prof = exponent_profile(parse("x^3"))
    assert prof.verdict.kind == "converges"
    assert prof.verdict.value == pytest.approx(3.0, abs=1e-12)
    assert all(v == pytest.approx(3.0, abs=1e-12) for v in prof.xi_values)


def test_profile_of_ln_converges_to_zero():
    prof = exponent_profile(parse("ln(x)"))
    assert prof.verdict.kind == "converges"
    assert abs(prof.verdict.value) <= 0.05


def test_profile_requires_positive_function():
    with pytest.raises(PreconditionError):
        exponent_profile(parse("-ln(x)"))


# ---------------------------------------------------------------------------
# class preservation under the operator

def test_vanishing_class_is_preserved():
    rep = class_preservation_check(parse("1/(1+ln(x))"), ClaimedClass("z0"))
    assert rep.hypothesis_holds
    assert rep.conclusion_holds
    assert rep.asserted


def test_slow_variation_is_preserved():
    rep = class_preservation_check(parse("ln(x)"), ClaimedClass("r0"))
    assert rep.hypothesis_holds
    assert rep.conclusion_holds


@pytest.mark.parametrize("text", ["ln(x)", "x^0.5*ln(x)", "x^(x/x - 0.5)", "1 + 1/x"])
def test_ratio_hypothesis_keeps_the_bits_of_pointwise_values(text):
    # h is evaluated on the whole (lambda, x) block in one call; each
    # estimate must keep the bits it has from h taken one point at a time
    h = parse(text)
    rep = class_preservation_check(h, ClaimedClass("r0"), lambdas=(10.0, 2.0))
    xs = np.asarray(DEEP_GRID.points())

    def pointwise(points):
        return np.array([eval_array(h, {"x": np.array([p])})[0] for p in points])

    for lam in (2.0, 10.0):
        want = (np.log(pointwise(lam * xs)) - np.log(pointwise(xs))) / math.log(lam)
        got = rep.hypothesis_detail["tracks"][f"{lam:g}"]["estimates"]
        assert _same_bits(got, want), lam


def test_positive_index_is_preserved():
    rep = class_preservation_check(parse("x"), ClaimedClass("r_alpha", alpha=1.0))
    assert rep.hypothesis_holds
    assert rep.conclusion_holds
    assert rep.asserted


def test_bounded_band_is_preserved():
    rep = class_preservation_check(
        parse("2 + sin(ln(x))"),
        ClaimedClass("bounded", bounds=(1.0, 3.0)),
        grid=GeometricGrid(10.0, 10.0, 8),
    )
    assert rep.hypothesis_holds
    assert rep.conclusion_holds


def test_negative_index_is_recorded_not_asserted():
    # the operator sends decaying powers to slowly varying functions, so
    # the claimed negative index cannot survive; the report must say it
    # measured a mismatch without asserting the inherited class
    rep = class_preservation_check(parse("1/x"), ClaimedClass("r_alpha", alpha=-1.0))
    assert not rep.asserted
    assert not rep.conclusion_holds
    assert rep.conclusion_detail["measured_index"] == pytest.approx(0.0, abs=0.05)


def test_failed_hypothesis_is_reported():
    rep = class_preservation_check(parse("ln(x)"), ClaimedClass("z0"))
    assert not rep.hypothesis_holds
    assert not rep.conclusion_holds


def test_ratio_class_of_a_non_positive_function_fails_both_sides():
    # 100 - x and L(100 - x) are negative on the whole grid, so no ratio
    # test applies to either; the CLI's rv_index rejects F before this
    rep = class_preservation_check(parse("100-x"), ClaimedClass("r0"))
    error = {"error": "values not positive, ratio test undefined"}
    assert rep.hypothesis_holds is False
    assert rep.conclusion_holds is False
    assert rep.hypothesis_detail == error
    assert rep.conclusion_detail == error


def test_claimed_class_validation():
    with pytest.raises(PreconditionError):
        ClaimedClass("nope")
    with pytest.raises(PreconditionError):
        ClaimedClass("r_alpha")
    with pytest.raises(PreconditionError):
        ClaimedClass("bounded", bounds=(2.0, 1.0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError, match=f"^alpha must be finite, got {bad!r}$"):
            ClaimedClass("r_alpha", alpha=bad)
    with pytest.raises(PreconditionError, match="^bounds must be finite, got inf$"):
        ClaimedClass("bounded", bounds=(0.0, math.inf))
    with pytest.raises(PreconditionError, match="^bounds must be finite, got -inf$"):
        ClaimedClass("bounded", bounds=(-math.inf, 0.0))
    # an int past the float range raised OverflowError
    with pytest.raises(PreconditionError, match=f"^alpha must be finite, got {10**400!r}$"):
        ClaimedClass("r_alpha", alpha=10**400)


@pytest.mark.parametrize(
    "text, claimed",
    [("z0", ClaimedClass("z0")), (" R0", ClaimedClass("r0")),
     ("r_alpha:0.5", ClaimedClass("r_alpha", alpha=0.5)),
     ("bounded:1,3", ClaimedClass("bounded", bounds=(1.0, 3.0)))],
)
def test_a_class_text_names_its_class(text, claimed):
    assert ClaimedClass.parse(text) == claimed


@pytest.mark.parametrize(
    "text, message",
    [
        ("r1", "unknown class 'r1'; use z0, r0, r_alpha or bounded"),
        ("r_alpha:q", "cannot read the numbers of the class 'r_alpha:q'"),
        ("r_alpha", "cannot read the numbers of the class 'r_alpha'"),
        ("bounded:1", "cannot read the numbers of the class 'bounded:1'"),
        ("r_alpha:1e400", "alpha must be finite, got inf"),
        ("bounded:3,1", "bounded needs lo <= hi"),
    ],
)
def test_a_class_text_that_names_no_class_is_rejected(text, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        ClaimedClass.parse(text)
