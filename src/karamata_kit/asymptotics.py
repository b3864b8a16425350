"""Numerical limit classification and variation-index estimation.

Everything here works on finite sample sequences along ascending grids, so
verdicts are grid-relative by construction: "Converges" means the sampled
tail behaves like a convergent sequence at the requested tolerance, not a
proof about the true limit.  The classifier applies, in order, a divergence
test (magnitude above a threshold and growing), an oscillation test (sign
changes of the centered tail with non-shrinking amplitude), and a
convergence test (successive increments shrink by a fixed factor and the
final increment is below tolerance).  Sequences with 1/ln(x)-type decay are
the main customers, which is why the convergence test looks at the shrink
factor instead of a bare Cauchy criterion with a tight tolerance.

Sign changes are counted among the live samples of the centered tail,
those that stand clear of the noise, between neighbours of one row; the
noise-level samples between them are compacted away.  Increments are
computed only for the last columns the rules read, after one range test
over the whole array: when ``max - min`` is finite, no increment of finite
samples can overflow.

The rules live in one kernel, ``classify_rows``, which tests the m rows of
an (m, n) array at once: every reduction runs along a contiguous row, so
each row's verdict is the one it would get on its own.  ``classify_limit``
is its one-row call, and every caller with several sequences of one length
(the columns of a uniformity scan, the lambda tracks of ``rv_index`` and
``sv_test``) classifies them in one call.  In the same way the ratio tests
evaluate F once on the grid and once on the whole (lambda, x) block, not
once per lambda, and share one log-ratio kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exprlang import Expr, eval_array
from .karamata import apply_L_points
from .quad import QuadTolerance
from .rules import (
    MIN_SAMPLES,
    ClaimedClass,
    PreconditionError,
    _check_above,
    _check_classifiable,
    _check_count,
    _check_finite,
    _check_product,
    _lambda_list,
)

__all__ = [
    "GeometricGrid",
    "LimitVerdict",
    "IndexTrack",
    "IndexEstimate",
    "RatioTrack",
    "SvPass",
    "SvReport",
    "ProfileReport",
    "ClaimedClass",
    "ClassCheckReport",
    "classify_limit",
    "classify_rows",
    "rv_index",
    "sv_test",
    "exponent_profile",
    "class_preservation_check",
    "DEFAULT_LAMBDAS",
    "DEFAULT_GRID",
    "DEFAULT_INTEGER_GRID",
]

# classification knobs; engineering choices, surfaced in reports
SHRINK_FACTOR = 0.9
DIVERGE_THRESHOLD = 1e10
MIN_SIGN_CHANGES = 3
DEFAULT_CLASSIFY_TOL = 1e-3
# ratio sequences decay like 1/ln x, so their Cauchy increments at desk
# scale sit near 1e-2; a 1e-3 tolerance would mislabel them
RATIO_CLASSIFY_TOL = 1e-2
VALUE_TOL = 0.05
SPREAD_TOL = 0.05

DEFAULT_LAMBDAS: tuple[float, ...] = (2.0, 10.0, math.pi, 0.5)


@dataclass(frozen=True)
class GeometricGrid:
    """Sampling grid ``start * ratio**k``; integer mode walks n, n+1, ...
    The fields keep the numbers given; the points are computed in Python
    floats, whatever number types those are."""

    start: float
    ratio: float
    count: int
    integer_mode: bool = False

    def __post_init__(self):
        start = _check_above(self.start, 1.0, "grid start")
        k = _check_count(self.count, 1, "grid count") - 1
        try:
            if self.integer_mode:
                last = float(round(start) + k)
            else:
                last = start * _check_above(self.ratio, 1.0, "grid ratio") ** k
        except OverflowError:
            last = math.inf
        if not math.isfinite(last):
            raise PreconditionError(
                f"grid points overflow: the last point is not finite "
                f"(start {self.start!r}, ratio {self.ratio!r}, count {self.count!r})"
            )
        if self.integer_mode and not round(start) > 1:
            raise PreconditionError(
                f"integer grid start must round to an integer > 1, got {self.start!r}"
            )

    def points(self) -> list[float]:
        start = float(self.start)
        if self.integer_mode:
            base = round(start)
            return [float(base + k) for k in range(self.count)]
        ratio = float(self.ratio)
        return [start * ratio**k for k in range(self.count)]


DEFAULT_GRID = GeometricGrid(10.0, 10.0, 8)
DEFAULT_INTEGER_GRID = GeometricGrid(1000.0, 2.0, 33, integer_mode=True)

# ratio residuals of slowly varying functions decay like 1/ln x, so the
# default geometric pass must reach very large x before they settle;
# closed-form evaluation keeps this exact and cheap in floats
DEEP_GRID = GeometricGrid(1e4, 1e4, 11)


@dataclass(frozen=True)
class LimitVerdict:
    kind: str  # converges | diverges | oscillates | inconclusive
    value: float | None = None  # converges: last sample
    sign: int | None = None  # diverges: +1 or -1
    band: tuple[float, float] | None = None  # oscillates: tail min/max
    detail: str = ""
    tail_deltas: tuple[float, ...] = ()
    sign_changes: int = 0

    @property
    def converges(self) -> bool:
        return self.kind == "converges"


# the verdict parts that do not depend on the row
_NON_FINITE = LimitVerdict(kind="inconclusive", detail="non-finite samples")
_DIVERGES_DETAIL = f"|samples| exceed {DIVERGE_THRESHOLD:g} and grow"


def classify_rows(values, tol: float = DEFAULT_CLASSIFY_TOL) -> tuple[LimitVerdict, ...]:
    """Classify the tail behaviour of each row of an ``(m, n)`` array.

    Every row is a sequence of at least 8 samples taken along an ascending
    grid.  A row with a non-finite sample is ``inconclusive``; an increment,
    tail sum or tail deviation of finite samples that overflows raises
    ``PreconditionError``.

    One range test stands for the finiteness and overflow checks of most
    calls: if ``max - min`` over the whole array is finite, every sample is
    finite and no increment can overflow, since ``|a - b| <= max - min``.
    Only otherwise are the rows checked one by one and every increment
    computed under ``over="raise"``; the rules themselves read only the
    last ``max(6, window)`` increments.

    This is two passes: ``_row_numbers``, which makes every check, raises
    every error and reduces each row to the few numbers its verdict reads,
    and ``_row_verdicts``, which builds the verdicts of a range of rows from
    those numbers and cannot fail.  A uniformity scan runs the first at once
    and the second for its column verdicts only when
    ``ScanReport.column_verdicts`` is first read; that read costs what
    building them at once did."""
    return _row_verdicts(_row_numbers(values, tol))


def _row_numbers(values, tol: float) -> tuple:
    """The numeric pass of ``classify_rows``: ``(tol, finite, *parts)``,
    where ``finite`` is a list and each of the ten parts an array with
    one entry per row, in the order ``_row_verdicts`` reads them.  The parts
    own their memory, so they keep no (m, n) array alive.

    A step writes in place only into an array this pass made: the
    increments, the centred tail, the spread and the shrink bound.
    ``values`` itself, the caller's array or not, is never written."""
    values = np.ascontiguousarray(values, dtype=float)
    if values.ndim != 2:
        raise PreconditionError(f"classify_rows needs an (m, n) array, got shape {values.shape}")
    m, n = values.shape
    if n < MIN_SAMPLES:
        raise PreconditionError(f"classify_rows needs >= {MIN_SAMPLES} samples, got {n}")
    _check_above(tol, 0.0, "classification tolerance")
    # a nan or an infinity makes the range nan or inf; the initial 0.0 only
    # widens it towards zero, and keeps an empty array reducible
    top = float(np.maximum.reduce(values, axis=None, initial=0.0))
    bottom = float(np.minimum.reduce(values, axis=None, initial=0.0))
    finite = [True] * m

    with np.errstate(over="raise"):
        if not top - bottom < math.inf:
            finite = np.logical_and.reduce(np.isfinite(values), axis=1).tolist()
            if not all(finite):
                values = np.where(np.array(finite)[:, None], values, 0.0)
            try:
                np.subtract(values[:, 1:], values[:, :-1])
            except FloatingPointError:
                raise PreconditionError(
                    "limit classification overflows: an increment between two finite"
                    " samples is not finite"
                ) from None
        window_size = max(4, (n - 1) // 2)
        k = max(6, window_size)
        deltas = np.subtract(values[:, -k:], values[:, -k - 1 : -1])
        np.abs(deltas, out=deltas)

        # divergence: the last four samples share a sign, grow in magnitude
        # and are already past the threshold; flipped to the sign of the
        # first, they must exceed the threshold and increase
        head = values[:, -4:] * np.sign(values[:, -4:-3])
        diverging = (head[:, 0] > DIVERGE_THRESHOLD) & np.logical_and.reduce(
            head[:, 1:] > head[:, :-1], axis=1
        )

        # the tests below do not apply to a diverging row, whose tail may
        # not even have a finite sum; the tail is a contiguous copy, whose
        # rows sum in numpy's pairwise order, exactly as a 1-D array does
        tail = values[:, n // 2 :]
        if np.count_nonzero(diverging):
            tail = np.where(diverging[:, None], 0.0, tail)
        else:
            tail = tail.copy()
        tail_lo = np.minimum.reduce(tail, axis=1)
        tail_hi = np.maximum.reduce(tail, axis=1)
        try:
            # centred in place once its range is taken
            centered = np.subtract(
                tail, (np.add.reduce(tail, axis=1) / tail.shape[1])[:, None], out=tail
            )
        except FloatingPointError:
            raise PreconditionError(
                "limit classification overflows: the sum of the tail samples, or a tail"
                " sample minus their mean, is not finite"
            ) from None

    # oscillation: the centered tail keeps crossing zero without losing
    # amplitude.  A change is a flip of sign between neighbouring live
    # samples of one row, those that stand clear of the noise; with no
    # noise-level sample, every neighbour pair is live.
    scale = np.maximum(np.maximum(tail_hi, -tail_lo), 1.0)
    up = centered > 0.0
    spread = np.abs(centered, out=centered)
    live = spread > 1e-12 * scale[:, None]
    if np.count_nonzero(live) == live.size:
        changes = np.add.reduce(up[:, 1:] != up[:, :-1], axis=1)
    else:
        # the row of each live sample, from one flat index array
        row = np.flatnonzero(live)
        np.floor_divide(row, live.shape[1], out=row)
        up = up[live]
        flips = (up[1:] != up[:-1]) & (row[1:] == row[:-1])
        changes = np.bincount(row[1:][flips], minlength=m)
    # the amplitudes of the early and the late half of the tail
    amps = np.maximum.reduceat(spread, (0, spread.shape[1] // 2), axis=1)

    # convergence: increments shrink geometrically and the last one is small
    floor = 1e-11 * scale
    window = deltas[:, -window_size:]
    bound = SHRINK_FACTOR * window[:, :-1]
    np.maximum(bound, floor[:, None], out=bound)
    shrinking = np.logical_and.reduce(window[:, 1:] <= bound, axis=1)

    return (
        tol,
        finite,
        diverging,
        values[:, -1].copy(),
        deltas[:, -6:].copy(),
        changes,
        amps[:, 0],
        amps[:, 1],
        tail_lo,
        tail_hi,
        shrinking,
        floor,
    )


def _row_verdicts(numbers: tuple, rows: slice | None = None) -> tuple[LimitVerdict, ...]:
    """The verdicts of the ``rows`` of ``_row_numbers``'s ``numbers`` (all
    of them by default), built from plain per-row values."""
    tol, finite, *parts = numbers
    if rows is not None:
        finite, parts = finite[rows], [part[rows] for part in parts]
    verdicts = []
    for (
        ok, diverges, last, last_deltas, n_changes, early, late, lo, hi, shrinks, row_floor
    ) in zip(finite, *(part.tolist() for part in parts)):
        step = last_deltas[-1]  # the last increment of the convergence window
        if not ok:
            verdict = _NON_FINITE
        elif diverges:
            verdict = LimitVerdict(
                kind="diverges",
                sign=1 if last > 0 else -1,
                detail=_DIVERGES_DETAIL,
                tail_deltas=tuple(last_deltas),
            )
        elif n_changes >= MIN_SIGN_CHANGES and late > tol and late >= 0.5 * early:
            verdict = LimitVerdict(
                kind="oscillates",
                band=(lo, hi),
                detail=f"{n_changes} sign changes about the tail mean, amplitude not shrinking",
                tail_deltas=tuple(last_deltas),
                sign_changes=n_changes,
            )
        elif shrinks and step <= max(tol, row_floor):
            verdict = LimitVerdict(
                kind="converges",
                value=last,
                detail=(
                    f"increments shrink by <= {SHRINK_FACTOR} and final increment"
                    f" {step:.3g} <= {max(tol, row_floor):.3g}"
                ),
                tail_deltas=tuple(last_deltas),
                sign_changes=n_changes,
            )
        else:
            verdict = LimitVerdict(
                kind="inconclusive",
                detail="no divergence, oscillation, or convergence pattern at this tolerance",
                tail_deltas=tuple(last_deltas),
                sign_changes=n_changes,
            )
        verdicts.append(verdict)
    return tuple(verdicts)


def classify_limit(samples, tol: float = DEFAULT_CLASSIFY_TOL) -> LimitVerdict:
    """Classify the tail behaviour of one sampled sequence: the one-row case
    of ``classify_rows``."""
    values = np.asarray(samples if isinstance(samples, np.ndarray) else list(samples), dtype=float)
    if values.ndim != 1:
        raise PreconditionError(f"classify_limit needs a 1-D sequence, got shape {values.shape}")
    if values.size < MIN_SAMPLES:
        raise PreconditionError(f"classify_limit needs >= {MIN_SAMPLES} samples, got {values.size}")
    return classify_rows(values[None, :], tol)[0]


# ---------------------------------------------------------------------------
# regular-variation index

@dataclass(frozen=True)
class IndexTrack:
    lam: float
    xs: tuple[float, ...]
    estimates: tuple[float, ...]
    verdict: LimitVerdict


@dataclass(frozen=True)
class IndexEstimate:
    rho_hat: float
    spread: float
    verdict: str  # regularly_varying | not_regularly_varying | inconclusive
    witness_lambda: float | None
    tracks: tuple[IndexTrack, ...]


def _values(F: Expr, xs: np.ndarray, var: str, positive: bool = True) -> np.ndarray:
    """F on the 1-D points ``xs``; with ``positive``, the first non-positive
    value fails."""
    vals = eval_array(F, {var: xs})
    if positive and np.any(vals <= 0.0):
        bad = float(xs[np.argmax(vals <= 0.0)])
        raise PreconditionError(f"F must be positive; failed at x = {bad!r}")
    return vals


def _grid_values(F: Expr, lams, xs: np.ndarray, var: str, positive: bool = True):
    """F on the grid and on the (lambda, x) block ``lam * x``, one
    ``eval_array`` call each; with no lambdas the block is empty.  The
    block is evaluated flat, so that a non-positive value names its x."""
    if lams:
        _check_product(max(lams), float(xs[-1]), "lam * x")
    block = np.multiply.outer(lams, xs)
    base = _values(F, xs, var, positive)
    return base, _values(F, block.ravel(), var, positive).reshape(block.shape)


def _log_ratios(base: np.ndarray, shifted: np.ndarray, lams=None) -> np.ndarray:
    """``ln F(lam x) - ln F(x)``, one row per lambda, from F on the grid
    (``base``) and on the (lambda, x) block (``shifted``).  Given ``lams``,
    each row is divided by ``math.log(lam)``: the variation index estimates."""
    out = np.log(shifted) - np.log(base)
    if lams is not None:
        out /= np.array([math.log(lam) for lam in lams])[:, None]
    return out


def _first_reject(verdicts) -> int | None:
    """The index of the first lambda track whose verdict oscillates or
    diverges, which rejects every ratio class; None if there is none."""
    return next((i for i, v in enumerate(verdicts) if v.kind in ("oscillates", "diverges")), None)


def rv_index(
    F: Expr,
    lambdas=DEFAULT_LAMBDAS,
    grid: GeometricGrid = DEFAULT_GRID,
    var: str = "x",
    classify_tol: float = RATIO_CLASSIFY_TOL,
) -> IndexEstimate:
    """Estimate the variation index from ``ln(F(lam x)/F(x)) / ln(lam)``.

    ``rho_hat`` averages the estimate at the largest x over the lambda set;
    ``spread`` is the largest pairwise disagreement there.
    """
    _check_classifiable(grid)
    lams = _lambda_list(lambdas)
    xs = np.asarray(grid.points())
    ests = _log_ratios(*_grid_values(F, lams, xs, var), lams)
    verdicts = classify_rows(ests, classify_tol)
    grid_xs = tuple(xs.tolist())
    tracks = tuple(
        IndexTrack(lam=lam, xs=grid_xs, estimates=tuple(est.tolist()), verdict=verdict)
        for lam, est, verdict in zip(lams, ests, verdicts)
    )
    finals = [float(est[-1]) for est in ests]
    rho_hat = float(np.mean(finals))
    spread = float(np.max(finals) - np.min(finals)) if len(finals) > 1 else 0.0

    reject = _first_reject(verdicts)
    witness = None if reject is None else lams[reject]
    if reject is not None or spread > SPREAD_TOL:
        verdict = "not_regularly_varying"
    else:
        verdict = "regularly_varying" if all(v.converges for v in verdicts) else "inconclusive"
    return IndexEstimate(rho_hat, spread, verdict, witness, tracks)


# ---------------------------------------------------------------------------
# slow variation

@dataclass(frozen=True)
class RatioTrack:
    lam: float
    xs: tuple[float, ...]
    ratios: tuple[float, ...]
    log_ratios: tuple[float, ...]
    verdict: LimitVerdict


@dataclass(frozen=True)
class SvPass:
    integer_mode: bool
    tracks: tuple[RatioTrack, ...]


@dataclass(frozen=True)
class SvReport:
    verdict: str  # slowly_varying | not_slowly_varying | inconclusive
    reason: str
    witness_lambda: float | None
    implied_index: float | None
    passes: tuple[SvPass, ...]


def sv_test(
    F: Expr,
    lambdas=DEFAULT_LAMBDAS,
    grid: GeometricGrid = DEEP_GRID,
    var: str = "x",
    classify_tol: float = RATIO_CLASSIFY_TOL,
    value_tol: float = VALUE_TOL,
) -> SvReport:
    """Test whether ``F(lam x)/F(x) -> 1`` for every lambda in the set.

    Runs the supplied grid and always adds an integer-step pass (integers
    interact with lambda = pi in the classic counterexample, which a
    geometric grid can miss), unless the supplied grid already is one.

    The verdict is the first that applies: ``not_slowly_varying`` for the
    first track, on any pass in pass order, whose ratio oscillates or
    diverges; ``not_slowly_varying`` for the first track of the supplied
    grid whose ratio settles at a value off 1 by more than ``value_tol``,
    the only witness that carries an ``implied_index``; ``slowly_varying``
    if every track of the supplied grid converges; else ``inconclusive``.
    The auto-added integer pass spans a narrow multiplicative window, so its
    ratios sit near their current value rather than the limit; it only
    contributes oscillation and divergence evidence.
    """
    _check_above(value_tol, 0.0, "value_tol")
    _check_classifiable(grid)
    lams = [_check_finite(lam, "lambda") for lam in lambdas]
    lams = _lambda_list(lams if math.pi in lams else [*lams, math.pi])
    grids = [grid] if grid.integer_mode else [grid, DEFAULT_INTEGER_GRID]

    passes = []
    for g in grids:
        xs = np.asarray(g.points())
        log_ratios = _log_ratios(*_grid_values(F, lams, xs, var))
        with np.errstate(over="ignore"):
            ratios = np.exp(log_ratios)
        # a ratio of finite values past the float range has no verdict
        bad = np.isinf(ratios) | (ratios == 0.0)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            how = "overflows" if np.isinf(ratios[i, j]) else "underflows to 0"
            raise PreconditionError(
                f"F(lam x)/F(x) {how} at lam = {lams[i]!r}, x = {float(xs[j])!r}"
            )
        verdicts = classify_rows(ratios, classify_tol)
        grid_xs = tuple(xs.tolist())
        tracks = tuple(
            RatioTrack(lam, grid_xs, tuple(ratio.tolist()), tuple(log_ratio.tolist()), verdict)
            for lam, ratio, log_ratio, verdict in zip(lams, ratios, log_ratios, verdicts)
        )
        passes.append(SvPass(integer_mode=g.integer_mode, tracks=tracks))
    passes = tuple(passes)

    for sv_pass in passes:
        reject = _first_reject(t.verdict for t in sv_pass.tracks)
        if reject is not None:
            t = sv_pass.tracks[reject]
            along = "integer" if sv_pass.integer_mode else "geometric"
            reason = f"ratio F({t.lam:g} x)/F(x) {t.verdict.kind} along the {along} grid"
            return SvReport("not_slowly_varying", reason, t.lam, None, passes)
    supplied = passes[0].tracks
    for t in supplied:
        value = t.verdict.value
        if t.verdict.converges and abs(value - 1.0) > value_tol:
            implied = math.log(value) / math.log(t.lam)
            reason = f"ratio stabilizes at {value:.6g} != 1; implied index {implied:.4g}"
            return SvReport("not_slowly_varying", reason, t.lam, implied, passes)
    if all(t.verdict.converges for t in supplied):
        reason = "every ratio sequence stabilizes at 1 within tolerance"
        return SvReport("slowly_varying", reason, None, None, passes)
    reason = "some ratio sequences were inconclusive at this tolerance"
    return SvReport("inconclusive", reason, None, None, passes)


# ---------------------------------------------------------------------------
# exponent profile

@dataclass(frozen=True)
class ProfileReport:
    xs: tuple[float, ...]
    xi_values: tuple[float, ...]
    verdict: LimitVerdict


def exponent_profile(
    F: Expr,
    grid: GeometricGrid = DEEP_GRID,
    var: str = "x",
    classify_tol: float = RATIO_CLASSIFY_TOL,
) -> ProfileReport:
    """Profile ``xi(x) = ln F(x) / ln x`` along the grid and classify it."""
    _check_classifiable(grid)
    xs = np.asarray(grid.points())
    vals = np.log(_values(F, xs, var)) / np.log(xs)
    verdict = classify_limit(vals, classify_tol)
    return ProfileReport(
        xs=tuple(float(x) for x in xs),
        xi_values=tuple(float(v) for v in vals),
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# class preservation under the operator

@dataclass(frozen=True)
class ClassCheckReport:
    claimed: str
    hypothesis_holds: bool
    conclusion_holds: bool
    asserted: bool  # False: conclusion recorded as a measurement only
    quad_converged: bool  # every L(h) quadrature within its budget
    hypothesis_detail: dict = field(default_factory=dict)
    conclusion_detail: dict = field(default_factory=dict)
    notes: str = ""


def _membership(base, shifted, claimed: ClaimedClass, classify_tol: float, value_tol: float, lams):
    """Class membership of the values on the grid (``base``); r0 and
    r_alpha also read the values on the (lambda, x) block (``shifted``)."""
    if claimed.kind == "z0":
        verdict = classify_limit(base, classify_tol)
        ok = verdict.converges and abs(verdict.value) <= value_tol
        return ok, {"verdict": verdict, "final": float(base[-1])}
    if claimed.kind == "bounded":
        lo, hi = claimed.bounds
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        vmin, vmax = float(np.min(base)), float(np.max(base))
        ok = vmin >= lo - slack and vmax <= hi + slack
        return ok, {"min": vmin, "max": vmax, "lo": lo, "hi": hi}
    if np.any(shifted <= 0) or np.any(base <= 0):
        return False, {"error": "values not positive, ratio test undefined"}
    ests = _log_ratios(base, shifted, lams)
    verdicts = classify_rows(ests, classify_tol)
    tracks = {
        f"{lam:g}": {"estimates": est.tolist(), "verdict": verdict}
        for lam, est, verdict in zip(lams, ests, verdicts)
    }
    target = 0.0 if claimed.kind == "r0" else float(claimed.alpha)
    measured = float(np.mean([float(est[-1]) for est in ests]))
    detail = {"lambdas": lams, "tracks": tracks, "measured_index": measured, "target_index": target}
    # desk-scale bias of the log-ratio estimator is ~1/ln(max x); 0.1 leaves
    # room for one ln-factor of slow variation on top of the pure index
    ok = _first_reject(verdicts) is None and abs(measured - target) <= 0.1
    return ok, detail


def class_preservation_check(
    h: Expr,
    claimed: ClaimedClass,
    grid: GeometricGrid = DEEP_GRID,
    lambdas=(2.0, 10.0),
    tol: QuadTolerance = QuadTolerance(),
    var: str = "x",
    classify_tol: float = RATIO_CLASSIFY_TOL,
    value_tol: float = VALUE_TOL,
) -> ClassCheckReport:
    """Check h in class (hypothesis) and L(h) in class (conclusion).

    Both are evaluated on the grid and on the (lambda, x) block, which is
    empty for z0 and bounded; z0 asks for a limit within ``value_tol`` of 0.

    For r_alpha with alpha < 0 the conclusion is recorded as a measurement
    without being asserted (``asserted = False``): desk-scale grids cannot
    distinguish slow decay toward a negative-index envelope from failure.
    """
    _check_above(value_tol, 0.0, "value_tol")
    if claimed.kind != "bounded":
        _check_classifiable(grid)
    xs = np.asarray(grid.points())
    asserted = not (claimed.kind == "r_alpha" and claimed.alpha is not None and claimed.alpha < 0)
    # checked for every class; only the ratio classes read the (lambda, x) block
    lams = _lambda_list(lambdas)
    lams = sorted(set(lams)) if claimed.kind in ("r0", "r_alpha") else []
    h_base, h_shifted = _grid_values(h, lams, xs, var, positive=False)
    hyp_ok, hyp_detail = _membership(h_base, h_shifted, claimed, classify_tol, value_tol, lams)
    # one cache sweep over the ascending union of the grid and the block
    block = np.multiply.outer(lams, xs)
    points = np.unique(np.concatenate([xs, block.ravel()]))
    values = apply_L_points(h, points.tolist(), tol, var)
    l_values = np.array([v.value for v in values])
    con_ok, con_detail = _membership(
        l_values[np.searchsorted(points, xs)],
        l_values[np.searchsorted(points, block)],
        claimed,
        classify_tol,
        value_tol,
        lams,
    )

    notes = ""
    if not asserted:
        notes = "alpha < 0: conclusion recorded, not asserted"
    return ClassCheckReport(
        claimed=claimed.describe(),
        hypothesis_holds=bool(hyp_ok),
        conclusion_holds=bool(con_ok),
        asserted=asserted,
        quad_converged=all(v.quad is None or v.quad.converged for v in values),
        hypothesis_detail=hyp_detail,
        conclusion_detail=con_detail,
        notes=notes,
    )
