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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exprlang import Expr, eval_array
from .karamata import apply_L_points
from .quad import PreconditionError, QuadTolerance

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
    "rv_index",
    "sv_test",
    "exponent_profile",
    "class_preservation_check",
    "DEFAULT_LAMBDAS",
    "DEFAULT_INTEGER_GRID",
]

# classification knobs; engineering choices, surfaced in reports
MIN_SAMPLES = 8
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
    """Sampling grid ``start * ratio**k``; integer mode walks n, n+1, ..."""

    start: float
    ratio: float
    count: int
    integer_mode: bool = False

    def __post_init__(self):
        if not self.start > 1.0:
            raise PreconditionError(f"grid start must be > 1, got {self.start!r}")
        if self.count < 1:
            raise PreconditionError("grid count must be at least 1")
        if not self.integer_mode and not self.ratio > 1.0:
            raise PreconditionError(f"grid ratio must be > 1, got {self.ratio!r}")
        k = self.count - 1
        try:
            if self.integer_mode:
                last = float(round(self.start) + k)
            else:
                last = self.start * self.ratio**k
        except OverflowError:
            last = math.inf
        if not math.isfinite(last):
            raise PreconditionError(
                f"grid points overflow: the last point is not finite "
                f"(start {self.start!r}, ratio {self.ratio!r}, count {self.count!r})"
            )

    def points(self) -> list[float]:
        if self.integer_mode:
            base = round(self.start)
            return [float(base + k) for k in range(self.count)]
        return [self.start * self.ratio**k for k in range(self.count)]


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


def classify_limit(samples, tol: float = DEFAULT_CLASSIFY_TOL) -> LimitVerdict:
    """Classify the tail behaviour of a sampled sequence.

    Needs at least 8 samples taken along an ascending grid.
    """
    values = np.asarray(list(samples), dtype=float)
    n = values.size
    if n < MIN_SAMPLES:
        raise PreconditionError(f"classify_limit needs >= {MIN_SAMPLES} samples, got {n}")
    if tol <= 0:
        raise PreconditionError("classification tolerance must be positive")
    if not np.all(np.isfinite(values)):
        return LimitVerdict(kind="inconclusive", detail="non-finite samples")

    deltas = np.abs(np.diff(values))
    tail = values[n // 2 :]
    tail_deltas = tuple(float(d) for d in deltas[-min(6, n - 1) :])

    # divergence: same-signed, growing, and already past the threshold
    head = values[-4:]
    if (
        np.all(np.abs(head) > DIVERGE_THRESHOLD)
        and np.all(np.diff(np.abs(head)) > 0)
        and (np.all(head > 0) or np.all(head < 0))
    ):
        sign = 1 if head[-1] > 0 else -1
        return LimitVerdict(
            kind="diverges",
            sign=sign,
            detail=f"|samples| exceed {DIVERGE_THRESHOLD:g} and grow",
            tail_deltas=tail_deltas,
        )

    # oscillation: the centered tail keeps crossing zero without losing
    # amplitude
    center = float(tail.mean())
    centered = tail - center
    noise = 1e-12 * max(1.0, float(np.max(np.abs(tail))))
    signs = np.sign(centered)
    signs[np.abs(centered) <= noise] = 0
    live = signs[signs != 0]
    changes = int(np.count_nonzero(np.diff(live) != 0)) if live.size > 1 else 0
    half = centered.size // 2
    amp_early = float(np.max(np.abs(centered[:half]))) if half else 0.0
    amp_late = float(np.max(np.abs(centered[half:]))) if half < centered.size else 0.0
    if changes >= MIN_SIGN_CHANGES and amp_late > tol and amp_late >= 0.5 * amp_early:
        return LimitVerdict(
            kind="oscillates",
            band=(float(tail.min()), float(tail.max())),
            detail=f"{changes} sign changes about the tail mean, amplitude not shrinking",
            tail_deltas=tail_deltas,
            sign_changes=changes,
        )

    # convergence: increments shrink geometrically and the last one is small
    floor = 1e-11 * max(1.0, float(np.max(np.abs(tail))))
    window = deltas[-max(4, (n - 1) // 2) :]
    shrinking = all(
        d2 <= SHRINK_FACTOR * d1 or d2 <= floor
        for d1, d2 in zip(window[:-1], window[1:])
    )
    if shrinking and window[-1] <= max(tol, floor):
        return LimitVerdict(
            kind="converges",
            value=float(values[-1]),
            detail=(
                f"increments shrink by <= {SHRINK_FACTOR} and final increment"
                f" {float(window[-1]):.3g} <= {max(tol, floor):.3g}"
            ),
            tail_deltas=tail_deltas,
            sign_changes=changes,
        )

    return LimitVerdict(
        kind="inconclusive",
        detail="no divergence, oscillation, or convergence pattern at this tolerance",
        tail_deltas=tail_deltas,
        sign_changes=changes,
    )


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


def _positive_values(F: Expr, xs: np.ndarray, var: str, label: str) -> np.ndarray:
    vals = eval_array(F, {var: xs})
    if np.any(vals <= 0.0):
        bad = float(xs[np.argmax(vals <= 0.0)])
        raise PreconditionError(f"{label} must be positive; failed at x = {bad!r}")
    return vals


def rv_index(
    F: Expr,
    lambdas=DEFAULT_LAMBDAS,
    grid: GeometricGrid = GeometricGrid(10.0, 10.0, 8),
    var: str = "x",
    classify_tol: float = RATIO_CLASSIFY_TOL,
    spread_tol: float = SPREAD_TOL,
) -> IndexEstimate:
    """Estimate the variation index from ``ln(F(lam x)/F(x)) / ln(lam)``.

    ``rho_hat`` averages the estimate at the largest x over the lambda set;
    ``spread`` is the largest pairwise disagreement there.
    """
    lams = [float(l) for l in lambdas]
    if not lams:
        raise PreconditionError("need at least one lambda")
    for lam in lams:
        if lam <= 0 or lam == 1.0:
            raise PreconditionError(f"lambda must be positive and != 1, got {lam!r}")
    xs = np.asarray(grid.points())
    base = np.log(_positive_values(F, xs, var, "F"))
    tracks = []
    finals = []
    for lam in lams:
        shifted = np.log(_positive_values(F, lam * xs, var, "F"))
        est = (shifted - base) / math.log(lam)
        verdict = classify_limit(est, classify_tol) if est.size >= MIN_SAMPLES else (
            LimitVerdict(kind="inconclusive", detail="grid too short to classify")
        )
        tracks.append(
            IndexTrack(
                lam=lam,
                xs=tuple(float(x) for x in xs),
                estimates=tuple(float(v) for v in est),
                verdict=verdict,
            )
        )
        finals.append(float(est[-1]))
    rho_hat = float(np.mean(finals))
    spread = float(np.max(finals) - np.min(finals)) if len(finals) > 1 else 0.0

    witness = None
    verdict = "regularly_varying"
    for track in tracks:
        if track.verdict.kind in ("oscillates", "diverges"):
            verdict = "not_regularly_varying"
            witness = track.lam
            break
    else:
        if spread > spread_tol:
            verdict = "not_regularly_varying"
        elif any(t.verdict.kind != "converges" for t in tracks):
            verdict = "inconclusive"
    return IndexEstimate(
        rho_hat=rho_hat,
        spread=spread,
        verdict=verdict,
        witness_lambda=witness,
        tracks=tuple(tracks),
    )


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
    """
    lams = [float(l) for l in lambdas]
    if math.pi not in lams:
        lams.append(math.pi)
    grids = [grid] if grid.integer_mode else [grid, DEFAULT_INTEGER_GRID]

    passes = []
    witness: float | None = None
    implied: float | None = None
    reason = ""
    saw_reject_oscillation = False
    saw_reject_index = False
    all_converge_to_one = True
    for g in grids:
        # the auto-added integer pass spans a narrow multiplicative window,
        # so its ratios sit near their current value rather than the limit;
        # it only contributes oscillation/divergence evidence
        aux_pass = g is not grid
        xs = np.asarray(g.points())
        base = np.log(_positive_values(F, xs, var, "F"))
        tracks = []
        for lam in lams:
            shifted = np.log(_positive_values(F, lam * xs, var, "F"))
            log_ratios = shifted - base
            ratios = np.exp(log_ratios)
            verdict = classify_limit(ratios, classify_tol)
            tracks.append(
                RatioTrack(
                    lam=lam,
                    xs=tuple(float(x) for x in xs),
                    ratios=tuple(float(r) for r in ratios),
                    log_ratios=tuple(float(r) for r in log_ratios),
                    verdict=verdict,
                )
            )
            if verdict.kind in ("oscillates", "diverges"):
                all_converge_to_one = False
                if not saw_reject_oscillation:
                    saw_reject_oscillation = True
                    witness = lam
                    reason = (
                        f"ratio F({lam:g} x)/F(x) {verdict.kind} along the"
                        f" {'integer' if g.integer_mode else 'geometric'} grid"
                    )
            elif aux_pass:
                pass
            elif verdict.kind == "converges":
                assert verdict.value is not None
                if abs(verdict.value - 1.0) > value_tol:
                    all_converge_to_one = False
                    if not (saw_reject_oscillation or saw_reject_index):
                        saw_reject_index = True
                        witness = lam
                        implied = math.log(verdict.value) / math.log(lam)
                        reason = (
                            f"ratio stabilizes at {verdict.value:.6g} != 1;"
                            f" implied index {implied:.4g}"
                        )
            else:
                all_converge_to_one = False
        passes.append(SvPass(integer_mode=g.integer_mode, tracks=tuple(tracks)))

    if saw_reject_oscillation or saw_reject_index:
        verdict_name = "not_slowly_varying"
    elif all_converge_to_one:
        verdict_name = "slowly_varying"
        reason = "every ratio sequence stabilizes at 1 within tolerance"
    else:
        verdict_name = "inconclusive"
        reason = "some ratio sequences were inconclusive at this tolerance"
    return SvReport(
        verdict=verdict_name,
        reason=reason,
        witness_lambda=witness,
        implied_index=implied,
        passes=tuple(passes),
    )


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
    xs = np.asarray(grid.points())
    vals = np.log(_positive_values(F, xs, var, "F")) / np.log(xs)
    verdict = classify_limit(vals, classify_tol)
    return ProfileReport(
        xs=tuple(float(x) for x in xs),
        xi_values=tuple(float(v) for v in vals),
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# class preservation under the operator

@dataclass(frozen=True)
class ClaimedClass:
    """One of z0 (vanishing at infinity), r0 (slowly varying),
    r_alpha (regularly varying with the given index), bounded (within
    [lo, hi])."""

    kind: str
    alpha: float | None = None
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in ("z0", "r0", "r_alpha", "bounded"):
            raise PreconditionError(f"unknown class {self.kind!r}")
        if self.kind == "r_alpha" and self.alpha is None:
            raise PreconditionError("r_alpha needs alpha")
        if self.kind == "bounded":
            if self.bounds is None or not self.bounds[0] <= self.bounds[1]:
                raise PreconditionError("bounded needs lo <= hi")

    def describe(self) -> str:
        if self.kind == "r_alpha":
            return f"r_alpha(alpha={self.alpha:g})"
        if self.kind == "bounded":
            return f"bounded[{self.bounds[0]:g}, {self.bounds[1]:g}]"
        return self.kind


@dataclass(frozen=True)
class ClassCheckReport:
    claimed: str
    hypothesis_holds: bool
    conclusion_holds: bool
    asserted: bool  # False: conclusion recorded as a measurement only
    hypothesis_detail: dict = field(default_factory=dict)
    conclusion_detail: dict = field(default_factory=dict)
    notes: str = ""


def _membership(values: np.ndarray, claimed: ClaimedClass, classify_tol: float):
    """Class membership test for a plain value sequence (z0 / bounded)."""
    if claimed.kind == "z0":
        verdict = classify_limit(values, classify_tol)
        ok = verdict.converges and abs(verdict.value) <= VALUE_TOL
        return ok, {"verdict": verdict, "final": float(values[-1])}
    if claimed.kind == "bounded":
        lo, hi = claimed.bounds
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        vmin, vmax = float(np.min(values)), float(np.max(values))
        ok = vmin >= lo - slack and vmax <= hi + slack
        return ok, {"min": vmin, "max": vmax, "lo": lo, "hi": hi}
    raise AssertionError("only z0/bounded take plain value sequences")


def _ratio_membership(xs, value_at, claimed: ClaimedClass, classify_tol: float, lams):
    """Class membership for r0 / r_alpha given value lookups at x and lam*x."""
    finals = []
    detail: dict = {"lambdas": lams, "tracks": {}}
    ok = True
    for lam in lams:
        num = np.array([value_at(lam * x) for x in xs])
        den = np.array([value_at(x) for x in xs])
        if np.any(num <= 0) or np.any(den <= 0):
            return False, {"error": "values not positive, ratio test undefined"}
        est = (np.log(num) - np.log(den)) / math.log(lam)
        verdict = classify_limit(est, classify_tol)
        detail["tracks"][f"{lam:g}"] = {
            "estimates": [float(v) for v in est],
            "verdict": verdict,
        }
        finals.append(float(est[-1]))
        if verdict.kind in ("oscillates", "diverges"):
            ok = False
    target = 0.0 if claimed.kind == "r0" else float(claimed.alpha)
    measured = float(np.mean(finals))
    detail["measured_index"] = measured
    detail["target_index"] = target
    # desk-scale bias of the log-ratio estimator is ~1/ln(max x); 0.1 leaves
    # room for one ln-factor of slow variation on top of the pure index
    ok = ok and abs(measured - target) <= 0.1
    return ok, detail


def class_preservation_check(
    h: Expr,
    claimed: ClaimedClass,
    grid: GeometricGrid = DEEP_GRID,
    lambdas=(2.0, 10.0),
    tol: QuadTolerance = QuadTolerance(),
    var: str = "x",
    classify_tol: float = RATIO_CLASSIFY_TOL,
) -> ClassCheckReport:
    """Check h in class (hypothesis) and L(h) in class (conclusion).

    For r_alpha with alpha < 0 the conclusion is recorded as a measurement
    without being asserted (``asserted = False``): desk-scale grids cannot
    distinguish slow decay toward a negative-index envelope from failure.
    """
    xs = np.asarray(grid.points())
    asserted = not (claimed.kind == "r_alpha" and claimed.alpha is not None and claimed.alpha < 0)

    if claimed.kind in ("z0", "bounded"):
        h_values = eval_array(h, {var: xs})
        hyp_ok, hyp_detail = _membership(h_values, claimed, classify_tol)
        l_values = np.array([v.value for v in apply_L_points(h, list(xs), tol, var)])
        con_ok, con_detail = _membership(l_values, claimed, classify_tol)
    else:
        lam_set = sorted({float(l) for l in lambdas})
        point_set = sorted({float(x) for x in xs} | {lam * float(x) for lam in lam_set for x in xs})
        h_lookup = {p: float(eval_array(h, {var: np.array([p])})[0]) for p in point_set}
        hyp_ok, hyp_detail = _ratio_membership(
            xs, lambda p: h_lookup[p], claimed, classify_tol, lam_set
        )
        l_vals = apply_L_points(h, point_set, tol, var)
        l_lookup = {v.x: v.value for v in l_vals}
        con_ok, con_detail = _ratio_membership(
            xs, lambda p: l_lookup[p], claimed, classify_tol, lam_set
        )

    notes = ""
    if not asserted:
        notes = "alpha < 0: conclusion recorded, not asserted"
    return ClassCheckReport(
        claimed=claimed.describe(),
        hypothesis_holds=bool(hyp_ok),
        conclusion_holds=bool(con_ok),
        asserted=asserted,
        hypothesis_detail=hyp_detail,
        conclusion_detail=con_detail,
        notes=notes,
    )
