"""Uniform-convergence scans and residual diagnostics.

The scanners share one vectorized kernel: evaluate a residual once over the
broadcast (x, parameter) grid, take per-x suprema (grid maximum plus one
local refinement pass around the argmax, since interior peaks can fall
between grid points; all rows are refined as one batch), and classify the
supremum sequence.  A Uniform verdict is grid-relative; a
NotUniform verdict exhibits a witness: the tail of the supremum sequence
stays above a positive floor while no longer decreasing.

A scan computes in place only in an array it made itself: the product
``lam * x``, which it hands to ``eval_array`` as ``owned`` when the variable
occurs once in the expression, a fresh result of ``eval_array``, or a
matrix it derived from one.  It never writes into ``xs``, ``params``, any
other array of an ``eval_array`` environment, or an array ``eval_array``
returned that is one of those.  Each step is then the same IEEE operation on
the same operands, so in-place and out-of-place scans agree bit for bit.

A scan makes every check and computes every number at once, but builds its
report's ``residuals`` (one tuple of floats per x) and ``column_verdicts``
(one verdict per parameter) only on their first read, and keeps them.  A
caller that reads only the suprema and the verdict never pays for them;
reading one costs what building it at once did.

Also here: the triangle-style inequality check on low-discrepancy samples,
the multiplicative-closure decomposition identity, the interval expansion
map, and the integral-asymptotics residual table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    GeometricGrid,
    LimitVerdict,
    RATIO_CLASSIFY_TOL,
    VALUE_TOL,
    _row_numbers,
    _row_verdicts,
    _values,
    classify_rows,
)
from .exprlang import Bin, EvalError, Expr, _owned, eval_array
from .quad import IntegralCache, QuadTolerance
from .rules import (
    MIN_PARAM_COUNT,
    MIN_SAMPLES,
    REFINE_COUNT,
    PreconditionError,
    _check_above,
    _check_classifiable,
    _check_count,
    _check_finite,
    _check_interval,
    _check_product,
)

__all__ = [
    "ScanReport",
    "Region",
    "HiViolation",
    "HiReport",
    "GuctReport",
    "MultClosureReport",
    "AsymRow",
    "AsymReport",
    "uct_scan",
    "karamata_uct_check",
    "hi_check",
    "guct_diagnose",
    "condition_scan_310",
    "mult_closure_residual",
    "interval_expand",
    "integral_asym_residual",
    "halton_points",
]


class _Deferred(functools.partial):
    """A field value not built yet: calling it builds the value."""


class _BuiltOnRead:
    """A dataclass field whose stored value may be a ``_Deferred``, which is
    built on the first read and then kept in its place; any other value is
    returned as given.  Read on the class, it raises AttributeError, so the
    field has no default."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        value = obj.__dict__[self.name]
        if type(value) is _Deferred:
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class ScanReport:
    """The result of a uniformity scan.

    A scan builds ``residuals`` and ``column_verdicts`` on their first read
    (by ``repr``, ``==``, ``hash``, ``dataclasses.replace`` or a renderer,
    too) and keeps them; that read costs what building them at once did.
    Until then the report holds the read-only residual matrix and the
    numbers behind each column verdict, and pickles and copies with them.
    Every error of the scan is raised by the scan call itself."""

    xs: tuple[float, ...]
    params: tuple[float, ...]
    residuals: tuple[tuple[float, ...], ...] = _BuiltOnRead()  # one row per x, signed values
    suprema: tuple[float, ...]  # per-x max |residual|, after refinement
    sup_params: tuple[float, ...]  # parameter attaining each supremum
    verdict: str  # uniform | not_uniform | inconclusive
    witness_param: float | None
    floor: float | None
    suprema_verdict: LimitVerdict | None
    column_verdicts: tuple[LimitVerdict, ...] | None = _BuiltOnRead()  # per base param
    note: str = ""


def _tuples(rows: np.ndarray) -> tuple[tuple[float, ...], ...]:
    """``ScanReport.residuals`` of the residual matrix ``rows``."""
    return tuple(map(tuple, rows.tolist()))


def _grid_suprema(grid_fn, xs: np.ndarray, params: np.ndarray):
    """Residual matrix, and each row's max ``|residual|`` and its parameter,
    refined once on ``REFINE_COUNT`` points around every argmax at once."""
    rows = grid_fn(xs, params[None, :])
    magnitude = np.abs(rows)
    j = np.argmax(magnitude, axis=1)
    suprema = magnitude[np.arange(xs.size), j]
    sup_params = params[j]
    lo = params[np.maximum(j - 1, 0)]
    hi = params[np.minimum(j + 1, params.size - 1)]
    refine = np.flatnonzero(hi > lo)
    if refine.size:
        fine = np.linspace(lo[refine], hi[refine], REFINE_COUNT, axis=1)
        fine_rows = grid_fn(xs[refine], fine)
        np.abs(fine_rows, out=fine_rows)
        k = np.argmax(fine_rows, axis=1)
        best = fine_rows[np.arange(refine.size), k]
        better = best > suprema[refine]
        suprema[refine[better]] = best[better]
        sup_params[refine[better]] = fine[better, k[better]]
    return rows, suprema, sup_params


def _scan(
    grid_fn,
    xs: np.ndarray,
    params: np.ndarray,
    classify_tol: float,
    value_tol: float,
) -> ScanReport:
    """Scan ``grid_fn`` over the (x, parameter) grid and classify the suprema.

    ``grid_fn(xs, ps)`` returns the ``(n, m)`` signed residuals of ``n`` x
    values against parameters of shape ``(1, m)`` or ``(n, m)``, in an array
    the scan may keep and write into.  When the
    grid fails, the rows are walked in order so the error names the first
    failing x."""
    _check_above(value_tol, 0.0, "value_tol")
    try:
        rows, suprema, sup_params = _grid_suprema(grid_fn, xs, params)
    except (EvalError, PreconditionError):
        for i, x in enumerate(xs.tolist()):
            try:
                _grid_suprema(grid_fn, xs[i : i + 1], params)
            except EvalError as exc:
                raise type(exc)(f"{exc} (scan row x = {x!r})") from exc
        raise

    if xs.size < MIN_SAMPLES:
        verdict, witness, floor, sup_verdict, column_verdicts = (
            "inconclusive",
            None,
            None,
            None,
            None,
        )
        note = f"fewer than {MIN_SAMPLES} x samples; suprema not classified"
    else:
        # every column and, as the last row, the suprema in one numeric pass;
        # the column verdicts are built on their first read
        numbers = _row_numbers(np.vstack((rows.T, suprema)), classify_tol)
        (sup_verdict,) = _row_verdicts(numbers, slice(-1, None))
        column_verdicts = _Deferred(_row_verdicts, numbers, slice(-1))
        tail = suprema[suprema.size // 2 :]
        floor = float(np.min(tail))
        still_decreasing = bool(
            np.all(np.diff(tail) < 0) and tail[-1] <= 0.9 * tail[0]
        )
        if sup_verdict.converges and abs(sup_verdict.value) <= value_tol:
            verdict, witness, note = "uniform", None, "suprema settle within tolerance"
        elif floor > value_tol and not still_decreasing:
            verdict = "not_uniform"
            witness = float(sup_params[-1])
            note = f"suprema stay >= {floor:.6g} without decreasing"
        else:
            verdict, witness = "inconclusive", None
            note = "suprema neither settled below tolerance nor stabilized above it"

    rows.flags.writeable = False
    return ScanReport(
        xs=tuple(xs.tolist()),
        params=tuple(params.tolist()),
        residuals=_Deferred(_tuples, rows),
        suprema=tuple(suprema.tolist()),
        sup_params=tuple(sup_params.tolist()),
        verdict=verdict,
        witness_param=witness,
        floor=floor,
        suprema_verdict=sup_verdict,
        column_verdicts=column_verdicts,
        note=note,
    )


def _finite_rows(rows: np.ndarray, xs: np.ndarray, what: str) -> np.ndarray:
    """``rows``, the residuals of a scan at ``xs``, unless one overflowed:
    then name the first x whose row holds an infinity."""
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise PreconditionError(f"{what} overflows at x = {float(xs[bad[0]])!r}")
    return rows


def _spaced(a: float, b: float, count: int) -> np.ndarray:
    """``count`` points evenly spaced over [a, b].  On a window almost as
    wide as the float range, ``linspace``'s product for the last point
    overflows before it puts b there."""
    with np.errstate(over="ignore"):
        return np.linspace(a, b, count)


def _window(name: str, interval, count: int, x_max: float | None = None) -> np.ndarray:
    """The ``count`` values of the scan parameter ``name`` (u or lambda),
    evenly spaced over ``interval``.

    Given ``x_max``, the largest grid point, the parameters are lambdas: the
    window must sit in (0, inf) and ``lam * x`` must stay finite on it."""
    a, b = _check_interval(interval, f"{name} interval")
    count = _check_count(count, MIN_PARAM_COUNT, f"{name}_count")
    if x_max is not None:
        _check_above(a, 0.0, f"{name} interval start")
        _check_product(b, x_max, "lam * x")
    return _spaced(a, b, count)


def uct_scan(
    G: Expr,
    u_interval,
    x_grid: GeometricGrid,
    u_count: int = REFINE_COUNT,
    classify_tol: float = RATIO_CLASSIFY_TOL,
    value_tol: float = VALUE_TOL,
) -> ScanReport:
    """Scan ``|G(x, u)|`` for uniform smallness in u as x grows."""
    params = _window("u", u_interval, u_count)
    xs = np.asarray(x_grid.points())

    def grid_fn(xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
        env = {"x": xs[:, None], "u": ps}
        values = eval_array(G, env)
        # G = "u" on the refinement's (n, m) parameters returns them
        if any(values is v for v in env.values()):
            return np.abs(values)
        return np.abs(values, out=values)

    return _scan(grid_fn, xs, params, classify_tol, value_tol)


def karamata_uct_check(
    F: Expr,
    lambda_interval,
    x_grid: GeometricGrid,
    lambda_count: int = REFINE_COUNT,
    classify_tol: float = RATIO_CLASSIFY_TOL,
    value_tol: float = VALUE_TOL,
    var: str = "x",
) -> ScanReport:
    """Scan the slow-variation residual ``F(lam x)/F(x) - 1`` over a compact
    lambda window.  Uniform decay of the suprema is the numerical face of
    the uniform convergence property for slowly varying F."""
    xs = np.asarray(x_grid.points())
    params = _window("lambda", lambda_interval, lambda_count, float(xs.max()))

    owned = _owned(F, var)

    def grid_fn(xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
        base = _values(F, xs, var)
        # F(lam x), in the scan's own array (the product, or a fresh
        # result), which becomes the ratio in place
        ratio = eval_array(F, {var: ps * xs[:, None]}, owned)
        bad = np.flatnonzero(np.any(ratio <= 0, axis=1))
        if bad.size:
            raise PreconditionError(
                f"F must be positive on the lambda window at x = {float(xs[bad[0]])!r}"
            )
        with np.errstate(over="ignore"):
            np.divide(ratio, base[:, None], out=ratio)
        _finite_rows(ratio, xs, "F(lam x)/F(x)")
        np.subtract(ratio, 1.0, out=ratio)
        return np.abs(ratio, out=ratio)

    return _scan(grid_fn, xs, params, classify_tol, value_tol)


def condition_scan_310(
    xi: Expr,
    lambda_interval,
    x_grid: GeometricGrid,
    lambda_count: int = REFINE_COUNT,
    integer_mode: bool = False,
    classify_tol: float = RATIO_CLASSIFY_TOL,
    value_tol: float = VALUE_TOL,
    var: str = "x",
) -> ScanReport:
    """Scan ``(xi(lam x) - xi(x)) * ln x`` over a lambda window.

    This residual must vanish uniformly on compacta for ``x^xi(x)`` to be
    slowly varying.  The matrix keeps signed residuals so oscillation shows
    its shape; suprema are still absolute.  ``integer_mode`` reruns the
    supplied grid as a consecutive-integer walk, which exposes the classic
    failure a geometric grid would average away."""
    if integer_mode and not x_grid.integer_mode:
        x_grid = GeometricGrid(x_grid.start, x_grid.ratio, x_grid.count, integer_mode=True)
    xs = np.asarray(x_grid.points())
    params = _window("lambda", lambda_interval, lambda_count, float(xs.max()))

    owned = _owned(xi, var)

    def grid_fn(xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
        at_x = eval_array(xi, {var: xs})
        # xi(lam x), in the scan's own array (the product, or a fresh
        # result), which becomes the residual in place
        residual = eval_array(xi, {var: ps * xs[:, None]}, owned)
        ln_x = np.array([math.log(x) for x in xs.tolist()])
        with np.errstate(over="ignore"):
            np.subtract(residual, at_x[:, None], out=residual)
            np.multiply(residual, ln_x[:, None], out=residual)
        return _finite_rows(residual, xs, "(xi(lam x) - xi(x)) * ln x")

    return _scan(grid_fn, xs, params, classify_tol, value_tol)


# ---------------------------------------------------------------------------
# low-discrepancy inequality check

_HALTON_BASES = (2, 3, 5, 7, 11, 13)
_HALTON_BLOCK = 8192  # indices per pass; keeps the work arrays small
_HALTON_TABLE_MAX = 8192  # entries of a base's low-digit table at most


@functools.cache
def _halton_table(base: int) -> tuple[np.ndarray, float]:
    """The scalar loop's value after the k lowest digits of each of
    0 .. base**k - 1, for the largest base**k <= ``_HALTON_TABLE_MAX``, and
    the ``f`` it ends on (read-only, built on first use)."""
    k = 1
    while base ** (k + 1) <= _HALTON_TABLE_MAX:
        k += 1
    n, table, f = np.arange(base**k), np.zeros(base**k), 1.0
    for _ in range(k):
        f /= base
        n, digit = np.divmod(n, base)
        table += digit * f
    table.flags.writeable = False
    return table, f


def halton_points(count: int, dims: int, skip: int = 20) -> np.ndarray:
    """Deterministic Halton sequence in (0, 1)^dims (bases 2, 3, 5, ...).

    Point ``i`` is the radical inverse of ``i + 1 + skip``, computed with
    the steps of the scalar loop (``f /= base``, then ``value += digit * f``),
    lowest digit first.  The sum over an index's k lowest digits is looked
    up in a table of ``base**k <= 8192`` entries, which those same steps
    built (``_halton_table``); the higher digits of a block of indices are
    then peeled off at once from the ``f`` the table ends on.  A digit
    beyond an index's last, in the table or in the loop, adds an exact 0.0,
    so every point is bit-identical to the one-index-at-a-time result."""
    dims = _check_count(dims, 1, "dims", len(_HALTON_BASES))
    count = _check_count(count, 0, "count")
    skip = _check_count(skip, 0, "skip")
    if count + skip > np.iinfo(np.int64).max:
        raise PreconditionError(f"count + skip must fit in int64, got {count + skip!r}")
    out = np.empty((count, dims))
    for start in range(0, count, _HALTON_BLOCK):
        stop = min(start + _HALTON_BLOCK, count)
        indices = np.arange(start + 1 + skip, stop + 1 + skip, dtype=np.int64)
        for d, base in enumerate(_HALTON_BASES[:dims]):
            table, f = _halton_table(base)
            n, low = np.divmod(indices, table.size)
            value = table[low]
            # n is ascending, and stays so under floor division: the last
            # index is the last to run out of digits
            while n[-1] > 0:
                f /= base
                n, digit = np.divmod(n, base)
                value += digit * f
            out[start:stop, d] = value
    return out


@dataclass(frozen=True)
class Region:
    """Axis-aligned sampling box for (x, u, v)."""

    x: tuple[float, float]
    u: tuple[float, float]
    v: tuple[float, float]

    def __post_init__(self):
        for name in ("x", "u", "v"):
            lo, hi = (_check_finite(end, f"region {name} range") for end in getattr(self, name))
            if not lo <= hi:
                raise PreconditionError(f"region {name} range needs lo <= hi")


@dataclass(frozen=True)
class HiViolation:
    x: float
    u: float
    v: float
    lhs: float
    rhs: float


@dataclass(frozen=True)
class HiReport:
    samples: int
    violations: tuple[HiViolation, ...]
    max_margin: float  # max of lhs - rhs over all samples; <= 0 means clean
    ok: bool


def _finite_sum(a, b, what: str = "a sample point, x + u or u + v") -> np.ndarray:
    """``a + b`` for hi_check's sample points and sides, which must not
    overflow.

    A factor in (0, 1) times a finite span cannot overflow, and an infinite
    span gives an exact inf, so the sums are the only steps to guard; a sum
    of opposite infinities is nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = a + b
    if not np.isfinite(total).all():
        raise PreconditionError(f"hi_check overflows: {what} is not finite")
    return total


def hi_check(H: Expr, sample_count: int, region: Region) -> HiReport:
    """Check ``H(x, u) <= H(x+u, v) + H(x, u+v)`` on Halton samples.

    ``H`` is an expression in the variables x and u; the shifted arguments
    are produced by substitution.  Violations beyond a relative slack of
    1e-12 are collected with their sample points."""
    _check_count(sample_count, 1, "sample_count")
    unit = halton_points(sample_count, 3)
    xs = _finite_sum(region.x[0], unit[:, 0] * (region.x[1] - region.x[0]))
    us = _finite_sum(region.u[0], unit[:, 1] * (region.u[1] - region.u[0]))
    vs = _finite_sum(region.v[0], unit[:, 2] * (region.v[1] - region.v[0]))

    # x + u before H(x, u), which may hold x + u itself, so that an overflow
    # is named as such; dropped once used, so large samples peak no higher
    x_shift = _finite_sum(xs, us)
    lhs = eval_array(H, {"x": xs, "u": us})
    rhs = eval_array(H, {"x": x_shift, "u": vs})
    del x_shift
    rhs = _finite_sum(
        rhs, eval_array(H, {"x": xs, "u": _finite_sum(us, vs)}), "H(x+u, v) + H(x, u+v)"
    )
    margin = float(np.max(_finite_sum(lhs, -rhs, "H(x, u) - (H(x+u, v) + H(x, u+v))")))
    # 1e-12 * max(1, |lhs|, |rhs|), then rhs + slack, in one array
    slack = np.abs(lhs)
    np.maximum(slack, np.abs(rhs), out=slack)
    np.maximum(slack, 1.0, out=slack)
    np.multiply(slack, 1e-12, out=slack)
    with np.errstate(over="ignore"):
        # rhs + slack may round past the largest float only at rhs ~ 1.8e308,
        # where no finite lhs exceeds it
        bad = lhs > np.add(rhs, slack, out=slack)
    violations = tuple(
        HiViolation(float(xs[i]), float(us[i]), float(vs[i]), float(lhs[i]), float(rhs[i]))
        for i in np.flatnonzero(bad)
    )
    return HiReport(
        samples=sample_count,
        violations=violations,
        max_margin=margin,
        ok=not bool(bad.any()),
    )


@dataclass(frozen=True)
class GuctReport:
    hi: HiReport
    monotone_ok: bool
    monotone_detail: str
    pointwise: tuple[tuple[float, LimitVerdict], ...]  # (probe u, verdict)
    pointwise_ok: bool
    scan: ScanReport

    @property
    def hypotheses_ok(self) -> bool:
        return self.hi.ok and self.monotone_ok and self.pointwise_ok


def guct_diagnose(
    H: Expr,
    m: Expr,
    u_interval,
    x_grid: GeometricGrid,
    u_count: int = REFINE_COUNT,
    sample_count: int = 1000,
    classify_tol: float = RATIO_CLASSIFY_TOL,
    value_tol: float = VALUE_TOL,
) -> GuctReport:
    """Full diagnosis for the product form ``G = H * m``.

    Hypotheses measured: the triangle-style inequality for H on Halton
    samples (u and v both drawn from ``u_interval``), monotonicity of m
    along x, and pointwise decay of G at probe u values.  The conclusion
    (uniform decay over the whole u interval) is then scanned."""
    _check_above(value_tol, 0.0, "value_tol")
    _check_classifiable(x_grid)
    a, b = _check_interval(u_interval, "u interval")
    xs = np.asarray(x_grid.points())
    region = Region(x=(float(xs[0]), float(xs[-1])), u=(a, b), v=(a, b))
    hi = hi_check(H, sample_count, region)

    dense = np.geomspace(xs[0], xs[-1], 257)
    m_vals = eval_array(m, {"x": dense})
    slack = 1e-12 * max(1.0, float(np.max(np.abs(m_vals))))
    drops = np.flatnonzero(np.diff(m_vals) < -slack)
    monotone_ok = drops.size == 0
    if monotone_ok:
        monotone_detail = "m is nondecreasing along the sampled range"
    else:
        at = float(dense[drops[0]])
        monotone_detail = f"m decreases near x = {at:.6g}"

    G = Bin("*", H, m)
    probes = _spaced(a, b, 5)
    tracks = eval_array(G, {"x": xs, "u": probes[:, None]})  # one row per probe
    pointwise = tuple(zip(probes.tolist(), classify_rows(tracks, classify_tol)))
    pointwise_ok = all(v.converges and abs(v.value) <= value_tol for _, v in pointwise)

    scan = uct_scan(G, (a, b), x_grid, u_count, classify_tol, value_tol)
    return GuctReport(
        hi=hi,
        monotone_ok=monotone_ok,
        monotone_detail=monotone_detail,
        pointwise=pointwise,
        pointwise_ok=pointwise_ok,
        scan=scan,
    )


# ---------------------------------------------------------------------------
# multiplicative closure

@dataclass(frozen=True)
class MultClosureReport:
    xs: tuple[float, ...]
    step_lam: tuple[float, ...]  # (f(lam x) - f(x)) ln x
    step_mu: tuple[float, ...]  # (f(mu lam x) - f(lam x)) ln x
    combined: tuple[float, ...]  # (f(lam mu x) - f(x)) ln x
    max_ulp_deviation: float
    identity_ok: bool  # combined == step_lam + step_mu within 4 ulps
    verdicts: tuple[LimitVerdict, LimitVerdict, LimitVerdict] | None


def mult_closure_residual(
    f: Expr,
    lam: float,
    mu: float,
    x_grid: GeometricGrid,
    var: str = "x",
    classify_tol: float = RATIO_CLASSIFY_TOL,
) -> MultClosureReport:
    """Decompose the lam*mu residual into the lam step plus the mu step.

    All three columns are built from one evaluation of f, at x, lam x and
    mu (lam x), so the decomposition is an arithmetic identity up to a few
    ulps."""
    lam, mu = _check_above(lam, 0.0, "lam"), _check_above(mu, 0.0, "mu")
    xs = np.asarray(x_grid.points())
    x_max = float(xs.max())
    _check_product(lam, x_max, "lam * x")
    _check_product(mu, lam * x_max, "mu * (lam * x)")
    lnx = np.log(xs)
    f_base, f_lam, f_both = eval_array(f, {var: np.stack([xs, lam * xs, mu * (lam * xs)])})
    with np.errstate(over="ignore", invalid="ignore"):
        step_lam = (f_lam - f_base) * lnx
        step_mu = (f_both - f_lam) * lnx
        combined = (f_both - f_base) * lnx
        total = step_lam + step_mu  # inf + -inf: steps that overflow both ways
    _finite_rows(
        np.column_stack([step_lam, step_mu, combined, total]), xs,
        "the closure residual (f(lam x) - f(x)) * ln x, a step of it or their sum",
    )

    diff = np.abs(total - combined)
    scale = np.maximum.reduce([np.abs(step_lam), np.abs(step_mu), np.abs(combined)])
    ulp = np.spacing(np.maximum(scale, np.finfo(float).tiny))
    ulps = diff / ulp
    max_ulps = float(np.max(ulps)) if ulps.size else 0.0

    verdicts = None
    if xs.size >= MIN_SAMPLES:
        verdicts = classify_rows((step_lam, step_mu, combined), classify_tol)
    return MultClosureReport(
        xs=tuple(float(x) for x in xs),
        step_lam=tuple(float(v) for v in step_lam),
        step_mu=tuple(float(v) for v in step_mu),
        combined=tuple(float(v) for v in combined),
        max_ulp_deviation=max_ulps,
        identity_ok=max_ulps <= 4.0,
        verdicts=verdicts,
    )


def interval_expand(a: float, b: float, n: int) -> tuple[float, float]:
    """n-fold product expansion of a ratio window: ``((a/b)^n, (b/a)^n)``.

    ``n = 0`` is the identity and returns the window itself."""
    a = _check_above(a, 0.0, "a")
    a, b = _check_interval((a, b), "[a, b]")
    n = _check_count(n, 0, "n")
    if n == 0:
        return (a, b)
    try:
        hi = (b / a) ** n
    except OverflowError:
        hi = math.inf
    if not math.isfinite(hi):
        raise PreconditionError(f"(b/a)^n overflows for a={a!r}, b={b!r}, n={n!r}")
    return ((a / b) ** n, hi)


# ---------------------------------------------------------------------------
# integral asymptotics

@dataclass(frozen=True)
class AsymRow:
    x: float
    lhs: float  # int_x^{lam x} h/t dt
    rhs: float  # ln(lam)/(ln(lam)+ln(x)) * int_1^x h/t dt
    residual: float  # lhs - rhs
    lcond: float  # (L(h)(lam x) - L(h)(x)) * ln x


@dataclass(frozen=True)
class AsymReport:
    lam: float
    bound: float
    rows: tuple[AsymRow, ...]
    residual_verdict: LimitVerdict | None
    lcond_verdict: LimitVerdict | None
    bound_ok: bool
    bound_detail: str
    quad_converged: bool


def integral_asym_residual(
    h: Expr,
    lam: float,
    x_grid: GeometricGrid,
    bound: float,
    tol: QuadTolerance = QuadTolerance(),
    var: str = "x",
    classify_tol: float = RATIO_CLASSIFY_TOL,
) -> AsymReport:
    """Residual of the window-integral asymptotic for bounded positive h.

    For each grid x the window integral over [x, lam x] is compared with
    its predicted share of the full integral over [1, x].  For constant h
    the residual is exactly ``(ln lam)^2 c / (ln lam + ln x)``."""
    lam, bound = _check_above(lam, 1.0, "lam"), _check_above(bound, 0.0, "bound")
    xs = np.asarray(x_grid.points())
    _check_product(lam, float(xs.max()), "lam * x")

    sample = np.geomspace(1.0, lam * xs[-1], 512)
    h_vals = eval_array(h, {var: sample})
    slack = 1e-9 * bound
    too_big = np.flatnonzero(h_vals > bound + slack)
    nonpos = np.flatnonzero(h_vals <= 0.0)
    bound_ok = too_big.size == 0 and nonpos.size == 0
    if bound_ok:
        bound_detail = f"0 < h <= {bound:g} on the sampled range"
    elif nonpos.size:
        bound_detail = f"h is not positive near x = {float(sample[nonpos[0]]):.6g}"
    else:
        bound_detail = f"h exceeds {bound:g} near x = {float(sample[too_big[0]]):.6g}"

    points = sorted({float(x) for x in xs} | {lam * float(x) for x in xs})
    cache = IntegralCache(h, var=var, tol=tol)
    integral_at = {}
    for p in points:
        integral_at[p] = cache.extend(p).value

    rows = []
    for x in (float(v) for v in xs):
        ix = integral_at[x]
        ilx = integral_at[lam * x]
        lnx = math.log(x)
        lhs = ilx - ix
        rhs = (math.log(lam) / (math.log(lam) + lnx)) * ix
        lcond = (ilx / math.log(lam * x) - ix / lnx) * lnx
        rows.append(AsymRow(x=x, lhs=lhs, rhs=rhs, residual=lhs - rhs, lcond=lcond))

    residual_verdict = lcond_verdict = None
    if xs.size >= MIN_SAMPLES:
        residual_verdict, lcond_verdict = classify_rows(
            [[r.residual for r in rows], [r.lcond for r in rows]], classify_tol
        )
    return AsymReport(
        lam=lam,
        bound=bound,
        rows=tuple(rows),
        residual_verdict=residual_verdict,
        lcond_verdict=lcond_verdict,
        bound_ok=bound_ok,
        bound_detail=bound_detail,
        quad_converged=cache.converged,
    )
