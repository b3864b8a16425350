"""Adaptive quadrature for integrals of the form ``int_1^x h(t)/t dt``.

The substitution ``t = e^u`` turns the weighted integral into a plain one,
``int_0^{ln x} h(e^u) du``, which is what the engine actually computes.
Panels are refined by bisection; each panel is measured with the nested
Gauss(7)/Kronrod(15) pair and accepted once the Kronrod-vs-Gauss error
estimate meets the tolerance share allocated proportionally to the panel's
length.  All pending panels of a refinement wave are evaluated together,
in fixed blocks of ``_BLOCK`` panels whose work arrays stay in cache, so
oscillatory integrands stay affordable.  Every panel is measured on its own,
so the results do not depend on the block size.

If the evaluation budget runs out first, the best available value and an
honest error estimate are returned with ``converged = False`` instead of
raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exprlang import Expr, eval_array

__all__ = [
    "QuadTolerance",
    "QuadResult",
    "IntegralCache",
    "integrate_log",
    "PreconditionError",
]


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


# Gauss(7)/Kronrod(15) nodes and weights on [-1, 1].  The Gauss nodes are
# the odd-index Kronrod nodes, so one batch of 15 evaluations feeds both
# rules.  Exactness (degree 13 / degree 23) is pinned by the test suite.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full 15-point node/weight vectors, ordered left to right
_NODES = np.concatenate([-_XGK[:7], [_XGK[7]], _XGK[6::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])


@dataclass(frozen=True)
class QuadTolerance:
    """Accuracy request for one integration call."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_evals: int = 1_000_000

    def __post_init__(self):
        for tol in (self.abs_tol, self.rel_tol):
            if not (tol > 0) or not math.isfinite(tol):
                raise PreconditionError("tolerances must be positive and finite")
        if self.max_evals < 15:
            raise PreconditionError("evaluation budget must allow one panel")


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


# Panels per block of a wave: a block's (_BLOCK, 15) arrays are 240 KiB each.
_BLOCK = 2048
# round-off floor of the error estimate, as a multiple of int |f|
_FLOOR = 50.0 * np.finfo(float).eps


def _panel_rule(f, lo: np.ndarray, hi: np.ndarray):
    """Kronrod value and QUADPACK-style error per panel.

    A wave is measured ``_BLOCK`` panels at a time, so that the (panels, 15)
    arrays of a block stay in cache."""
    n = lo.size
    if n <= _BLOCK:
        return _rule_block(f, lo, hi)
    resk = np.empty(n)
    err = np.empty(n)
    for start in range(0, n, _BLOCK):
        b = slice(start, start + _BLOCK)
        resk[b], err[b] = _rule_block(f, lo[b], hi[b])
    return resk, err


def _rule_block(f, lo, hi):
    """The rule on one block of panels; ``f`` must return a new array.

    The weighted sums reuse the block's ``points`` array in place.  Each is
    a multiply and a row sum per panel, so no result depends on the block
    size."""
    width = hi - lo
    half = 0.5 * width
    points = half[:, None] * _NODES
    points += (0.5 * (lo + hi))[:, None]
    fx = f(points)
    resk = np.multiply(fx, _WEIGHTS_K, out=points).sum(axis=1) * half
    resg = np.multiply(fx, _WEIGHTS_G, out=points).sum(axis=1) * half
    np.subtract(fx, (resk / width)[:, None], out=points)
    np.abs(points, out=points)
    points *= _WEIGHTS_K
    resasc = points.sum(axis=1) * half
    np.abs(fx, out=points)
    points *= _WEIGHTS_K
    resabs = points.sum(axis=1) * half
    err = np.abs(resk - resg)
    measured = resasc > 0.0
    scale = np.where(measured, resasc, 1.0)
    err = np.where(measured, resasc * np.minimum(1.0, (200.0 * err / scale) ** 1.5), err)
    return resk, np.maximum(err, _FLOOR * resabs)


def _bisect(lo: np.ndarray, hi: np.ndarray):
    """Halve sorted, disjoint panels; the children come out in ascending order.

    Children interleave as lo_i, mid_i, lo_{i+1}, ...  Only when panels are a
    few ulps wide can a midpoint equal the next panel's left end; a stable
    sort of the left ends orders such ties differently, so they take the sort."""
    mid = 0.5 * (lo + hi)
    if (mid[:-1] == lo[1:]).any():
        keys = np.concatenate([lo, mid])
        order = np.argsort(keys, kind="stable")
        return keys[order], np.concatenate([mid, hi])[order]
    new_lo = np.empty(2 * lo.size)
    new_hi = np.empty(2 * lo.size)
    new_lo[0::2] = lo
    new_lo[1::2] = mid
    new_hi[0::2] = mid
    new_hi[1::2] = hi
    return new_lo, new_hi


def _adaptive(f, a: float, b: float, tol: QuadTolerance, max_evals: int) -> QuadResult:
    """Bisection-adaptive Gauss-Kronrod over [a, b], batched per wave.

    ``max_evals`` (at least 15) caps the evaluations of this call."""
    if b <= a:
        return QuadResult(0.0, 0.0, 0, True)
    span = b - a
    lo = np.array([a])
    hi = np.array([b])
    done_value = 0.0
    done_error = 0.0
    evals = 0
    converged = True
    while True:
        resk, err = _panel_rule(f, lo, hi)
        evals += 15 * lo.size
        value_estimate = done_value + float(resk.sum())
        tol_total = max(tol.abs_tol, tol.rel_tol * abs(value_estimate))
        local_tol = tol_total * (hi - lo) / span
        ok = err <= local_tol
        done_value += float(resk[ok].sum())
        done_error += float(err[ok].sum())
        keep = ~ok
        lo, hi = lo[keep], hi[keep]
        if not lo.size:
            break
        if evals + 30 * lo.size > max_evals:
            # splitting the pending panels would blow the budget: keep their
            # current measurements and report non-convergence.  evaluations
            # never exceeds max_evals.
            done_value += float(resk[keep].sum())
            done_error += float(err[keep].sum())
            converged = False
            break
        lo, hi = _bisect(lo, hi)
    return QuadResult(done_value, done_error, evals, converged)


def integrate_log(
    h: Expr,
    x: float,
    tol: QuadTolerance = QuadTolerance(),
    var: str = "x",
) -> QuadResult:
    """Compute ``int_1^x h(t)/t dt`` for ``x >= 1``.

    ``var`` names the integration variable inside ``h``.
    """
    if not math.isfinite(x):
        raise PreconditionError(f"integrate_log needs a finite x, got {x!r}")
    if x < 1.0:
        raise PreconditionError(f"integrate_log needs x >= 1, got {x!r}")
    if x == 1.0:
        return QuadResult(0.0, 0.0, 0, True)

    def f(points: np.ndarray) -> np.ndarray:
        return eval_array(h, {var: np.exp(points)})

    return _adaptive(f, 0.0, math.log(x), tol, tol.max_evals)


@dataclass
class IntegralCache:
    """Incremental evaluation of ``int_1^x h(t)/t dt`` along ascending x.

    ``extend`` integrates only the new segment past the current frontier and
    accumulates, so walking a grid costs one pass over [1, max x].
    """

    integrand: Expr
    var: str = "x"
    tol: QuadTolerance = field(default_factory=QuadTolerance)
    frontier: float = 1.0
    value: float = 0.0
    error_estimate: float = 0.0
    evaluations: int = 0
    converged: bool = True

    def extend(self, x_next: float) -> QuadResult:
        """Advance the frontier to ``x_next`` (non-decreasing) and return
        the accumulated integral over [1, x_next].

        ``tol.max_evals`` caps the whole sweep: each segment gets only the
        budget the earlier ones left.  With less than one panel (15
        evaluations) left, the frontier moves without integrating and the
        cache is marked not converged."""
        if not math.isfinite(x_next):
            raise PreconditionError(f"cache extend needs a finite x, got {x_next!r}")
        if x_next < self.frontier:
            raise PreconditionError(
                f"cache frontier is {self.frontier!r}, cannot move back to {x_next!r}"
            )
        if x_next > self.frontier:
            remaining = self.tol.max_evals - self.evaluations
            if remaining < 15:
                self.converged = False
            else:
                a = math.log(self.frontier)
                b = math.log(x_next)

                def f(points: np.ndarray) -> np.ndarray:
                    return eval_array(self.integrand, {self.var: np.exp(points)})

                seg = _adaptive(f, a, b, self.tol, remaining)
                self.value += seg.value
                self.error_estimate += seg.error_estimate
                self.evaluations += seg.evaluations
                self.converged = self.converged and seg.converged
            self.frontier = x_next
        return QuadResult(
            self.value, self.error_estimate, self.evaluations, self.converged
        )
