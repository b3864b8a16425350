"""The log-averaging operator, its closed-form inverse, and grid sweeps.

For ``h`` defined on [1, oo) the operator is

    L(h)(x) = (1 / ln x) * int_1^x h(t)/t dt,

extended by continuity to ``L(h)(1) = h(1)``.  It is linear, maps constants
to themselves, and sends several convergence classes into themselves; the
asymptotics module measures those claims numerically.

The inverse direction is symbolic: ``invert_L(f) = f + x * f' * ln x``
satisfies ``L(invert_L(f)) = f`` for differentiable ``f``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exprlang import (
    Bin,
    Call,
    Expr,
    Var,
    differentiate,
    evaluate,
    fold,
)
from .quad import IntegralCache, QuadResult, QuadTolerance
from .rules import _check_point

__all__ = [
    "apply_L",
    "apply_L_detailed",
    "invert_L",
    "apply_L_grid",
    "apply_L_points",
    "OperatorValue",
    "NEAR_ONE_DELTA",
]

# inside this band around 1 the ratio integral/ln(x) is 0/0-ill-conditioned;
# the continuity value h(1) is exact to O(delta)
NEAR_ONE_DELTA = 1e-8


@dataclass(frozen=True)
class OperatorValue:
    x: float
    value: float
    quad: QuadResult | None  # None when the near-1 shortcut was taken


def apply_L(
    h: Expr,
    x: float,
    tol: QuadTolerance = QuadTolerance(),
    var: str = "x",
) -> float:
    """Evaluate ``L(h)(x)`` for ``x >= 1``."""
    return apply_L_detailed(h, x, tol, var).value


def apply_L_detailed(
    h: Expr,
    x: float,
    tol: QuadTolerance = QuadTolerance(),
    var: str = "x",
) -> OperatorValue:
    """Like :func:`apply_L` but keeps the quadrature diagnostics: the
    one-point case of :func:`apply_L_points`."""
    return apply_L_points(h, [x], tol, var)[0]


def _operator_value(cache: IntegralCache, x: float) -> OperatorValue:
    if abs(x - 1.0) <= NEAR_ONE_DELTA:
        return OperatorValue(x, evaluate(cache.integrand, {cache.var: 1.0}), None)
    quad = cache.extend(x)
    return OperatorValue(x, quad.value / math.log(x), quad)


def invert_L(f: Expr, var: str = "x") -> Expr:
    """Symbolic ``g`` with ``L(g) = f``, namely ``f + x * f' * ln x``."""
    derivative = differentiate(f, var)
    correction = Bin("*", Bin("*", Var(var), derivative), Call("ln", (Var(var),)))
    return fold(Bin("+", f, correction))


def apply_L_points(
    h: Expr,
    points: list[float],
    tol: QuadTolerance = QuadTolerance(),
    var: str = "x",
) -> list[OperatorValue]:
    """``L(h)`` along an ascending list of finite points ``>= 1`` with one
    shared cache.  Every point is checked against the one before it (the
    first against 1) by the cache's own point rule before any is
    integrated, so a bad point raises ``PreconditionError`` before the
    near-one shortcut or the quadrature runs."""
    frontier = 1.0
    for x in points:
        frontier = _check_point(x, frontier)
    cache = IntegralCache(h, var=var, tol=tol)
    return [_operator_value(cache, x) for x in points]


def apply_L_grid(h: Expr, grid, tol: QuadTolerance = QuadTolerance(), var: str = "x"):
    """``L(h)`` along ``grid`` (a GeometricGrid); returns ``[(x, value)]``.

    The integral over [1, x_k] is reused when extending to x_{k+1}, so the
    whole sweep costs a single pass over [1, max x].
    """
    detailed = apply_L_points(h, list(grid.points()), tol, var)
    return [(v.x, v.value) for v in detailed]
