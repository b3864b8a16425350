"""Frozen oracle for the expression evaluator.

``reference_evaluate`` is the scalar ``evaluate`` as it stood before
``eval_array`` became the library's only evaluator: a second tree walk
with ``math`` functions, Python arithmetic and its own power rules.  It is
kept unchanged so that ``eval_array`` and ``fold`` are checked against an
evaluator other than themselves.  Do not edit it to follow the library.

It differs from the library in two documented ways: ``math.log`` and
``math.exp`` can differ from numpy's in the last bit, and a negative base
raised to an integer exponent of magnitude 1e15 or more raises
``DomainError`` here.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

from karamata_kit.exprlang import (
    Bin,
    Call,
    Const,
    DomainError,
    EvalError,
    Expr,
    Neg,
    UnboundVariableError,
    Var,
    format_expr,
)


def _pow_scalar(base: float, exponent: float, where: Callable[[], str]) -> float:
    if base == 0.0:
        if exponent > 0.0:
            return 0.0
        if exponent == 0.0:
            return 1.0
        raise DomainError(f"zero base with negative exponent in {where()}")
    if base < 0.0 and not (exponent == math.floor(exponent) and abs(exponent) < 1e15):
        raise DomainError(f"negative base with non-integer exponent in {where()}")
    try:
        with np.errstate(over="raise"):
            return float(np.power(base, exponent))
    except FloatingPointError:
        raise DomainError(f"overflow in {where()}") from None


def reference_evaluate(expr: Expr, env: Mapping[str, float]) -> float:
    """Evaluate ``expr`` at the point given by ``env`` (variable -> value)."""
    value = _evaluate(expr, env)
    if not math.isfinite(value):
        raise DomainError(f"non-finite value in '{format_expr(expr)}'")
    return value


def _evaluate(expr: Expr, env: Mapping[str, float]) -> float:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return float(env[expr.name])
        except KeyError:
            raise UnboundVariableError(f"unbound variable {expr.name!r}") from None
    if isinstance(expr, Neg):
        return -_evaluate(expr.arg, env)
    if isinstance(expr, Bin):
        lhs = _evaluate(expr.lhs, env)
        rhs = _evaluate(expr.rhs, env)
        op = expr.op
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if rhs == 0.0:
                raise DomainError(f"division by zero in '{format_expr(expr)}'")
            return lhs / rhs
        if op == "^":
            return _pow_scalar(lhs, rhs, lambda: f"'{format_expr(expr)}'")
        raise EvalError(f"unknown operator {op!r}")
    if isinstance(expr, Call):
        args = [_evaluate(a, env) for a in expr.args]
        name = expr.func
        if name == "ln":
            if args[0] <= 0.0:
                raise DomainError(
                    f"ln of non-positive value {args[0]!r} in '{format_expr(expr)}'"
                )
            return math.log(args[0])
        if name == "exp":
            try:
                return math.exp(args[0])
            except OverflowError:
                raise DomainError(f"overflow in '{format_expr(expr)}'") from None
        # math.sin and math.cos raise on an infinity where numpy gives nan
        if name == "sin":
            return math.sin(args[0]) if math.isfinite(args[0]) else math.nan
        if name == "cos":
            return math.cos(args[0]) if math.isfinite(args[0]) else math.nan
        if name == "sqrt":
            if args[0] < 0.0:
                raise DomainError(
                    f"sqrt of negative value {args[0]!r} in '{format_expr(expr)}'"
                )
            return math.sqrt(args[0])
        if name == "abs":
            return abs(args[0])
        if name == "pow":
            return _pow_scalar(args[0], args[1], lambda: f"'{format_expr(expr)}'")
        raise EvalError(f"unknown function {name!r}")
    raise EvalError(f"not an expression node: {expr!r}")
