"""Tiny expression language for functions of one or two real variables.

Grammar: infix ``+ - * /``, right-associative ``^``, unary minus,
parentheses, function calls ``ln exp sin cos sqrt abs`` and two-argument
``pow``, the constants ``pi`` and ``e``, decimal literals with an optional
exponent, and identifiers as free variables.  Precedence, tightest first:
``^``, unary minus, ``* /``, ``+ -``.

Expressions are immutable trees with one evaluator, ``eval_array``, over
numpy arrays; ``evaluate`` at a single point is its 0-d case, with the same
rules and messages.  Evaluation is strict about domains: ``ln`` of a
non-positive value, ``sqrt`` of a negative value, division by zero, a
negative base raised to a non-integer power, zero raised to a negative
power, and a value that is not finite all raise :class:`DomainError`
instead of propagating NaN or infinity.  Finiteness is checked on the
result of each call, not on every node, so an intermediate infinity that
ends finite (``1/(x*1e300)`` at large x) still gives its finite value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "UnknownFunctionError",
    "EvalError",
    "UnboundVariableError",
    "DomainError",
    "parse",
    "evaluate",
    "eval_array",
    "differentiate",
    "fold",
    "format_expr",
    "variables",
    "occurrences",
    "FUNCTIONS",
]


class ExprError(Exception):
    """Base class for everything raised by this module."""


class ExprSyntaxError(ExprError):
    """Malformed input text.  ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnknownFunctionError(ExprSyntaxError):
    pass


class EvalError(ExprError):
    """Evaluation failed, or a walker met a hand-built node ``parse`` does not build."""


class UnboundVariableError(EvalError):
    pass


class DomainError(EvalError):
    """The expression left its mathematical domain at the given point."""


@dataclass(frozen=True)
class Const:
    value: float
    symbol: str | None = None  # "pi" / "e" keep their spelling when printed


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]


Expr = Union[Const, Var, Neg, Bin, Call]
Env = Mapping[str, float]

FUNCTIONS: dict[str, int] = {
    "ln": 1,
    "exp": 1,
    "sin": 1,
    "cos": 1,
    "sqrt": 1,
    "abs": 1,
    "pow": 2,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

ZERO = Const(0.0)
ONE = Const(1.0)
TWO = Const(2.0)


def _outside_grammar(expr) -> EvalError:
    """The error for a hand-built ``expr`` that ``parse`` does not build."""
    if isinstance(expr, Bin):
        return EvalError(f"unknown operator {expr.op!r}")
    if not isinstance(expr, Call):
        return EvalError(f"not an expression node: {expr!r}")
    if expr.func not in FUNCTIONS:
        return EvalError(f"unknown function {expr.func!r}")
    arity = FUNCTIONS[expr.func]
    return EvalError(f"{expr.func!r} expects {arity} argument{'s' if arity != 1 else ''},"
                     f" got {len(expr.args)}")


# ---------------------------------------------------------------------------
# parser

# one token per match: whitespace, then a number, an identifier, an operator,
# bracket or comma, or any other character, which is an error
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^(),])|(?P<bad>\S))"
)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_PREC = 3


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ExprSyntaxError` (with the byte offset of the problem)
    on malformed input or a number literal beyond the float range, and
    :class:`UnknownFunctionError` for a call to a name outside the
    supported function set.
    """
    # (kind, text, character offset) of each token, then an empty end token
    tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
              for m in _TOKEN_RE.finditer(text)]
    tokens.append(("end", "", len(text)))
    i = 0

    def fail(message: str, pos: int, error: type = ExprSyntaxError):
        raise error(message, len(text[:pos].encode("utf-8")))

    def found(tok: str) -> str:
        return repr(tok) if tok else "end of input"

    def close() -> None:
        nonlocal i
        _, tok, pos = tokens[i]
        if tok != ")":
            fail(f"expected ')', found {found(tok)}", pos)
        i += 1

    def expression(min_prec: int) -> Expr:
        # unary minus binds looser than ^ and tighter than * /; ^ is
        # right-associative, so its right operand takes ^ again
        nonlocal i
        if tokens[i][1] == "-":
            i += 1
            left = Neg(expression(_UNARY_PREC))
        else:
            left = primary()
        while _PREC.get(op := tokens[i][1], 0) >= min_prec:
            i += 1
            left = Bin(op, left, expression(_PREC[op] + (op != "^")))
        return left

    def primary() -> Expr:
        nonlocal i
        kind, tok, pos = tokens[i]
        i += 1
        if kind == "num":
            value = float(tok)
            if math.isinf(value):
                # an infinite constant would print as ``inf``, a variable name
                fail(f"number {tok!r} is out of range", pos)
            return Const(value)
        if kind == "ident" and tokens[i][1] != "(":
            if tok in _CONSTANTS:
                return Const(_CONSTANTS[tok], tok)
            if tok in FUNCTIONS:
                fail(f"function {tok!r} needs an argument list", pos)
            return Var(tok)
        if kind == "ident":
            if tok not in FUNCTIONS:
                fail(f"unknown function {tok!r}", pos, UnknownFunctionError)
            i += 1
            args = [expression(1)]
            while tokens[i][1] == ",":
                i += 1
                args.append(expression(1))
            close()
            call = Call(tok, tuple(args))
            if len(args) != FUNCTIONS[tok]:
                fail(str(_outside_grammar(call)), pos)
            return call
        if tok == "(":
            inner = expression(1)
            close()
            return inner
        fail(f"expected a value, found {found(tok)}", pos)

    for kind, tok, pos in tokens:
        if kind == "bad":
            fail(f"unexpected character {tok!r}", pos)
    tree = expression(1)
    kind, tok, pos = tokens[i]
    if kind != "end":
        fail(f"unexpected trailing input {tok!r}", pos)
    return tree


# ---------------------------------------------------------------------------
# evaluation

def evaluate(expr: Expr, env: Env) -> float:
    """Evaluate ``expr`` at the point given by ``env`` (variable -> value).

    The 0-d case of :func:`eval_array`, with its domain rules and messages.
    Pure: same expression and environment always give the same float.
    """
    return float(eval_array(expr, env))


def eval_array(
    expr: Expr, env: Mapping[str, "np.ndarray | float"], owned: str | None = None
) -> np.ndarray:
    """Evaluate ``expr`` over numpy arrays, element by element.

    The result is broadcast against the environment arrays, so constant
    expressions still come back with the sample shape.  No array of ``env``
    is written except that of ``owned``, a variable that occurs once in
    ``expr`` and whose float array the caller hands over to compute in."""
    with np.errstate(all="ignore"):
        out = np.asarray(_eval_array(expr, env, owned)[0])
        # one sum, which is finite only if every value is; a sum of finite
        # values that overflows takes the element-wise test
        if not math.isfinite(np.add.reduce(out, axis=None)) and not np.isfinite(out).all():
            raise DomainError(f"non-finite value in '{format_expr(expr)}'")
    shape = np.broadcast_shapes(out.shape, *(np.shape(v) for v in env.values()))
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    return out


_BIN_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
_CALL_UFUNCS = dict(ln=np.log, exp=np.exp, sin=np.sin, cos=np.cos, sqrt=np.sqrt, abs=np.abs)


def _eval_array(expr: Expr, env: Mapping[str, "np.ndarray | float"], owned):
    """The value of ``expr`` as a float array or numpy scalar, and whether a
    parent may write into it: an intermediate the walk made, or ``owned``'s."""
    if isinstance(expr, Const):
        return np.asarray(expr.value, dtype=float), False
    if isinstance(expr, Var):
        try:
            return np.asarray(env[expr.name], dtype=float), expr.name == owned
        except KeyError:
            raise UnboundVariableError(f"unbound variable {expr.name!r}") from None
    if isinstance(expr, Bin):
        lhs, lhs_fresh = _eval_array(expr.lhs, env, owned)
        rhs, rhs_fresh = _eval_array(expr.rhs, env, owned)
        ufunc = _BIN_UFUNCS.get(expr.op)
        if ufunc is None:
            if expr.op == "^":
                return _pow_array(lhs, rhs, expr), True
            raise _outside_grammar(expr)
        if ufunc is np.divide and np.any(rhs == 0.0):
            raise DomainError(f"division by zero in '{format_expr(expr)}'")
        if lhs_fresh and lhs.ndim and (rhs.ndim == 0 or rhs.shape == lhs.shape):
            return ufunc(lhs, rhs, out=lhs), True
        if rhs_fresh and rhs.ndim and (lhs.ndim == 0 or lhs.shape == rhs.shape):
            return ufunc(lhs, rhs, out=rhs), True
        return ufunc(lhs, rhs), True
    if isinstance(expr, Call) and len(expr.args) == FUNCTIONS.get(expr.func):
        args = [_eval_array(a, env, owned) for a in expr.args]
        if expr.func == "pow":
            return _pow_array(args[0][0], args[1][0], expr), True
        ufunc = _CALL_UFUNCS[expr.func]
        ((arg, fresh),) = args
        if ufunc is np.log and np.any(arg <= 0.0):
            raise DomainError(f"ln of non-positive value in '{format_expr(expr)}'")
        if ufunc is np.sqrt and np.any(arg < 0.0):
            raise DomainError(f"sqrt of negative value in '{format_expr(expr)}'")
        res = ufunc(arg, out=arg) if fresh and arg.ndim else ufunc(arg)
        if ufunc is np.exp and np.any(~np.isfinite(res)):
            raise DomainError(f"overflow in '{format_expr(expr)}'")
        return res, True
    if isinstance(expr, Neg):
        arg, fresh = _eval_array(expr.arg, env, owned)
        return (np.negative(arg, out=arg) if fresh and arg.ndim else np.negative(arg)), True
    raise _outside_grammar(expr)


# np.power computes these powers exactly (x*x, sqrt(x), 1/x) when the exponent
# is one value for a whole inner loop, as a scalar exponent is; otherwise it
# calls the general pow, which can differ in the last bit
_EXACT_POWERS = ((2.0, np.square), (0.5, np.sqrt), (-1.0, np.reciprocal))


def _pow_array(base: np.ndarray, exponent: np.ndarray, node: Expr) -> np.ndarray:
    # Whether np.power's inner loop sees one exponent value depends on the
    # shapes, numpy's buffering and the array sizes, so an array exponent
    # takes the exact powers explicitly: every element then gets what a
    # scalar exponent gets, whatever the shape of the arrays.
    exact_powers = exponent.ndim > 0
    base, exponent = np.broadcast_arrays(base, exponent)
    negative = base < 0.0
    if np.any(negative):
        fractional = exponent != np.floor(exponent)
        if np.any(negative & fractional):
            raise DomainError(
                f"negative base with non-integer exponent in '{format_expr(node)}'"
            )
    zero = base == 0.0
    if np.any(zero & (exponent < 0.0)):
        raise DomainError(f"zero base with negative exponent in '{format_expr(node)}'")
    res = np.power(base, exponent)
    if exact_powers:
        for value, exact in _EXACT_POWERS:
            hit = exponent == value
            if np.any(hit):
                res = np.where(hit, exact(base), res)
    if np.any(~np.isfinite(res)):
        raise DomainError(f"overflow in '{format_expr(node)}'")
    return res


def _children(expr: Expr) -> tuple:
    if isinstance(expr, Neg):
        return (expr.arg,)
    if isinstance(expr, Bin):
        return (expr.lhs, expr.rhs)
    return expr.args if isinstance(expr, Call) else ()


def variables(expr: Expr) -> frozenset[str]:
    """Free variable names appearing in ``expr``."""
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    return frozenset().union(*map(variables, _children(expr)))


def occurrences(expr: Expr, name: str) -> int:
    """How many times the variable ``name`` occurs in ``expr``."""
    if isinstance(expr, Var):
        return int(expr.name == name)
    count = 0
    for child in _children(expr):
        count += occurrences(child, name)
    return count


def _owned(expr: Expr, var: str) -> str | None:
    """``var``, if ``eval_array`` may compute ``expr`` in the array of
    ``var`` it is handed: only when the variable occurs once, since a second
    leaf would read what the first step wrote."""
    return var if occurrences(expr, var) == 1 else None


# ---------------------------------------------------------------------------
# symbolic differentiation with light folding

def _const(value: float) -> Expr:
    # parse() never produces a negative literal, so folding must not either,
    # or print -> parse would stop being the identity on folded trees
    value = float(value)
    if value < 0.0 or (value == 0.0 and math.copysign(1.0, value) < 0.0):
        return Neg(Const(-value))
    return Const(value)


def differentiate(expr: Expr, var: str) -> Expr:
    """Symbolic derivative of ``expr`` with respect to ``var``, folded."""
    return fold(_diff(expr, var))


def _diff(expr: Expr, var: str) -> Expr:
    if isinstance(expr, Const):
        return ZERO
    if isinstance(expr, Var):
        return ONE if expr.name == var else ZERO
    if isinstance(expr, Neg):
        return Neg(_diff(expr.arg, var))
    if isinstance(expr, Bin):
        a, b = expr.lhs, expr.rhs
        da, db = _diff(a, var), _diff(b, var)
        op = expr.op
        if op in ("+", "-"):
            return Bin(op, da, db)
        if op == "*":
            return Bin("+", Bin("*", da, b), Bin("*", a, db))
        if op == "/":
            num = Bin("-", Bin("*", da, b), Bin("*", a, db))
            return Bin("/", num, Bin("^", b, TWO))
        if op == "^":
            return _diff_power(a, b, da, db)
        raise _outside_grammar(expr)
    if isinstance(expr, Call) and len(expr.args) == FUNCTIONS.get(expr.func):
        name = expr.func
        if name == "pow":
            a, b = expr.args
            return _diff_power(a, b, _diff(a, var), _diff(b, var))
        (u,) = expr.args
        du = _diff(u, var)
        if name == "ln":
            return Bin("/", du, u)
        if name == "exp":
            return Bin("*", Call("exp", (u,)), du)
        if name == "sin":
            return Bin("*", Call("cos", (u,)), du)
        if name == "cos":
            return Neg(Bin("*", Call("sin", (u,)), du))
        if name == "sqrt":
            return Bin("/", du, Bin("*", TWO, Call("sqrt", (u,))))
        # abs: the derivative of |u| away from u = 0
        return Bin("*", Bin("/", u, Call("abs", (u,))), du)
    raise _outside_grammar(expr)


def _diff_power(a: Expr, b: Expr, da: Expr, db: Expr) -> Expr:
    if isinstance(b, Const):
        # power rule keeps the result ln-free, so it stays usable where a <= 0
        return Bin("*", Bin("*", b, Bin("^", a, _const(b.value - 1.0))), da)
    general = Bin(
        "+",
        Bin("*", db, Call("ln", (a,))),
        Bin("/", Bin("*", b, da), a),
    )
    return Bin("*", Bin("^", a, b), general)


def fold(expr: Expr) -> Expr:
    """Light constant folding and identity cleanup.

    Folds constant subtrees, drops additive/multiplicative identities,
    rewrites ``e + e`` to ``2 * e`` and cancels ``a * (b / a)`` to ``b``.
    Semantic caveat: the cancellations assume the shared subterm is nonzero,
    which holds on the domains this toolkit works on (x >= 1 style ranges).
    """
    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, Neg):
        arg = fold(expr.arg)
        if isinstance(arg, Const):
            return _const(-arg.value)
        if isinstance(arg, Neg):
            return arg.arg
        return Neg(arg)
    if isinstance(expr, Bin):
        return _fold_bin(expr.op, fold(expr.lhs), fold(expr.rhs))
    if isinstance(expr, Call) and len(expr.args) == FUNCTIONS.get(expr.func):
        args = tuple(fold(a) for a in expr.args)
        if expr.func == "pow":
            return _fold_bin("^", args[0], args[1], prefer_call=True)
        return Call(expr.func, args)
    raise _outside_grammar(expr)


def _fold_bin(op: str, lhs: Expr, rhs: Expr, prefer_call: bool = False) -> Expr:
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        try:
            return _const(evaluate(Bin(op, lhs, rhs), {}))
        except DomainError:
            pass  # keep the tree; evaluation will report it properly
    if op == "+":
        if lhs == ZERO:
            return rhs
        if rhs == ZERO:
            return lhs
        if lhs == rhs:
            return Bin("*", TWO, lhs)
    elif op == "-":
        if rhs == ZERO:
            return lhs
        if lhs == rhs:
            return ZERO
        if lhs == ZERO:
            return Neg(rhs)
    elif op == "*":
        if lhs == ZERO or rhs == ZERO:
            return ZERO
        if lhs == ONE:
            return rhs
        if rhs == ONE:
            return lhs
        if isinstance(rhs, Bin) and rhs.op == "/" and rhs.rhs == lhs:
            return rhs.lhs
        if isinstance(lhs, Bin) and lhs.op == "/" and lhs.rhs == rhs:
            return lhs.lhs
    elif op == "/":
        if lhs == ZERO and not (isinstance(rhs, Const) and rhs.value == 0.0):
            return ZERO
        if rhs == ONE:
            return lhs
        if lhs == rhs and not isinstance(lhs, Const):
            return ONE
    elif op == "^":
        if rhs == ONE:
            return lhs
        if rhs == ZERO and not (isinstance(lhs, Const) and lhs.value == 0.0):
            return ONE
        if lhs == ONE:
            return ONE
    else:
        raise _outside_grammar(Bin(op, lhs, rhs))
    if prefer_call:
        return Call("pow", (lhs, rhs))
    return Bin(op, lhs, rhs)


# ---------------------------------------------------------------------------
# printing

def format_expr(expr: Expr) -> str:
    """Canonical text form; ``parse(format_expr(t))`` rebuilds ``t`` exactly.

    Every nested binary operation is parenthesized, so the output never
    depends on precedence to read back correctly.
    """
    return _format(expr, top=True)


def _format(expr: Expr, top: bool = False) -> str:
    if isinstance(expr, Const):
        if expr.symbol is not None:
            return expr.symbol
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        inner = _format(expr.arg)
        if isinstance(expr.arg, (Bin, Neg)):
            return f"-({inner})" if not inner.startswith("(") else f"-{inner}"
        return f"-{inner}"
    if isinstance(expr, Bin) and expr.op in _PREC:
        lhs = _format(expr.lhs)
        if expr.op == "^" and isinstance(expr.lhs, Neg):
            lhs = f"({lhs})"  # ^ binds tighter than unary minus
        text = f"{lhs} {expr.op} {_format(expr.rhs)}"
        return text if top else f"({text})"
    if isinstance(expr, Call) and len(expr.args) == FUNCTIONS.get(expr.func):
        args = ", ".join(_format(a, top=True) for a in expr.args)
        return f"{expr.func}({args})"
    raise _outside_grammar(expr)
