"""Tiny expression language for functions of one or two real variables.

Grammar: infix ``+ - * /``, right-associative ``^``, unary minus,
parentheses, function calls ``ln exp sin cos sqrt abs`` and two-argument
``pow``, the constants ``pi`` and ``e``, decimal literals with an optional
exponent, and identifiers as free variables.  Precedence, tightest first:
``^``, unary minus, ``* /``, ``+ -``.

Expressions are immutable trees.  Evaluation is strict about domains:
``ln`` of a non-positive value, ``sqrt`` of a negative value, division by
zero, a non-positive base raised to a non-integer power, and a value that
is not finite all raise :class:`DomainError` instead of propagating NaN or
infinity.  Finiteness is checked on the result of each call, not on every
node, so an intermediate infinity that ends finite (``1/(x*1e300)`` at
large x) still gives its finite value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union

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
    """Evaluation failed."""


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


# ---------------------------------------------------------------------------
# tokenizer / parser

_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_PREC = 3
_RIGHT_ASSOC = {"^"}


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | lparen | rparen | comma | end
    text: str
    pos: int  # character offset into the source


def _byte_offset(src: str, pos: int) -> int:
    return len(src[:pos].encode("utf-8"))


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(src, i)
        if m:
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(src, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
        elif ch == "(":
            tokens.append(_Token("lparen", ch, i))
        elif ch == ")":
            tokens.append(_Token("rparen", ch, i))
        elif ch == ",":
            tokens.append(_Token("comma", ch, i))
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", _byte_offset(src, i))
        i += 1
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str, tok: _Token) -> None:
        raise ExprSyntaxError(message, _byte_offset(self.src, tok.pos))

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            found = repr(tok.text) if tok.text else "end of input"
            self.fail(f"expected {what}, found {found}", tok)
        return self.advance()

    def parse_expression(self, min_prec: int = 1) -> Expr:
        left = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text == "" or _PREC.get(tok.text, 0) < min_prec:
                return left
            op = self.advance().text
            next_min = _PREC[op] + (0 if op in _RIGHT_ASSOC else 1)
            right = self.parse_expression(next_min)
            left = Bin(op, left, right)

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.parse_expression(_UNARY_PREC))
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            value = float(tok.text)
            if math.isinf(value):
                # an infinite constant would print as ``inf``, a variable name
                self.fail(f"number {tok.text!r} is out of range", tok)
            self.advance()
            return Const(value)
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "lparen":
                return self.parse_call(tok)
            if tok.text in _CONSTANTS:
                return Const(_CONSTANTS[tok.text], tok.text)
            if tok.text in FUNCTIONS:
                self.fail(f"function {tok.text!r} needs an argument list", tok)
            return Var(tok.text)
        if tok.kind == "lparen":
            self.advance()
            inner = self.parse_expression()
            self.expect("rparen", "')'")
            return inner
        found = repr(tok.text) if tok.text else "end of input"
        self.fail(f"expected a value, found {found}", tok)
        raise AssertionError("unreachable")

    def parse_call(self, name_tok: _Token) -> Expr:
        name = name_tok.text
        if name not in FUNCTIONS:
            raise UnknownFunctionError(
                f"unknown function {name!r}", _byte_offset(self.src, name_tok.pos)
            )
        self.advance()  # consume '('
        args = [self.parse_expression()]
        while self.peek().kind == "comma":
            self.advance()
            args.append(self.parse_expression())
        self.expect("rparen", "')'")
        arity = FUNCTIONS[name]
        if len(args) != arity:
            self.fail(
                f"{name!r} expects {arity} argument{'s' if arity != 1 else ''},"
                f" got {len(args)}",
                name_tok,
            )
        return Call(name, tuple(args))


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ExprSyntaxError` (with the byte offset of the problem)
    on malformed input or a number literal beyond the float range, and
    :class:`UnknownFunctionError` for a call to a name outside the
    supported function set.
    """
    parser = _Parser(text)
    expr = parser.parse_expression()
    tok = parser.peek()
    if tok.kind != "end":
        parser.fail(f"unexpected trailing input {tok.text!r}", tok)
    return expr


# ---------------------------------------------------------------------------
# evaluation

def _pow_scalar(base: float, exponent: float, where: Callable[[], str]) -> float:
    if base > 0.0:
        try:
            return float(base**exponent)
        except OverflowError:
            raise DomainError(f"overflow in {where()}") from None
    if base == 0.0:
        if exponent > 0.0:
            return 0.0
        if exponent == 0.0:
            return 1.0
        raise DomainError(f"zero base with negative exponent in {where()}")
    if exponent == math.floor(exponent) and abs(exponent) < 1e15:
        try:
            return float(base**exponent)
        except OverflowError:
            raise DomainError(f"overflow in {where()}") from None
    raise DomainError(f"negative base with non-integer exponent in {where()}")


def evaluate(expr: Expr, env: Env) -> float:
    """Evaluate ``expr`` at the point given by ``env`` (variable -> value).

    Pure: same expression and environment always give the same float.
    """
    value = _evaluate(expr, env)
    if not math.isfinite(value):
        raise _not_finite(expr)
    return value


def _not_finite(expr: Expr) -> DomainError:
    return DomainError(f"non-finite value in '{format_expr(expr)}'")


def _evaluate(expr: Expr, env: Env) -> float:
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


def eval_array(expr: Expr, env: Mapping[str, "np.ndarray | float"]) -> np.ndarray:
    """Vectorized :func:`evaluate` over numpy arrays, same domain rules.

    The result is broadcast against the environment arrays, so constant
    expressions still come back with the sample shape."""
    with np.errstate(all="ignore"):
        out = np.asarray(_eval_array(expr, env), dtype=float)
        # one sum, which is finite only if every value is; a sum of finite
        # values that overflows takes the element-wise test
        if not math.isfinite(np.add.reduce(out, axis=None)) and not np.isfinite(out).all():
            raise _not_finite(expr)
    shape = np.broadcast_shapes(out.shape, *(np.shape(v) for v in env.values()))
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    return out


def _eval_array(expr: Expr, env: Mapping[str, "np.ndarray | float"]):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {expr.name!r}") from None
    if isinstance(expr, Neg):
        return -np.asarray(_eval_array(expr.arg, env), dtype=float)
    if isinstance(expr, Bin):
        lhs = np.asarray(_eval_array(expr.lhs, env), dtype=float)
        rhs = np.asarray(_eval_array(expr.rhs, env), dtype=float)
        op = expr.op
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if np.any(rhs == 0.0):
                raise DomainError(f"division by zero in '{format_expr(expr)}'")
            return lhs / rhs
        if op == "^":
            return _pow_array(lhs, rhs, expr)
        raise EvalError(f"unknown operator {op!r}")
    if isinstance(expr, Call):
        args = [np.asarray(_eval_array(a, env), dtype=float) for a in expr.args]
        name = expr.func
        if name == "ln":
            if np.any(args[0] <= 0.0):
                raise DomainError(f"ln of non-positive value in '{format_expr(expr)}'")
            return np.log(args[0])
        if name == "exp":
            res = np.exp(args[0])
            if np.any(~np.isfinite(res)):
                raise DomainError(f"overflow in '{format_expr(expr)}'")
            return res
        if name == "sin":
            return np.sin(args[0])
        if name == "cos":
            return np.cos(args[0])
        if name == "sqrt":
            if np.any(args[0] < 0.0):
                raise DomainError(f"sqrt of negative value in '{format_expr(expr)}'")
            return np.sqrt(args[0])
        if name == "abs":
            return np.abs(args[0])
        if name == "pow":
            return _pow_array(args[0], args[1], expr)
        raise EvalError(f"unknown function {name!r}")
    raise EvalError(f"not an expression node: {expr!r}")


# np.power computes these powers exactly (x*x, sqrt(x), 1/x) when the exponent
# is one value for a whole inner loop, as a scalar exponent is; otherwise it
# calls the general pow, which can differ in the last bit
_EXACT_POWERS = ((2.0, np.square), (0.5, np.sqrt), (-1.0, np.reciprocal))


def _pow_array(base: np.ndarray, exponent: np.ndarray, node: Expr) -> np.ndarray:
    # A column exponent holds one value per row, as the x-only terms of a
    # scan grid do, so each row should get what a scalar exponent gets.
    # Whether np.power's inner loop sees one value depends on numpy's
    # buffering and the array sizes, so take the exact powers explicitly.
    column = exponent.ndim >= 2 and exponent.shape[-1] == 1
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
    if column:
        for value, exact in _EXACT_POWERS:
            hit = exponent == value
            if np.any(hit):
                res = np.where(hit, exact(base), res)
    if np.any(~np.isfinite(res)):
        raise DomainError(f"overflow in '{format_expr(node)}'")
    return res


def variables(expr: Expr) -> frozenset[str]:
    """Free variable names appearing in ``expr``."""
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Neg):
        return variables(expr.arg)
    if isinstance(expr, Bin):
        return variables(expr.lhs) | variables(expr.rhs)
    if isinstance(expr, Call):
        out: frozenset[str] = frozenset()
        for a in expr.args:
            out |= variables(a)
        return out
    return frozenset()


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
        if op in "+-":
            return Bin(op, da, db)
        if op == "*":
            return Bin("+", Bin("*", da, b), Bin("*", a, db))
        if op == "/":
            num = Bin("-", Bin("*", da, b), Bin("*", a, db))
            return Bin("/", num, Bin("^", b, TWO))
        if op == "^":
            return _diff_power(a, b, da, db)
        raise EvalError(f"unknown operator {op!r}")
    if isinstance(expr, Call):
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
        if name == "abs":
            # derivative of |u| away from u = 0
            return Bin("*", Bin("/", u, Call("abs", (u,))), du)
        raise EvalError(f"unknown function {name!r}")
    raise EvalError(f"not an expression node: {expr!r}")


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
    if isinstance(expr, Neg):
        arg = fold(expr.arg)
        if isinstance(arg, Const):
            return _const(-arg.value)
        if isinstance(arg, Neg):
            return arg.arg
        return Neg(arg)
    if isinstance(expr, Bin):
        lhs, rhs = fold(expr.lhs), fold(expr.rhs)
        return _fold_bin(expr.op, lhs, rhs)
    if isinstance(expr, Call):
        args = tuple(fold(a) for a in expr.args)
        if expr.func == "pow":
            return _fold_bin("^", args[0], args[1], prefer_call=True)
        return Call(expr.func, args)
    return expr


def _fold_bin(op: str, lhs: Expr, rhs: Expr, prefer_call: bool = False) -> Expr:
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        try:
            if op == "+":
                v = lhs.value + rhs.value
            elif op == "-":
                v = lhs.value - rhs.value
            elif op == "*":
                v = lhs.value * rhs.value
            elif op == "/":
                if rhs.value == 0.0:
                    raise DomainError("division by zero")
                v = lhs.value / rhs.value
            else:
                v = _pow_scalar(lhs.value, rhs.value, lambda: "constant fold")
            if math.isfinite(v):
                return _const(v)
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
    if isinstance(expr, Bin):
        lhs = _format(expr.lhs)
        if expr.op == "^" and isinstance(expr.lhs, Neg):
            lhs = f"({lhs})"  # ^ binds tighter than unary minus
        text = f"{lhs} {expr.op} {_format(expr.rhs)}"
        return text if top else f"({text})"
    if isinstance(expr, Call):
        args = ", ".join(_format(a, top=True) for a in expr.args)
        return f"{expr.func}({args})"
    raise EvalError(f"not an expression node: {expr!r}")
