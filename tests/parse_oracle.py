"""Frozen oracle for the expression parser.

``reference_parse`` is ``parse`` as it stood before the parser became one
scanner regex and one precedence-climbing function: a character-by-character
tokenizer, a ``_Token`` dataclass and a recursive-descent ``_Parser`` class.
Its tables, tokenizer and parser are copied unchanged, so that ``parse`` is
checked against a parser other than itself: the same trees, and the same
error class, message and byte offset.  Do not edit it to follow the library.

It differs from the library in one documented way: it takes three Python
frames per level of parentheses, so it runs out of stack at a shallower
nesting.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from karamata_kit.exprlang import (
    Bin,
    Call,
    Const,
    Expr,
    ExprSyntaxError,
    Neg,
    UnknownFunctionError,
    Var,
)

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


def reference_parse(text: str) -> Expr:
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
