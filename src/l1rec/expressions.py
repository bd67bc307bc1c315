"""Tiny arithmetic-expression language for target functions of x.

Grammar:
    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' integer)?
    base   := number | 'x' | '(' expr ')' | func '(' expr ')'
    func   in {abs, sqrt, sin, cos, exp, sign}

Whitespace-insensitive, left-associative, '^' binds tighter than '*', and
exponents are nonnegative integers. Compiled expressions evaluate with numpy
and raise DomainError when a value leaves the real domain (sqrt of a
negative, division by zero).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError

__all__ = ["Expression", "parse_expression"]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[()+\-*/^]))"
)
_FUNCS = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sign": np.sign,
}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group("num") is not None:
            tokens.append(("num", float(m.group(0)), m.start()))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start()))
        else:
            tokens.append(("op", m.group("op"), m.start()))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


@dataclass(frozen=True)
class Expression:
    """A compiled expression: callable on arrays, with breakpoint hints for
    abs/sign argument roots discovered lazily by the caller."""

    text: str
    _eval: object
    kink_args: tuple  # sub-expressions inside abs(.)/sign(.)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        # overflow, NaN and division by zero anywhere in the compiled tree
        # surface as the DomainError below, not as numpy warnings
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = np.asarray(self._eval(x), dtype=float)
        if out.shape != x.shape:
            out = np.broadcast_to(out, x.shape).copy()
        if not np.all(np.isfinite(out)):
            raise DomainError(f"expression {self.text!r} left the real domain")
        return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.kinks: list = []

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self):
        fn = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return fn

    def expr(self):
        fn = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            rhs = self.term()
            fn = (lambda a, b: (lambda x: a(x) + b(x)))(fn, rhs) if op == "+" else (
                lambda a, b: (lambda x: a(x) - b(x))
            )(fn, rhs)
        return fn

    def term(self):
        fn = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            rhs = self.factor()
            if op == "*":
                fn = (lambda a, b: (lambda x: a(x) * b(x)))(fn, rhs)
            else:
                fn = (lambda a, b: (lambda x: a(x) / b(x)))(fn, rhs)
        return fn

    def factor(self):
        if self.peek()[:2] == ("op", "-"):
            self.take()
            inner = self.factor()
            return lambda x, inner=inner: -inner(x)
        fn = self.base()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            kind, val, pos = self.take()
            if kind != "num" or val != int(val) or val < 0:
                raise ParseError("exponent must be a nonnegative integer", pos)
            k = int(val)
            fn = (lambda a, kk: (lambda x: a(x) ** kk))(fn, k)
        return fn

    def base(self):
        kind, val, pos = self.take()
        if kind == "num":
            return lambda x, v=val: np.full(np.shape(x), v, dtype=float)
        if kind == "name":
            if val == "x":
                return lambda x: np.asarray(x, dtype=float)
            if val in _FUNCS:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                if val in ("abs", "sign"):
                    self.kinks.append(inner)
                ufunc = _FUNCS[val]
                if val == "sqrt":
                    def fn(x, inner=inner):
                        arg = inner(x)
                        if np.any(arg < 0):
                            raise DomainError("sqrt of a negative value")
                        return np.sqrt(arg)

                    return fn
                return lambda x, inner=inner, u=ufunc: u(inner(x))
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a number, 'x', '(' or a function", pos)


def parse_expression(text: str) -> Expression:
    """Compile expression text into a vectorized evaluator on [-1, 1]."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(text)
    fn = parser.parse()
    return Expression(text=text, _eval=fn, kink_args=tuple(parser.kinks))
