"""Tiny closed-form expression language for coefficient functions.

Problem instances carry their coefficient functions as text, so they can
live in data files.  Grammar (whitespace insignificant):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | primary ("^" factor)?
    primary := number | name | name "(" expr ")" | "(" expr ")"

"^" is right associative and binds tighter than unary minus, so "-t^2"
parses as -(t^2) and "2^3^2" as 2^(3^2).  Recognized functions:
exp, ln, sin, cos, sqrt, abs.  A single variable name is declared per
expression; any other identifier, and a number literal that overflows a
float, is rejected at parse time.

Evaluation never raises on domain errors: division by zero, ln of a
nonpositive number, sqrt of a negative number and overflow all produce a
non-finite float that the caller is expected to detect.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

__all__ = [
    "Expr",
    "Constant",
    "Variable",
    "Unary",
    "Binary",
    "ParseError",
    "parse",
    "compile_expr",
]


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" | "exp" | "ln" | "sin" | "cos" | "sqrt" | "abs"
    child: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # "add" | "sub" | "mul" | "div" | "pow"
    left: "Expr"
    right: "Expr"


Expr = Union[Constant, Variable, Unary, Binary]

FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt", "abs")


class ParseError(Exception):
    """Raised on malformed input; position is a zero-based character offset."""

    def __init__(self, position: int, message: str):
        self.position = position
        self.message = message
        super().__init__(f"parse error at offset {position}: {message}")


_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    def __init__(self, src: str, variable_name: str):
        self.src = src
        self.var = variable_name
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.src):
            return ""
        return self.src[self.pos]

    def expr(self) -> Expr:
        node = self.term()
        while True:
            ch = self.peek()
            if ch == "+" or ch == "-":
                self.pos += 1
                rhs = self.term()
                node = Binary("add" if ch == "+" else "sub", node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            ch = self.peek()
            if ch == "*" or ch == "/":
                self.pos += 1
                rhs = self.factor()
                node = Binary("mul" if ch == "*" else "div", node, rhs)
            else:
                return node

    def factor(self) -> Expr:
        if self.peek() == "-":
            self.pos += 1
            return Unary("neg", self.factor())
        node = self.primary()
        if self.peek() == "^":
            self.pos += 1
            return Binary("pow", node, self.factor())
        return node

    def primary(self) -> Expr:
        ch = self.peek()
        if ch == "":
            raise ParseError(len(self.src), "unexpected end of input")
        if ch == "(":
            self.pos += 1
            node = self.expr()
            if self.peek() != ")":
                raise ParseError(self.pos, "expected ')'")
            self.pos += 1
            return node
        m = _NUMBER.match(self.src, self.pos)
        if m:
            value = float(m.group())
            if not math.isfinite(value):
                raise ParseError(self.pos, f"number '{m.group()}' is not finite")
            self.pos = m.end()
            return Constant(value)
        m = _IDENT.match(self.src, self.pos)
        if m:
            name = m.group()
            start = self.pos
            self.pos = m.end()
            if name in FUNCTIONS:
                if self.peek() != "(":
                    raise ParseError(self.pos, f"expected '(' after '{name}'")
                self.pos += 1
                arg = self.expr()
                if self.peek() != ")":
                    raise ParseError(self.pos, "expected ')'")
                self.pos += 1
                return Unary(name, arg)
            if name == self.var:
                return Variable(name)
            raise ParseError(start, f"unknown identifier '{name}'")
        raise ParseError(self.pos, f"unexpected character '{ch}'")


def parse(source: str, variable_name: str) -> Expr:
    """Parse *source* into an AST over the single variable *variable_name*."""
    p = _Parser(source, variable_name)
    if p.peek() == "":
        raise ParseError(len(source), "empty input")
    node = p.expr()
    if p.peek() != "":
        raise ParseError(p.pos, "trailing garbage")
    return node


# -- evaluation ---------------------------------------------------------------

def _safe_div(l: float, r: float) -> float:
    try:
        return l / r
    except ZeroDivisionError:
        if l == 0.0 or math.isnan(l):
            return math.nan
        return math.copysign(math.inf, l) * math.copysign(1.0, r)


def _safe_pow(l: float, r: float) -> float:
    try:
        return math.pow(l, r)
    except ValueError:
        return math.nan
    except OverflowError:
        return math.inf


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _safe_ln(x: float) -> float:
    if x > 0.0:
        return math.log(x)
    if x == 0.0:
        return -math.inf
    return math.nan


def _safe_sqrt(x: float) -> float:
    if x >= 0.0:
        return math.sqrt(x)
    return math.nan


def _safe_trig(fn, x: float) -> float:
    if math.isfinite(x):
        return fn(x)
    return math.nan


_UNARY_FN: dict = {
    "neg": lambda v: -v,
    "exp": _safe_exp,
    "ln": _safe_ln,
    "sin": lambda v: _safe_trig(math.sin, v),
    "cos": lambda v: _safe_trig(math.cos, v),
    "sqrt": _safe_sqrt,
    "abs": abs,
}


def compile_expr(e: Expr) -> Callable[[float], float]:
    """Build a closure evaluating *e* at x; non-finite results propagate.

    Compiled closures are cached per AST (ASTs are immutable and hashable).
    """
    cached = _COMPILED.get(e)
    if cached is not None:
        return cached
    fn = _compile(e)
    _COMPILED[e] = fn
    return fn


_COMPILED: dict = {}


def _compile(e: Expr) -> Callable[[float], float]:
    if isinstance(e, Constant):
        c = e.value
        return lambda x: c
    if isinstance(e, Variable):
        return float
    if isinstance(e, Unary):
        child = _compile(e.child)
        fn = _UNARY_FN[e.op]
        return lambda x: fn(child(x))
    if isinstance(e, Binary):
        l = _compile(e.left)
        r = _compile(e.right)
        if e.op == "add":
            return lambda x: l(x) + r(x)
        if e.op == "sub":
            return lambda x: l(x) - r(x)
        if e.op == "mul":
            return lambda x: l(x) * r(x)
        if e.op == "div":
            return lambda x: _safe_div(l(x), r(x))
        return lambda x: _safe_pow(l(x), r(x))
    raise TypeError(f"not an expression node: {e!r}")

