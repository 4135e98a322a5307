"""Tiny closed-form expression language for coefficient functions.

Problem instances carry their coefficient functions as text, so they can
live in data files.  Grammar (whitespace insignificant; it is JSON's
space, tab, newline and carriage return only):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | primary ("^" factor)?
    primary := number | name | name "(" expr ")" | "(" expr ")"

"^" is right associative and binds tighter than unary minus, so "-t^2"
parses as -(t^2) and "2^3^2" as 2^(3^2).  Recognized functions:
exp, ln, sin, cos, sqrt, abs.  A single variable name is declared per
expression; any other identifier, a number literal that overflows a
float, and an expression nested more than MAX_NESTING operators deep are
rejected at parse time.  Number literals are unsigned, so "-0.0" parses as
the negation of the constant 0.0 and the parser never makes a -0.0 constant.

Evaluation never raises on domain errors: division by zero, ln of a
nonpositive number, sqrt of a negative number and overflow all produce a
non-finite float that the caller is expected to detect.  compile_expr turns
an AST into one generated Python function of straight-line code, one
assignment per operator node, in the tree's own evaluation order, anew on
every call: a caller keeps the function, as build_discrete_system does
with a and b and cli with the impulse formula, once per problem file.
"""

from __future__ import annotations

import math
import re
from typing import Callable, NamedTuple, Union

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


class Constant(NamedTuple):
    value: float


class Variable(NamedTuple):
    name: str


class Unary(NamedTuple):
    op: str  # "neg" | "exp" | "ln" | "sin" | "cos" | "sqrt" | "abs"
    child: "Expr"


class Binary(NamedTuple):
    op: str  # "add" | "sub" | "mul" | "div" | "pow"
    left: "Expr"
    right: "Expr"


Expr = Union[Constant, Variable, Unary, Binary]

FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt", "abs")

# Deepest operator nesting parse accepts.  Parsing and compile_expr are
# iterative, but ==, hash and repr of an AST, which tests and library
# callers use, recurse through the named tuples: repr takes two interpreter
# frames per level and == one (hash recurses in C), so repr fails past 497
# levels under Python's default recursion limit of 1000, and a tree at the
# limit leaves room for the caller's own frames.
MAX_NESTING = 300


class ParseError(Exception):
    """Raised on malformed input; position is a zero-based character offset."""

    def __init__(self, position: int, message: str):
        self.position = position
        self.message = message
        super().__init__(f"parse error at offset {position}: {message}")


# ASCII digits only, like identifiers' letters: \d alone matches any Unicode digit
_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


# Operators by binding power.  Unary minus binds below "^" and above "*" and
# "/"; "^" is the only right-associative operator.
_BINARY_OPS = {"+": ("add", 1), "-": ("sub", 1), "*": ("mul", 2), "/": ("div", 2),
               "^": ("pow", 4)}
_NEG_POWER = 3
_GROUP = 0   # an open "(" or function call: no operator reduces past it


def parse(source: str, variable_name: str) -> Expr:
    """Parse *source* into an AST over the single variable *variable_name*.

    An operator-precedence parser over explicit stacks, so parentheses and
    long chains cost no interpreter frames.  A syntax error is reported at
    the first offending character, scanning left to right; a tree nested
    too deeply, at the operator that crosses MAX_NESTING.
    """
    n = len(source)
    operands: list = []   # (node, operator depth)
    pending: list = []    # (op, binding power, offset); op None for "("
    open_groups = 0

    def skip_ws(i: int) -> int:
        while i < n and source[i] in " \t\n\r":
            i += 1
        return i

    def reduce() -> None:
        op, _, offset = pending.pop()
        right, depth = operands.pop()
        if op in FUNCTIONS or op == "neg":
            node = Unary(op, right)
        else:
            left, left_depth = operands.pop()
            node = Binary(op, left, right)
            depth = max(depth, left_depth)
        if depth >= MAX_NESTING:
            raise ParseError(offset, f"expression nested deeper than {MAX_NESTING} levels")
        operands.append((node, depth + 1))

    pos = skip_ws(0)
    if pos == n:
        raise ParseError(n, "empty input")
    expect_operand = True
    while True:
        pos = skip_ws(pos)
        ch = source[pos] if pos < n else ""
        if expect_operand:
            if ch == "-":
                pending.append(("neg", _NEG_POWER, pos))
                pos += 1
            elif ch == "(":
                pending.append((None, _GROUP, pos))
                open_groups += 1
                pos += 1
            elif ch == "":
                raise ParseError(n, "unexpected end of input")
            elif m := _NUMBER.match(source, pos):
                value = float(m.group())
                if not math.isfinite(value):
                    raise ParseError(pos, f"number '{m.group()}' is not finite")
                operands.append((Constant(value), 0))
                pos = m.end()
                expect_operand = False
            elif m := _IDENT.match(source, pos):
                name = m.group()
                if name in FUNCTIONS:
                    pos = skip_ws(m.end())
                    if pos == n or source[pos] != "(":
                        raise ParseError(pos, f"expected '(' after '{name}'")
                    pending.append((name, _GROUP, m.start()))
                    open_groups += 1
                    pos += 1
                elif name == variable_name:
                    operands.append((Variable(name), 0))
                    pos = m.end()
                    expect_operand = False
                else:
                    raise ParseError(pos, f"unknown identifier '{name}'")
            else:
                raise ParseError(pos, f"unexpected character '{ch}'")
        elif ch in _BINARY_OPS:
            op, power = _BINARY_OPS[ch]
            while pending and (pending[-1][1] > power
                               or (pending[-1][1] == power and op != "pow")):
                reduce()
            pending.append((op, power, pos))
            pos += 1
            expect_operand = True
        elif open_groups and ch == ")":
            while pending[-1][1] != _GROUP:
                reduce()
            if pending[-1][0] is None:
                pending.pop()
            else:
                reduce()
            open_groups -= 1
            pos += 1
        elif open_groups:
            raise ParseError(pos, "expected ')'")
        elif ch:
            raise ParseError(pos, "trailing garbage")
        else:
            while pending:
                reduce()
            return operands[0][0]


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


# Code templates per operator; every operand is a bound name, never a literal,
# so nothing is folded or reassociated and no problem-file text reaches the
# generated source.
_UNARY_CODE = {
    "neg": "-{}",
    "exp": "_safe_exp({})",
    "ln": "_safe_ln({})",
    "sin": "_safe_trig(_sin, {})",
    "cos": "_safe_trig(_cos, {})",
    "sqrt": "_safe_sqrt({})",
    "abs": "abs({})",
}
_BINARY_CODE = {
    "add": "{} + {}",
    "sub": "{} - {}",
    "mul": "{} * {}",
    "div": "_safe_div({}, {})",
    "pow": "_safe_pow({}, {})",
}
_HELPERS = {
    "float": float, "abs": abs, "_sin": math.sin, "_cos": math.cos,
    "_safe_div": _safe_div, "_safe_pow": _safe_pow, "_safe_exp": _safe_exp,
    "_safe_ln": _safe_ln, "_safe_sqrt": _safe_sqrt, "_safe_trig": _safe_trig,
}


def compile_expr(e: Expr) -> Callable[[float], float]:
    """Build a function evaluating *e* at x; non-finite results propagate.

    The argument is converted once with float(x), so integer abscissae
    evaluate in floating point.  The straight-line code is generated by an
    iterative post-order walk.  The function's ``reads_x`` is whether e
    contains the variable at all, a syntactic test: "0*t" reads it.
    """
    constants = {}
    body = []
    values = []                  # names holding the operands computed so far
    uses_x = False
    stack = [(e, False)]
    while stack:
        node, children_done = stack.pop()
        if isinstance(node, Constant):
            name = f"c{len(constants)}"
            constants[name] = node.value
        elif isinstance(node, Variable):
            uses_x = True
            name = "x"
        elif not isinstance(node, (Unary, Binary)):
            raise TypeError(f"not an expression node: {node!r}")
        elif not children_done:
            stack.append((node, True))
            stack.extend([(node.right, False), (node.left, False)]
                         if isinstance(node, Binary) else [(node.child, False)])
            continue
        else:
            if isinstance(node, Unary):
                code = _UNARY_CODE[node.op].format(values.pop())
            else:
                right = values.pop()
                left = values.pop()
                divisor = node.right
                # a nonzero constant divisor cannot divide by zero: no guard needed
                if node.op == "div" and isinstance(divisor, Constant) and divisor.value != 0:
                    code = f"{left} / {right}"
                else:
                    code = _BINARY_CODE[node.op].format(left, right)
            name = f"v{len(body)}"
            body.append(f"    {name} = {code}")
        values.append(name)
    lines = ["def _expr(x):", *(["    x = float(x)"] if uses_x else []), *body,
             f"    return {values.pop()}"]
    namespace = {**_HELPERS, **constants}
    exec(compile("\n".join(lines), "<idepca expression>", "exec"), namespace)
    fn = namespace["_expr"]
    fn.reads_x = uses_x
    return fn
