import math

import pytest

from idepca import exprlang
from idepca.exprlang import (
    Binary,
    Constant,
    ParseError,
    Unary,
    Variable,
    compile_expr,
    parse,
)


def ev(source, x, var="t"):
    return compile_expr(parse(source, var))(x)


class TestParsing:
    def test_constant_fraction(self):
        assert ev("-1/3", 5.0) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_variable(self):
        node = parse("t", "t")
        assert node == Variable("t")
        assert compile_expr(node)(2.5) == 2.5

    def test_function_call(self):
        assert ev("exp(-t)", 0.0) == 1.0

    def test_reciprocal(self):
        assert ev("1/t", 2.0) == 0.5

    def test_number_formats(self):
        assert ev("1.5e2", 0.0) == 150.0
        assert ev(".5", 0.0) == 0.5
        assert ev("2.", 0.0) == 2.0

    def test_overflowing_literal_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse("2 * 1e999", "t")
        assert exc.value.position == 4
        assert parse("1e308", "t") == Constant(1e308)

    @pytest.mark.parametrize("source,offset", [
        ("\u0663*t", 0),      # ARABIC-INDIC DIGIT THREE
        ("\uff11+t", 0),      # FULLWIDTH DIGIT ONE
        ("1\u0660", 1),       # 1 and ARABIC-INDIC DIGIT ZERO
    ], ids=["arabic-indic", "fullwidth", "mixed"])
    def test_non_ascii_digit_rejected(self, source, offset):
        with pytest.raises(ParseError) as exc:
            parse(source, "t")
        assert exc.value.position == offset

    def test_whitespace_insignificant(self):
        assert parse(" 1 + 2 * t ", "t") == parse("1+2*t", "t")
        assert parse("\t1\r\n+t\n", "t") == parse("1+t", "t")

    @pytest.mark.parametrize("source,offset", [
        ("1 +\u3000t", 3),   # IDEOGRAPHIC SPACE
        ("1\x1c+t", 1),      # FILE SEPARATOR
        ("1\x0b+t", 1),      # LINE TABULATION
    ], ids=["ideographic-space", "file-separator", "vertical-tab"])
    def test_non_json_whitespace_rejected(self, source, offset):
        with pytest.raises(ParseError) as exc:
            parse(source, "t")
        assert exc.value.position == offset

    def test_variable_name_per_context(self):
        assert ev("n^2", 3.0, var="n") == 9.0
        with pytest.raises(ParseError):
            parse("n^2", "t")

    def test_malformed_operator_sequence(self):
        with pytest.raises(ParseError) as exc:
            parse("2*+3", "t")
        assert exc.value.position == 2

    def test_unknown_identifier_position(self):
        with pytest.raises(ParseError) as exc:
            parse("1 + foo", "t")
        assert exc.value.position == 4

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(1 + t", "t")
        with pytest.raises(ParseError):
            parse("exp(t", "t")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("1 + 2)", "t")

    def test_empty_input(self):
        with pytest.raises(ParseError) as exc:
            parse("", "t")
        assert exc.value.position == 0

    def test_function_requires_parens(self):
        with pytest.raises(ParseError):
            parse("exp t", "t")


class TestPrecedence:
    def test_mul_binds_tighter_than_add(self):
        assert ev("2+3*4", 0.0) == 14.0

    def test_pow_right_associative(self):
        assert ev("2^3^2", 0.0) == 512.0

    def test_unary_minus_below_pow(self):
        # -t^2 reads as -(t^2), the conventional mathematical parse
        assert ev("-t^2", 3.0) == -9.0
        assert ev("(-t)^2", 3.0) == 9.0

    def test_pow_value(self):
        assert ev("t^2", 3.0) == 9.0

    def test_division_left_associative(self):
        assert ev("8/4/2", 0.0) == 1.0


class TestEvaluation:
    def test_division_by_zero_nonfinite(self):
        assert not math.isfinite(ev("1/t", 0.0))

    def test_zero_over_zero_is_nan(self):
        assert math.isnan(ev("t/t", 0.0))

    def test_ln_domain(self):
        assert ev("ln(t)", 1.0) == 0.0
        assert ev("ln(t)", 0.0) == -math.inf
        assert math.isnan(ev("ln(t)", -1.0))

    def test_sqrt_domain(self):
        assert ev("sqrt(t)", 4.0) == 2.0
        assert math.isnan(ev("sqrt(t)", -1.0))

    def test_exp_value(self):
        assert ev("exp(1)", 0.0) == pytest.approx(math.e, rel=1e-15)

    def test_exp_overflow_to_inf(self):
        assert ev("exp(t)", 1e6) == math.inf

    def test_trig(self):
        assert ev("sin(t)", 0.0) == 0.0
        assert ev("cos(t)", 0.0) == 1.0
        assert math.isnan(ev("sin(1/t)", 0.0))

    def test_abs(self):
        assert ev("abs(t)", -3.5) == 3.5

    def test_determinism(self):
        node = parse("sin(t) + exp(t/7) - t^3", "t")
        a = compile_expr(node)(1.234567)
        b = compile_expr(node)(1.234567)
        assert a == b


@pytest.mark.parametrize("source,parenthesized", [
    pytest.param(source, parenthesized, id=source) for source, parenthesized in [
        ("-1/3", "(-1)/3"),
        ("exp(-t)", "exp((-(t)))"),
        ("1/t + t^2 - 3*t", "((1/t) + (t^2)) - (3*t)"),
        ("2^3^2", "2^(3^2)"),
        ("-t^2", "-(t^2)"),
        ("sqrt(abs(sin(t)))", "sqrt((abs((sin((t))))))"),
        ("(1 + t) * (1 - t)", "((1 + t)) * ((1 - t))"),
    ]
])
def test_round_trip(source, parenthesized):
    # each source parses to the same AST as its fully parenthesized spelling
    assert parse(source, "t") == parse(parenthesized, "t")


def test_compile_matches_evaluate():
    node = parse("exp(-t/3) * (1 + t^2) - ln(t + 2)", "t")
    fn = compile_expr(node)
    by_hand = lambda x: math.exp(-x / 3.0) * (1.0 + x ** 2) - math.log(x + 2.0)
    for x in (-1.5, -0.25, 0.0, 0.5, 1.0, 7.75):
        assert fn(x) == by_hand(x)


def test_signed_zero_divisors_stay_apart():
    # a literal is unsigned: "-0.0" is the negation of the constant 0.0
    assert parse("-0.0", "t") == Unary("neg", Constant(0.0))
    assert math.copysign(1.0, parse("0.0", "t").value) == 1.0
    assert compile_expr(parse("t/0.0", "t"))(1.0) == math.inf
    assert compile_expr(parse("t/-0.0", "t"))(1.0) == -math.inf


def test_ast_nodes_are_immutable():
    node = Binary("add", Constant(1.0), Unary("neg", Variable("t")))
    with pytest.raises(AttributeError):
        node.op = "mul"


# -- compiled code against a tree-walking reference --------------------------

def reference(node, x):
    """Evaluate *node* by walking the tree: the semantics compile_expr must keep."""
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, Variable):
        return float(x)
    if isinstance(node, Unary):
        v = reference(node.child, x)
        return {
            "neg": lambda: -v,
            "exp": lambda: exprlang._safe_exp(v),
            "ln": lambda: exprlang._safe_ln(v),
            "sin": lambda: exprlang._safe_trig(math.sin, v),
            "cos": lambda: exprlang._safe_trig(math.cos, v),
            "sqrt": lambda: exprlang._safe_sqrt(v),
            "abs": lambda: abs(v),
        }[node.op]()
    left = reference(node.left, x)
    right = reference(node.right, x)
    return {
        "add": lambda: left + right,
        "sub": lambda: left - right,
        "mul": lambda: left * right,
        "div": lambda: exprlang._safe_div(left, right),
        "pow": lambda: exprlang._safe_pow(left, right),
    }[node.op]()


def same_float(a, b):
    """Bitwise agreement up to NaN payload: NaN matches NaN, and -0.0 is not 0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


REFERENCE_SOURCES = [
    "t", "-t", "t + 1", "t - t", "t * t * t * t * t * t", "1/t", "t/3", "t/0",
    "0/t", "t/t", "t/(0 - 0)", "-t/7", "2/-t", "t^2", "t^0.5", "t^-1", "(-t)^(1/3)",
    "0^(-t)", "2^t", "exp(t)", "exp(-t)", "ln(t)", "ln(-t)", "sqrt(t)", "sqrt(-t)",
    "sin(t)", "cos(t)", "sin(1/t)", "cos(t^3)", "abs(t)", "abs(-t) - t",
    "exp(-t/3) * (1 + t^2) - ln(t + 2)", "1e308 * t * 10", "t - 1e308 - 1e308",
    "-(-(-t))", "(t + 1)*(t - 1)/(t*t - 1)", "sqrt(abs(sin(t)))^t",
]
REFERENCE_POINTS = [0.0, -0.0, -2.5, -1.0, 0.5, 3.0, 1e-320, 1e154, 1e308, -1e308,
                    math.inf, -math.inf, math.nan, 0, 500, -7, 2 ** 60 + 1]


@pytest.mark.parametrize("source", REFERENCE_SOURCES)
def test_compiled_matches_tree_walk(source):
    node = parse(source, "t")
    fn = compile_expr(node)
    for x in REFERENCE_POINTS:
        got, want = fn(x), reference(node, x)
        assert same_float(got, want), (source, x, got, want)


@pytest.mark.parametrize("divisor", [3.0, -0.5, 0.0, -0.0, math.inf, math.nan, 1e-320])
def test_constant_divisor_matches_tree_walk(divisor):
    # the only place compiled code divides without the guard is a nonzero
    # constant divisor; zero, signed zero and non-finite divisors included
    node = Binary("div", Variable("t"), Constant(divisor))
    fn = compile_expr(node)
    for x in REFERENCE_POINTS:
        assert same_float(fn(x), reference(node, x)), (divisor, x)


def test_integer_argument_converted_once():
    # t^6 at 500 is exact in integers but rounds in floats; the compiled
    # function computes in floats, like the variable node always did
    fn = compile_expr(parse("t*t*t*t*t*t", "t"))
    assert fn(500) == 500.0 ** 6 and fn(500) == float(500) * 500.0 * 500.0 * 500.0 * 500.0 * 500.0
    assert isinstance(fn(500), float)
    assert fn(2 ** 60 + 1) == float(2 ** 60) ** 6


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 1e308])
def test_nonfinite_constant_compiles(value):
    fn = compile_expr(Binary("mul", Constant(value), Variable("t")))
    assert same_float(fn(2.0), value * 2.0)
    assert compile_expr(Constant(value))(0.0) is value


def test_constant_expression_ignores_argument():
    assert compile_expr(Constant(math.inf))("not a number") == math.inf


# -- nesting depth ------------------------------------------------------------

def deep_sum(terms):
    return "+".join(["0"] * (terms - 1)) + "-1"


@pytest.mark.parametrize("source,value", [
    pytest.param(deep_sum(300), -1.0, id="sum300"),
    pytest.param("-" * 300 + "1", 1.0, id="neg300"),
    pytest.param("-" * 299 + "t", -2.0, id="neg299"),
])
def test_deep_expression_at_the_limit(source, value):
    node = parse(source, "t")
    assert compile_expr(node)(2.0) == value
    assert hash(node) == hash(parse(source, "t")) and node == parse(source, "t")


@pytest.mark.parametrize("source,position", [
    pytest.param(deep_sum(600), 601, id="sum600"),
    pytest.param("-" * 1200 + "1", 899, id="neg1200"),
    pytest.param("-" * 301 + "1", 0, id="neg301"),
    pytest.param("exp(" * 301 + "t" + ")" * 301, 0, id="exp301"),
])
def test_deep_expression_rejected(source, position):
    with pytest.raises(ParseError) as exc:
        parse(source, "t")
    assert exc.value.position == position
    assert exc.value.message == f"expression nested deeper than {exprlang.MAX_NESTING} levels"


def test_parentheses_cost_no_depth():
    assert parse("(" * 5000 + "t" + ")" * 5000, "t") == Variable("t")
    with pytest.raises(ParseError) as exc:
        parse("(" * 5000 + "t", "t")
    assert exc.value.message == "expected ')'"
