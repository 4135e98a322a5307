import math

import pytest

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

    def test_whitespace_insignificant(self):
        assert parse(" 1 + 2 * t ", "t") == parse("1+2*t", "t")

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


def test_compile_cache_returns_same_closure():
    node_a = parse("t + 1", "t")
    node_b = parse("t+1", "t")
    assert node_a == node_b
    assert compile_expr(node_a) is compile_expr(node_b)


def test_ast_nodes_are_immutable():
    node = Binary("add", Constant(1.0), Unary("neg", Variable("t")))
    with pytest.raises(AttributeError):
        node.op = "mul"
