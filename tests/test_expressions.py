import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from darbouxflow.expressions import Expression, ExpressionError, parse_expression


@pytest.mark.parametrize("text,s,want", [
    ("1 + 0.5*sin(s)", 0.0, 1.0),
    ("1 + 0.5*sin(s)", math.pi / 2, 1.5),
    ("2 + 3*4", None, 14.0),
    ("2*3 + 4", None, 10.0),
    ("(2 + 3)*4", None, 20.0),
    ("-s", 2.0, -2.0),
    ("--s", 2.0, 2.0),
    ("6/3/2", None, 1.0),          # left-associative division
    ("1 - 2 - 3", None, -4.0),     # left-associative subtraction
    ("cos(pi)", None, -1.0),
    ("exp(1)", None, math.e),
    ("e", None, math.e),
    ("2e-3 + 1", None, 1.002),     # scientific notation
    ("sin(cos(s))", 0.0, math.sin(1.0)),
])
def test_expression_values(text, s, want):
    expr = parse_expression(text)
    got = expr(0.0 if s is None else s)
    assert got == pytest.approx(want, abs=1e-15)


def test_constant_flag():
    assert parse_expression("2 + 3*4").is_constant
    assert parse_expression("cos(pi)").is_constant
    assert not parse_expression("1 + 0*s").is_constant  # syntactic, not algebraic


def test_array_evaluation_broadcasts():
    expr = parse_expression("s*s + 1")
    s = np.linspace(0.0, 2.0, 9)
    out = expr(s)
    assert isinstance(out, np.ndarray)
    assert out == pytest.approx(s**2 + 1)


def test_constant_expression_on_array_input():
    out = parse_expression("pi")(np.zeros(4))
    assert out == pytest.approx(np.full(4, math.pi))


@pytest.mark.parametrize("bad", [
    "",
    "1 +",
    "(1 + 2",
    "1 + 2)",
    "sin",
    "sin 1",
    "foo(s)",
    "t + 1",
    "1 2",
    "1 ** 2",
])
def test_malformed_input_raises(bad):
    with pytest.raises(ExpressionError):
        parse_expression(bad)


def test_error_is_a_value_error():
    with pytest.raises(ValueError):
        parse_expression("nope")


@given(a=st.floats(-100, 100), b=st.floats(-100, 100),
       t=st.floats(-10, 10))
def test_linear_expressions_round_trip(a, b, t):
    expr = parse_expression(f"{a!r} + {b!r}*s")
    assert expr(t) == pytest.approx(a + b * t, rel=1e-12, abs=1e-9)
