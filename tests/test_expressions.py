import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from darbouxflow.expressions import ExpressionError, parse_expression
from darbouxflow.geometry import SGrid, _on_stages


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
    ("1 +\n  2", None, 3.0),          # a continuation line in an INI value
])
def test_expression_values(text, s, want):
    expr = parse_expression(text)
    got = expr(0.0 if s is None else s)
    assert got == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("text", ["-0.15 + 0.1*sin(3*s)", "1 + 0.5*sin(s)",
                                  "exp(-s)*cos(2*s)/(1 + s*s)", "2 - s/3", "pi"])
def test_one_array_call_matches_scalar_calls(text):
    # the library calls an expression once with all stage abscissas
    expr = parse_expression(text)
    grid = SGrid.from_step(-3.0, 7.0, 5e-3)
    s = grid.refined_values()
    assert np.array_equal(_on_stages(expr, grid, text), [expr(float(x)) for x in s])


def test_array_evaluation_broadcasts():
    expr = parse_expression("s*s + 1")
    s = np.linspace(0.0, 2.0, 9)
    out = expr(s)
    assert isinstance(out, np.ndarray)
    assert out == pytest.approx(s**2 + 1)


def test_constant_expression_on_array_input():
    # a constant's function returns one number; _on_stages fills every stage
    grid = SGrid(0.0, 0.25, 5)
    out = _on_stages(parse_expression("pi"), grid, "pi")
    assert np.array_equal(out, np.full(9, math.pi))


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


@pytest.mark.parametrize("bad", [
    "1_0", "0x1", "1j", "True", "None", "'a'", "s.real", "sin(s, s)", "sin(x=s)",
    "[s]", "(s, s)", "s if s else 1", "s < 1", "s % 2", "s // 2", "~s", "not s",
    "s @ s", "lambda: 1", "__import__('os')", "pi(s)", "sin(s)(s)",
    # Python's tokenizer skips these, so the tree alone would not show them
    "sin(s,)", "1 # comment",
])
def test_python_only_syntax_is_refused(bad):
    with pytest.raises(ExpressionError):
        parse_expression(bad)


@pytest.mark.parametrize("bad", ["01", "-001", "2*01"])
def test_leading_zero_integers_are_refused(bad):
    with pytest.raises(ExpressionError, match="leading zeros"):
        parse_expression(bad)


def test_refusal_prints_no_syntax_warning():
    # Python warns "invalid decimal literal" for 1if before it builds the tree
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ExpressionError, match="invalid decimal literal"):
            parse_expression("1if 1else 2")
    assert caught == []


def test_non_ascii_digits_are_refused():
    with pytest.raises(ExpressionError, match="unexpected character"):
        parse_expression("2*\u0661")  # ARABIC-INDIC DIGIT ONE


def test_overflowing_number_reads_as_inf():
    # config refuses it as non-finite under the key
    assert parse_expression("1e400")(0.0) == math.inf


def test_leading_zeros_stay_valid_in_decimals():
    assert parse_expression("00")(0.0) == 0.0
    assert parse_expression("00.5 + 0.25e01")(0.0) == 3.0


def test_error_is_a_value_error():
    with pytest.raises(ValueError):
        parse_expression("nope")


@given(a=st.floats(-100, 100), b=st.floats(-100, 100),
       t=st.floats(-10, 10))
def test_linear_expressions_round_trip(a, b, t):
    expr = parse_expression(f"{a!r} + {b!r}*s")
    assert expr(t) == pytest.approx(a + b * t, rel=1e-12, abs=1e-9)
