"""Closed-form expressions in s for polarizations and seed angles.

A subset of Python's grammar: decimal numbers such as 2, .5 or 2e-3 (not 01),
s, pi, e, + - * / with the usual precedence, unary + and -, parentheses, and
sin, cos and exp of one argument.  ``ast`` parses the text and a whitelist
compiles the tree into one closure per node; nothing runs as Python code.
A parsed expression is a plain function of s: the library calls it once,
with the whole array of a grid's RK4 stage abscissas, and
``geometry._on_stages`` broadcasts a constant's number and checks the values.
"""

from __future__ import annotations

import ast
import math
import re
import warnings

import numpy as np

__all__ = ["ExpressionError", "parse_expression"]

_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# The grammar's alphabet; the tree would not show a comment or a call's trailing comma.
_FOREIGN = r"[^0-9A-Za-z_ .+\-*/()]"
_CONSTANTS = {"pi": math.pi, "e": math.e}
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_OPERATORS = {
    ast.Add: lambda a, b: lambda s: a(s) + b(s),
    ast.Sub: lambda a, b: lambda s: a(s) - b(s),
    ast.Mult: lambda a, b: lambda s: a(s) * b(s),
    ast.Div: lambda a, b: lambda s: a(s) / b(s),
    ast.UAdd: lambda a: a,
    ast.USub: lambda a: lambda s: -a(s),
}


class ExpressionError(ValueError):
    """Raised for syntax errors, with the offending column in the text."""


def _compile(node, source: str):
    """One closure of s per node of the whitelisted grammar."""
    match node:
        case ast.BinOp(op=op) if type(op) in _OPERATORS:
            return _OPERATORS[type(op)](_compile(node.left, source), _compile(node.right, source))
        case ast.UnaryOp(op=op) if type(op) in _OPERATORS:
            return _OPERATORS[type(op)](_compile(node.operand, source))
        case ast.Name(id="s"):
            return lambda s: s
        case ast.Name(id=name) if name in _CONSTANTS:
            return (lambda v: lambda s: v)(_CONSTANTS[name])
        case ast.Call(func=ast.Name(id=name), args=[arg], keywords=[]) if name in _FUNCTIONS:
            f, fn = _FUNCTIONS[name], _compile(arg, source)
            return lambda s: f(fn(s))
        case ast.Constant() if re.fullmatch(_NUMBER, text := ast.get_source_segment(source, node)):
            return (lambda v: lambda s: v)(float(text))
    raise ExpressionError(f"unsupported {ast.get_source_segment(source, node)!r} "
                          f"at column {node.col_offset + 1} of {source!r}")


def parse_expression(text: str):
    """Compile ``text`` into a function of the variable s."""
    source = re.sub(r"\s", " ", text).strip()  # a newline would end a Python expression
    if not source:
        raise ExpressionError("empty expression")
    if foreign := re.search(_FOREIGN, source):
        raise ExpressionError(f"unexpected character {foreign.group()!r} "
                              f"at column {foreign.start() + 1} of {source!r}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "1if" warns "invalid decimal literal"
            tree = ast.parse(source, mode="eval")
        return _compile(tree.body, source)
    except SyntaxError as exc:
        message = exc.msg.split(";")[0]  # without Python's octal hint for 01
        raise ExpressionError(f"{message} at column {exc.offset} of {source!r}") from None
    except RecursionError:
        raise ExpressionError("expression is nested too deeply") from None
