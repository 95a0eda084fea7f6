"""Reference semantics for the typed kernels and the cell fast paths.

The interpreter picks one kernel per operator from the operand types the
validator proved, and the text parsers admit plain text without the full
grammar. The functions below are the slow, general versions they must
agree with: arithmetic that dispatches on each value's type per call and
promotes INT to DECIMAL, division and rounded products through
``Fraction``, a three-way comparison for the comparison, MIN and MAX
kernels, and parsers that always take the grammar path. The
differential tests in ``test_kernels.py`` compare the two on seeded
random and edge inputs.
"""

from __future__ import annotations

import decimal
import re
from decimal import Decimal
from fractions import Fraction

from anka.errors import ConversionError, DivisionByZero
from anka.values import (
    DECIMAL_PRECISION,
    DIVISION_EXTRA_SCALE,
    INT64_MAX,
    INT64_MIN,
    MAX_DECIMAL_SCALE,
    check_decimal,
    check_int,
    clip_text,
    decimal_scale,
)

_EXACT_CTX = decimal.Context(
    prec=DECIMAL_PRECISION,
    traps=[decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)


def _check_int64(value, op):
    if not INT64_MIN <= value <= INT64_MAX:
        raise ConversionError(f"INT overflow in {op}")
    return value


def _exact(op, fn, *args):
    try:
        return fn(*args)
    except decimal.Rounded:
        raise ConversionError(f"DECIMAL overflow in {op}") from None


def _as_decimal(value):
    return value if isinstance(value, Decimal) else Decimal(value)


def add_values(left, right):
    if left is None or right is None:
        return None
    if isinstance(left, int) and isinstance(right, int):
        return _check_int64(left + right, "addition")
    return _exact("addition", _EXACT_CTX.add, _as_decimal(left), _as_decimal(right))


def subtract_values(left, right):
    if left is None or right is None:
        return None
    if isinstance(left, int) and isinstance(right, int):
        return _check_int64(left - right, "subtraction")
    return _exact(
        "subtraction", _EXACT_CTX.subtract, _as_decimal(left), _as_decimal(right)
    )


def multiply_values(left, right):
    if left is None or right is None:
        return None
    if isinstance(left, int) and isinstance(right, int):
        return _check_int64(left * right, "multiplication")
    lv, rv = _as_decimal(left), _as_decimal(right)
    if decimal_scale(lv) + decimal_scale(rv) > MAX_DECIMAL_SCALE:
        # the exact product rounded half-even to scale 10
        product = Fraction(lv) * Fraction(rv)
        return fraction_divide(product, 1, MAX_DECIMAL_SCALE, "multiplication")
    return _exact("multiplication", _EXACT_CTX.multiply, lv, rv)


def divide_values(left, right):
    if left is None or right is None:
        return None
    if isinstance(left, int) and isinstance(right, int):
        if right == 0:
            raise DivisionByZero("division by zero")
        quotient = abs(left) // abs(right)
        if (left < 0) != (right < 0):
            quotient = -quotient
        return _check_int64(quotient, "division")
    lv, rv = _as_decimal(left), _as_decimal(right)
    if rv == 0:
        raise DivisionByZero("division by zero")
    return fraction_divide(lv, rv, quotient_scale(lv, rv))


def quotient_scale(*operands):
    """The scale of a DECIMAL quotient: the operands' largest plus 4, at
    most 10."""
    return min(max(map(decimal_scale, operands)) + DIVISION_EXTRA_SCALE, MAX_DECIMAL_SCALE)


def negate_value(value):
    if value is None:
        return None
    if isinstance(value, int):
        return _check_int64(-value, "negation")
    return _exact("negation", _EXACT_CTX.minus, value)


def fraction_divide(numerator, denominator, scale, operation="division"):
    """Exact rational division rounded half-even to ``scale`` digits."""
    if denominator == 0:
        raise DivisionByZero("division by zero")
    exact = Fraction(numerator) / Fraction(denominator) * 10**scale
    mantissa = round(exact)  # Fraction.__round__ is half-even
    if len(str(abs(mantissa))) > DECIMAL_PRECISION:
        raise ConversionError(f"DECIMAL overflow in {operation}")
    return Decimal(mantissa).scaleb(-scale, context=_EXACT_CTX)


ARITHMETIC = {
    "+": add_values,
    "-": subtract_values,
    "*": multiply_values,
    "/": divide_values,
}

_INT_TEXT = re.compile(r"[+-]?[0-9]+")
_DECIMAL_TEXT = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]{1,9})?")


def grammar_parse_int(text):
    if not _INT_TEXT.fullmatch(text):
        raise ConversionError(f"cannot parse {clip_text(text)!r} as INT")
    value = int(text.lstrip("+-0")[:20] or "0")
    return check_int(-value if text[0] == "-" else value, text)


def grammar_parse_decimal(text):
    if not _DECIMAL_TEXT.fullmatch(text):
        raise ConversionError(f"malformed DECIMAL value {clip_text(text)!r}")
    return check_decimal(Decimal(text), text)


def compare_values(left, right):
    """Three-way comparison, -1, 0 or 1: numeric across INT and DECIMAL,
    code points for STRING, time for DATE and DATETIME, false before true
    for BOOL, and null after every value and equal to null. Any other
    pair of cells raises TypeError."""
    if left is None or right is None:
        return (left is None) - (right is None)
    numeric = type(left) in (int, Decimal) and type(right) in (int, Decimal)
    if type(left) is not type(right) and not numeric:
        raise TypeError(f"cannot compare {type(left).__name__} with {type(right).__name__}")
    return (left > right) - (left < right)
