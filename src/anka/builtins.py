"""Builtin scalar and aggregate functions: signatures and implementations.

Every builtin propagates null: if any argument is null the result is
null and the implementation is not invoked. Aggregates skip nulls.
"""

from __future__ import annotations

from decimal import Decimal
from functools import partial, reduce
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

from anka.errors import AssertionFailed, ConversionError
from anka.values import (NUMERIC_TYPES, Cell, ValueType, check_int, decimal_quotient,
                         format_cell, parse_decimal, parse_int)

ANY = None  # argument accepts every value type

# Longest STRING that CONCAT and REPLACE build. Nested calls grow a
# string geometrically inside one expression, where the deadline cannot
# interrupt them, so the result length is checked before it is built.
MAX_STRING_LENGTH = 1_000_000


class Builtin(NamedTuple):
    params: tuple[Optional[frozenset[ValueType]], ...]
    result: ValueType
    fn: Callable[..., Cell]


def _check_length(name: str, length: int) -> None:
    if length > MAX_STRING_LENGTH:
        raise AssertionFailed(
            f"{name} result of {length} characters exceeds the STRING "
            f"length limit of {MAX_STRING_LENGTH}"
        )


def _concat(a: str, b: str) -> str:
    if len(a) + len(b) > MAX_STRING_LENGTH:
        _check_length("CONCAT", len(a) + len(b))
    return a + b


def _substring(s: str, start: int, length: int) -> str:
    if start < 0 or length < 0:
        raise ConversionError(
            f"SUBSTRING arguments must be non-negative, got start={start} length={length}"
        )
    return s[start : start + length]


def _replace(s: str, needle: str, replacement: str) -> str:
    if needle == "":
        return s
    growth = len(replacement) - len(needle)
    if growth > 0:
        _check_length("REPLACE", len(s) + s.count(needle) * growth)
    return s.replace(needle, replacement)


# The validator admits only STRING, INT and DECIMAL arguments to the casts.
def _to_int(value: Cell) -> int:
    if isinstance(value, int):
        return value
    if isinstance(value, Decimal):
        return check_int(int(value))  # truncates toward zero
    return parse_int(value.strip())


def _to_decimal(value: Cell) -> Decimal:
    if isinstance(value, Decimal):
        return value
    if isinstance(value, int):
        return Decimal(value)
    return parse_decimal(value.strip())


_STRINGY = frozenset({ValueType.STRING})
_INTY = frozenset({ValueType.INT})
_TEMPORAL = frozenset({ValueType.DATE, ValueType.DATETIME})
_CASTABLE = frozenset({ValueType.STRING, ValueType.INT, ValueType.DECIMAL})

BUILTINS: dict[str, Builtin] = {
    "CONCAT": Builtin((_STRINGY, _STRINGY), ValueType.STRING, _concat),
    "UPPER": Builtin((_STRINGY,), ValueType.STRING, str.upper),
    "LOWER": Builtin((_STRINGY,), ValueType.STRING, str.lower),
    "TRIM": Builtin((_STRINGY,), ValueType.STRING, str.strip),
    "LENGTH": Builtin((_STRINGY,), ValueType.INT, len),
    "SUBSTRING": Builtin((_STRINGY, _INTY, _INTY), ValueType.STRING, _substring),
    "REPLACE": Builtin((_STRINGY, _STRINGY, _STRINGY), ValueType.STRING, _replace),
    "TO_STRING": Builtin((ANY,), ValueType.STRING, format_cell),
    "TO_INT": Builtin((_CASTABLE,), ValueType.INT, _to_int),
    "TO_DECIMAL": Builtin((_CASTABLE,), ValueType.DECIMAL, _to_decimal),
    "YEAR": Builtin((_TEMPORAL,), ValueType.INT, attrgetter("year")),
    "MONTH": Builtin((_TEMPORAL,), ValueType.INT, attrgetter("month")),
    "DAY": Builtin((_TEMPORAL,), ValueType.INT, attrgetter("day")),
}


# each builtin's implementation by name, so a call reads one dict entry
_FUNCTIONS: dict[str, Callable[..., Cell]] = {name: b.fn for name, b in BUILTINS.items()}


def call_builtin(name: str, args: tuple[Cell, ...]) -> Cell:
    """Invoke a builtin with evaluated arguments. Null in, null out.

    This is the public one-call API, and ``anka.interpreter.call_builtin``
    is the seam a profiler or a test replaces. Generated row code calls
    the kernels directly, but a plan compiled while that name is replaced
    calls the replacement instead, for each call whose arguments are all
    non-null."""
    if None in args:
        return None
    return _FUNCTIONS[name](*args)


class Aggregate(NamedTuple):
    """An aggregate function. ``fold(add)``, given the addition kernel of
    the result type, folds a group's non-null values, one or more, or for
    COUNT its rows, into a cell."""

    params: tuple[frozenset[ValueType], ...]  # () for COUNT, which counts rows
    result: Optional[ValueType]  # None for the argument's type
    fold: Callable[[Optional[Callable]], Callable[[list], Cell]]


def _average(add: Callable, values: list) -> Cell:
    return decimal_quotient(reduce(add, values, Decimal(0)), len(values))


_ORDERED = NUMERIC_TYPES | {ValueType.STRING, ValueType.DATE, ValueType.DATETIME}

# In the order a ParseError lists them. MIN and MAX compare values of one
# column's type directly, and both keep the first of equal values.
AGGREGATES: dict[str, Aggregate] = {
    "COUNT": Aggregate((), ValueType.INT, lambda add: len),
    "SUM": Aggregate((NUMERIC_TYPES,), None, lambda add: partial(reduce, add)),
    "AVG": Aggregate((NUMERIC_TYPES,), ValueType.DECIMAL, lambda add: partial(_average, add)),
    "MIN": Aggregate((_ORDERED,), None, lambda add: min),
    "MAX": Aggregate((_ORDERED,), None, lambda add: max),
}
