"""Builtin scalar functions: signatures and implementations.

Every builtin propagates null: if any argument is null the result is
null and the implementation is not invoked.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from operator import attrgetter
from typing import Callable, Optional

from anka.errors import AssertionFailed, ConversionError
from anka.values import Cell, ValueType, check_int, format_cell, parse_decimal, parse_int

ANY = None  # argument accepts every value type

# Longest STRING that CONCAT and REPLACE build. Nested calls grow a
# string geometrically inside one expression, where the deadline cannot
# interrupt them, so the result length is checked before it is built.
MAX_STRING_LENGTH = 1_000_000


@dataclass(frozen=True)
class Builtin:
    name: str
    params: tuple[Optional[frozenset[ValueType]], ...]
    result: ValueType
    fn: Callable[..., Cell]

    @property
    def arity(self) -> int:
        return len(self.params)


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
    b.name: b
    for b in [
        Builtin("CONCAT", (_STRINGY, _STRINGY), ValueType.STRING, _concat),
        Builtin("UPPER", (_STRINGY,), ValueType.STRING, str.upper),
        Builtin("LOWER", (_STRINGY,), ValueType.STRING, str.lower),
        Builtin("TRIM", (_STRINGY,), ValueType.STRING, str.strip),
        Builtin("LENGTH", (_STRINGY,), ValueType.INT, len),
        Builtin("SUBSTRING", (_STRINGY, _INTY, _INTY), ValueType.STRING, _substring),
        Builtin("REPLACE", (_STRINGY, _STRINGY, _STRINGY), ValueType.STRING, _replace),
        Builtin("TO_STRING", (ANY,), ValueType.STRING, format_cell),
        Builtin("TO_INT", (_CASTABLE,), ValueType.INT, _to_int),
        Builtin("TO_DECIMAL", (_CASTABLE,), ValueType.DECIMAL, _to_decimal),
        Builtin("YEAR", (_TEMPORAL,), ValueType.INT, attrgetter("year")),
        Builtin("MONTH", (_TEMPORAL,), ValueType.INT, attrgetter("month")),
        Builtin("DAY", (_TEMPORAL,), ValueType.INT, attrgetter("day")),
    ]
}


# each builtin's implementation by name, so a call reads one dict entry
_FUNCTIONS: dict[str, Callable[..., Cell]] = {b.name: b.fn for b in BUILTINS.values()}


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
