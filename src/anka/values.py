"""Typed scalar values, schemas, and immutable tables.

Each of the six cell types is declared once, in its ``CELL_TYPES`` row:
the exact Python class of its cells, its one text form, the parser that
reads that form back, and its CSV column fast path. A cell is typed by
its exact class, so a ``bool`` is never an INT, a ``datetime`` never a
DATE, and an instance of a subclass is no cell at all. Null is None,
admitted in any column. INT cells are in the signed 64-bit range and
DECIMAL cells are finite.

This module is the one place that turns text into cells. Each parser
admits one cell; ``parse_column`` admits a chunk of a column's CSV
fields at once, with one regex match and one map, when every field has
the shape of its type's per-cell fast path, and otherwise reads the
chunk with the per-cell parser, so the rules and messages are those of
the per-cell parsers either way.
"""

from __future__ import annotations

import datetime
import decimal
import enum
import re
from decimal import Decimal
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from anka.errors import (
    ConversionError,
    DivisionByZero,
    IncomparableError,
    TableError,
)

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# Fractional digits allowed when a decimal enters the system (literals,
# JSON, CSV). Arithmetic may produce finer intermediate scales.
MAX_DECIMAL_SCALE = 10

# Mantissa headroom comparable to a 128-bit integer (~38.5 digits).
# Exact operations that would need more digits fail loudly instead of
# rounding silently.
DECIMAL_PRECISION = 38

_EXACT_CTX = decimal.Context(
    prec=DECIMAL_PRECISION,
    traps=[decimal.Inexact, decimal.InvalidOperation, decimal.Overflow],
)

# Scale added by division and AVG on top of the operand scale.
DIVISION_EXTRA_SCALE = 4

Cell = Union[int, str, Decimal, bool, datetime.date, datetime.datetime, None]


class ValueType(str, enum.Enum):
    """The six cell types of the language."""

    INT = "INT"
    STRING = "STRING"
    DECIMAL = "DECIMAL"
    BOOL = "BOOL"
    DATE = "DATE"
    DATETIME = "DATETIME"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


NUMERIC_TYPES = frozenset({ValueType.INT, ValueType.DECIMAL})


def value_type_of(value: Cell) -> Optional[ValueType]:
    """The type of a cell, by its exact class; None for null or any
    other object."""
    return _TYPE_BY_CLASS.get(type(value))


def cell_matches(value: Cell, vtype: ValueType) -> bool:
    """True when ``value`` is null or a well-formed cell of ``vtype``."""
    if value is None:
        return True
    if _TYPE_BY_CLASS.get(type(value)) is not vtype:
        return False
    if vtype is ValueType.INT:
        return INT64_MIN <= value <= INT64_MAX
    if vtype is ValueType.DECIMAL:
        return value.is_finite()
    return True


class Field(NamedTuple):
    """A named, typed column."""

    name: str
    type: ValueType


class Schema:
    """Ordered field list with unique names. Order is significant."""

    __slots__ = ("fields", "_index")

    def __init__(self, fields: Iterable[Field]) -> None:
        fields = tuple(fields)
        if not fields:
            raise TableError("schema must have at least one field")
        index = {f.name: i for i, f in enumerate(fields)}
        if len(index) != len(fields):
            seen = set()
            for f in fields:
                if f.name in seen:
                    raise TableError(f"duplicate field name '{f.name}' in schema")
                seen.add(f.name)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Schema is immutable")

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name}: {f.type.value}" for f in self.fields)
        return f"Schema[{inner}]"

    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def has(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no field named '{name}'") from None

    def type_of(self, name: str) -> ValueType:
        return self.fields[self.index_of(name)].type

    # Derivations: each builds the new schema from this one's fields and
    # name index without a pass in Python over every field, and keeps the
    # constructor's invariants.

    def with_field(self, field: Field) -> Schema:
        """This schema with ``field`` added at the end."""
        if field.name in self._index:
            raise TableError(f"duplicate field name '{field.name}' in schema")
        index = self._index.copy()
        index[field.name] = len(self.fields)
        return _schema(self.fields + (field,), index)

    def renamed(self, old: str, new: str) -> Schema:
        """This schema with field ``old`` named ``new``, in its place."""
        i = self.index_of(old)
        if new != old and new in self._index:
            raise TableError(f"duplicate field name '{new}' in schema")
        index = self._index.copy()
        del index[old]
        index[new] = i
        fields = self.fields
        return _schema(fields[:i] + (Field(new, fields[i].type),) + fields[i + 1 :], index)

    def without(self, name: str) -> Schema:
        """This schema with field ``name`` removed."""
        i = self.index_of(name)
        if len(self.fields) == 1:
            raise TableError("schema must have at least one field")
        fields = self.fields[:i] + self.fields[i + 1 :]
        index = self._index.copy()
        del index[name]
        # every later field moves down one place
        index.update(zip(map(_field_name, fields[i:]), range(i, len(fields))))
        return _schema(fields, index)


_field_name = attrgetter("name")


def _schema(fields: tuple[Field, ...], index: dict[str, int]) -> Schema:
    schema = object.__new__(Schema)
    object.__setattr__(schema, "fields", fields)
    object.__setattr__(schema, "_index", index)
    return schema


def schema_of(*pairs: tuple[str, ValueType]) -> Schema:
    """Shorthand constructor used heavily in tests."""
    return Schema(Field(name, vtype) for name, vtype in pairs)


class Table:
    """An immutable schema plus an ordered sequence of row tuples.

    The public constructor checks every row against the schema, so a
    table built from outside input is valid. ``Table.trusted`` skips the
    check for rows already known to be valid. Operations return new
    tables and never mutate their inputs.
    """

    # a weak reference lets a caller see when a run releases a table
    __slots__ = ("schema", "rows", "__weakref__")

    def __init__(self, schema: Schema, rows: Iterable[Sequence[Cell]]) -> None:
        arity = len(schema)
        checked: list[tuple[Cell, ...]] = []
        for r, row in enumerate(rows):
            row = tuple(row)
            if len(row) != arity:
                raise TableError(
                    f"row {r} has {len(row)} cells, schema expects {arity}"
                )
            for c, (cell, field) in enumerate(zip(row, schema.fields)):
                if not cell_matches(cell, field.type):
                    actual = value_type_of(cell)
                    actual_name = actual.value if actual else type(cell).__name__
                    raise TableError(
                        f"row {r}, column '{field.name}': expected "
                        f"{field.type.value}, got {actual_name}"
                    )
            checked.append(row)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "rows", tuple(checked))

    @classmethod
    def trusted(cls, schema: Schema, rows: Iterable[tuple[Cell, ...]]) -> "Table":
        """A table of rows that are already tuples of well-typed cells:
        operator outputs over validated pipelines, and rows whose cells
        a decoder has just admitted. Nothing is checked; a tuple of rows
        is kept as it is."""
        table = object.__new__(cls)
        object.__setattr__(table, "schema", schema)
        object.__setattr__(table, "rows", rows if type(rows) is tuple else tuple(rows))
        return table

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Table is immutable")

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Table) and table_equal(self, other)

    def __repr__(self) -> str:
        return f"Table({self.schema!r}, {len(self.rows)} rows)"

    def column(self, name: str) -> tuple[Cell, ...]:
        i = self.schema.index_of(name)
        return tuple(row[i] for row in self.rows)


def make_table(schema: Schema, rows: Iterable[Sequence[Cell]]) -> Table:
    """Construct a validated table. Raises TableError on bad rows."""
    return Table(schema, rows)


def compare_values(left: Cell, right: Cell) -> int:
    """Three-way comparison: -1, 0, or 1.

    Total within each type family: numeric order across INT/DECIMAL,
    code-point order for STRING, chronological for DATE and DATETIME,
    false < true for BOOL. Null sorts after every non-null value and
    equals null. Raises IncomparableError for any other cross-type pair.
    """
    if left is None or right is None:
        if left is None and right is None:
            return 0
        return 1 if left is None else -1
    lt = value_type_of(left)
    rt = value_type_of(right)
    comparable = lt is rt or (lt in NUMERIC_TYPES and rt in NUMERIC_TYPES)
    if not comparable:
        raise IncomparableError(
            f"cannot compare {lt.value if lt else type(left).__name__} "
            f"with {rt.value if rt else type(right).__name__}"
        )
    if left == right:
        return 0
    return -1 if left < right else 1


def table_equal(left: Table, right: Table) -> bool:
    """Exact table equality: the same schema (names, types, order) and
    the same rows in the same order. The cells of a column share its
    type, so Python's ``==`` on the rows is the language's equality:
    null equals null, and DECIMAL compares by value (2.50 equals 2.5)."""
    return left.schema == right.schema and left.rows == right.rows


# ---------------------------------------------------------------------------
# Text to INT and DECIMAL cells: the one place that admits numbers from
# literals, TO_INT/TO_DECIMAL, JSON and CSV. Each function raises only
# ConversionError, whatever its input.
# ---------------------------------------------------------------------------

# ASCII digits only, as \d and Decimal() admit other scripts' digits too;
# past 9 exponent digits Decimal() itself fails
_INT_TEXT = re.compile(r"[+-]?[0-9]+")
_DECIMAL_TEXT = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]{1,9})?")
# Field shapes whose text converts directly to a cell, for the fast
# paths. An INT of at most 18 digits is in range whatever its sign
# (parse_int's own fast path takes the unsigned ones). Plain decimal text
# is what check_decimal admits unchanged: at most 37 digits, at most 10
# of them after the point, no exponent. The quantifiers are possessive
# (``?+``, ``{m,n}+``, which ``re`` has from Python 3.11): giving a digit
# back can never let a match go on, so they admit the same text without
# the backtracking.
_INT_FIELD = "-?+[0-9]{1,18}+"
_PLAIN_DECIMAL_FIELD = r"-?+[0-9]{1,27}+(?:\.[0-9]{1,10}+)?+"
_DATE_FIELD = "[0-9]{4}-[0-9]{2}-[0-9]{2}"
_DATETIME_FIELD = _DATE_FIELD + "T[0-9]{2}:[0-9]{2}:[0-9]{2}"
_BOOL_FIELD = "true|false"
_PLAIN_DECIMAL_TEXT = re.compile(_PLAIN_DECIMAL_FIELD)


def clip_text(text: str) -> str:
    """``text`` as a diagnostic echoes it: cut after 40 characters."""
    return text if len(text) <= 40 else text[:40] + "…"


def parse_int(text: str) -> int:
    """Parse an optional sign and ASCII digits into a 64-bit INT."""
    if len(text) <= 18 and text.isdigit() and text.isascii():
        return int(text)  # plain digits the grammar admits, all in range
    if not _INT_TEXT.fullmatch(text):
        raise ConversionError(f"cannot parse {clip_text(text)!r} as INT")
    # int() fails past 4300 digits, and 20 are out of range already
    value = int(text.lstrip("+-0")[:20] or "0")
    return check_int(-value if text[0] == "-" else value, text)


def check_int(value: int, text: Optional[str] = None) -> int:
    """Admit an INT cell: the signed 64-bit range. Diagnostics echo
    ``text``, where the value came from, if given."""
    if INT64_MIN <= value <= INT64_MAX:
        return value
    if text is None:  # str() of an int past 4300 digits raises
        text = str(value) if value.bit_length() <= 128 else "…"
    raise ConversionError(f"INT value {clip_text(text)} out of 64-bit range")


def parse_decimal(text: str) -> Decimal:
    """Parse ASCII decimal text, with an optional exponent, exactly."""
    if _PLAIN_DECIMAL_TEXT.fullmatch(text):
        return Decimal(text)
    if not _DECIMAL_TEXT.fullmatch(text):
        raise ConversionError(f"malformed DECIMAL value {clip_text(text)!r}")
    return check_decimal(Decimal(text), text)


def check_decimal(value: Decimal, text: Optional[str] = None) -> Decimal:
    """Admit a DECIMAL cell: finite, scale at most 10 and at most 38
    digits. A positive exponent is spelled out, so 1E+3 becomes 1000.
    Diagnostics echo ``text``, where the value came from, if given."""
    # bounds first: quantize raises InvalidOperation past 38 digits
    _, digits, exponent = value.as_tuple()
    if not isinstance(exponent, int):  # NaN/Inf carry string exponents
        problem = "is not finite"
    elif exponent < -MAX_DECIMAL_SCALE:
        problem = f"exceeds maximum scale of {MAX_DECIMAL_SCALE}"
    elif len(digits) + max(exponent, 0) > DECIMAL_PRECISION and any(digits):
        problem = "exceeds precision"
    else:
        return value.quantize(Decimal(1), context=_EXACT_CTX) if exponent > 0 else value
    shown = clip_text(str(value) if text is None else text)
    raise ConversionError(f"DECIMAL value {shown!r} {problem}")


# ---------------------------------------------------------------------------
# Arithmetic kernels. The validator proves each operator's operand types,
# so the interpreter picks one kernel per operator when it compiles a
# plan: INT op INT is an int operation with the 64-bit range check, and
# any other pair goes through the exact decimal context, whose methods
# take an INT operand exactly. Kernels never see null; their callers
# check for it. The context methods raise decimal.Inexact where an exact
# result needs more than 38 digits, which callers report as
# "DECIMAL overflow in <operation>".
# ---------------------------------------------------------------------------

OPERATION_NAMES = {
    "+": "addition",
    "-": "subtraction",
    "*": "multiplication",
    "/": "division",
}


def decimal_scale(value: Decimal) -> int:
    """Number of fractional digits (0 for integral-form decimals) of a
    finite DECIMAL."""
    return max(0, -value.as_tuple().exponent)


def _check_int64(value: int, op: str) -> int:
    if not INT64_MIN <= value <= INT64_MAX:
        raise ConversionError(f"INT overflow in {op}")
    return value


def int_add(left: int, right: int) -> int:
    value = left + right
    if INT64_MIN <= value <= INT64_MAX:
        return value
    raise ConversionError("INT overflow in addition")


def int_subtract(left: int, right: int) -> int:
    value = left - right
    if INT64_MIN <= value <= INT64_MAX:
        return value
    raise ConversionError("INT overflow in subtraction")


def int_multiply(left: int, right: int) -> int:
    value = left * right
    if INT64_MIN <= value <= INT64_MAX:
        return value
    raise ConversionError("INT overflow in multiplication")


def int_divide(left: int, right: int) -> int:
    """INT / INT truncates toward zero."""
    if right == 0:
        raise DivisionByZero("division by zero")
    quotient = abs(left) // abs(right)
    if (left < 0) != (right < 0):
        quotient = -quotient
    return _check_int64(quotient, "division")


def int_negate(value: int) -> int:
    return _check_int64(-value, "negation")


def decimal_quotient(left: Union[int, Decimal], right: Union[int, Decimal]) -> Decimal:
    """DECIMAL division, rounded half-even to scale max(operand scales)
    + 4; an INT operand has scale 0."""
    if not right:
        raise DivisionByZero("division by zero")
    scale = max(
        0 if isinstance(left, int) else decimal_scale(left),
        0 if isinstance(right, int) else decimal_scale(right),
    )
    return decimal_divide(left, right, scale + DIVISION_EXTRA_SCALE)


_MANTISSA_LIMIT = 10**DECIMAL_PRECISION


def decimal_divide(
    numerator: Union[int, Decimal], denominator: Union[int, Decimal], scale: int
) -> Decimal:
    """Exact rational division rounded half-even to ``scale`` digits,
    in integer arithmetic."""
    top, below = numerator.as_integer_ratio()
    bottom, above = denominator.as_integer_ratio()
    if bottom == 0:
        raise DivisionByZero("division by zero")
    # numerator / denominator * 10**scale == top * above * 10**scale / (below * bottom)
    top *= above * 10**scale
    bottom *= below
    if bottom < 0:
        top, bottom = -top, -bottom
    mantissa, rest = divmod(top, bottom)  # floors, so 0 <= rest < bottom
    rest *= 2
    if rest > bottom or (rest == bottom and mantissa & 1):
        mantissa += 1
    if not -_MANTISSA_LIMIT < mantissa < _MANTISSA_LIMIT:
        raise ConversionError("DECIMAL overflow in division")
    return Decimal(mantissa).scaleb(-scale, context=_EXACT_CTX)


# Kernel per operator and result type: the result type is INT exactly
# when both operands are INT.
ARITHMETIC_KERNELS: dict[tuple[str, ValueType], Callable[[Cell, Cell], Cell]] = {
    ("+", ValueType.INT): int_add,
    ("-", ValueType.INT): int_subtract,
    ("*", ValueType.INT): int_multiply,
    ("/", ValueType.INT): int_divide,
    ("+", ValueType.DECIMAL): _EXACT_CTX.add,
    ("-", ValueType.DECIMAL): _EXACT_CTX.subtract,
    ("*", ValueType.DECIMAL): _EXACT_CTX.multiply,
    ("/", ValueType.DECIMAL): decimal_quotient,
}

NEGATION_KERNELS: dict[ValueType, Callable[[Cell], Cell]] = {
    ValueType.INT: int_negate,
    ValueType.DECIMAL: _EXACT_CTX.minus,
}


# ---------------------------------------------------------------------------
# Date and datetime wire formats (ISO-8601, no timezones)
# ---------------------------------------------------------------------------

_DATE_RE = re.compile(_DATE_FIELD)
_DATETIME_RE = re.compile(_DATETIME_FIELD)


def parse_date(text: str) -> datetime.date:
    if not _DATE_RE.fullmatch(text):
        raise ConversionError(f"malformed DATE value {text!r}, expected YYYY-MM-DD")
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        raise ConversionError(f"invalid DATE value {text!r}") from None


def parse_datetime(text: str) -> datetime.datetime:
    if not _DATETIME_RE.fullmatch(text):
        raise ConversionError(
            f"malformed DATETIME value {text!r}, expected YYYY-MM-DDTHH:MM:SS"
        )
    try:
        return datetime.datetime.fromisoformat(text)
    except ValueError:
        raise ConversionError(f"invalid DATETIME value {text!r}") from None


def parse_bool(text: str) -> bool:
    """BOOL text as CSV writes it: ``true`` or ``false``."""
    if text == "true":
        return True
    if text == "false":
        return False
    raise ConversionError(f"cannot parse {text!r} as BOOL, expected true/false")


def _column_shape(field: str) -> re.Pattern:
    """Newline-separated fields, each empty or of the shape ``field``.
    No field shape matches the newline, so possessive quantifiers admit
    the same text as greedy ones, and a failing chunk is not retried."""
    return re.compile(f"(?:{field})?+(?:\n(?:{field})?+)*+")


class CellType(NamedTuple):
    """One cell type's facts. ``text`` is its one text form: TO_STRING,
    CSV, JSON, a literal's payload in formatted source and the AST dump
    all write it, and ``parse`` reads it back, one cell, raising only
    ConversionError. ``column`` is the shape of a chunk of CSV fields the
    column fast path admits, and ``convert`` the C-level conversion of
    each non-empty field, which gives the cell ``parse`` gives for the
    same text; STRING has neither, as its CSV fields are its cells."""

    cls: type  # the exact class of its cells
    text: Callable[[Cell], str]
    parse: Callable[[str], Cell]
    column: Optional[re.Pattern]
    convert: Optional[Callable[[str], Cell]]


# str() of a date is its ISO form; both ISO forms pad the year to four digits
CELL_TYPES: dict[ValueType, CellType] = {
    ValueType.INT: CellType(int, str, parse_int, _column_shape(_INT_FIELD), int),
    ValueType.STRING: CellType(str, str, str, None, None),
    ValueType.DECIMAL: CellType(
        Decimal,
        lambda value: format(value, "f"),
        parse_decimal,
        _column_shape(_PLAIN_DECIMAL_FIELD),
        Decimal,
    ),
    ValueType.BOOL: CellType(
        bool,
        lambda value: "true" if value else "false",
        parse_bool,
        _column_shape(_BOOL_FIELD),
        "true".__eq__,
    ),
    ValueType.DATE: CellType(
        datetime.date, str, parse_date, _column_shape(_DATE_FIELD), datetime.date.fromisoformat
    ),
    ValueType.DATETIME: CellType(
        datetime.datetime,
        lambda value: value.isoformat(timespec="seconds"),
        parse_datetime,
        _column_shape(_DATETIME_FIELD),
        datetime.datetime.fromisoformat,
    ),
}

# a cell's type and its text form by its exact class, each in one lookup
_TYPE_BY_CLASS = {row.cls: vtype for vtype, row in CELL_TYPES.items()}
_TEXT_BY_CLASS = {row.cls: row.text for row in CELL_TYPES.values()}


def parse_column(vtype: ValueType, texts: Sequence[str]) -> list[Cell]:
    """The cells of a chunk of one non-STRING column's CSV fields, an
    empty field as null. A chunk whose fields all have their type's
    fast-path shape takes one match of the joined chunk and one map; any
    other chunk, or one that fails to convert (such as 2024-02-30), is
    read by the per-cell parser, whose ConversionError names the first
    bad field."""
    _, _, parse, shape, convert = CELL_TYPES[vtype]
    joined = "\n".join(texts)
    # a quoted field may hold a newline, which would read as two fields
    if joined.count("\n") == len(texts) - 1 and shape.fullmatch(joined):
        try:
            if "" in texts:
                return [convert(text) if text else None for text in texts]
            return list(map(convert, texts))
        except ValueError:
            pass
    return [parse(text) if text else None for text in texts]


def format_cell(value: Cell) -> str:
    """Canonical text form of a cell, as used by TO_STRING."""
    text = _TEXT_BY_CLASS.get(type(value))
    if text is None:
        shown = "null" if value is None else type(value).__name__
        raise ConversionError(f"cannot format {shown}")
    return text(value)
