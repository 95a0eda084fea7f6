"""Anka: a data transformation pipeline language.

Parser, static validator, interpreter (MAP and FILTER run as generated
Python row loops), JSON/CSV/HTTP I/O, and a benchmark harness for
scoring generated candidate programs.
"""

from anka.errors import (
    AnkaError,
    AssertionFailed,
    ConversionError,
    DivisionByZero,
    ExecutionError,
    HttpError,
    IncomparableError,
    InputError,
    IoError,
    ParseError,
    TableError,
    ValidationError,
    ValidationKind,
)
from anka.formatter import format_ast
from anka.interpreter import run_pipeline
from anka.io_adapters import (
    IoAdapter,
    table_from_csv,
    table_from_json,
    table_to_csv,
    table_to_json,
)
from anka.parser import parse
from anka.validator import validate
from anka.values import (
    Field,
    Schema,
    Table,
    ValueType,
    compare_values,
    make_table,
    table_equal,
)

__version__ = "0.1.0"

__all__ = [
    "AnkaError",
    "AssertionFailed",
    "ConversionError",
    "DivisionByZero",
    "ExecutionError",
    "Field",
    "HttpError",
    "IncomparableError",
    "InputError",
    "IoAdapter",
    "IoError",
    "ParseError",
    "Schema",
    "Table",
    "TableError",
    "ValidationError",
    "ValidationKind",
    "ValueType",
    "compare_values",
    "format_ast",
    "make_table",
    "parse",
    "run_pipeline",
    "table_equal",
    "table_from_csv",
    "table_from_json",
    "table_to_csv",
    "table_to_json",
    "validate",
]
