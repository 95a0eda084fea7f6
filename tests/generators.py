"""Seeded random generators for schemas, tables, expressions, and whole
pipelines, shared by the unit and acceptance suites."""

from __future__ import annotations

import datetime
import random
import string
from decimal import Decimal
from typing import Callable

from anka import ast_nodes as ast
from anka.values import Field, Schema, Table, ValueType

from builders import UNKNOWN_LOCATION as LOC

EvalFn = Callable[[dict], object]

TYPES = list(ValueType)

# Covers quoting, commas, and whitespace without NUL (the csv module
# cannot carry NUL) or bare CR (line-ending normalization).
STRING_ALPHABET = string.ascii_letters + string.digits + ' ,;"\'\\\n\t_-#éß'

_COLUMN_NAMES = ["a", "b", "c", "d", "e", "f", "g", "h"]

# A CSV field of each non-STRING type that the column fast path
# (``values.parse_column``) admits as it is.
PLAIN_FIELDS = {
    ValueType.INT: "42",
    ValueType.DECIMAL: "1.50",
    ValueType.BOOL: "true",
    ValueType.DATE: "2024-01-02",
    ValueType.DATETIME: "2024-01-02T03:04:05",
}


def rand_type(rng: random.Random) -> ValueType:
    return rng.choice(TYPES)


def rand_schema(rng: random.Random, max_cols: int = 5, types=None) -> Schema:
    n = rng.randint(1, max_cols)
    names = rng.sample(_COLUMN_NAMES, n)
    pool = types if types is not None else TYPES
    return Schema(Field(name, rng.choice(pool)) for name in names)


def rand_cell(rng: random.Random, vtype: ValueType, null_rate: float = 0.15):
    if rng.random() < null_rate:
        return None
    if vtype is ValueType.INT:
        return rng.randint(-50, 50)
    if vtype is ValueType.STRING:
        length = rng.randint(0, 8)
        return "".join(rng.choice(STRING_ALPHABET) for _ in range(length))
    if vtype is ValueType.DECIMAL:
        scale = rng.randint(0, 4)
        mantissa = rng.randint(-10**6, 10**6)
        return Decimal(mantissa).scaleb(-scale)
    if vtype is ValueType.BOOL:
        return rng.random() < 0.5
    if vtype is ValueType.DATE:
        return datetime.date(2020, 1, 1) + datetime.timedelta(days=rng.randint(0, 2000))
    if vtype is ValueType.DATETIME:
        base = datetime.datetime(2020, 1, 1, 0, 0, 0)
        return base + datetime.timedelta(seconds=rng.randint(0, 10**8))
    raise AssertionError(vtype)


def rand_table(
    rng: random.Random,
    schema: Schema,
    max_rows: int = 20,
    null_rate: float = 0.15,
    duplicate_rate: float = 0.25,
) -> Table:
    """Random table with intentional duplicate rows so DISTINCT, SORT
    stability, and grouping get exercised."""
    n = rng.randint(0, max_rows)
    rows: list[tuple] = []
    for _ in range(n):
        if rows and rng.random() < duplicate_rate:
            rows.append(rng.choice(rows))
        else:
            rows.append(
                tuple(rand_cell(rng, f.type, null_rate) for f in schema.fields)
            )
    return Table(schema, rows)


def table_to_dict_rows(table: Table) -> list[dict]:
    names = table.schema.names()
    return [dict(zip(names, row)) for row in table.rows]


def schema_to_pairs(schema: Schema) -> list[tuple[str, str]]:
    return [(f.name, f.type.value) for f in schema.fields]


# --- random predicate / projection expressions ------------------------------


def rand_filter_predicate(rng: random.Random, schema: Schema) -> ast.Expr:
    """A BOOL-typed expression over the schema, depth at most three."""
    return _rand_bool_expr(rng, schema, depth=rng.randint(1, 3))


def _rand_bool_expr(rng: random.Random, schema: Schema, depth: int) -> ast.Expr:
    if depth > 1 and rng.random() < 0.5:
        op = rng.choice(["AND", "OR"])
        left = _rand_bool_expr(rng, schema, depth - 1)
        right = _rand_bool_expr(rng, schema, depth - 1)
        node = ast.BoolOp(op=op, left=left, right=right, location=LOC)
        if rng.random() < 0.2:
            return ast.Not(operand=node, location=LOC)
        return node
    return _rand_comparison(rng, schema)


def _rand_comparison(rng: random.Random, schema: Schema) -> ast.Expr:
    field = rng.choice(schema.fields)
    op = rng.choice(["==", "!=", ">", ">=", "<", "<="])
    column = ast.ColumnRef(name=field.name, location=LOC)
    if field.type is ValueType.BOOL and rng.random() < 0.5:
        return column if rng.random() < 0.5 else ast.Not(operand=column, location=LOC)
    literal = _literal_for(rng, field.type)
    if rng.random() < 0.5:
        return ast.Comparison(op=op, left=column, right=literal, location=LOC)
    return ast.Comparison(op=op, left=literal, right=column, location=LOC)


def _literal_for(rng: random.Random, vtype: ValueType) -> ast.Expr:
    """Literal expression for ``vtype``; negative numbers become a Neg
    around a positive literal, mirroring what the parser produces."""
    value = rand_cell(rng, vtype, null_rate=0.0)
    if vtype in (ValueType.INT, ValueType.DECIMAL) and value < 0:
        return ast.Neg(
            operand=ast.Literal(value=-value, type=vtype, location=LOC), location=LOC
        )
    return ast.Literal(value=value, type=vtype, location=LOC)


def _literal_value(expr: ast.Expr):
    if isinstance(expr, ast.Neg):
        return -expr.operand.value
    return expr.value


def rand_map_expr(rng: random.Random, schema: Schema) -> tuple[ast.Expr, EvalFn]:
    """An INT/DECIMAL/STRING-typed expression plus an independent
    dict-row evaluator for the oracle side."""
    numeric = [f for f in schema.fields if f.type in (ValueType.INT, ValueType.DECIMAL)]
    strings = [f for f in schema.fields if f.type is ValueType.STRING]
    choices = []
    if numeric:
        choices.append("arith")
    if strings:
        choices.append("string")
    if not choices:
        choices.append("const")
    kind = rng.choice(choices)
    if kind == "arith":
        field = rng.choice(numeric)
        literal = _literal_for(rng, field.type)
        op = rng.choice(["+", "-", "*"])
        expr = ast.BinaryOp(
            op=op,
            left=ast.ColumnRef(name=field.name, location=LOC),
            right=literal,
            location=LOC,
        )

        def evaluate(row, name=field.name, op=op, lit=_literal_value(literal)):
            v = row[name]
            if v is None:
                return None
            if op == "+":
                return v + lit
            if op == "-":
                return v - lit
            return v * lit

        return expr, evaluate
    if kind == "string":
        field = rng.choice(strings)
        expr = ast.Call(
            name="UPPER", args=(ast.ColumnRef(name=field.name, location=LOC),), location=LOC
        )

        def evaluate(row, name=field.name):
            v = row[name]
            return None if v is None else v.upper()

        return expr, evaluate
    literal = _literal_for(rng, rand_type(rng))
    return literal, lambda row, lit=_literal_value(literal): lit
