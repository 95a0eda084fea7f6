"""Randomized interpreter-vs-oracle equivalence checks.

Each case builds random desk-scale tables, runs one operation through
the interpreter, runs the brute-force oracle on plain dict rows, and
compares schemas and cells strictly (decimal cells must match in
canonical string form, not just value, so scale drift is caught).
"""

from __future__ import annotations

import datetime
import random
from decimal import Decimal

from anka import ast_nodes as ast
from anka.interpreter import Interpreter
from anka.io_adapters import IoAdapter
from anka.location import UNKNOWN_LOCATION as LOC
from anka.values import Field, Schema, Table, ValueType

import oracle
from generators import (
    rand_filter_predicate,
    rand_map_expr,
    rand_schema,
    rand_table,
    schema_to_pairs,
    table_to_dict_rows,
)

_NUMERIC = (ValueType.INT, ValueType.DECIMAL)
_MINMAX = (*_NUMERIC, ValueType.STRING, ValueType.DATE, ValueType.DATETIME)

OPERATIONS = (
    "filter",
    "map",
    "select",
    "distinct",
    "rename",
    "drop",
    "add_column",
    "aggregate",
    "sort",
    "limit",
    "skip",
    "slice",
    "join",
    "left_join",
    "union",
)


def _interp() -> Interpreter:
    return Interpreter(io=IoAdapter(sandbox=True))


def strict_cell_eq(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, Decimal) != isinstance(b, Decimal):
        return False
    if a != b:
        return False
    if isinstance(a, Decimal) and format(a, "f") != format(b, "f"):
        return False
    return True


def assert_tables_match(result: Table, expected_schema, expected_rows, context: str):
    assert schema_to_pairs(result.schema) == list(expected_schema), (
        f"{context}: schema mismatch: {schema_to_pairs(result.schema)} "
        f"vs {list(expected_schema)}"
    )
    actual_rows = table_to_dict_rows(result)
    assert len(actual_rows) == len(expected_rows), (
        f"{context}: row count {len(actual_rows)} vs {len(expected_rows)}"
    )
    names = [name for name, _ in expected_schema]
    for i, (got, want) in enumerate(zip(actual_rows, expected_rows)):
        for name in names:
            assert strict_cell_eq(got[name], want[name]), (
                f"{context}: row {i}, column {name}: {got[name]!r} vs {want[name]!r}"
            )


# --- oracle-side predicate / expression evaluation ---------------------------


def _operand_fn(node):
    if isinstance(node, ast.ColumnRef):
        return lambda row, name=node.name: row[name]
    if isinstance(node, ast.Neg):
        inner = node.operand
        assert isinstance(inner, ast.Literal)
        return lambda row, v=-inner.value: v
    assert isinstance(node, ast.Literal)
    return lambda row, v=node.value: v


def oracle_predicate(expr):
    """Three-valued evaluator mirroring the generated predicate shapes,
    written against dict rows and independent of the interpreter."""
    if isinstance(expr, ast.BoolOp):
        left = oracle_predicate(expr.left)
        right = oracle_predicate(expr.right)
        if expr.op == "AND":

            def f(row):
                l, r = left(row), right(row)
                if l is False or r is False:
                    return False
                if l is None or r is None:
                    return None
                return True

        else:

            def f(row):
                l, r = left(row), right(row)
                if l is True or r is True:
                    return True
                if l is None or r is None:
                    return None
                return False

        return f
    if isinstance(expr, ast.Not):
        inner = oracle_predicate(expr.operand)

        def f(row):
            v = inner(row)
            return None if v is None else not v

        return f
    if isinstance(expr, ast.Comparison):
        left = _operand_fn(expr.left)
        right = _operand_fn(expr.right)
        op = expr.op

        def f(row):
            l, r = left(row), right(row)
            if l is None or r is None:
                return None
            if op == "==":
                return l == r
            if op == "!=":
                return l != r
            if op == ">":
                return l > r
            if op == ">=":
                return l >= r
            if op == "<":
                return l < r
            return l <= r

        return f
    if isinstance(expr, ast.ColumnRef):
        return lambda row, name=expr.name: row[name]
    raise AssertionError(type(expr).__name__)


# --- per-operation case runners ----------------------------------------------


def _case_filter(rng):
    schema = rand_schema(rng)
    table = rand_table(rng, schema)
    predicate = rand_filter_predicate(rng, schema)
    result = _interp().eval_filter(table, predicate)
    expected = oracle.o_filter(
        schema_to_pairs(schema), table_to_dict_rows(table), oracle_predicate(predicate)
    )
    assert_tables_match(result, schema_to_pairs(schema), expected, "filter")


def _case_map(rng):
    schema = rand_schema(rng, max_cols=4)
    table = rand_table(rng, schema)
    expr, evaluate = rand_map_expr(rng, schema)
    result = _interp().eval_map(table, "m0", expr)
    expected = oracle.o_map(
        schema_to_pairs(schema), table_to_dict_rows(table), "m0", evaluate
    )
    expected_schema = schema_to_pairs(result.schema)  # type comes from checker
    assert [n for n, _ in expected_schema][:-1] == list(schema.names())
    assert_tables_match(result, expected_schema, expected, "map")


def _case_select(rng):
    schema = rand_schema(rng)
    table = rand_table(rng, schema)
    names = list(schema.names())
    rng.shuffle(names)
    columns = tuple(names[: rng.randint(1, len(names))])
    result = _interp().eval_select(table, columns)
    expected = oracle.o_select(
        schema_to_pairs(schema), table_to_dict_rows(table), columns
    )
    expected_schema = [(n, schema.type_of(n).value) for n in columns]
    assert_tables_match(result, expected_schema, expected, "select")


def _case_distinct(rng):
    schema = rand_schema(rng, max_cols=3)
    table = rand_table(rng, schema, null_rate=0.3, duplicate_rate=0.5)
    result = _interp().eval_distinct(table)
    expected = oracle.o_distinct(schema_to_pairs(schema), table_to_dict_rows(table))
    assert_tables_match(result, schema_to_pairs(schema), expected, "distinct")


def _case_rename(rng):
    schema = rand_schema(rng)
    table = rand_table(rng, schema)
    old = rng.choice(schema.names())
    result = _interp().eval_rename(table, old, "renamed_col")
    expected = oracle.o_rename(
        schema_to_pairs(schema), table_to_dict_rows(table), old, "renamed_col"
    )
    expected_schema = [
        ("renamed_col" if n == old else n, t) for n, t in schema_to_pairs(schema)
    ]
    assert_tables_match(result, expected_schema, expected, "rename")


def _case_drop(rng):
    schema = rand_schema(rng)
    if len(schema) == 1:
        return
    table = rand_table(rng, schema)
    column = rng.choice(schema.names())
    result = _interp().eval_drop(table, column)
    expected = oracle.o_drop(schema_to_pairs(schema), table_to_dict_rows(table), column)
    expected_schema = [(n, t) for n, t in schema_to_pairs(schema) if n != column]
    assert_tables_match(result, expected_schema, expected, "drop")


def _case_add_column(rng):
    from generators import rand_cell, rand_type

    schema = rand_schema(rng, max_cols=4)
    table = rand_table(rng, schema)
    vtype = rand_type(rng)
    value = rand_cell(rng, vtype, null_rate=0.0)
    literal = ast.Literal(value=value, type=vtype, location=LOC)
    result = _interp().eval_add_column(table, "extra", literal)
    expected = oracle.o_add_column(
        schema_to_pairs(schema), table_to_dict_rows(table), "extra", value
    )
    expected_schema = schema_to_pairs(schema) + [("extra", vtype.value)]
    assert_tables_match(result, expected_schema, expected, "add_column")


def _case_sort(rng):
    schema = rand_schema(rng)
    table = rand_table(rng, schema, null_rate=0.25, duplicate_rate=0.5)
    column = rng.choice(schema.names())
    descending = rng.random() < 0.5
    result = _interp().eval_sort(table, column, descending)
    expected = oracle.o_sort(
        schema_to_pairs(schema), table_to_dict_rows(table), column, descending
    )
    assert_tables_match(result, schema_to_pairs(schema), expected, "sort")


def _case_limit(rng):
    schema = rand_schema(rng)
    table = rand_table(rng, schema)
    count = rng.randint(0, 25)
    result = _interp().eval_limit(table, count)
    expected = oracle.o_limit(schema_to_pairs(schema), table_to_dict_rows(table), count)
    assert_tables_match(result, schema_to_pairs(schema), expected, "limit")


def _case_skip(rng):
    schema = rand_schema(rng)
    table = rand_table(rng, schema)
    count = rng.randint(0, 25)
    result = _interp().eval_skip(table, count)
    expected = oracle.o_skip(schema_to_pairs(schema), table_to_dict_rows(table), count)
    assert_tables_match(result, schema_to_pairs(schema), expected, "skip")


def _case_slice(rng):
    schema = rand_schema(rng)
    table = rand_table(rng, schema)
    start, stop = rng.randint(0, 22), rng.randint(0, 22)
    result = _interp().eval_slice(table, start, stop)
    expected = oracle.o_slice(
        schema_to_pairs(schema), table_to_dict_rows(table), start, stop
    )
    assert_tables_match(result, schema_to_pairs(schema), expected, "slice")


def _join_fixtures(rng):
    key_pool = [ValueType.INT, ValueType.DECIMAL, ValueType.STRING, ValueType.DATE]
    left_key_type = rng.choice(key_pool)
    if left_key_type in _NUMERIC:
        right_key_type = rng.choice(_NUMERIC)
    else:
        right_key_type = left_key_type
    left_names = rng.sample(["a", "b", "c", "d"], rng.randint(1, 4))
    right_names = rng.sample(["w", "x", "y", "z"], rng.randint(1, 4))
    from generators import rand_type

    left_schema = Schema(
        Field(n, left_key_type if i == 0 else rand_type(rng))
        for i, n in enumerate(left_names)
    )
    right_schema = Schema(
        Field(n, right_key_type if i == 0 else rand_type(rng))
        for i, n in enumerate(right_names)
    )
    # small key domains force plenty of matches and duplicates
    def keyed_table(schema, key_name, key_type):
        table = rand_table(rng, schema, max_rows=12, null_rate=0.2)
        idx = schema.index_of(key_name)
        rows = []
        for row in table.rows:
            if rng.random() < 0.8:
                domain = {
                    ValueType.INT: lambda: rng.randint(0, 4),
                    ValueType.DECIMAL: lambda: Decimal(rng.randint(0, 4)),
                    ValueType.STRING: lambda: rng.choice("pqr"),
                    ValueType.DATE: lambda: datetime.date(2024, 1, rng.randint(1, 4)),
                }[key_type]()
                row = row[:idx] + (domain,) + row[idx + 1 :]
            rows.append(row)
        return Table(schema, rows)

    left = keyed_table(left_schema, left_names[0], left_key_type)
    right = keyed_table(right_schema, right_names[0], right_key_type)
    return left, right, left_names[0], right_names[0]


def _case_join(rng, left_outer=False):
    left, right, lk, rk = _join_fixtures(rng)
    result = _interp().eval_join(left, right, lk, rk, left_outer=left_outer)
    expected = oracle.o_join(
        schema_to_pairs(left.schema),
        table_to_dict_rows(left),
        schema_to_pairs(right.schema),
        table_to_dict_rows(right),
        lk,
        rk,
        left_outer,
    )
    expected_schema = oracle.o_joined_schema(
        schema_to_pairs(left.schema), schema_to_pairs(right.schema), rk
    )
    assert_tables_match(
        result, expected_schema, expected, "left_join" if left_outer else "join"
    )


def _case_left_join(rng):
    _case_join(rng, left_outer=True)


def _case_union(rng):
    schema = rand_schema(rng)
    left = rand_table(rng, schema)
    right = rand_table(rng, schema)
    result = _interp().eval_union(left, right, LOC)
    expected = oracle.o_union(
        schema_to_pairs(schema), table_to_dict_rows(left), table_to_dict_rows(right)
    )
    assert_tables_match(result, schema_to_pairs(schema), expected, "union")


def _case_aggregate(rng):
    schema = rand_schema(rng, max_cols=4)
    table = rand_table(rng, schema, null_rate=0.3, duplicate_rate=0.4)
    names = list(schema.names())
    group_by = tuple(
        rng.sample(names, rng.randint(0, min(2, len(names))))
    )
    specs = []
    computes = []
    n_specs = rng.randint(1, 3)
    for i in range(n_specs):
        alias = f"agg{i}"
        numeric = [n for n in names if schema.type_of(n) in _NUMERIC]
        minmaxable = [n for n in names if schema.type_of(n) in _MINMAX]
        options = ["COUNT"]
        if numeric:
            options += ["SUM", "AVG"]
        if minmaxable:
            options += ["MIN", "MAX"]
        fn = rng.choice(options)
        if fn == "COUNT":
            arg = None
        elif fn in ("SUM", "AVG"):
            arg = rng.choice(numeric)
        else:
            arg = rng.choice(minmaxable)
        specs.append(ast.AggregateSpec(fn=fn, arg=arg, alias=alias, location=LOC))
        computes.append((fn, arg, alias))
    result = _interp().eval_aggregate(table, group_by, tuple(specs), LOC)
    expected = oracle.o_aggregate(
        schema_to_pairs(schema), table_to_dict_rows(table), list(group_by), computes
    )
    expected_schema = oracle.o_aggregate_schema(
        schema_to_pairs(schema), list(group_by), computes
    )
    assert_tables_match(result, expected_schema, expected, "aggregate")


_CASES = {
    "filter": _case_filter,
    "map": _case_map,
    "select": _case_select,
    "distinct": _case_distinct,
    "rename": _case_rename,
    "drop": _case_drop,
    "add_column": _case_add_column,
    "aggregate": _case_aggregate,
    "sort": _case_sort,
    "limit": _case_limit,
    "skip": _case_skip,
    "slice": _case_slice,
    "join": _case_join,
    "left_join": _case_left_join,
    "union": _case_union,
}


def run_cases(operation: str, seed: int, count: int) -> None:
    rng = random.Random(seed)
    case = _CASES[operation]
    for _ in range(count):
        case(rng)
