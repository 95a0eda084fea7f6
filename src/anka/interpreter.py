"""Tree-walking evaluator for validated pipelines.

Executes steps in order and statements in order within each step,
binding every INTO target in a runtime environment of named tables.
Input tables are immutable and never modified.

Null semantics: arithmetic, comparisons, and builtins propagate null;
WHERE coerces a null predicate to false (the row is dropped); AND/OR
use three-valued logic with short-circuiting; aggregates skip nulls;
SORT places nulls last regardless of direction.

Loop bodies (FOR_EACH, WHILE) execute in a scope discarded after each
iteration, so their INTO bindings never escape and cannot rebind. TRY
keeps its body's bindings on success; on a runtime error it discards
the body's partial bindings and runs the ON_ERROR handler instead.
"""

from __future__ import annotations

import os
import time
from decimal import Decimal
from typing import Optional

from anka import ast_nodes as ast
from anka.builtins import call_builtin
from anka.errors import AssertionFailed, ExecutionError, InputError
from anka.io_adapters import IoAdapter
from anka.validator import typecheck_expr
from anka.values import (
    DIVISION_EXTRA_SCALE,
    Cell,
    Field,
    Schema,
    Table,
    ValueType,
    add_values,
    compare_values,
    decimal_divide,
    decimal_scale,
    divide_values,
    multiply_values,
    negate_value,
    subtract_values,
)

DEFAULT_WHILE_CAP = 100_000
WHILE_CAP_ENV_VAR = "ANKA_WHILE_CAP"

_ROWS_PER_TICK = 4096


def default_while_cap() -> int:
    """Iteration cap for WHILE, overridable via the environment."""
    raw = os.environ.get(WHILE_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_WHILE_CAP
    try:
        cap = int(raw)
    except ValueError:
        return DEFAULT_WHILE_CAP
    return cap if cap > 0 else DEFAULT_WHILE_CAP


def run_pipeline(
    pipeline: ast.Pipeline,
    inputs: dict[str, Table],
    io: Optional[IoAdapter] = None,
    *,
    while_cap: Optional[int] = None,
    deadline: Optional[float] = None,
    max_rows: Optional[int] = None,
) -> Table:
    """Execute a validated pipeline against named input tables and
    return the table bound to the OUTPUT name.

    The pipeline must have passed validation; behavior on an invalid
    tree is undefined. ``io`` defaults to a sandboxed adapter that
    denies all file and network access. ``deadline`` is an absolute
    ``time.monotonic()`` stamp and ``max_rows`` caps the size of any
    produced table; both let a harness bound untrusted programs.
    """
    _check_inputs(pipeline, inputs)
    interp = Interpreter(
        io=io if io is not None else IoAdapter(sandbox=True),
        while_cap=while_cap if while_cap is not None else default_while_cap(),
        deadline=deadline,
        max_rows=max_rows,
    )
    return interp.run(pipeline, inputs)


def _check_inputs(pipeline: ast.Pipeline, inputs: dict[str, Table]) -> None:
    declared = {decl.name: decl.schema for decl in pipeline.inputs}
    for name, schema in declared.items():
        if name not in inputs:
            raise InputError(f"missing input table '{name}'")
        if inputs[name].schema != schema:
            raise InputError(
                f"input '{name}' has schema {inputs[name].schema!r}, "
                f"pipeline declares {schema!r}"
            )
    for name in inputs:
        if name not in declared:
            raise InputError(f"unexpected input table '{name}'")


class RuntimeEnvironment:
    """Named tables bound so far, plus the FOR_EACH row scope if any."""

    __slots__ = ("datasets", "row_schema", "row")

    def __init__(
        self,
        datasets: dict[str, Table],
        row_schema: Optional[Schema] = None,
        row: Optional[tuple[Cell, ...]] = None,
    ) -> None:
        self.datasets = datasets
        self.row_schema = row_schema
        self.row = row

    def child(self) -> "RuntimeEnvironment":
        return RuntimeEnvironment(dict(self.datasets), self.row_schema, self.row)

    def with_row(self, schema: Schema, row: tuple[Cell, ...]) -> "RuntimeEnvironment":
        return RuntimeEnvironment(self.datasets, schema, row)


class Interpreter:
    def __init__(
        self,
        io: IoAdapter,
        while_cap: int = DEFAULT_WHILE_CAP,
        deadline: Optional[float] = None,
        max_rows: Optional[int] = None,
    ) -> None:
        self.io = io
        self.while_cap = while_cap
        self.deadline = deadline
        self.max_rows = max_rows
        self._tick_counter = 0

    def run(self, pipeline: ast.Pipeline, inputs: dict[str, Table]) -> Table:
        env = RuntimeEnvironment(dict(inputs))
        for step in pipeline.steps:
            env = self._exec_block(step.body, env)
        try:
            return env.datasets[pipeline.output]
        except KeyError:
            raise ExecutionError(
                f"output dataset '{pipeline.output}' was never bound",
                pipeline.output_location,
            ) from None

    # -- statements ----------------------------------------------------------

    def _exec_block(
        self, body: tuple[ast.Statement, ...], env: RuntimeEnvironment
    ) -> RuntimeEnvironment:
        for stmt in body:
            env = self._exec_statement(stmt, env)
        return env

    def _exec_statement(
        self, stmt: ast.Statement, env: RuntimeEnvironment
    ) -> RuntimeEnvironment:
        self._check_deadline(stmt)
        if isinstance(stmt, ast.If):
            condition = self._eval_condition(stmt.condition, env)
            branch = stmt.then_body if condition else stmt.else_body
            return self._exec_block(branch, env)
        if isinstance(stmt, ast.While):
            iterations = 0
            while self._eval_condition(stmt.condition, env):
                iterations += 1
                if iterations > self.while_cap:
                    raise AssertionFailed(
                        f"WHILE exceeded the iteration cap of {self.while_cap}",
                        stmt.location,
                    )
                self._check_deadline(stmt)
                self._exec_block(stmt.body, env.child())
            return env
        if isinstance(stmt, ast.ForEach):
            table = env.datasets[stmt.source]
            for row in table.rows:
                self._check_deadline(stmt)
                scoped = env.child().with_row(table.schema, row)
                self._exec_block(stmt.body, scoped)
            return env
        if isinstance(stmt, ast.Try):
            try:
                attempted = self._exec_block(stmt.body, env.child())
            except ExecutionError:
                return self._exec_block(stmt.handler, env.child())
            return attempted
        if isinstance(stmt, ast.Write):
            table = env.datasets[stmt.source]
            try:
                self.io.write_table(table, stmt.path, stmt.format)
            except ExecutionError as exc:
                raise exc.at(stmt.location)
            return env
        if isinstance(stmt, ast.Post):
            table = env.datasets[stmt.source]
            try:
                self.io.post_table(stmt.url, table)
            except ExecutionError as exc:
                raise exc.at(stmt.location)
            return env

        table = self._eval_data_statement(stmt, env)
        datasets = dict(env.datasets)
        datasets[ast.statement_target(stmt)] = table
        return RuntimeEnvironment(datasets, env.row_schema, env.row)

    def _eval_condition(self, expr: ast.Expr, env: RuntimeEnvironment) -> bool:
        value = self._eval_expr(expr, env.row_schema, env.row)
        return value is True  # null coerces to false

    def _eval_data_statement(
        self, stmt: ast.Statement, env: RuntimeEnvironment
    ) -> Table:
        if isinstance(stmt, ast.Filter):
            return self.eval_filter(env.datasets[stmt.source], stmt.predicate)
        if isinstance(stmt, ast.Select):
            return self.eval_select(env.datasets[stmt.source], stmt.columns)
        if isinstance(stmt, ast.Distinct):
            return self.eval_distinct(env.datasets[stmt.source])
        if isinstance(stmt, ast.Map):
            return self.eval_map(env.datasets[stmt.source], stmt.column, stmt.expr)
        if isinstance(stmt, ast.Rename):
            return self.eval_rename(
                env.datasets[stmt.source], stmt.old_name, stmt.new_name
            )
        if isinstance(stmt, ast.Drop):
            return self.eval_drop(env.datasets[stmt.source], stmt.column)
        if isinstance(stmt, ast.AddColumn):
            return self.eval_add_column(env.datasets[stmt.source], stmt.column, stmt.value)
        if isinstance(stmt, ast.Aggregate):
            return self.eval_aggregate(
                env.datasets[stmt.source], stmt.group_by, stmt.computes, stmt.location
            )
        if isinstance(stmt, ast.Sort):
            return self.eval_sort(
                env.datasets[stmt.source], stmt.column, stmt.descending
            )
        if isinstance(stmt, ast.Limit):
            return self.eval_limit(env.datasets[stmt.source], stmt.count)
        if isinstance(stmt, ast.Skip):
            return self.eval_skip(env.datasets[stmt.source], stmt.count)
        if isinstance(stmt, ast.Slice):
            return self.eval_slice(env.datasets[stmt.source], stmt.start, stmt.stop)
        if isinstance(stmt, (ast.Join, ast.LeftJoin)):
            return self.eval_join(
                env.datasets[stmt.left],
                env.datasets[stmt.right],
                stmt.left_key,
                stmt.right_key,
                left_outer=isinstance(stmt, ast.LeftJoin),
            )
        if isinstance(stmt, ast.Union):
            return self.eval_union(
                env.datasets[stmt.left], env.datasets[stmt.right], stmt.location
            )
        if isinstance(stmt, ast.Read):
            try:
                return self.io.read_table(stmt.path, stmt.format, stmt.schema)
            except ExecutionError as exc:
                raise exc.at(stmt.location)
        if isinstance(stmt, ast.Fetch):
            try:
                return self.io.fetch_table(stmt.url, stmt.schema)
            except ExecutionError as exc:
                raise exc.at(stmt.location)
        raise AssertionError(f"unhandled statement {type(stmt).__name__}")

    # -- data operations -------------------------------------------------------
    # Outputs are built with Table.trusted: the validator proved every
    # cell well-typed, and row-passing operators keep the source tuples.

    def eval_filter(self, src: Table, predicate: ast.Expr) -> Table:
        kept = []
        for row in src.rows:
            self._tick()
            if self._eval_expr(predicate, src.schema, row) is True:
                kept.append(row)
        return Table.trusted(src.schema, kept)

    def eval_select(self, src: Table, columns: tuple[str, ...]) -> Table:
        indices = [src.schema.index_of(name) for name in columns]
        schema = Schema(src.schema.fields[i] for i in indices)
        rows = [tuple(row[i] for i in indices) for row in src.rows]
        return Table.trusted(schema, rows)

    def eval_distinct(self, src: Table) -> Table:
        seen = set()
        kept = []
        for row in src.rows:
            self._tick()
            if row not in seen:
                seen.add(row)
                kept.append(row)
        return Table.trusted(src.schema, kept)

    def eval_map(self, src: Table, column: str, expr: ast.Expr) -> Table:
        column_type = typecheck_expr(expr, src.schema)
        schema = Schema(tuple(src.schema.fields) + (Field(column, column_type),))
        rows = []
        for row in src.rows:
            self._tick()
            rows.append(row + (self._eval_expr(expr, src.schema, row),))
        return Table.trusted(schema, rows)

    def eval_rename(self, src: Table, old: str, new: str) -> Table:
        schema = Schema(
            Field(new, f.type) if f.name == old else f for f in src.schema.fields
        )
        return Table.trusted(schema, src.rows)

    def eval_drop(self, src: Table, column: str) -> Table:
        gone = src.schema.index_of(column)
        schema = Schema(f for i, f in enumerate(src.schema.fields) if i != gone)
        rows = [
            tuple(cell for i, cell in enumerate(row) if i != gone) for row in src.rows
        ]
        return Table.trusted(schema, rows)

    def eval_add_column(self, src: Table, column: str, value: ast.Literal) -> Table:
        schema = Schema(tuple(src.schema.fields) + (Field(column, value.type),))
        rows = [row + (value.value,) for row in src.rows]
        return Table.trusted(schema, rows)

    def eval_sort(self, src: Table, column: str, descending: bool) -> Table:
        """Stable sort by one column; null keys go last in either
        direction, keeping their original relative order."""
        key_index = src.schema.index_of(column)
        keyed = [row for row in src.rows if row[key_index] is not None]
        nulls = [row for row in src.rows if row[key_index] is None]
        ordered = sorted(keyed, key=lambda row: row[key_index], reverse=descending)
        return Table.trusted(src.schema, ordered + nulls)

    def eval_limit(self, src: Table, count: int) -> Table:
        return Table.trusted(src.schema, src.rows[:count])

    def eval_skip(self, src: Table, count: int) -> Table:
        return Table.trusted(src.schema, src.rows[count:])

    def eval_slice(self, src: Table, start: int, stop: int) -> Table:
        return Table.trusted(src.schema, src.rows[start:stop])

    def eval_join(
        self,
        left: Table,
        right: Table,
        left_key: str,
        right_key: str,
        *,
        left_outer: bool,
    ) -> Table:
        """Equi-join: output is ordered by left row order, then right row
        order within matches. Null keys never match anything, and INT
        and DECIMAL keys match when numerically equal. LEFT_JOIN pads
        unmatched left rows with nulls for the right-hand columns."""
        li = left.schema.index_of(left_key)
        ri = right.schema.index_of(right_key)
        right_fields = [f for i, f in enumerate(right.schema.fields) if i != ri]
        schema = Schema(tuple(left.schema.fields) + tuple(right_fields))
        padding = (None,) * len(right_fields)
        # hash(Decimal("2.0")) == hash(2), so mixed numeric keys meet in
        # one bucket; a null key is never stored, so it finds no match
        matches: dict[Cell, list[tuple[Cell, ...]]] = {}
        for rrow in right.rows:
            if rrow[ri] is not None:
                matches.setdefault(rrow[ri], []).append(rrow[:ri] + rrow[ri + 1 :])
        rows = []
        for lrow in left.rows:
            self._tick()
            found = matches.get(lrow[li], ())
            for rest in found:
                rows.append(lrow + rest)
                self._check_size(len(rows))
            if left_outer and not found:
                rows.append(lrow + padding)
                self._check_size(len(rows))
        return Table.trusted(schema, rows)

    def eval_union(self, left: Table, right: Table, location) -> Table:
        """Row concatenation: left rows then right rows, duplicates kept
        (DISTINCT is the one way to deduplicate)."""
        self._check_size(len(left.rows) + len(right.rows), location)
        return Table.trusted(left.schema, left.rows + right.rows)

    def eval_aggregate(
        self,
        src: Table,
        group_by: tuple[str, ...],
        computes: tuple[ast.AggregateSpec, ...],
        location,
    ) -> Table:
        """One output row per distinct group key, in order of first
        appearance. An empty GROUP_BY aggregates the whole table into a
        single row even when the table is empty."""
        key_indices = [src.schema.index_of(name) for name in group_by]
        groups: dict[tuple[Cell, ...], list[tuple[Cell, ...]]] = {}
        for row in src.rows:
            self._tick()
            key = tuple(row[i] for i in key_indices)
            groups.setdefault(key, []).append(row)
        if not group_by:
            groups.setdefault((), [])

        fields = [Field(name, src.schema.type_of(name)) for name in group_by]
        for spec in computes:
            fields.append(Field(spec.alias, _aggregate_type(spec, src.schema)))
        schema = Schema(fields)

        rows = []
        for key, members in groups.items():
            cells = list(key)
            for spec in computes:
                cells.append(self._aggregate_value(spec, members, src, location))
            rows.append(tuple(cells))
        return Table.trusted(schema, rows)

    def _aggregate_value(
        self,
        spec: ast.AggregateSpec,
        members: list[tuple[Cell, ...]],
        src: Table,
        location,
    ) -> Cell:
        if spec.fn == "COUNT":
            return len(members)
        index = src.schema.index_of(spec.arg)
        values = [row[index] for row in members if row[index] is not None]
        if not values:
            return None
        try:
            if spec.fn == "SUM":
                total: Cell = values[0]
                for value in values[1:]:
                    total = add_values(total, value)
                return total
            if spec.fn == "AVG":
                total = Decimal(0)
                for value in values:
                    total = add_values(total, value)
                scale = decimal_scale(total) + DIVISION_EXTRA_SCALE
                return decimal_divide(total, Decimal(len(values)), scale)
            if spec.fn == "MIN":
                best = values[0]
                for value in values[1:]:
                    if compare_values(value, best) < 0:
                        best = value
                return best
            if spec.fn == "MAX":
                best = values[0]
                for value in values[1:]:
                    if compare_values(value, best) > 0:
                        best = value
                return best
        except ExecutionError as exc:
            raise exc.at(location)
        raise AssertionError(f"unhandled aggregate {spec.fn}")

    # -- expressions -----------------------------------------------------------

    def _eval_expr(
        self,
        expr: ast.Expr,
        schema: Optional[Schema],
        row: Optional[tuple[Cell, ...]],
    ) -> Cell:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.ColumnRef):
            assert schema is not None and row is not None
            return row[schema.index_of(expr.name)]
        if isinstance(expr, ast.Neg):
            operand = self._eval_expr(expr.operand, schema, row)
            return self._located(negate_value, expr.location, operand)
        if isinstance(expr, ast.BinaryOp):
            left = self._eval_expr(expr.left, schema, row)
            right = self._eval_expr(expr.right, schema, row)
            fn = _ARITHMETIC[expr.op]
            return self._located(fn, expr.location, left, right)
        if isinstance(expr, ast.Comparison):
            left = self._eval_expr(expr.left, schema, row)
            right = self._eval_expr(expr.right, schema, row)
            if left is None or right is None:
                return None
            order = compare_values(left, right)
            return _COMPARISON_RESULTS[expr.op](order)
        if isinstance(expr, ast.BoolOp):
            left = self._eval_expr(expr.left, schema, row)
            if expr.op == "AND":
                if left is False:
                    return False
                right = self._eval_expr(expr.right, schema, row)
                if right is False:
                    return False
                return None if left is None or right is None else True
            if left is True:
                return True
            right = self._eval_expr(expr.right, schema, row)
            if right is True:
                return True
            return None if left is None or right is None else False
        if isinstance(expr, ast.Not):
            operand = self._eval_expr(expr.operand, schema, row)
            return None if operand is None else not operand
        if isinstance(expr, ast.Call):
            args = [self._eval_expr(arg, schema, row) for arg in expr.args]
            return self._located(call_builtin, expr.location, expr.name, args)
        raise AssertionError(f"unhandled expression {type(expr).__name__}")

    def _located(self, fn, location, *args):
        try:
            return fn(*args)
        except ExecutionError as exc:
            raise exc.at(location) from None

    # -- resource guards -------------------------------------------------------

    def _tick(self) -> None:
        self._tick_counter += 1
        if self._tick_counter % _ROWS_PER_TICK == 0 and self.deadline is not None:
            if time.monotonic() > self.deadline:
                raise AssertionFailed("execution time limit exceeded")

    def _check_deadline(self, stmt: ast.Statement) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise AssertionFailed("execution time limit exceeded", stmt.location)

    def _check_size(self, count: int, location=None) -> None:
        if self.max_rows is not None and count > self.max_rows:
            raise AssertionFailed(
                f"result exceeds the row limit of {self.max_rows}", location
            )


def _aggregate_type(spec: ast.AggregateSpec, schema: Schema) -> ValueType:
    if spec.fn == "COUNT":
        return ValueType.INT
    if spec.fn == "AVG":
        return ValueType.DECIMAL
    return schema.type_of(spec.arg)


_ARITHMETIC = {
    "+": add_values,
    "-": subtract_values,
    "*": multiply_values,
    "/": divide_values,
}

_COMPARISON_RESULTS = {
    "==": lambda order: order == 0,
    "!=": lambda order: order != 0,
    ">": lambda order: order > 0,
    ">=": lambda order: order >= 0,
    "<": lambda order: order < 0,
    "<=": lambda order: order <= 0,
}
