"""Evaluator for validated pipelines.

``run_pipeline`` runs what ``validate`` resolved. Each statement is
compiled once per pipeline into a step that holds the validator's
output schema, the column indices it resolved, and its expressions
compiled into closures over row-tuple indices (Feeley and Lapalme,
"Using closures for code generation", 1987). Steps bind every INTO
target in one dict of named tables; the validator forbids rebinding, so
only loop and TRY scopes copy it. Input tables are never modified.

Null semantics: arithmetic, comparisons, and builtins propagate null;
WHERE coerces a null predicate to false (the row is dropped); AND/OR
use three-valued logic with short-circuiting; aggregates skip nulls;
SORT places nulls last regardless of direction.

Loop bodies (FOR_EACH, WHILE) execute in a scope discarded after each
iteration, so their INTO bindings never escape. TRY keeps its body's
bindings on success; on a runtime error it discards the body's partial
bindings and runs the ON_ERROR handler instead.
"""

from __future__ import annotations

import time
from decimal import Decimal
from operator import itemgetter
from typing import Callable, Optional

from anka import ast_nodes as ast
from anka.builtins import call_builtin
from anka.errors import AssertionFailed, ExecutionError, InputError
from anka.io_adapters import IoAdapter
from anka.location import SourceLocation
from anka.validator import ValidationException, ValidationResult, validate
from anka.values import (
    DIVISION_EXTRA_SCALE,
    Cell,
    Schema,
    Table,
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

Row = tuple[Cell, ...]
Step = Callable[["Interpreter", dict[str, Table], Optional[Row]], None]
Block = tuple[tuple[SourceLocation, Step], ...]

_PLAN = "_plan"


def run_pipeline(
    pipeline: ast.Pipeline,
    inputs: dict[str, Table],
    io: Optional[IoAdapter] = None,
    *,
    while_cap: int = DEFAULT_WHILE_CAP,
    deadline: Optional[float] = None,
    max_rows: Optional[int] = None,
) -> Table:
    """Execute a pipeline against named input tables and return the
    table bound to the OUTPUT name.

    The pipeline runs on the result of ``validate``, which is computed
    once per pipeline object, so a caller that has validated it already
    pays nothing more; a pipeline that does not validate raises
    ``ValidationException`` with its diagnostics. The compiled steps are
    likewise kept with the pipeline. ``io`` defaults to a sandboxed
    adapter that denies all file and network access. ``deadline`` is an
    absolute ``time.monotonic()`` stamp and ``max_rows`` caps the size of
    any produced table; both let a harness bound untrusted programs.
    """
    result = validate(pipeline)
    if not result.ok:
        raise ValidationException(result.errors)
    _check_inputs(pipeline, inputs)
    plan = pipeline.__dict__.get(_PLAN)
    if plan is None:
        body = tuple(stmt for step in pipeline.steps for stmt in step.body)
        plan = pipeline.__dict__[_PLAN] = _compile_block(body, result, None)
    interp = Interpreter(io or IoAdapter(sandbox=True), while_cap, deadline, max_rows)
    datasets = dict(inputs)
    interp._exec(plan, datasets, None)
    return datasets[pipeline.output]


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


# -- compiling statements -----------------------------------------------------


def _compile_block(body, result: ValidationResult, row_schema: Optional[Schema]) -> Block:
    return tuple(
        (stmt.location, _compile_statement(stmt, result, row_schema)) for stmt in body
    )


def _compile_statement(
    stmt: ast.Statement, result: ValidationResult, row_schema: Optional[Schema]
) -> Step:
    location = stmt.location
    if isinstance(stmt, ast.If):
        condition = _compile_expr(stmt.condition, row_schema)
        then_body = _compile_block(stmt.then_body, result, row_schema)
        else_body = _compile_block(stmt.else_body, result, row_schema)

        def run_if(interp, datasets, row):
            # a null condition counts as false
            branch = then_body if condition(row) is True else else_body
            interp._exec(branch, datasets, row)

        return run_if
    if isinstance(stmt, ast.While):
        condition = _compile_expr(stmt.condition, row_schema)
        body = _compile_block(stmt.body, result, row_schema)

        def run_while(interp, datasets, row):
            iterations = 0
            while condition(row) is True:
                iterations += 1
                if iterations > interp.while_cap:
                    raise AssertionFailed(
                        f"WHILE exceeded the iteration cap of {interp.while_cap}",
                        location,
                    )
                interp._tick(location)
                interp._exec(body, dict(datasets), row)

        return run_while
    if isinstance(stmt, ast.ForEach):
        source = stmt.source
        (source_schema,) = result.sources[id(stmt)]
        body = _compile_block(stmt.body, result, source_schema)

        def run_for_each(interp, datasets, row):
            for each in datasets[source].rows:
                interp._tick(location)
                interp._exec(body, dict(datasets), each)

        return run_for_each
    if isinstance(stmt, ast.Try):
        body = _compile_block(stmt.body, result, row_schema)
        handler = _compile_block(stmt.handler, result, row_schema)

        def run_try(interp, datasets, row):
            scope = dict(datasets)
            try:
                interp._exec(body, scope, row)
            except ExecutionError:
                interp._exec(handler, datasets, row)
            else:
                datasets.update(scope)

        return run_try

    action = _compile_action(stmt, result)
    target = ast.statement_target(stmt)
    if target is None:
        return lambda interp, datasets, row: action(interp, datasets)

    def bind(interp, datasets, row):
        datasets[target] = action(interp, datasets)

    return bind


def _compile_action(stmt: ast.Statement, result: ValidationResult):
    """A function of the interpreter and the bindings that runs one data,
    WRITE or POST statement through its ``eval_*`` or ``IoAdapter``
    method, with every name the validator resolved already looked up."""
    location = stmt.location
    source = getattr(stmt, "source", None)
    sources = result.sources.get(id(stmt))
    schema = result.outputs.get(id(stmt))
    if isinstance(stmt, ast.Filter):
        keep = _compile_expr(stmt.predicate, sources[0])
        return lambda interp, d: interp.eval_filter(d[source], keep)
    if isinstance(stmt, ast.Select):
        indices = [sources[0].index_of(name) for name in stmt.columns]
        return lambda interp, d: interp.eval_select(d[source], schema, indices)
    if isinstance(stmt, ast.Distinct):
        return lambda interp, d: interp.eval_distinct(d[source])
    if isinstance(stmt, ast.Map):
        compute = _compile_expr(stmt.expr, sources[0])
        return lambda interp, d: interp.eval_map(d[source], schema, compute)
    if isinstance(stmt, ast.Rename):
        return lambda interp, d: interp.eval_rename(d[source], schema)
    if isinstance(stmt, ast.Drop):
        gone = sources[0].index_of(stmt.column)
        return lambda interp, d: interp.eval_drop(d[source], schema, gone)
    if isinstance(stmt, ast.AddColumn):
        value = stmt.value.value
        return lambda interp, d: interp.eval_add_column(d[source], schema, value)
    if isinstance(stmt, ast.Aggregate):
        keys = [sources[0].index_of(name) for name in stmt.group_by]
        computes = [
            (spec.fn, None if spec.arg is None else sources[0].index_of(spec.arg))
            for spec in stmt.computes
        ]
        return lambda interp, d: interp.eval_aggregate(
            d[source], schema, keys, computes, location
        )
    if isinstance(stmt, ast.Sort):
        key, descending = sources[0].index_of(stmt.column), stmt.descending
        return lambda interp, d: interp.eval_sort(d[source], key, descending)
    if isinstance(stmt, ast.Limit):
        count = stmt.count
        return lambda interp, d: interp.eval_limit(d[source], count)
    if isinstance(stmt, ast.Skip):
        count = stmt.count
        return lambda interp, d: interp.eval_skip(d[source], count)
    if isinstance(stmt, ast.Slice):
        start, stop = stmt.start, stmt.stop
        return lambda interp, d: interp.eval_slice(d[source], start, stop)
    if isinstance(stmt, (ast.Join, ast.LeftJoin)):
        left, right = stmt.left, stmt.right
        li = sources[0].index_of(stmt.left_key)
        ri = sources[1].index_of(stmt.right_key)
        left_outer = isinstance(stmt, ast.LeftJoin)
        return lambda interp, d: interp.eval_join(
            d[left], d[right], schema, li, ri, left_outer=left_outer
        )
    if isinstance(stmt, ast.Union):
        left, right = stmt.left, stmt.right
        return lambda interp, d: interp.eval_union(d[left], d[right], location)
    if isinstance(stmt, ast.Read):
        call = lambda io, d: io.read_table(stmt.path, stmt.format, stmt.schema)
    elif isinstance(stmt, ast.Fetch):
        call = lambda io, d: io.fetch_table(stmt.url, stmt.schema)
    elif isinstance(stmt, ast.Write):
        call = lambda io, d: io.write_table(d[source], stmt.path, stmt.format)
    elif isinstance(stmt, ast.Post):
        call = lambda io, d: io.post_table(stmt.url, d[source])
    else:
        raise AssertionError(f"unhandled statement {type(stmt).__name__}")

    def located_io(interp, d):
        try:
            return call(interp.io, d)
        except ExecutionError as exc:
            raise exc.at(location)

    return located_io


class Interpreter:
    """Runs compiled steps under one run's I/O adapter and caps. Steps
    call the ``eval_*`` methods through the instance, not as captured
    functions, so a profiler that wraps a class attribute sees each call."""

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

    def _exec(self, block: Block, datasets: dict[str, Table], row: Optional[Row]) -> None:
        for location, step in block:
            self._tick(location)
            step(self, datasets, row)

    # -- data operations -------------------------------------------------------
    # Outputs are built with Table.trusted: the validator proved every
    # cell well-typed, and row-passing operators keep the source tuples.
    # Operators that build a new schema take the validator's.

    def eval_filter(self, src: Table, keep: Callable[[Row], Cell]) -> Table:
        kept = []
        for row in src.rows:
            self._tick()
            if keep(row) is True:
                kept.append(row)
        return Table.trusted(src.schema, kept)

    def eval_select(self, src: Table, schema: Schema, indices: list[int]) -> Table:
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

    def eval_map(self, src: Table, schema: Schema, compute: Callable[[Row], Cell]) -> Table:
        rows = []
        for row in src.rows:
            self._tick()
            rows.append(row + (compute(row),))
        return Table.trusted(schema, rows)

    def eval_rename(self, src: Table, schema: Schema) -> Table:
        return Table.trusted(schema, src.rows)

    def eval_drop(self, src: Table, schema: Schema, gone: int) -> Table:
        rows = [row[:gone] + row[gone + 1 :] for row in src.rows]
        return Table.trusted(schema, rows)

    def eval_add_column(self, src: Table, schema: Schema, value: Cell) -> Table:
        rows = [row + (value,) for row in src.rows]
        return Table.trusted(schema, rows)

    def eval_sort(self, src: Table, key_index: int, descending: bool) -> Table:
        """Stable sort by one column; null keys go last in either
        direction, keeping their original relative order."""
        keyed = [row for row in src.rows if row[key_index] is not None]
        nulls = [row for row in src.rows if row[key_index] is None]
        ordered = sorted(keyed, key=itemgetter(key_index), reverse=descending)
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
        schema: Schema,
        li: int,
        ri: int,
        *,
        left_outer: bool,
    ) -> Table:
        """Equi-join on column ``li`` of the left table and ``ri`` of the
        right: output is ordered by left row order, then right row order
        within matches. Null keys never match anything, and INT and
        DECIMAL keys match when numerically equal. LEFT_JOIN pads
        unmatched left rows with nulls for the right-hand columns."""
        padding = (None,) * (len(right.schema) - 1)
        # hash(Decimal("2.0")) == hash(2), so mixed numeric keys meet in
        # one bucket; a null key is never stored, so it finds no match
        matches: dict[Cell, list[Row]] = {}
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
        schema: Schema,
        keys: list[int],
        computes: list[tuple[str, Optional[int]]],
        location,
    ) -> Table:
        """One output row per distinct group key, in order of first
        appearance; ``computes`` pairs each function with its argument
        column (None for COUNT). An empty GROUP_BY aggregates the whole
        table into a single row even when the table is empty."""
        groups: dict[Row, list[Row]] = {}
        for row in src.rows:
            self._tick()
            groups.setdefault(tuple(row[i] for i in keys), []).append(row)
        if not keys:
            groups.setdefault((), [])
        rows = []
        for key, members in groups.items():
            cells = list(key)
            for fn, index in computes:
                cells.append(self._aggregate_value(fn, index, members, location))
            rows.append(tuple(cells))
        return Table.trusted(schema, rows)

    def _aggregate_value(
        self, fn: str, index: Optional[int], members: list[Row], location
    ) -> Cell:
        if fn == "COUNT":
            return len(members)
        values = [row[index] for row in members if row[index] is not None]
        if not values:
            return None
        try:
            if fn == "SUM":
                total: Cell = values[0]
                for value in values[1:]:
                    total = add_values(total, value)
                return total
            if fn == "AVG":
                total = Decimal(0)
                for value in values:
                    total = add_values(total, value)
                scale = decimal_scale(total) + DIVISION_EXTRA_SCALE
                return decimal_divide(total, Decimal(len(values)), scale)
            if fn == "MIN":
                best = values[0]
                for value in values[1:]:
                    if compare_values(value, best) < 0:
                        best = value
                return best
            if fn == "MAX":
                best = values[0]
                for value in values[1:]:
                    if compare_values(value, best) > 0:
                        best = value
                return best
        except ExecutionError as exc:
            raise exc.at(location)
        raise AssertionError(f"unhandled aggregate {fn}")

    # -- resource guards -------------------------------------------------------

    def _tick(self, location: Optional[SourceLocation] = None) -> None:
        """Read the clock before every statement, loop iteration and row
        of a per-row operator, so a run stops within one row's work of
        its deadline."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise AssertionFailed("execution time limit exceeded", location)

    def _check_size(self, count: int, location=None) -> None:
        if self.max_rows is not None and count > self.max_rows:
            raise AssertionFailed(
                f"result exceeds the row limit of {self.max_rows}", location
            )


# -- compiling expressions ----------------------------------------------------
# Each expression becomes a closure from a row tuple to a cell, with every
# column reference bound to its index. A failing operator or call raises
# with its own node's location, so the innermost failing node names it.


def _compile_expr(expr: ast.Expr, schema: Optional[Schema]) -> Callable[[Row], Cell]:
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ast.ColumnRef):
        return itemgetter(schema.index_of(expr.name))
    location = expr.location
    if isinstance(expr, ast.Neg):
        operand = _compile_expr(expr.operand, schema)

        def neg(row):
            value = operand(row)
            try:
                return negate_value(value)
            except ExecutionError as exc:
                raise exc.at(location) from None

        return neg
    if isinstance(expr, ast.BinaryOp):
        left = _compile_expr(expr.left, schema)
        right = _compile_expr(expr.right, schema)
        fn = _ARITHMETIC[expr.op]

        def arithmetic(row):
            a, b = left(row), right(row)
            try:
                return fn(a, b)
            except ExecutionError as exc:
                raise exc.at(location) from None

        return arithmetic
    if isinstance(expr, ast.Comparison):
        left = _compile_expr(expr.left, schema)
        right = _compile_expr(expr.right, schema)
        holds = _COMPARISON_RESULTS[expr.op]

        def comparison(row):
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            return holds(compare_values(a, b))

        return comparison
    if isinstance(expr, ast.BoolOp):
        left = _compile_expr(expr.left, schema)
        right = _compile_expr(expr.right, schema)
        if expr.op == "AND":

            def conjunction(row):
                a = left(row)
                if a is False:
                    return False
                b = right(row)
                if b is False:
                    return False
                return None if a is None or b is None else True

            return conjunction

        def disjunction(row):
            a = left(row)
            if a is True:
                return True
            b = right(row)
            if b is True:
                return True
            return None if a is None or b is None else False

        return disjunction
    if isinstance(expr, ast.Not):
        operand = _compile_expr(expr.operand, schema)

        def negation(row):
            value = operand(row)
            return None if value is None else not value

        return negation
    if isinstance(expr, ast.Call):
        name = expr.name
        args = [_compile_expr(arg, schema) for arg in expr.args]

        def call(row):
            values = [arg(row) for arg in args]
            try:
                # a global read per call, not a captured function, so that
                # a profiler can wrap anka.interpreter.call_builtin
                return call_builtin(name, values)
            except ExecutionError as exc:
                raise exc.at(location) from None

        return call
    raise AssertionError(f"unhandled expression {type(expr).__name__}")


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
