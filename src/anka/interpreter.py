"""Evaluator for validated pipelines.

``run_pipeline`` runs what ``validate`` resolved. Each statement is
compiled once per pipeline into a step that holds the validator's
output schema, the column indices it resolved, and its expressions
compiled into closures over row-tuple indices (Feeley and Lapalme,
"Using closures for code generation", 1987), each operator bound to the
kernel for the types the validator proved (Neumann, "Efficiently
compiling efficient query plans", VLDB 2011). Steps bind INTO targets in
one dict of named tables; the validator forbids rebinding, so only loop
and TRY scopes copy it. After each top-level statement the names the
validator found it last to read or bind (``ValidationResult.dies``) are
dropped from that dict, so an intermediate table is released after its
last reader rather than at the end of the run. Input tables are never
modified.

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

import decimal
import operator
import time
from decimal import Decimal
from functools import reduce
from operator import itemgetter
from typing import Callable, Optional

from anka import ast_nodes as ast
from anka.builtins import call_builtin
from anka.errors import AssertionFailed, ConversionError, ExecutionError, InputError
from anka.io_adapters import IoAdapter
from anka.location import SourceLocation
from anka.validator import ValidationException, ValidationResult, validate
from anka.values import (
    ARITHMETIC_KERNELS,
    DIVISION_EXTRA_SCALE,
    NEGATION_KERNELS,
    OPERATION_NAMES,
    Cell,
    Schema,
    Table,
    ValueType,
    decimal_divide,
    decimal_scale,
)

DEFAULT_WHILE_CAP = 100_000
_TIME_LIMIT = "execution time limit exceeded"

Row = tuple[Cell, ...]
Step = Callable[["Interpreter", dict[str, Table], Optional[Row]], None]
# Each step with its location and the names to release once it has run.
Block = tuple[tuple[SourceLocation, Step, tuple[str, ...]], ...]

_PLAN = "_plan"


def run_pipeline(
    pipeline: ast.Pipeline,
    inputs: dict[str, Table],
    io: Optional[IoAdapter] = None,
    *,
    while_cap: int = DEFAULT_WHILE_CAP,
    deadline: Optional[float] = None,
    max_rows: Optional[int] = None,
    max_cells: Optional[int] = None,
) -> Table:
    """Execute a pipeline against named input tables and return the
    table bound to the OUTPUT name.

    The pipeline runs on the result of ``validate``, which is computed
    once per pipeline object, so a caller that has validated it already
    pays nothing more; a pipeline that does not validate raises
    ``ValidationException`` with its diagnostics. The compiled steps are
    likewise kept with the pipeline. ``io`` defaults to a sandboxed
    adapter that denies all file and network access. ``deadline`` is an
    absolute ``time.monotonic()`` stamp, ``max_rows`` caps the size of
    any produced table and ``max_cells`` the rows times columns of all
    tables bound at once; each lets a harness bound untrusted programs.
    """
    result = validate(pipeline)
    if not result.ok:
        raise ValidationException(result.errors)
    _check_inputs(pipeline, inputs)
    plan = pipeline.__dict__.get(_PLAN)
    if plan is None:
        body = tuple(stmt for step in pipeline.steps for stmt in step.body)
        plan = pipeline.__dict__[_PLAN] = _compile_block(body, result, None, result.dies)
    interp = Interpreter(
        io or IoAdapter(sandbox=True), while_cap, deadline, max_rows, max_cells
    )
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
# One compiler per statement class, looked up by the node's exact class.


def _compile_block(
    body,
    result: ValidationResult,
    row_schema: Optional[Schema],
    dies: Optional[dict[int, tuple[str, ...]]] = None,
) -> Block:
    """Steps for ``body``; ``dies`` is given for the top-level block only,
    since nested blocks release nothing."""
    return tuple(
        (
            stmt.location,
            _compile_statement(stmt, result, row_schema),
            dies.get(id(stmt), ()) if dies else (),
        )
        for stmt in body
    )


def _compile_statement(
    stmt: ast.Statement, result: ValidationResult, row_schema: Optional[Schema]
) -> Step:
    control = _CONTROL_COMPILERS.get(type(stmt))
    if control is not None:
        return control(stmt, result, row_schema)
    key = id(stmt)
    action = _ACTION_COMPILERS[type(stmt)](
        stmt, result.sources.get(key), result.outputs.get(key), result.types
    )
    target, location = ast.statement_target(stmt), stmt.location
    if target is None:
        return lambda interp, datasets, row: action(interp, datasets)

    def bind(interp, datasets, row):
        table = action(interp, datasets)
        if interp.max_cells is not None:
            interp._charge(table, datasets.get(target), location)
        datasets[target] = table

    return bind


def _compile_if(stmt: ast.If, result, row_schema) -> Step:
    condition = _compile_expr(stmt.condition, row_schema, result.types)
    then_body = _compile_block(stmt.then_body, result, row_schema)
    else_body = _compile_block(stmt.else_body, result, row_schema)

    def run_if(interp, datasets, row):
        # a null condition counts as false
        branch = then_body if condition(row) is True else else_body
        interp._exec(branch, datasets, row)

    return run_if


def _compile_while(stmt: ast.While, result, row_schema) -> Step:
    location = stmt.location
    condition = _compile_expr(stmt.condition, row_schema, result.types)
    body = _compile_block(stmt.body, result, row_schema)

    def run_while(interp, datasets, row):
        iterations = 0
        cells = interp.cells
        while condition(row) is True:
            iterations += 1
            if iterations > interp.while_cap:
                raise AssertionFailed(
                    f"WHILE exceeded the iteration cap of {interp.while_cap}",
                    location,
                )
            interp._tick(location)
            interp._exec(body, dict(datasets), row)
            interp.cells = cells

    return run_while


def _compile_for_each(stmt: ast.ForEach, result, row_schema) -> Step:
    location, source = stmt.location, stmt.source
    (source_schema,) = result.sources[id(stmt)]
    body = _compile_block(stmt.body, result, source_schema)

    def run_for_each(interp, datasets, row):
        cells = interp.cells
        for each in datasets[source].rows:
            interp._tick(location)
            interp._exec(body, dict(datasets), each)
            interp.cells = cells

    return run_for_each


def _compile_try(stmt: ast.Try, result, row_schema) -> Step:
    body = _compile_block(stmt.body, result, row_schema)
    handler = _compile_block(stmt.handler, result, row_schema)

    def run_try(interp, datasets, row):
        scope, cells = dict(datasets), interp.cells
        try:
            interp._exec(body, scope, row)
        except ExecutionError:
            interp.cells = cells
            interp._exec(handler, datasets, row)
        else:
            datasets.update(scope)

    return run_try


_CONTROL_COMPILERS = {
    ast.If: _compile_if,
    ast.While: _compile_while,
    ast.ForEach: _compile_for_each,
    ast.Try: _compile_try,
}

# Action compilers take a data, WRITE or POST statement with the schemas
# the validator resolved for it: those of its sources, in the order it
# names them, and the one it binds. Each returns a function of the
# interpreter and the bindings that runs the statement through its
# ``eval_*`` or ``IoAdapter`` method, with every name already looked up.


def _filter(stmt: ast.Filter, sources, schema, types):
    source, keep = stmt.source, _compile_expr(stmt.predicate, sources[0], types)
    return lambda interp, d: interp.eval_filter(d[source], keep)


def _select(stmt: ast.Select, sources, schema, types):
    source, indices = stmt.source, [sources[0].index_of(n) for n in stmt.columns]
    return lambda interp, d: interp.eval_select(d[source], schema, indices)


def _distinct(stmt: ast.Distinct, sources, schema, types):
    source = stmt.source
    return lambda interp, d: interp.eval_distinct(d[source])


def _map(stmt: ast.Map, sources, schema, types):
    source, compute = stmt.source, _compile_expr(stmt.expr, sources[0], types)
    return lambda interp, d: interp.eval_map(d[source], schema, compute)


def _rename(stmt: ast.Rename, sources, schema, types):
    source = stmt.source
    return lambda interp, d: interp.eval_rename(d[source], schema)


def _drop(stmt: ast.Drop, sources, schema, types):
    source, gone = stmt.source, sources[0].index_of(stmt.column)
    return lambda interp, d: interp.eval_drop(d[source], schema, gone)


def _add_column(stmt: ast.AddColumn, sources, schema, types):
    source, value = stmt.source, stmt.value.value
    return lambda interp, d: interp.eval_add_column(d[source], schema, value)


def _aggregate(stmt: ast.Aggregate, sources, schema, types):
    (src,) = sources
    source, location = stmt.source, stmt.location
    keys = [src.index_of(name) for name in stmt.group_by]
    computes = []
    for spec in stmt.computes:
        # SUM and AVG add with the kernel of the type the validator gave
        # their output column: the argument's for SUM, DECIMAL for AVG
        add = None
        if spec.fn in ("SUM", "AVG"):
            add = ARITHMETIC_KERNELS["+", schema.type_of(spec.alias)]
        index = None if spec.arg is None else src.index_of(spec.arg)
        computes.append((spec.fn, index, add))
    return lambda interp, d: interp.eval_aggregate(
        d[source], schema, keys, computes, location
    )


def _sort(stmt: ast.Sort, sources, schema, types):
    source, descending = stmt.source, stmt.descending
    key = sources[0].index_of(stmt.column)
    return lambda interp, d: interp.eval_sort(d[source], key, descending)


def _limit(stmt: ast.Limit, sources, schema, types):
    source, count = stmt.source, stmt.count
    return lambda interp, d: interp.eval_limit(d[source], count)


def _skip(stmt: ast.Skip, sources, schema, types):
    source, count = stmt.source, stmt.count
    return lambda interp, d: interp.eval_skip(d[source], count)


def _slice(stmt: ast.Slice, sources, schema, types):
    source, start, stop = stmt.source, stmt.start, stmt.stop
    return lambda interp, d: interp.eval_slice(d[source], start, stop)


def _join(stmt, sources, schema, types):
    left, right, left_outer = stmt.left, stmt.right, type(stmt) is ast.LeftJoin
    li, ri = sources[0].index_of(stmt.left_key), sources[1].index_of(stmt.right_key)
    location = stmt.location
    return lambda interp, d: interp.eval_join(
        d[left], d[right], schema, li, ri, location, left_outer=left_outer
    )


def _union(stmt: ast.Union, sources, schema, types):
    left, right, location = stmt.left, stmt.right, stmt.location
    return lambda interp, d: interp.eval_union(d[left], d[right], location)


def _io(call):
    """An action compiler for an I/O statement: ``call(stmt, io, d)``
    runs it, and a failure raises at the statement's location."""

    def compile_io(stmt, sources, schema, types):
        location = stmt.location

        def located_io(interp, d):
            try:
                return call(stmt, interp.io, d)
            except ExecutionError as exc:
                raise exc.at(location)

        return located_io

    return compile_io


_ACTION_COMPILERS = {
    ast.Filter: _filter,
    ast.Select: _select,
    ast.Distinct: _distinct,
    ast.Map: _map,
    ast.Rename: _rename,
    ast.Drop: _drop,
    ast.AddColumn: _add_column,
    ast.Aggregate: _aggregate,
    ast.Sort: _sort,
    ast.Limit: _limit,
    ast.Skip: _skip,
    ast.Slice: _slice,
    ast.Join: _join,
    ast.LeftJoin: _join,
    ast.Union: _union,
    ast.Read: _io(lambda s, io, d: io.read_table(s.path, s.format, s.schema)),
    ast.Fetch: _io(lambda s, io, d: io.fetch_table(s.url, s.schema)),
    ast.Write: _io(lambda s, io, d: io.write_table(d[s.source], s.path, s.format)),
    ast.Post: _io(lambda s, io, d: io.post_table(s.url, d[s.source])),
}


class Interpreter:
    """Runs compiled steps under one run's I/O adapter and caps. Steps
    call the ``eval_*`` methods through the instance, not as captured
    functions, so a profiler that wraps a class attribute sees each call.

    When ``max_cells`` is set, ``cells`` counts the rows times columns of
    the tables bound by INTO in the live scopes; a loop iteration or a
    failed TRY body restores the count it started from when its scope is
    discarded."""

    def __init__(
        self,
        io: IoAdapter,
        while_cap: int = DEFAULT_WHILE_CAP,
        deadline: Optional[float] = None,
        max_rows: Optional[int] = None,
        max_cells: Optional[int] = None,
    ) -> None:
        self.io = io
        self.while_cap = while_cap
        self.deadline = deadline
        self.max_rows = max_rows
        self.max_cells = max_cells
        self.cells = 0

    def _exec(self, block: Block, datasets: dict[str, Table], row: Optional[Row]) -> None:
        for location, step, dies in block:
            self._tick(location)
            step(self, datasets, row)
            if dies:
                self._release(datasets, dies)

    def _release(self, datasets: dict[str, Table], names: tuple[str, ...]) -> None:
        for name in names:
            # one IF branch may not have bound the name
            table = datasets.pop(name, None)
            if table is not None and self.max_cells is not None:
                self.cells -= _cells(table)

    def _charge(
        self, table: Table, replaced: Optional[Table], location: SourceLocation
    ) -> None:
        """Count a newly bound table against ``max_cells``. ``replaced`` is
        what its name held before: a table that one IF or TRY branch bound
        and no later statement reads, whose cells are returned."""
        self.cells += _cells(table) - _cells(replaced)
        if self.cells > self.max_cells:
            raise AssertionFailed(
                f"result exceeds the cell limit of {self.max_cells}", location
            )

    # -- data operations -------------------------------------------------------
    # Outputs are built with Table.trusted: the validator proved every
    # cell well-typed, and row-passing operators keep the source tuples.
    # Operators that build a new schema take the validator's.

    def eval_filter(self, src: Table, keep: Callable[[Row], Cell]) -> Table:
        deadline, monotonic = self.deadline, time.monotonic
        kept = []
        for row in src.rows:
            if deadline is not None and monotonic() > deadline:
                raise AssertionFailed(_TIME_LIMIT)
            if keep(row) is True:
                kept.append(row)
        return Table.trusted(src.schema, kept)

    def eval_select(self, src: Table, schema: Schema, indices: list[int]) -> Table:
        return Table.trusted(schema, map(_picker(indices), src.rows))

    def eval_distinct(self, src: Table) -> Table:
        deadline, monotonic = self.deadline, time.monotonic
        seen = set()
        kept = []
        for row in src.rows:
            if deadline is not None and monotonic() > deadline:
                raise AssertionFailed(_TIME_LIMIT)
            if row not in seen:
                seen.add(row)
                kept.append(row)
        return Table.trusted(src.schema, kept)

    def eval_map(self, src: Table, schema: Schema, compute: Callable[[Row], Cell]) -> Table:
        deadline, monotonic = self.deadline, time.monotonic
        rows = []
        for row in src.rows:
            if deadline is not None and monotonic() > deadline:
                raise AssertionFailed(_TIME_LIMIT)
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
        location: SourceLocation,
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
        deadline, monotonic, max_rows = self.deadline, time.monotonic, self.max_rows
        rows = []
        for lrow in left.rows:
            if deadline is not None and monotonic() > deadline:
                raise AssertionFailed(_TIME_LIMIT)
            found = matches.get(lrow[li], ())
            for rest in found:
                rows.append(lrow + rest)
                if max_rows is not None:
                    self._check_size(len(rows), location)
            if left_outer and not found:
                rows.append(lrow + padding)
                if max_rows is not None:
                    self._check_size(len(rows), location)
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
        computes: list[tuple[str, Optional[int], Optional[Callable]]],
        location,
    ) -> Table:
        """One output row per distinct group key, in order of first
        appearance; ``computes`` gives each function with its argument
        column (None for COUNT) and, for SUM and AVG, the addition kernel.
        An empty GROUP_BY aggregates the whole table into a single row
        even when the table is empty."""
        deadline, monotonic = self.deadline, time.monotonic
        groups: dict[Row, list[Row]] = {}
        group_of = _picker(keys)
        for row in src.rows:
            if deadline is not None and monotonic() > deadline:
                raise AssertionFailed(_TIME_LIMIT)
            groups.setdefault(group_of(row), []).append(row)
        if not keys:
            groups.setdefault((), [])
        rows = []
        for key, members in groups.items():
            cells = list(key)
            for fn, index, add in computes:
                cells.append(self._aggregate_value(fn, index, add, members, location))
            rows.append(tuple(cells))
        return Table.trusted(schema, rows)

    def _aggregate_value(
        self, fn: str, index: Optional[int], add, members: list[Row], location
    ) -> Cell:
        if fn == "COUNT":
            return len(members)
        values = [row[index] for row in members if row[index] is not None]
        if not values:
            return None
        # every value has the column's type, so MIN and MAX compare
        # directly; both keep the first of equal values
        if fn == "MIN":
            return min(values)
        if fn == "MAX":
            return max(values)
        try:
            if fn == "SUM":
                return reduce(add, values)
            total = reduce(add, values, Decimal(0))
            scale = decimal_scale(total) + DIVISION_EXTRA_SCALE
            return decimal_divide(total, len(values), scale)
        except ExecutionError as exc:
            raise exc.at(location)
        except decimal.Inexact:
            raise ConversionError("DECIMAL overflow in addition", location) from None

    # -- resource guards -------------------------------------------------------

    def _tick(self, location: SourceLocation) -> None:
        """Read the clock before a statement or loop iteration when a
        deadline is set. The per-row operators make the same check
        inline, with the deadline and ``time.monotonic`` held in locals
        and no location, so a run stops within one row's work of its
        deadline and a run without one reads no clock."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise AssertionFailed(_TIME_LIMIT, location)

    def _check_size(self, count: int, location=None) -> None:
        if self.max_rows is not None and count > self.max_rows:
            raise AssertionFailed(
                f"result exceeds the row limit of {self.max_rows}", location
            )


def _cells(table: Optional[Table]) -> int:
    """Rows times columns of a table, 0 for None."""
    return 0 if table is None else len(table.rows) * len(table.schema.fields)


def _picker(indices: list[int]) -> Callable[[Row], Row]:
    """A function from a row to the tuple of its cells at ``indices``."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (only,) = indices
        return lambda row: (row[only],)
    return lambda row: ()


# -- compiling expressions ----------------------------------------------------
# Each expression becomes a closure from a row tuple to a cell, with every
# column reference bound to its index and every operator bound to the
# kernel for the operand types the validator proved, so the only per-row
# branch left is the null check. A literal is a closure that returns its
# value; as the right operand of a comparison it is bound in the
# comparison's closure as a constant instead (a literal is never null),
# which saves a call per row of a FILTER. Likewise the trailing literal
# arguments of a builtin call are bound once as a constant tuple, so
# ``SUBSTRING(TRIM(product), 0, 3)`` evaluates one argument per row; the
# builtin itself is still called once per row. A failing operator or
# call raises with its own node's location, so the innermost failing
# node names it.


def _compile_expr(
    expr: ast.Expr, schema: Optional[Schema], types: dict[int, ValueType]
) -> Callable[[Row], Cell]:
    return _EXPR_COMPILERS[type(expr)](expr, schema, types)


def _literal(expr: ast.Literal, schema, types):
    value = expr.value
    return lambda row: value


def _column(expr: ast.ColumnRef, schema, types):
    return itemgetter(schema.index_of(expr.name))


def _neg(expr: ast.Neg, schema, types):
    location = expr.location
    operand = _compile_expr(expr.operand, schema, types)
    kernel = NEGATION_KERNELS[types[id(expr)]]

    def neg(row):
        value = operand(row)
        if value is None:
            return None
        try:
            return kernel(value)
        except ExecutionError as exc:
            raise exc.at(location) from None
        except decimal.Inexact:
            raise ConversionError("DECIMAL overflow in negation", location) from None

    return neg


def _arithmetic(expr: ast.BinaryOp, schema, types):
    location = expr.location
    left = _compile_expr(expr.left, schema, types)
    kernel = ARITHMETIC_KERNELS[expr.op, types[id(expr)]]
    overflow = f"DECIMAL overflow in {OPERATION_NAMES[expr.op]}"

    right = _compile_expr(expr.right, schema, types)

    def arithmetic(row):
        a = left(row)
        b = right(row)
        if a is None or b is None:
            return None
        try:
            return kernel(a, b)
        except ExecutionError as exc:
            raise exc.at(location) from None
        except decimal.Inexact:
            raise ConversionError(overflow, location) from None

    return arithmetic


# The validator admits only same-type and INT/DECIMAL pairs, and for
# those Python's own ordering is the language's.
_COMPARISONS = {
    "==": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}


def _comparison(expr: ast.Comparison, schema, types):
    left = _compile_expr(expr.left, schema, types)
    holds = _COMPARISONS[expr.op]

    if type(expr.right) is ast.Literal:
        b = expr.right.value

        def comparison_literal(row):
            a = left(row)
            return None if a is None else holds(a, b)

        return comparison_literal

    right = _compile_expr(expr.right, schema, types)

    def comparison(row):
        a = left(row)
        b = right(row)
        if a is None or b is None:
            return None
        return holds(a, b)

    return comparison


def _bool_op(expr: ast.BoolOp, schema, types):
    left = _compile_expr(expr.left, schema, types)
    right = _compile_expr(expr.right, schema, types)
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


def _not(expr: ast.Not, schema, types):
    operand = _compile_expr(expr.operand, schema, types)

    def negation(row):
        value = operand(row)
        return None if value is None else not value

    return negation


def _call(expr: ast.Call, schema, types):
    # call_builtin is read as a global per call, not captured, so that a
    # profiler can wrap anka.interpreter.call_builtin. Builtins take one
    # to three arguments; the trailing literals among them are bound as
    # one constant tuple, and each count of evaluated arguments before
    # them has its own closure, so no per-row loop gathers them.
    location, name = expr.location, expr.name
    count = len(expr.args)
    while count and type(expr.args[count - 1]) is ast.Literal:
        count -= 1
    constants = tuple(arg.value for arg in expr.args[count:])
    args = [_compile_expr(arg, schema, types) for arg in expr.args[:count]]
    if not args:

        def call(row):
            try:
                return call_builtin(name, constants)
            except ExecutionError as exc:
                raise exc.at(location) from None

    elif len(args) == 1:
        (first,) = args

        def call(row):
            values = (first(row),) + constants
            try:
                return call_builtin(name, values)
            except ExecutionError as exc:
                raise exc.at(location) from None

    elif len(args) == 2:
        first, second = args

        def call(row):
            values = (first(row), second(row)) + constants
            try:
                return call_builtin(name, values)
            except ExecutionError as exc:
                raise exc.at(location) from None

    else:
        first, second, third = args

        def call(row):
            values = (first(row), second(row), third(row))
            try:
                return call_builtin(name, values)
            except ExecutionError as exc:
                raise exc.at(location) from None

    return call


_EXPR_COMPILERS = {
    ast.Literal: _literal,
    ast.ColumnRef: _column,
    ast.Neg: _neg,
    ast.BinaryOp: _arithmetic,
    ast.Comparison: _comparison,
    ast.BoolOp: _bool_op,
    ast.Not: _not,
    ast.Call: _call,
}
