"""Evaluator for validated pipelines.

``run_pipeline`` runs what ``validate`` resolved. Each statement is
compiled once per pipeline into a step: a shared module-level runner and
a flat tuple of values. A data or I/O statement's row in one table, keyed
by its class, names the ``Interpreter`` or ``IoAdapter`` method its
runner calls and turns the validator's source and output schemas into
that method's arguments, column indices resolved; each control statement
has a compiler. A MAP or FILTER becomes one generated Python function
that runs its whole row loop, and an IF or WHILE condition a generated
function of one row, each operator bound to the kernel for the types the
validator proved (Neumann, "Efficiently compiling efficient query plans",
VLDB 2011); the code is generated once per expression shape and cached.
Steps bind INTO targets in one dict of named tables; the validator
forbids rebinding, so only loop and TRY scopes copy it. After each
top-level statement the names the validator found it last to read or
bind (``ValidationResult.dies``) are dropped from that dict, so an
intermediate table is released after its last reader rather than at the
end of the run. Input tables are never modified.

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
import functools
import itertools
import re
import time
from operator import itemgetter
from typing import Callable, Optional

from anka import ast_nodes as ast
from anka import builtins
from anka.builtins import AGGREGATES, call_builtin
from anka.errors import AssertionFailed, ConversionError, ExecutionError, InputError
from anka.io_adapters import IoAdapter, _check_rows
from anka.location import SourceLocation
from anka.validator import ValidationException, ValidationResult, validate
from anka.values import (
    ARITHMETIC_KERNELS,
    NEGATION_KERNELS,
    OPERATION_NAMES,
    Cell,
    Schema,
    Table,
)

DEFAULT_WHILE_CAP = 100_000
_TIME_LIMIT = "execution time limit exceeded"

Row = tuple[Cell, ...]
# A step is a module-level runner and the flat tuple of values its
# statement compiled to: it is called with the interpreter, the named
# tables, the current row and then those values, and returns the table its
# statement binds, or None.
Step = tuple[Callable[..., Optional[Table]], tuple]
# Each statement's location, its step's runner and values, its INTO
# target (None when it binds nothing) and the names to release once it
# has run. The values are held beside the runner, not in a closure or a
# ``partial``, so a statement adds two GC-tracked objects to a plan
# besides the parts it compiles.
Block = tuple[tuple[SourceLocation, Callable, tuple, Optional[str], tuple[str, ...]], ...]
# A generated MAP or FILTER loop, from source rows and the deadline to rows.
RowLoop = Callable[[tuple[Row, ...], Optional[float]], list[Row]]

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
    absolute ``time.monotonic()`` stamp, ``max_rows`` caps the rows of
    each table a JOIN, LEFT_JOIN or UNION builds or a READ or FETCH
    brings in (no other statement adds rows; a CSV READ stops decoding
    after the first chunk of records that passes the cap, and a JSON
    READ or a FETCH before it admits any row) and ``max_cells`` the rows
    times columns of all tables bound at once; each lets a harness bound
    untrusted programs.
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
# Each statement's step is built by its class's entry in one of two tables:
# a control compiler, or a row of ``_ACTIONS`` for a data or I/O statement.


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
            *_compile_statement(stmt, result, row_schema),
            ast.statement_target(stmt),
            dies.get(id(stmt), ()) if dies else (),
        )
        for stmt in body
    )


def _compile_statement(
    stmt: ast.Statement, result: ValidationResult, row_schema: Optional[Schema]
) -> Step:
    kind = type(stmt)
    control = _CONTROL_COMPILERS.get(kind)
    if control is not None:
        return control(stmt, result, row_schema)
    runner, method, values = _ACTIONS[kind]
    key = id(stmt)
    rest = values(stmt, result.sources.get(key), result.outputs.get(key), result.types)
    return runner, (method, *rest)


# Each control compiler returns its statement's step: its runner and the
# condition, source name and nested blocks it is called with.


def _compile_if(stmt: ast.If, result, row_schema) -> Step:
    condition = _compile_expr("row", stmt.condition, row_schema, result.types)
    then_body = _compile_block(stmt.then_body, result, row_schema)
    else_body = _compile_block(stmt.else_body, result, row_schema)
    return _run_if, (condition, then_body, else_body)


def _run_if(interp, datasets, row, condition, then_body, else_body):
    # a null condition counts as false
    branch = then_body if condition(row) is True else else_body
    interp._exec(branch, datasets, row)


def _compile_while(stmt: ast.While, result, row_schema) -> Step:
    condition = _compile_expr("row", stmt.condition, row_schema, result.types)
    return _run_while, (condition, _compile_block(stmt.body, result, row_schema))


def _run_while(interp, datasets, row, condition, body):
    iterations = 0
    cells = interp.cells
    while condition(row) is True:
        iterations += 1
        if iterations > interp.while_cap:
            raise AssertionFailed(f"WHILE exceeded the iteration cap of {interp.while_cap}")
        interp._tick()
        interp._exec(body, dict(datasets), row)
        interp.cells = cells


def _compile_for_each(stmt: ast.ForEach, result, row_schema) -> Step:
    (source_schema,) = result.sources[id(stmt)]
    return _run_for_each, (stmt.source, _compile_block(stmt.body, result, source_schema))


def _run_for_each(interp, datasets, row, source, body):
    cells = interp.cells
    for each in datasets[source].rows:
        interp._tick()
        interp._exec(body, dict(datasets), each)
        interp.cells = cells


def _compile_try(stmt: ast.Try, result, row_schema) -> Step:
    body = _compile_block(stmt.body, result, row_schema)
    return _run_try, (body, _compile_block(stmt.handler, result, row_schema))


def _run_try(interp, datasets, row, body, handler):
    scope, cells = dict(datasets), interp.cells
    try:
        interp._exec(body, scope, row)
    except ExecutionError:
        interp.cells = cells
        interp._exec(handler, datasets, row)
    else:
        datasets.update(scope)


_CONTROL_COMPILERS = {
    ast.If: _compile_if,
    ast.While: _compile_while,
    ast.ForEach: _compile_for_each,
    ast.Try: _compile_try,
}

# The runners of data and I/O steps. Each is called with the method name
# and source names its ``_ACTIONS`` row put first in the step's values, and
# looks the method up on the interpreter or its adapter on every run, so a
# profiler that wraps the class attribute after the plan was compiled still
# sees each call. JOIN, WRITE and POST have runners of their own because
# perfbench's tracing hooks read their arguments: JOIN's span is named from
# the ``left_outer`` keyword, and WRITE and POST count the rows of the
# table they are given in that position.


def _run_source(interp, d, row, method, source, *values):
    return getattr(interp, method)(d[source], *values)


def _run_pair(interp, d, row, method, left, right):
    return getattr(interp, method)(d[left], d[right])


def _run_join(interp, d, row, method, left, right, schema, li, ri, left_outer):
    return getattr(interp, method)(d[left], d[right], schema, li, ri, left_outer=left_outer)


def _run_load(interp, d, row, method, *values):
    return getattr(interp.io, method)(*values, interp.max_rows)


def _run_write(interp, d, row, method, source, path, fmt):
    return getattr(interp.io, method)(d[source], path, fmt)


def _run_post(interp, d, row, method, source, url):
    return getattr(interp.io, method)(url, d[source])


def _aggregate(stmt: ast.Aggregate, sources, schema, types) -> tuple:
    (src,) = sources
    keys = [src.index_of(name) for name in stmt.group_by]
    # each fold is bound to the addition kernel of its output column's type
    computes = [
        (None if spec.arg is None else src.index_of(spec.arg),
         AGGREGATES[spec.fn].fold(ARITHMETIC_KERNELS.get(("+", schema.type_of(spec.alias)))))
        for spec in stmt.computes
    ]
    return stmt.source, schema, keys, computes


def _join(stmt, sources, schema, types) -> tuple:
    li, ri = sources[0].index_of(stmt.left_key), sources[1].index_of(stmt.right_key)
    return stmt.left, stmt.right, schema, li, ri, type(stmt) is ast.LeftJoin


# Each data, WRITE or POST statement's runner, the ``Interpreter`` or
# ``IoAdapter`` method that runner calls, and a function from the
# statement, the schemas the validator resolved for its sources (in the
# order it names them) and for its output, and the validator's types, to
# the rest of its step's values: its source names, then what the method
# takes besides the source tables.
_ACTIONS = {
    ast.Filter: (_run_source, "eval_filter", lambda stmt, sources, schema, types: (
        stmt.source, _compile_expr("filter", stmt.predicate, sources[0], types))),
    ast.Select: (_run_source, "eval_select", lambda stmt, sources, schema, types: (
        stmt.source, schema, [sources[0].index_of(name) for name in stmt.columns])),
    ast.Distinct: (_run_source, "eval_distinct", lambda stmt, sources, schema, types: (
        stmt.source,)),
    ast.Map: (_run_source, "eval_map", lambda stmt, sources, schema, types: (
        stmt.source, schema, _compile_expr("map", stmt.expr, sources[0], types))),
    ast.Rename: (_run_source, "eval_rename", lambda stmt, sources, schema, types: (
        stmt.source, schema)),
    ast.Drop: (_run_source, "eval_drop", lambda stmt, sources, schema, types: (
        stmt.source, schema, sources[0].index_of(stmt.column))),
    ast.AddColumn: (_run_source, "eval_add_column", lambda stmt, sources, schema, types: (
        stmt.source, schema, stmt.value.value)),
    ast.Aggregate: (_run_source, "eval_aggregate", _aggregate),
    ast.Sort: (_run_source, "eval_sort", lambda stmt, sources, schema, types: (
        stmt.source, sources[0].index_of(stmt.column), stmt.descending)),
    ast.Limit: (_run_source, "eval_limit", lambda stmt, sources, schema, types: (
        stmt.source, stmt.count)),
    ast.Skip: (_run_source, "eval_skip", lambda stmt, sources, schema, types: (
        stmt.source, stmt.count)),
    ast.Slice: (_run_source, "eval_slice", lambda stmt, sources, schema, types: (
        stmt.source, stmt.start, stmt.stop)),
    ast.Join: (_run_join, "eval_join", _join),
    ast.LeftJoin: (_run_join, "eval_join", _join),
    ast.Union: (_run_pair, "eval_union", lambda stmt, sources, schema, types: (
        stmt.left, stmt.right)),
    ast.Read: (_run_load, "read_table", lambda stmt, sources, schema, types: (
        stmt.path, stmt.format, stmt.schema)),
    ast.Fetch: (_run_load, "fetch_table", lambda stmt, sources, schema, types: (
        stmt.url, stmt.schema)),
    ast.Write: (_run_write, "write_table", lambda stmt, sources, schema, types: (
        stmt.source, stmt.path, stmt.format)),
    ast.Post: (_run_post, "post_table", lambda stmt, sources, schema, types: (
        stmt.source, stmt.url)),
}


class Interpreter:
    """Runs compiled steps under one run's I/O adapter and caps. Steps
    look the ``eval_*`` and adapter methods up by name on each run, not
    as captured functions, so a profiler that wraps a class attribute
    sees each call.

    When ``max_cells`` is set, ``cells`` counts the rows times columns of
    the tables bound by INTO in the live scopes; a loop iteration or a
    failed TRY body restores the count it started from when its scope is
    discarded."""

    def __init__(
        self,
        io: IoAdapter,
        while_cap: int,
        deadline: Optional[float],
        max_rows: Optional[int],
        max_cells: Optional[int],
    ) -> None:
        self.io = io
        self.while_cap = while_cap
        self.deadline = deadline
        self.max_rows = max_rows
        self.max_cells = max_cells
        self.cells = 0

    def _exec(self, block: Block, datasets: dict[str, Table], row: Optional[Row]) -> None:
        """Run ``block``'s steps in order. An error gets the location of
        the statement it stopped in, unless a nested statement or an
        expression node inside it already gave it one."""
        for location, step, args, target, dies in block:
            try:
                self._tick()
                table = step(self, datasets, row, *args)
                if target is not None:
                    if self.max_cells is not None:
                        self._charge(table, datasets.get(target))
                    datasets[target] = table
            except ExecutionError as exc:
                raise exc.at(location) from None
            if dies:
                self._release(datasets, dies)

    def _release(self, datasets: dict[str, Table], names: tuple[str, ...]) -> None:
        for name in names:
            # one IF branch may not have bound the name
            table = datasets.pop(name, None)
            if table is not None and self.max_cells is not None:
                self.cells -= _cells(table)

    def _charge(self, table: Table, replaced: Optional[Table]) -> None:
        """Count a newly bound table against ``max_cells``. ``replaced`` is
        what its name held before: a table that one IF or TRY branch bound
        and no later statement reads, whose cells are returned."""
        self.cells += _cells(table) - _cells(replaced)
        if self.cells > self.max_cells:
            raise AssertionFailed(f"result exceeds the cell limit of {self.max_cells}")

    # -- data operations -------------------------------------------------------
    # Outputs are built with Table.trusted: the validator proved every
    # cell well-typed, and row-passing operators keep the source tuples.
    # Operators that build a new schema take the validator's.

    def eval_filter(self, src: Table, keep: RowLoop) -> Table:
        return Table.trusted(src.schema, keep(src.rows, self.deadline))

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

    def eval_map(self, src: Table, schema: Schema, compute: RowLoop) -> Table:
        return Table.trusted(schema, compute(src.rows, self.deadline))

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
        deadline, monotonic, max_rows = self.deadline, time.monotonic, self.max_rows
        rows = []
        for lrow in left.rows:
            if deadline is not None and monotonic() > deadline:
                raise AssertionFailed(_TIME_LIMIT)
            found = matches.get(lrow[li], ())
            for rest in found:
                rows.append(lrow + rest)
                if max_rows is not None:
                    _check_rows(len(rows), max_rows)
            if left_outer and not found:
                rows.append(lrow + padding)
                if max_rows is not None:
                    _check_rows(len(rows), max_rows)
        return Table.trusted(schema, rows)

    def eval_union(self, left: Table, right: Table) -> Table:
        """Row concatenation: left rows then right rows, duplicates kept
        (DISTINCT is the one way to deduplicate)."""
        _check_rows(len(left.rows) + len(right.rows), self.max_rows)
        return Table.trusted(left.schema, left.rows + right.rows)

    def eval_aggregate(
        self,
        src: Table,
        schema: Schema,
        keys: list[int],
        computes: list[tuple[Optional[int], Callable[[list], Cell]]],
    ) -> Table:
        """One output row per distinct group key, in order of first
        appearance; ``computes`` gives each function's argument column,
        None for COUNT, with its fold. An empty or all-null group yields
        null for every function but COUNT. An empty GROUP_BY aggregates
        the whole table into a single row even when the table is empty."""
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
        try:
            for key, members in groups.items():
                cells = list(key)
                for index, fold in computes:
                    if index is None:  # COUNT
                        cells.append(fold(members))
                        continue
                    values = [row[index] for row in members if row[index] is not None]
                    cells.append(fold(values) if values else None)
                rows.append(tuple(cells))
        except decimal.Rounded:
            raise ConversionError("DECIMAL overflow in addition") from None
        return Table.trusted(schema, rows)

    # -- resource guards -------------------------------------------------------

    def _tick(self) -> None:
        """Read the clock before a statement or loop iteration when a
        deadline is set. The per-row operators make the same check
        inline, with the deadline and ``time.monotonic`` held in locals,
        so a run stops within one row's work of its deadline and a run
        without one reads no clock."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise AssertionFailed(_TIME_LIMIT)


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
# Each MAP and FILTER expression becomes one generated Python function that
# runs the statement's whole row loop, and each IF or WHILE condition a
# generated function of one row (Neumann, "Efficiently compiling efficient
# query plans", VLDB 2011). One walk of the expression lists its shape as
# tokens from a closed set: "lit", "col", the six comparison symbols, AND,
# OR, NOT, "neg", "arith" and a call's argument count. It lists the
# parameters apart: column indices, literal values, the kernels the
# validator's types select, builtin names, locations and overflow
# messages. The tokens key a cache of the 512 most recently used shapes'
# factories; only a miss generates source, from the tokens alone, so no
# program text reaches the compiler, and a hit calls the factory once.
#
# In the generated code a column is a read of the row tuple and a literal
# a parameter. A strict operator or a builtin call tests its non-literal
# operands for null and calls its kernel in a ``try`` of its own that gives
# an error the node's location, so the innermost failing node names it. A
# builtin's kernel is bound once each time a plan is compiled, in ``make``,
# and ``call_builtin`` is read from this module's globals at that point: a
# profiler or a test that replaces it there before the compile sees each
# call that reaches a kernel. The right operand of AND and OR is an inner
# function, called only when the left does not decide, so the indentation
# stays flat at any expression height. Each function ``make`` defines takes
# the parameters, kernels and inner functions its body reads as defaults,
# so none of them holds a closure cell. ``time`` is still read from this
# module's globals on each call, so a run without a deadline reads no clock.

_COMPARISONS = frozenset(("==", "!=", ">", ">=", "<", "<="))
# each operator token with its counts of parameters and of operands; a
# call's token is its argument count, with the name and location
_OPERATORS = {
    **{symbol: (0, 2) for symbol in _COMPARISONS},
    "AND": (0, 2),
    "OR": (0, 2),
    "NOT": (0, 1),
    "neg": (3, 1),
    "arith": (3, 2),
}
_LOOP = (
    "monotonic = time.monotonic",
    "out = []",
    "for row in rows:",
    "    if deadline is not None and monotonic() > deadline:",
    "        raise AssertionFailed(_TIME_LIMIT)",
)
# each shape's function: its name and parameters, unclosed, the lines of
# its body before the expression's code, that code's indentation, and the
# lines after it, "{}" being its value
_SHAPES = {
    "row": ("run(row", (), 0, ("return {}",)),
    "map": ("run(rows, deadline", _LOOP, 4, ("    out.append(row + ({},))", "return out")),
    "filter": (
        "run(rows, deadline",
        _LOOP,
        4,
        ("    if {} is True:", "        out.append(row)", "return out"),
    ),
}
# a parameter, a kernel or an inner function in generated code
_BOUND = re.compile(r"\b[pkf][0-9]+\b")
_NEGATION_OVERFLOW = "DECIMAL overflow in negation"
_OVERFLOW = {op: f"DECIMAL overflow in {name}" for op, name in OPERATION_NAMES.items()}


def _compile_expr(
    shape: str, expr: ast.Expr, schema: Optional[Schema], types: dict[int, object]
) -> Callable:
    """The generated function for ``expr``. ``shape`` is "map" for a
    function from source rows to output rows, "filter" for one from
    source rows to the rows kept, both taking the deadline too, and
    "row" for a function from one row to the expression's value."""
    tokens, params, stack = [shape], [], [expr]
    while stack:
        node = stack.pop()
        while True:  # down the first operands; the others wait on the stack
            kind = type(node)
            if kind is ast.ColumnRef:
                tokens.append("col")
                params.append(schema.index_of(node.name))
                break
            if kind is ast.Literal:
                tokens.append("lit")
                params.append(node.value)
                break
            if kind is ast.Comparison or kind is ast.BoolOp:
                tokens.append(node.op)
            elif kind is ast.BinaryOp:
                tokens.append("arith")
                kernel = ARITHMETIC_KERNELS[types[id(node)]]
                params += (kernel, node.location, _OVERFLOW[node.op])
            elif kind is ast.Not:
                tokens.append("NOT")
                node = node.operand
                continue
            elif kind is ast.Neg:
                tokens.append("neg")
                kernel = NEGATION_KERNELS[types[id(node)]]
                params += (kernel, node.location, _NEGATION_OVERFLOW)
                node = node.operand
                continue
            else:
                tokens.append(len(node.args))
                params += (node.name, node.location)
                stack += reversed(node.args[1:])
                node = node.args[0]
                continue
            stack.append(node.right)
            node = node.left
    return _factory(tuple(tokens))(*params)


@functools.lru_cache(maxsize=512)
def _factory(key: tuple) -> Callable:
    """Generate and compile the factory for one expression shape.
    The tokens arrive in prefix order; each operand becomes a name and
    whether it may be null, and each operator's code is emitted when its
    last operand is done, so the code runs in the language's order."""
    shape, numbers = key[0], itertools.count()
    temps = (f"v{i}" for i in itertools.count())
    functions = (f"f{i}" for i in itertools.count())
    inner: list[str] = []  # the AND and OR right-operand functions
    kernels: list[str] = []  # the builtin calls' kernel bindings
    bodies: list[list[str]] = [[]]  # the function being generated is last
    pending = []  # operators still waiting for operands
    for token in key[1:]:
        if token == "lit":
            value = f"p{next(numbers)}", False
        elif token == "col":
            value = next(temps), True
            bodies[-1].append(f"{value[0]} = row[p{next(numbers)}]")
        else:
            width, operands = (2, token) if type(token) is int else _OPERATORS[token]
            names = [f"p{next(numbers)}" for _ in range(width)]
            if type(token) is int:  # a call binds its kernel beside its name
                kernels.append(f"    k{names[0][1:]} = _kernel({names[0]})")
            pending.append((token, operands, names, []))
            continue
        while pending:
            op, operands, names, values = pending[-1]
            values.append(value)
            if len(values) < operands:
                if op in ("AND", "OR"):
                    bodies.append([])
                break
            pending.pop()
            if op in ("AND", "OR"):
                value = _emit_bool(op, values, bodies.pop(), bodies[-1], inner, temps, functions)
            else:
                value = _emit(op, names, values, bodies[-1], next(temps))
        else:  # no operator is left waiting: this is the expression's value
            result = value[0]
    signature, head, indent, tail = _SHAPES[shape]
    body = [*head, *(" " * indent + line for line in bodies[0])]
    body += (line.format(result) for line in tail)
    params = ", ".join(f"p{i}" for i in range(next(numbers)))
    lines = [f"def make({params}):", *kernels, *inner, *_define(signature, body)]
    lines.append("    return run")
    namespace: dict[str, Callable] = {}
    exec(compile("\n".join(lines), f"<anka {shape}>", "exec"), globals(), namespace)
    return namespace["make"]


def _emit(token, names: list[str], values, body: list[str], out: str) -> tuple[str, bool]:
    """Append to ``body`` the code of a strict operator or a call that
    sets ``out``; return ``out`` and whether it may be null."""
    args = ", ".join(name for name, _ in values)
    if token == "NOT" or token in _COMPARISONS:
        text = f"not {args}" if token == "NOT" else f" {token} ".join(name for name, _ in values)
        text, nullable = _strict(text, values)
        body.append(f"{out} = {text}")
        return out, nullable
    if type(token) is int:
        # the kernel _factory bound; a builtin is null only on a null argument
        (name, location), overflow = names, None
        kernel = f"k{name[1:]}"
    else:
        kernel, location, overflow = names
    text, nullable = _strict(f"{kernel}({args})", values)
    body += _guarded(f"{out} = {text}", location, overflow)
    return out, nullable


def _kernel(name: str) -> Callable:
    """The function generated code calls for builtin ``name``: its kernel,
    or a call through ``call_builtin`` when that has been replaced."""
    hook = call_builtin
    if hook is builtins.call_builtin:
        return builtins._FUNCTIONS[name]
    return lambda *args: hook(name, args)


def _strict(text: str, values) -> tuple[str, bool]:
    """``text``, or null when one of ``values`` is; only the operands
    that may be null are tested, so a literal never is."""
    test = " or ".join(f"{name} is None" for name, nullable in values if nullable)
    return (f"None if {test} else {text}", True) if test else (text, False)


def _guarded(line: str, location: str, overflow: Optional[str] = None) -> list[str]:
    """``line`` in a ``try`` that gives an error the location named
    ``location``, and a DECIMAL overflow the message named ``overflow``."""
    lines = ["try:", f"    {line}", "except ExecutionError as exc:"]
    lines.append(f"    raise exc.at({location}) from None")
    if overflow:
        lines.append("except decimal.Rounded:")
        lines.append(f"    raise ConversionError({overflow}, {location}) from None")
    return lines


def _define(signature: str, body: list[str]) -> list[str]:
    """The lines of a function inside ``make``: ``signature`` is its name
    and parameters, unclosed, to which each parameter, kernel and inner
    function that ``body`` reads is added as a default of the same name."""
    bound = dict.fromkeys(_BOUND.findall("\n".join(body)))
    defaults = "".join(f", {name}={name}" for name in bound)
    return [f"    def {signature}{defaults}):", *(f"        {line}" for line in body)]


def _emit_bool(token: str, values, right_body, body, inner, temps, functions) -> tuple[str, bool]:
    """Emit AND or OR: ``right_body`` computes the right operand and
    becomes an inner function, called only when the left one does not
    decide; return the result's name and whether it may be null."""
    (left, left_null), (right, right_null) = values
    decided, otherwise = ("False", "True") if token == "AND" else ("True", "False")
    result, nullable = _strict(otherwise, (("left", left_null), (right, right_null)))
    function, out = next(functions), next(temps)
    returned = f"return {decided} if {right} is {decided} else {result}"
    inner += _define(f"{function}(row, left", [*right_body, returned])
    body.append(f"{out} = {left} if {left} is {decided} else {function}(row, {left})")
    return out, nullable
