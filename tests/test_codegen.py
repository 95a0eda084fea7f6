"""The generated row code against a tree-walking reference evaluator.

``interpreter._compile_expr`` turns each MAP and FILTER expression into
one generated row loop, and each IF or WHILE condition into a generated
function of one row. ``evaluate`` below is the slow, direct reading of
the language they must agree with. It walks the tree once per row, held
as a dict, does arithmetic with ``generic_values``, calls each builtin's
own function, and short-circuits AND and OR as ``docs/language.md``
states. Outcomes compare exactly: a value by its repr, and an error by
its class, message and location.

The differential test runs every MAP and FILTER expression, and every
IF condition, of criterion 05's seeded random pipelines through both.
The limit tests take the generator to the parser's nesting cap, to a
1,000-term chain and past the bound of its cache of factories.
"""

import dataclasses
import itertools
import operator
import random
from decimal import Decimal

import pytest

from anka import ast_nodes as ast
from anka import interpreter
from anka.builtins import BUILTINS
from anka.errors import ExecutionError
from anka.interpreter import run_pipeline
from anka.location import UNKNOWN_LOCATION as LOC, SourceLocation
from anka.parser import MAX_NESTING_DEPTH
from anka.validator import validate
from anka.values import INT64_MAX, INT64_MIN, ValueType as VT, make_table, schema_of

import generic_values as generic
from generators import rand_cell, rand_table
from pipelinegen import rand_pipeline

_COMPARE = {
    "==": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}


def evaluate(expr: ast.Expr, row: dict):
    """The value of ``expr`` on ``row``; a failing node raises with its
    own location, so the innermost failing node names the error."""
    kind = type(expr)
    if kind is ast.Literal:
        return expr.value
    if kind is ast.ColumnRef:
        return row[expr.name]
    if kind is ast.BoolOp:
        # AND is decided by a FALSE operand and OR by a TRUE one; the
        # right operand is evaluated only when the left does not decide
        decided = expr.op == "OR"
        left = evaluate(expr.left, row)
        if left is decided:
            return decided
        right = evaluate(expr.right, row)
        if right is decided:
            return decided
        return None if left is None or right is None else not decided
    if kind is ast.Not:
        value = evaluate(expr.operand, row)
        return None if value is None else not value
    if kind is ast.Comparison:
        left, right = evaluate(expr.left, row), evaluate(expr.right, row)
        return None if left is None or right is None else _COMPARE[expr.op](left, right)
    if kind is ast.BinaryOp:
        args = (evaluate(expr.left, row), evaluate(expr.right, row))
        compute = generic.ARITHMETIC[expr.op]
    elif kind is ast.Neg:
        args, compute = (evaluate(expr.operand, row),), generic.negate_value
    else:
        args = tuple(evaluate(arg, row) for arg in expr.args)
        function = BUILTINS[expr.name].fn
        compute = lambda *values: None if None in values else function(*values)
    try:
        return compute(*args)
    except ExecutionError as exc:
        raise exc.at(expr.location) from None


def _error(exc: ExecutionError) -> tuple:
    return type(exc).__name__, exc.message, str(exc.location)


def _reference(shape: str, expr: ast.Expr, table) -> object:
    """What the MAP or FILTER of ``expr`` yields on ``table``: the new
    column or the rows kept, or the first row's error."""
    names = table.schema.names()
    try:
        values = [evaluate(expr, dict(zip(names, row))) for row in table.rows]
    except ExecutionError as exc:
        return _error(exc)
    if shape == "map":
        return [repr(value) for value in values]
    return [repr(row) for row, value in zip(table.rows, values) if value is True]


def _single(shape: str, expr: ast.Expr, schema):
    """A validated one-statement pipeline: MAP or FILTER ``expr`` on ``t``."""
    if shape == "map":
        stmt = ast.Map(source="t", column="zz", expr=expr, target="r", location=LOC)
    else:
        stmt = ast.Filter(source="t", predicate=expr, target="r", location=LOC)
    pipeline = ast.Pipeline(
        name="p",
        inputs=(ast.InputDecl(name="t", schema=schema, location=LOC),),
        steps=(ast.Step(name="s", body=(stmt,), location=LOC),),
        output="r",
        output_location=LOC,
        location=LOC,
    )
    result = validate(pipeline)
    assert result.ok, result.errors
    return pipeline, result


def _generated(shape: str, pipeline, table) -> object:
    try:
        out = run_pipeline(pipeline, {"t": table})
    except ExecutionError as exc:
        return _error(exc)
    if shape == "map":
        return [repr(row[-1]) for row in out.rows]
    return [repr(row) for row in out.rows]


def _row_outcomes(function, expr, table) -> list:
    """Per row, the value or error of a condition's row function and of
    the reference."""
    names = table.schema.names()
    outcomes = []
    for row in table.rows:
        pair = []
        for compute in (lambda: function(row), lambda: evaluate(expr, dict(zip(names, row)))):
            try:
                pair.append(repr(compute()))
            except ExecutionError as exc:
                pair.append(_error(exc))
        outcomes.append(pair)
    return outcomes


def _relocated(expr: ast.Expr, lines) -> ast.Expr:
    """A copy of ``expr`` whose nodes each have their own line, numbered
    in prefix order, so that a wrong error location shows."""
    changes = {"location": SourceLocation(next(lines), 1)}
    for name in ("left", "right", "operand"):
        if hasattr(expr, name):
            changes[name] = _relocated(getattr(expr, name), lines)
    if type(expr) is ast.Call:
        changes["args"] = tuple(_relocated(arg, lines) for arg in expr.args)
    return dataclasses.replace(expr, **changes)


def _row_expressions(body, result, row_schema=None):
    """(shape, expression, schema) for each MAP, FILTER and IF in ``body``,
    nested ones too; an IF's schema is its FOR_EACH row's, or None."""
    for stmt in body:
        kind = type(stmt)
        if kind is ast.Map:
            yield "map", stmt.expr, result.sources[id(stmt)][0]
        elif kind is ast.Filter:
            yield "filter", stmt.predicate, result.sources[id(stmt)][0]
        elif kind is ast.If:
            yield "row", stmt.condition, row_schema
            yield from _row_expressions(stmt.then_body + stmt.else_body, result, row_schema)
        elif kind is ast.Try:
            yield from _row_expressions(stmt.body + stmt.handler, result, row_schema)
        elif kind is ast.ForEach:
            (source,) = result.sources[id(stmt)]
            yield from _row_expressions(stmt.body, result, source)
        elif kind is ast.While:
            yield from _row_expressions(stmt.body, result, row_schema)


_EDGES = {
    VT.INT: [INT64_MAX, INT64_MIN, -1, 0],
    VT.DECIMAL: [Decimal(10**38 - 1), Decimal(-(10**37)).scaleb(-10), Decimal("0.00")],
}


def _edge_table(rng: random.Random, schema):
    """Rows whose numeric cells sit at the edges of their type, so that
    arithmetic overflows and divides by zero."""
    rows = [
        tuple(
            rng.choice(_EDGES[f.type]) if f.type in _EDGES else rand_cell(rng, f.type)
            for f in schema.fields
        )
        for _ in range(4)
    ]
    return make_table(schema, rows)


def test_generated_code_matches_the_reference_on_criterion_05_programs():
    programs = random.Random(0xA11CE)  # criterion 05's seed and order
    rng = random.Random(5)
    lines = itertools.count(1)
    checked = {"map": 0, "filter": 0, "row": 0}
    errors = 0
    for _ in range(1_000):
        pipeline, _ = rand_pipeline(programs)
        result = validate(pipeline)
        body = tuple(stmt for step in pipeline.steps for stmt in step.body)
        for shape, expr, schema in _row_expressions(body, result):
            expr = _relocated(expr, lines)
            if schema is None:
                # a condition outside FOR_EACH reads no column
                function = interpreter._compile_expr("row", expr, None, {})
                assert repr(function(None)) == repr(evaluate(expr, {}))
                checked[shape] += 1
                continue
            check = "filter" if shape == "row" else shape
            single, single_result = _single(check, expr, schema)
            for table in (rand_table(rng, schema), _edge_table(rng, schema)):
                expected = _reference(check, expr, table)
                assert _generated(check, single, table) == expected, expr
                errors += isinstance(expected, tuple)
                if shape == "row":
                    function = interpreter._compile_expr("row", expr, schema, single_result.types)
                    for generated, reference in _row_outcomes(function, expr, table):
                        assert generated == reference, expr
            checked[shape] += 1
    assert min(checked.values()) > 100, checked
    assert errors > 100, errors


# -- the generator's limits ---------------------------------------------------

NUMBERS = make_table(
    schema_of(("a", VT.INT), ("s", VT.STRING)),
    [(0, " Ab "), (1, "x"), (None, None), (-3, ""), (7, "Q z")],
)


def _int(value: int) -> ast.Literal:
    return ast.Literal(value=value, type=VT.INT, location=LOC)


def _column(name: str) -> ast.ColumnRef:
    return ast.ColumnRef(name=name, location=LOC)


def _height(expr: ast.Expr) -> int:
    children = [getattr(expr, name) for name in ("left", "right", "operand") if hasattr(expr, name)]
    children += getattr(expr, "args", ())
    return 1 + max(map(_height, children), default=0)


def _right_nested(leaf: ast.Expr, wrap, height: int) -> ast.Expr:
    """``wrap(level, below)`` around ``leaf`` until the tree is ``height``
    nodes tall, each wrapper's last operand being the one below it."""
    expr = leaf
    for level in range(height - _height(leaf)):
        expr = wrap(level, expr)
    return expr


def _compare(level: int) -> ast.Comparison:
    return ast.Comparison(op=">", left=_column("a"), right=_int(level % 5 - 2), location=LOC)


NESTED = {
    "and": lambda level, below: ast.BoolOp(
        op="AND", left=_compare(level), right=below, location=LOC
    ),
    "or": lambda level, below: ast.BoolOp(
        op="OR", left=_compare(level), right=below, location=LOC
    ),
    "not": lambda level, below: ast.Not(operand=below, location=LOC),
    # a + (a - (-1 * (a + ...))), so no row overflows
    "arithmetic": lambda level, below: ast.BinaryOp(
        op="+-*"[level % 3],
        left=_int(-1) if level % 3 == 2 else _column("a"),
        right=below,
        location=LOC,
    ),
    "call": lambda level, below: ast.Call(
        name=("UPPER", "LOWER", "TRIM")[level % 3], args=(below,), location=LOC
    ),
}
LEAVES = {
    "and": _compare(3),
    "or": _compare(3),
    "not": _compare(3),
    "arithmetic": _int(1),
    "call": _column("s"),
}


@pytest.mark.parametrize("kind", sorted(NESTED))
def test_right_nesting_at_the_parser_cap_compiles_and_evaluates(kind):
    # the MAP or FILTER takes one of the levels the parser and the
    # validator bound, so its expression may be one less tall
    tree = _right_nested(LEAVES[kind], NESTED[kind], MAX_NESTING_DEPTH - 1)
    assert _height(tree) == MAX_NESTING_DEPTH - 1
    expr = _relocated(tree, itertools.count(1))
    shape = "map" if kind in ("arithmetic", "call") else "filter"
    pipeline, _ = _single(shape, expr, NUMBERS.schema)
    expected = _reference(shape, expr, NUMBERS)
    assert _generated(shape, pipeline, NUMBERS) == expected
    assert isinstance(expected, list)


def test_a_thousand_term_chain_runs():
    # a + 1 + 1 + ...: the validator reports a chain this long as nested
    # too deep and the reference recurses once per term, so the kernels'
    # types are given here and the sums are known
    lines = itertools.count(1)
    chain, types = _column("a"), {}
    for _ in range(999):
        location = SourceLocation(next(lines), 1)
        chain = ast.BinaryOp(op="+", left=chain, right=_int(1), location=location)
        types[id(chain)] = VT.INT
    run = interpreter._compile_expr("map", chain, NUMBERS.schema, types)
    rows = run(NUMBERS.rows, None)
    assert [row[-1] for row in rows] == [999, 1000, None, 996, 1006]
    # the first addition past INT64_MAX names its own node
    with pytest.raises(ExecutionError) as err:
        run([(INT64_MAX - 500, "")], None)
    assert err.value.message == "INT overflow in addition"
    assert err.value.location == SourceLocation(501, 1)


PYTHON_TEXTS = [
    'x"); __import__("os").system("exit 1"); ("',
    "'''\n\"\"\"\nraise SystemExit\n",
    "\\n\\x00 {p0} {0} %s",
    "\n    return 1\n",
]


@pytest.mark.parametrize("text", PYTHON_TEXTS)
def test_string_literals_holding_python_come_out_verbatim(text):
    literal = ast.Literal(value=text, type=VT.STRING, location=LOC)
    concat = ast.Call(name="CONCAT", args=(_column("s"), literal), location=LOC)
    for expr, expected in ((literal, text), (concat, "x" + text)):
        pipeline, _ = _single("map", expr, NUMBERS.schema)
        assert run_pipeline(pipeline, {"t": NUMBERS}).rows[1][-1] == expected
    equal = ast.Comparison(op="==", left=_column("s"), right=literal, location=LOC)
    pipeline, _ = _single("filter", equal, NUMBERS.schema)
    table = make_table(NUMBERS.schema, [(1, text), (2, text + " ")])
    assert run_pipeline(pipeline, {"t": table}).rows == ((1, text),)


CLOSED_TOKENS = {
    "lit", "col", "==", "!=", ">", ">=", "<", "<=", "AND", "OR", "NOT", "neg", "arith",
}


def test_every_cache_key_holds_only_closed_set_tokens():
    for kind, wrap in NESTED.items():
        for text in PYTHON_TEXTS:
            literal = ast.Literal(value=text, type=VT.STRING, location=LOC)
            leaf = ast.Comparison(op="!=", left=_column("s"), right=literal, location=LOC)
            tree = _right_nested(leaf if kind in ("and", "or", "not") else LEAVES[kind], wrap, 6)
            pipeline, _ = _single("map", tree, NUMBERS.schema)
            run_pipeline(pipeline, {"t": NUMBERS})
    assert interpreter._FACTORIES
    for key in interpreter._FACTORIES:
        assert key[0] in ("map", "filter", "row"), key
        for token in key[1:]:
            assert token in CLOSED_TOKENS or type(token) is int and 1 <= token <= 3, key


def _conjunction(symbols) -> ast.Expr:
    """``a <symbol> 0 AND a <symbol> 1 AND ...``, nested to the right."""
    comparisons = [
        ast.Comparison(op=symbol, left=_column("a"), right=_int(i), location=LOC)
        for i, symbol in enumerate(symbols)
    ]
    expr = comparisons.pop()
    while comparisons:
        expr = ast.BoolOp(op="AND", left=comparisons.pop(), right=expr, location=LOC)
    return expr


def test_more_shapes_than_the_bound_keep_the_cache_at_its_bound(monkeypatch):
    # four comparisons joined by AND: 6**4 shapes, one per choice of symbols
    monkeypatch.setattr(interpreter, "_FACTORIES", {})
    bound = interpreter._MAX_FACTORIES
    symbols = itertools.product(sorted(_COMPARE), repeat=4)
    shapes = [_conjunction(ops) for ops in itertools.islice(symbols, bound + 20)]
    for expr in shapes + shapes[:5]:
        run = interpreter._compile_expr("filter", expr, NUMBERS.schema, {})
        kept = [repr(row) for row in run(NUMBERS.rows, None)]
        assert kept == _reference("filter", expr, NUMBERS)
        assert len(interpreter._FACTORIES) <= bound
    assert len(interpreter._FACTORIES) == bound
