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
1,000-term chain and past the bound of its cache of factories, from one
thread and from six at once.
"""

import functools
import itertools
import operator
import random
import sys
import threading
import types
from decimal import Decimal

import pytest

from anka import ast_nodes as ast
from anka import interpreter, parser
from anka.builtins import BUILTINS
from anka.errors import ExecutionError
from anka.interpreter import run_pipeline
from anka.location import SourceLocation
from anka.parser import MAX_NESTING_DEPTH, parse
from anka.validator import validate
from anka.values import INT64_MAX, INT64_MIN, ValueType as VT, make_table

import fuzzing
import generic_values as generic
from builders import UNKNOWN_LOCATION as LOC, schema_of
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
    return expr._replace(**changes)


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
        types[id(chain)] = ("+", VT.INT)
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


def test_every_cache_key_holds_only_closed_set_tokens(monkeypatch):
    keys = []
    factory = interpreter._factory

    def recording(key):
        keys.append(key)
        return factory(key)

    monkeypatch.setattr(interpreter, "_factory", recording)
    for kind, wrap in NESTED.items():
        for text in PYTHON_TEXTS:
            literal = ast.Literal(value=text, type=VT.STRING, location=LOC)
            leaf = ast.Comparison(op="!=", left=_column("s"), right=literal, location=LOC)
            tree = _right_nested(leaf if kind in ("and", "or", "not") else LEAVES[kind], wrap, 6)
            pipeline, _ = _single("map", tree, NUMBERS.schema)
            run_pipeline(pipeline, {"t": NUMBERS})
    assert keys
    for key in set(keys):
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


def _shapes(count: int) -> list[ast.Expr]:
    """``count`` expressions of distinct shapes: four comparisons joined
    by AND, one per choice of symbols, 6**4 in all."""
    symbols = itertools.product(sorted(_COMPARE), repeat=4)
    return [_conjunction(ops) for ops in itertools.islice(symbols, count)]


def test_more_shapes_than_the_bound_keep_the_cache_at_its_bound():
    factory = interpreter._factory
    factory.cache_clear()
    bound = factory.cache_info().maxsize
    shapes = _shapes(bound + 20)

    def compile_and_check(expr):
        run = interpreter._compile_expr("filter", expr, NUMBERS.schema, {})
        kept = [repr(row) for row in run(NUMBERS.rows, None)]
        assert kept == _reference("filter", expr, NUMBERS)
        assert factory.cache_info().currsize <= bound

    for expr in shapes[:bound] + shapes[:1]:
        compile_and_check(expr)
    # the first shape was used again just before the bound was passed, so
    # one more new shape drops the least recently used, the second
    compile_and_check(shapes[bound])
    hits = factory.cache_info().hits
    compile_and_check(shapes[0])
    assert factory.cache_info().hits == hits + 1
    compile_and_check(shapes[1])
    assert factory.cache_info().hits == hits + 1
    for expr in shapes[bound + 1:] + shapes[:5]:
        compile_and_check(expr)
    assert factory.cache_info().currsize == bound


def _compile_filters(t: int) -> None:
    for expr in _shapes(1024)[t::6]:
        interpreter._compile_expr("filter", expr, NUMBERS.schema, {})


def _parse_table_types(t: int) -> None:
    for i in range(300):
        parse(f"PIPELINE p:\n INPUT x: TABLE[t{t}c{i}: INT]\n STEP s:\n"
              "  DISTINCT x INTO r\n OUTPUT r")


@pytest.mark.parametrize("cache, work", [
    (interpreter._factory, _compile_filters),
    (parser._table_type, _parse_table_types),
], ids=["factory", "table_type"])
def test_threads_compiling_at_once_keep_the_bound(cache, work):
    # six threads miss at once, each on its own keys
    cache.cache_clear()
    threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert cache.cache_info().currsize <= cache.cache_info().maxsize == 512


# -- builtin kernels ----------------------------------------------------------
# Each call's kernel is bound in the factory's ``make``, once per compiled
# plan, and the AND and OR inner functions close over it.


def _call(name: str, *args: ast.Expr) -> ast.Call:
    return ast.Call(name=name, args=args, location=LOC)


def _string(text: str) -> ast.Literal:
    return ast.Literal(value=text, type=VT.STRING, location=LOC)


# LENGTH(TRIM(s)) > 1, a call that a null s makes null
_TRIMMED_LONG = ast.Comparison(
    op=">", left=_call("LENGTH", _call("TRIM", _column("s"))), right=_int(1), location=LOC
)


@pytest.mark.parametrize("op", ["AND", "OR"])
@pytest.mark.parametrize("shape", ["map", "filter"])
def test_a_call_in_the_right_operand_of_and_or_matches_the_reference(op, shape):
    left = ast.Comparison(op=">", left=_column("a"), right=_int(0), location=LOC)
    expr = ast.BoolOp(op=op, left=left, right=_TRIMMED_LONG, location=LOC)
    expr = _relocated(expr, itertools.count(1))
    pipeline, _ = _single(shape, expr, NUMBERS.schema)
    expected = _reference(shape, expr, NUMBERS)
    assert _generated(shape, pipeline, NUMBERS) == expected
    assert isinstance(expected, list)


CONDITIONS = """
PIPELINE p:
 INPUT t: TABLE[a: INT, s: STRING]
 STEP s:
  FOR_EACH row IN t DO
   IF LENGTH(TRIM(s)) > 1 OR UPPER(s) == "X" THEN
    DISTINCT t INTO kept
   END_IF
   WHILE LENGTH(CONCAT(s, "!")) > 100 AND a > 0 DO
    DISTINCT t INTO ignored
   END_WHILE
  END_FOR
  DISTINCT t INTO result
 OUTPUT result
"""


def test_calls_in_if_and_while_conditions_match_the_reference():
    pipeline = parse(CONDITIONS)
    result = validate(pipeline)
    assert result.ok, result.errors
    loop = pipeline.steps[0].body[0]
    assert [type(stmt) for stmt in loop.body] == [ast.If, ast.While]
    for condition in (stmt.condition for stmt in loop.body):
        function = interpreter._compile_expr("row", condition, NUMBERS.schema, result.types)
        for generated, reference in _row_outcomes(function, condition, NUMBERS):
            assert generated == reference, condition
    assert run_pipeline(pipeline, {"t": NUMBERS}).rows == NUMBERS.rows


def test_a_call_of_literals_is_not_tested_for_null(monkeypatch):
    sources = []

    def keeping(text, name, mode):
        sources.append(text)
        return compile(text, name, mode)

    interpreter._factory.cache_clear()
    monkeypatch.setattr(interpreter, "compile", keeping, raising=False)
    literal = _call("SUBSTRING", _string("abcdef"), _int(1), _int(3))
    column = _call("SUBSTRING", _column("s"), _int(1), _int(3))
    for expr in (literal, column):
        function = interpreter._compile_expr("row", expr, NUMBERS.schema, {})
        for generated, reference in _row_outcomes(function, expr, NUMBERS):
            assert generated == reference
    assert len(sources) == 2
    assert "is None" not in sources[0]
    assert "is None" in sources[1]


def test_call_builtin_is_read_when_a_plan_is_compiled(monkeypatch):
    text = (
        "PIPELINE p:\n INPUT t: TABLE[a: INT, s: STRING]\n STEP s:\n"
        "  MAP t WITH u => UPPER(s) INTO result\n OUTPUT result"
    )
    compiled = parse(text)
    expected = run_pipeline(compiled, {"t": NUMBERS}).rows
    calls = []
    call_builtin = interpreter.call_builtin

    def counting(name, args):
        calls.append(name)
        return call_builtin(name, args)

    monkeypatch.setattr(interpreter, "call_builtin", counting)
    # the plan kept with the parsed pipeline bound the kernel itself
    assert run_pipeline(compiled, {"t": NUMBERS}).rows == expected
    assert calls == []
    # a fresh parse compiles a new plan, which reads the replacement
    assert run_pipeline(parse(text), {"t": NUMBERS}).rows == expected
    assert calls == ["UPPER"] * 4  # one row's s is null


# A plan binds each step's and each generated function's values without
# closure cells: a step is a module-level runner held beside its values,
# and a generated function takes what it reads as defaults.


def _plan_functions(value):
    """Every function a compiled plan reaches: its steps, the functions
    they are called with, and those bound in turn, nested blocks included."""
    if isinstance(value, functools.partial):  # an aggregate's fold
        yield value
        yield from _plan_functions(value.func)
        yield from _plan_functions(value.args)
    elif isinstance(value, types.FunctionType):
        yield value
        yield from _plan_functions(value.__defaults__ or ())
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _plan_functions(item)


def _compiled_plans():
    for source in fuzzing.corpus_sources():
        pipeline = parse(source)
        rng = random.Random(len(source))
        yield pipeline, {d.name: rand_table(rng, d.schema) for d in pipeline.inputs}
    for seed in range(60):
        yield rand_pipeline(random.Random(seed))


def _plan_steps(block):
    """Each step of a compiled block, as its runner and values, nested
    blocks included."""
    for _, runner, values, _, _ in block:
        yield runner, values
        for value in values:
            if type(value) is tuple:  # an IF, WHILE, FOR_EACH or TRY body
                yield from _plan_steps(value)


def test_no_plan_holds_a_closure_cell():
    generated = 0
    action_runners = {runner for runner, _, _ in interpreter._ACTIONS.values()}
    for pipeline, inputs in _compiled_plans():
        try:
            run_pipeline(pipeline, inputs)
        except ExecutionError:
            pass  # the plan is compiled before the run starts
        plan = pipeline.__dict__[interpreter._PLAN]
        for function in _plan_functions(plan):
            assert getattr(function, "__closure__", None) is None, function
            if isinstance(function, types.FunctionType):
                generated += function.__code__.co_filename.startswith("<anka")
        for runner, values in _plan_steps(plan):
            assert getattr(interpreter, runner.__name__) is runner
            assert type(values) is tuple
            if runner in action_runners:  # the method name, then flat values
                assert type(values[0]) is str
                assert not any(type(value) is tuple for value in values), values
    assert generated > 100  # MAP and FILTER loops, conditions, AND/OR operands


def test_every_statement_class_has_one_compiler():
    compiled = [*interpreter._CONTROL_COMPILERS, *interpreter._ACTIONS]
    assert sorted(node.__name__ for node in compiled) == sorted(
        node.__name__ for node, _ in ast.STATEMENT_FORMS.values()
    )


def test_every_action_method_exists():
    for node, (_, method, _) in interpreter._ACTIONS.items():
        owners = [owner for owner in (interpreter.Interpreter, interpreter.IoAdapter)
                  if callable(getattr(owner, method, None))]
        assert len(owners) == 1, (node.__name__, method)
