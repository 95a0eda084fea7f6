"""Canonical formatting: corpus round-trips and randomized tree
round-trips through format -> parse."""

import datetime
import random
from decimal import Decimal
from pathlib import Path

import pytest

from anka import ast_nodes as ast
from anka.formatter import format_ast, format_expr
from anka.location import UNKNOWN_LOCATION as LOC
from anka.parser import parse
from anka.values import Field, Schema, ValueType

from generators import rand_cell

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.anka"))


def test_corpus_is_large_enough():
    assert len(CORPUS_FILES) >= 40


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_round_trip(path):
    original = parse(path.read_text(encoding="utf-8"))
    rendered = format_ast(original)
    assert parse(rendered) == original


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_formatting_is_idempotent(path):
    once = format_ast(parse(path.read_text(encoding="utf-8")))
    assert format_ast(parse(once)) == once


# --- randomized expression round-trips --------------------------------------

_NUMERIC = (ValueType.INT, ValueType.DECIMAL)


def _rand_expr(rng: random.Random, depth: int) -> ast.Expr:
    """Arbitrary expression tree; shapes need not typecheck, only
    format and reparse to the same structure."""
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.choice(["literal", "column", "call"])
        if kind == "literal":
            vtype = rng.choice(list(ValueType))
            value = rand_cell(rng, vtype, null_rate=0.0)
            # expression literals are non-negative (negation is a Neg
            # node) and source decimals always carry a fraction
            if vtype in _NUMERIC and value < 0:
                value = -value
            if vtype is ValueType.DECIMAL and "." not in format(value, "f"):
                value = value.scaleb(-1)
            return ast.Literal(value=value, type=vtype, location=LOC)
        if kind == "column":
            return ast.ColumnRef(name=rng.choice("abcxyz"), location=LOC)
        args = tuple(
            _rand_expr(rng, max(0, depth - 1)) for _ in range(rng.randint(0, 3))
        )
        return ast.Call(name=rng.choice(["CONCAT", "fn", "TO_STRING"]), args=args, location=LOC)
    kind = rng.choice(["binary", "comparison", "bool", "not", "neg"])
    if kind == "binary":
        return ast.BinaryOp(
            op=rng.choice(["+", "-", "*", "/"]),
            left=_rand_expr(rng, depth - 1),
            right=_rand_expr(rng, depth - 1),
            location=LOC,
        )
    if kind == "comparison":
        return ast.Comparison(
            op=rng.choice(["==", "!=", ">", ">=", "<", "<="]),
            left=_rand_expr(rng, depth - 1),
            right=_rand_expr(rng, depth - 1),
            location=LOC,
        )
    if kind == "bool":
        return ast.BoolOp(
            op=rng.choice(["AND", "OR"]),
            left=_rand_expr(rng, depth - 1),
            right=_rand_expr(rng, depth - 1),
            location=LOC,
        )
    if kind == "not":
        return ast.Not(operand=_rand_expr(rng, depth - 1), location=LOC)
    return ast.Neg(operand=_rand_expr(rng, depth - 1), location=LOC)


def _wrap_in_pipeline(expr: ast.Expr) -> ast.Pipeline:
    return _pipeline_of(ast.Filter(source="t", predicate=expr, target="r", location=LOC))


def _pipeline_of(stmt: ast.Statement) -> ast.Pipeline:
    schema = Schema([Field(name, ValueType.INT) for name in "abcxyz"])
    step = ast.Step(name="s", body=(stmt,), location=LOC)
    decl = ast.InputDecl(name="t", schema=schema, location=LOC)
    return ast.Pipeline(
        name="p",
        inputs=(decl,),
        steps=(step,),
        output="r",
        output_location=LOC,
        location=LOC,
    )


def test_random_expression_round_trips():
    rng = random.Random(20240817)
    for _ in range(400):
        pipeline = _wrap_in_pipeline(_rand_expr(rng, depth=rng.randint(1, 4)))
        rendered = format_ast(pipeline)
        assert parse(rendered) == pipeline, rendered


def test_minimal_parens_in_common_cases():
    a = ast.ColumnRef(name="a", location=LOC)
    b = ast.ColumnRef(name="b", location=LOC)
    product = ast.BinaryOp(op="*", left=a, right=b, location=LOC)
    addition = ast.BinaryOp(op="+", left=a, right=product, location=LOC)
    assert format_expr(addition) == "a + b * a" or format_expr(addition) == "a + a * b"
    grouped = ast.BinaryOp(op="*", left=ast.BinaryOp(op="+", left=a, right=b, location=LOC), right=b, location=LOC)
    assert format_expr(grouped) == "(a + b) * b"


def test_random_whole_pipelines_round_trip():
    import random

    from pipelinegen import rand_pipeline

    rng = random.Random(0xF0)
    for _ in range(150):
        pipeline, _tables = rand_pipeline(rng)
        assert parse(format_ast(pipeline)) == pipeline


# Literal values at the edges of their text forms, and the canonical text
# each is written as.
EDGE_LITERALS = [
    (datetime.date(1, 1, 1), ValueType.DATE, 'DATE "0001-01-01"'),
    (datetime.date(999, 12, 31), ValueType.DATE, 'DATE "0999-12-31"'),
    (datetime.datetime(1, 1, 1), ValueType.DATETIME, 'DATETIME "0001-01-01T00:00:00"'),
    (
        datetime.datetime(999, 1, 2, 3, 4, 5),
        ValueType.DATETIME,
        'DATETIME "0999-01-02T03:04:05"',
    ),
    (True, ValueType.BOOL, "TRUE"),
    (False, ValueType.BOOL, "FALSE"),
    (Decimal("5"), ValueType.DECIMAL, "5.0"),
    (-7, ValueType.INT, "-7"),
    (Decimal("-2.50"), ValueType.DECIMAL, "-2.50"),
    ('q"b\\s\nn\tt', ValueType.STRING, '"q\\"b\\\\s\\nn\\tt"'),
]


@pytest.mark.parametrize(
    "value, vtype, text", EDGE_LITERALS, ids=[text for _, _, text in EDGE_LITERALS]
)
def test_edge_literals_round_trip(value, vtype, text):
    literal = ast.Literal(value=value, type=vtype, location=LOC)
    pipeline = _pipeline_of(
        ast.AddColumn(source="t", column="c", value=literal, target="r", location=LOC)
    )
    rendered = format_ast(pipeline)
    assert f"    ADD_COLUMN t WITH c = {text} INTO r\n" in rendered
    assert parse(rendered) == pipeline


def test_map_statement_keyword_order():
    source = (
        "PIPELINE p:\n INPUT t: TABLE[amount: DECIMAL]\n STEP s:\n"
        "  MAP t WITH tax => amount * 0.08 INTO r\n OUTPUT r"
    )
    rendered = format_ast(parse(source))
    line = next(l for l in rendered.splitlines() if "MAP" in l)
    positions = [line.index(k) for k in ("MAP", "WITH", "=>", "INTO")]
    assert positions == sorted(positions)
