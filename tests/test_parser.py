"""Parser: structure of parsed pipelines and located syntax errors."""

import datetime
import hashlib
import json
import random
import typing
from decimal import Decimal

import pytest

from anka import ast_nodes as ast
from anka import parser
from anka.errors import ParseError
from anka.formatter import format_ast
from anka.interpreter import run_pipeline
from anka.location import SourceLocation
from anka.parser import parse
from anka.validator import validate
from anka.values import ValueType, make_table

import fuzzing
from builders import schema_of
from pipelinegen import rand_pipeline

REFERENCE_PIPELINE = """
PIPELINE transform_sales:
    INPUT orders: TABLE[order_id: INT, customer: STRING,
        amount: DECIMAL, date: DATE]

    STEP filter_large:
        FILTER orders WHERE amount > 1000 INTO large_orders

    STEP add_tax:
        MAP large_orders WITH tax => amount * 0.08 INTO with_tax

    STEP summarize:
        AGGREGATE with_tax
        GROUP_BY customer
        COMPUTE SUM(amount) AS total, COUNT() AS num_orders
        INTO summary

    OUTPUT summary
"""

MINIMAL = (
    "PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n"
    "  FILTER t WHERE a > 0 INTO r\n OUTPUT r"
)


class TestPipelineStructure:
    def test_reference_pipeline_shape(self):
        pipeline = parse(REFERENCE_PIPELINE)
        assert pipeline.name == "transform_sales"
        assert len(pipeline.inputs) == 1
        assert pipeline.inputs[0].name == "orders"
        assert len(pipeline.inputs[0].schema) == 4
        assert [s.name for s in pipeline.steps] == [
            "filter_large",
            "add_tax",
            "summarize",
        ]
        assert pipeline.output == "summary"

    def test_minimal_pipeline(self):
        pipeline = parse(MINIMAL)
        assert pipeline.name == "p"
        step = pipeline.steps[0]
        assert isinstance(step.body[0], ast.Filter)
        assert step.body[0].target == "r"

    def test_aggregate_statement_fields(self):
        pipeline = parse(REFERENCE_PIPELINE)
        agg = pipeline.steps[2].body[0]
        assert isinstance(agg, ast.Aggregate)
        assert agg.group_by == ("customer",)
        assert [(c.fn, c.arg, c.alias) for c in agg.computes] == [
            ("SUM", "amount", "total"),
            ("COUNT", None, "num_orders"),
        ]

    def test_map_expression_shape(self):
        pipeline = parse(REFERENCE_PIPELINE)
        map_stmt = pipeline.steps[1].body[0]
        assert isinstance(map_stmt, ast.Map)
        assert isinstance(map_stmt.expr, ast.BinaryOp)
        assert map_stmt.expr.op == "*"
        assert map_stmt.expr.right == ast.Literal(
            value=Decimal("0.08"), type=ValueType.DECIMAL, location=map_stmt.location
        )

    def test_every_node_is_located_inside_source(self):
        pipeline = parse(REFERENCE_PIPELINE)
        limit = len(REFERENCE_PIPELINE.encode("utf-8"))

        def walk(node):
            if isinstance(node, ast.Node):
                loc = getattr(node, "location", None)
                if loc is not None:
                    assert 0 <= loc.offset < limit
                    assert loc.line >= 1 and loc.column >= 1
                for name in node._field_names:
                    walk(getattr(node, name))
            elif isinstance(node, tuple):
                for item in node:
                    walk(item)

        walk(pipeline)

    def test_pipeline_with_no_inputs_reads_file(self):
        source = (
            'PIPELINE p:\n STEP s:\n  READ "data.json" AS JSON TABLE[a: INT] INTO t\n'
            " OUTPUT t"
        )
        pipeline = parse(source)
        assert pipeline.inputs == ()
        read = pipeline.steps[0].body[0]
        assert isinstance(read, ast.Read)
        assert read.format == "json"
        assert read.path == "data.json"


class TestNodeEquality:
    # locations take no part in equality or hashing
    HERE = SourceLocation(line=1, column=1, offset=0)
    THERE = SourceLocation(line=3, column=5, offset=20)

    def test_equal_nodes_at_different_locations_hash_equal(self):
        here = ast.ColumnRef(name="a", location=self.HERE)
        there = ast.ColumnRef(name="a", location=self.THERE)
        assert here == there and hash(here) == hash(there)
        assert len({here, there}) == 1

    def test_a_node_never_equals_one_of_another_class(self):
        literal = ast.Literal(value=1, type=ValueType.INT, location=self.HERE)
        column = ast.ColumnRef(name="a", location=self.HERE)
        assert literal.__eq__(column) is NotImplemented
        assert literal != column
        assert (literal == 1) is False


class TestStatementForms:
    def _body(self, statement: str, inputs="INPUT t: TABLE[a: INT, b: STRING]"):
        source = f"PIPELINE p:\n {inputs}\n STEP s:\n  {statement}\n OUTPUT t"
        return parse(source).steps[0].body[0]

    def test_select(self):
        stmt = self._body("SELECT t COLUMNS b, a INTO r")
        assert isinstance(stmt, ast.Select)
        assert stmt.columns == ("b", "a")

    def test_distinct(self):
        assert isinstance(self._body("DISTINCT t INTO r"), ast.Distinct)

    def test_rename(self):
        stmt = self._body("RENAME t COLUMN a TO c INTO r")
        assert (stmt.old_name, stmt.new_name) == ("a", "c")

    def test_drop(self):
        assert self._body("DROP t COLUMN a INTO r").column == "a"

    def test_add_column_literals(self):
        stmt = self._body('ADD_COLUMN t WITH c = "x" INTO r')
        assert stmt.value.value == "x"
        stmt = self._body("ADD_COLUMN t WITH c = -2.50 INTO r")
        assert stmt.value.value == Decimal("-2.50")
        stmt = self._body('ADD_COLUMN t WITH c = DATE "2024-05-01" INTO r')
        assert stmt.value.value == datetime.date(2024, 5, 1)

    def test_sort_directions(self):
        assert self._body("SORT t BY a ASC INTO r").descending is False
        assert self._body("SORT t BY a DESC INTO r").descending is True

    def test_limit_skip_slice(self):
        assert self._body("LIMIT t TO 10 INTO r").count == 10
        assert self._body("SKIP t FIRST 3 INTO r").count == 3
        sliced = self._body("SLICE t FROM 1 TO 3 INTO r")
        assert (sliced.start, sliced.stop) == (1, 3)

    def test_joins(self):
        stmt = self._body("JOIN t WITH u ON a == z INTO r")
        assert isinstance(stmt, ast.Join)
        assert (stmt.left_key, stmt.right_key) == ("a", "z")
        stmt = self._body("LEFT_JOIN t WITH u ON a == z INTO r")
        assert isinstance(stmt, ast.LeftJoin)

    def test_union(self):
        stmt = self._body("UNION t WITH u INTO r")
        assert (stmt.left, stmt.right) == ("t", "u")

    def test_io_statements(self):
        write = self._body('WRITE t TO "out.csv" AS CSV')
        assert write.format == "csv"
        fetch = self._body('FETCH "http://example.test/rows" TABLE[x: INT] INTO r')
        assert fetch.url == "http://example.test/rows"
        post = self._body('POST t TO "http://example.test/sink"')
        assert post.source == "t"

    def test_control_flow_blocks(self):
        stmt = self._body(
            "IF TRUE THEN FILTER t WHERE a > 0 INTO x "
            "ELSE FILTER t WHERE a < 0 INTO x END_IF"
        )
        assert isinstance(stmt, ast.If)
        assert len(stmt.then_body) == 1 and len(stmt.else_body) == 1

        stmt = self._body("FOR_EACH row IN t DO WHILE FALSE DO DISTINCT t INTO d END_WHILE END_FOR")
        assert isinstance(stmt, ast.ForEach)
        assert isinstance(stmt.body[0], ast.While)

        stmt = self._body(
            "TRY MAP t WITH c => a / 0 INTO x ON_ERROR ADD_COLUMN t WITH c = 0 INTO x END_TRY"
        )
        assert isinstance(stmt, ast.Try)

    def test_expression_precedence(self):
        stmt = self._body("FILTER t WHERE a + 2 * 3 > 4 AND NOT a < 0 OR b == \"x\" INTO r")
        predicate = stmt.predicate
        assert isinstance(predicate, ast.BoolOp) and predicate.op == "OR"
        left = predicate.left
        assert isinstance(left, ast.BoolOp) and left.op == "AND"
        cmp_left = left.left
        assert isinstance(cmp_left, ast.Comparison) and cmp_left.op == ">"
        assert isinstance(cmp_left.left, ast.BinaryOp) and cmp_left.left.op == "+"
        assert isinstance(cmp_left.left.right, ast.BinaryOp)
        assert cmp_left.left.right.op == "*"
        assert isinstance(left.right, ast.Not)

    def test_parenthesized_grouping_changes_shape(self):
        flat = self._body("MAP t WITH c => a + 2 * 3 INTO r").expr
        grouped = self._body("MAP t WITH c => (a + 2) * 3 INTO r").expr
        assert flat.op == "+" and grouped.op == "*"

    def test_unary_minus_binds_tighter_than_multiply(self):
        expr = self._body("MAP t WITH c => -a * 2 INTO r").expr
        assert expr.op == "*"
        assert isinstance(expr.left, ast.Neg)


def test_type_hints_resolve_on_every_node_class():
    classes = [
        obj for obj in vars(ast).values()
        if isinstance(obj, type) and issubclass(obj, ast.Node)
    ]
    assert ast.Literal in classes and ast.Union in classes and len(classes) > 30
    for cls in classes:
        hints = typing.get_type_hints(cls)
        assert set(hints) == set(cls._field_names)


class TestCanonicalForms:
    def test_exactly_one_production_per_statement_keyword(self):
        # the statement table in ast_nodes IS both the statement classes
        # and the grammar's statement productions: each class, control
        # flow included, is built from exactly one row and has exactly one
        # form, its fields are its form's field words in order, the
        # parser's keywords are the table's, and no statement has a
        # reader of its own
        from anka.grammar import STATEMENTS

        nodes = [
            ast.Filter, ast.Select, ast.Distinct, ast.Map, ast.Rename, ast.Drop,
            ast.AddColumn, ast.Aggregate, ast.Sort, ast.Limit, ast.Skip, ast.Slice,
            ast.Join, ast.LeftJoin, ast.Union, ast.Read, ast.Write, ast.Fetch, ast.Post,
            ast.If, ast.ForEach, ast.While, ast.Try,
        ]
        table_nodes = [node for node, _ in STATEMENTS.values()]
        for node in nodes:
            assert table_nodes.count(node) == 1, node
        assert len(table_nodes) == 23
        keywords = list(parser._FORMS)
        assert keywords == list(STATEMENTS)
        assert len(set(keywords)) == 23
        assert not hasattr(parser, "_CONTROL")
        assert not [name for name in vars(parser._Parser)
                    if name.startswith("_parse_") and name[7:].upper() in STATEMENTS]
        assert set(ast.Statement.__subclasses__()) == set(nodes)
        assert len(ast.Statement.__subclasses__()) == 23
        assert list(ast.STATEMENT_FORMS) == keywords
        for keyword, (node, _) in ast.STATEMENT_FORMS.items():
            assert STATEMENTS[keyword][0] is node
            assert node.__module__ == "anka.ast_nodes"
            assert node.__qualname__ == node.__name__
            assert getattr(ast, node.__name__) is node
            form = node.__doc__.split()
            assert form[0] == keyword
            names = list(node._field_names)
            assert names[0] == "location"
            assert names[1:] == [word.split(":")[0] for word in form[1:] if ":" in word]

    def test_alternate_spellings_are_rejected(self):
        # common near-miss forms must not be a second way in
        rejected = [
            "FILTER t WHERE a > 0 INTO r1 INTO r2",
            "SELECT a, b FROM t INTO r",           # column-first form
            "SORT t BY a INTO r",                  # direction is mandatory
            "LIMIT t 5 INTO r",                    # bare count
            "JOIN t WITH u ON a = z INTO r",       # single equals
            "MAP t WITH c = a + 1 INTO r",         # = instead of =>
            "ADD_COLUMN t WITH c => 1 INTO r",     # => instead of =
            "AGGREGATE t COMPUTE SUM(a) INTO r",   # missing AS alias
        ]
        for statement in rejected:
            source = (
                f"PIPELINE p:\n INPUT t: TABLE[a: INT, b: INT]\n STEP s:\n"
                f"  {statement}\n OUTPUT r"
            )
            with pytest.raises(ParseError):
                parse(source)


class TestParseErrors:
    def test_missing_into(self):
        source = "PIPELINE p:\n STEP s:\n  FILTER t WHERE a > 0\n OUTPUT r"
        with pytest.raises(ParseError) as err:
            parse(source)
        assert "INTO" in err.value.expected

    def test_error_location_is_precise(self):
        source = "PIPELINE p:\n STEP s:\n  FILTER WHERE a INTO r\n OUTPUT r"
        with pytest.raises(ParseError) as err:
            parse(source)
        assert err.value.location.line == 3
        assert err.value.location.column == 10

    def test_step_requires_statement(self):
        with pytest.raises(ParseError, match="a statement"):
            parse("PIPELINE p:\n STEP s:\n OUTPUT r")

    def test_pipeline_requires_step(self):
        with pytest.raises(ParseError) as err:
            parse("PIPELINE p:\n INPUT t: TABLE[a: INT]\n OUTPUT t")
        assert "STEP" in err.value.expected

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError, match="end of input"):
            parse(MINIMAL + " STEP")

    def test_chained_comparison_rejected(self):
        with pytest.raises(ParseError):
            parse(
                "PIPELINE p:\n STEP s:\n  FILTER t WHERE 1 < 2 < 3 INTO r\n OUTPUT r"
            )

    def test_missing_else_terminator(self):
        with pytest.raises(ParseError) as err:
            parse(
                "PIPELINE p:\n STEP s:\n  IF TRUE THEN DISTINCT t INTO x\n OUTPUT x"
            )
        assert "END_IF" in err.value.expected

    def test_invalid_date_literal(self):
        with pytest.raises(ParseError, match="DATE"):
            parse(
                'PIPELINE p:\n STEP s:\n  FILTER t WHERE a > DATE "2024-99-99" INTO r\n OUTPUT r'
            )

    def test_duplicate_schema_field(self):
        with pytest.raises(ParseError, match="duplicate field"):
            parse("PIPELINE p:\n INPUT t: TABLE[a: INT, a: INT]\n STEP s:\n  DISTINCT t INTO r\n OUTPUT r")

    def test_deep_nesting_is_an_error_not_a_crash(self):
        expr = "(" * 500 + "1" + ")" * 500
        with pytest.raises(ParseError, match="nesting too deep"):
            parse(f"PIPELINE p:\n STEP s:\n  FILTER t WHERE {expr} > 0 INTO r\n OUTPUT r")


class TestNestingLimit:
    """Every walker recurses along the tree, so its height is what the
    nesting limit bounds: operator chains count like parentheses."""

    @pytest.mark.parametrize(
        "expr",
        [
            " OR ".join(["a == a"] * 1000),
            " AND ".join(["a == a"] * 1000),
            " + ".join(["a"] * 600),
            " * ".join(["a"] * 1000),
            fuzzing.left_nested(20, 150),
            fuzzing.left_nested(60, 10),
            "UPPER(" * 98 + "s" + ")" * 98,
            "NOT " * 300 + "TRUE",
        ],
        ids=["or", "and", "plus", "times", "left-nested", "left-nested-short",
             "calls", "not"],
    )
    def test_deep_trees_are_a_parse_error(self, expr):
        with pytest.raises(ParseError, match="nesting too deep"):
            parse(fuzzing.nested_program(expr))

    @pytest.mark.parametrize(
        "build, deepest",
        [
            (lambda n: fuzzing.nested_program("(" * n + "a" + ")" * n), 99),
            (lambda n: fuzzing.nested_program("UPPER(" * n + "s" + ")" * n), 66),
            (lambda n: fuzzing.nested_program("NOT " * n + "TRUE"), 198),
            (lambda n: fuzzing.nested_program("-" * n + "a"), 198),
            (lambda n: fuzzing.nested_blocks("IF TRUE THEN", "END_IF", n), 199),
        ],
        ids=["parentheses", "calls", "not", "minus", "if"],
    )
    def test_deepest_admitted_input_works_deep_in_the_stack(self, build, deepest):
        # a caller's own frames must not turn an admitted input into a
        # RecursionError: parse, validate and format from 250 frames down
        def below(frames):
            if frames:
                return below(frames - 1)
            pipeline = parse(build(deepest))
            validate(pipeline)
            return format_ast(pipeline)

        assert parse(below(250)) == parse(build(deepest))
        with pytest.raises(ParseError, match="nesting too deep"):
            parse(build(deepest + 1))

    def test_tree_just_under_the_limit_parses_validates_formats_and_runs(self):
        table = make_table(
            schema_of(("a", ValueType.INT), ("s", ValueType.STRING)), [(1, "x")]
        )
        for expr, value in (
            (" OR ".join(["a == a"] * 190), True),
            (" + ".join(["a"] * 190), 190),
            ("UPPER(" * 60 + "s" + ")" * 60, "X"),
        ):
            pipeline = parse(fuzzing.nested_program(expr))
            assert validate(pipeline).ok
            assert parse(format_ast(pipeline)) == pipeline
            assert run_pipeline(pipeline, {"t": table}).rows == ((1, "x", value),)


def _parser_digest(texts) -> str:
    """SHA-256 over, for each text in turn, the located AST and the
    formatted source, or the ParseError's message, location and expected
    set."""
    digest = hashlib.sha256()
    for text in texts:
        try:
            pipeline = parse(text)
        except ParseError as err:
            loc = err.location
            record = ("error", err.message, loc.line, loc.column, loc.offset,
                      err.expected)
        else:
            record = (json.dumps(ast.ast_to_dict(pipeline)), format_ast(pipeline))
        digest.update(repr(record).encode("utf-8") + b"\0")
    return digest.hexdigest()


# Recorded from the parser and formatter that had one hand-written method
# or branch per statement; trees, errors and formatted text must not change.
PARSER_DIGESTS = {
    "corpus": "986c1b0c1f69538d90311188fad3e15ded56c5c4e30b167fd93e20b8092f560f",
    "edge": "47bce8bb4a280821b2dffd14508fccb6df7d8284fcbebb48eb38476995b4e1e9",
    "fixture": "d3bab6708b95cb4a77a3b229c9eb58faa4b1cb5f4d8b62c66439a9ecf86ce99e",
    "fuzz": "d5be4dda14ba02734f562381ecd3829fe43bd6910331abbd112d3ad09f4127b9",
    "generated": "10eaeeffdba67174ba108580df78e336a8fabd98261c358eee82e0bb6592ffc5",
    "nesting": "21de168359da51709b3e96d52b47e01dc55d40023986269907e9ddcca3805db3",
}


@pytest.mark.parametrize("name", sorted(PARSER_DIGESTS))
def test_parse_and_format_digest_unchanged(name):
    texts = {
        "corpus": fuzzing.corpus_sources,
        "fixture": fuzzing.fixture_sources,
        "fuzz": lambda: fuzzing.fuzz_inputs(10_000),
        "edge": fuzzing.lexer_edge_inputs,
        "nesting": fuzzing.nesting_inputs,
        "generated": lambda: [
            format_ast(rand_pipeline(random.Random(seed))[0]) for seed in range(300)
        ],
    }[name]()
    assert _parser_digest(texts) == PARSER_DIGESTS[name]


class TestTableTypeMemo:
    """Each distinct TABLE type is parsed once per process and its Schema
    shared; a parse that fails is never stored."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        parser._table_type.cache_clear()

    TYPE = "TABLE[k: INT, v: STRING]"

    def schemas(self, pipeline) -> list:
        return [decl.schema for decl in pipeline.inputs] + [
            stmt.schema for step in pipeline.steps for stmt in step.body
        ]

    def test_equal_types_share_one_schema_in_input_read_and_fetch(self):
        source = (
            f"PIPELINE p:\n INPUT t: {self.TYPE}\n STEP s:\n"
            f'  READ "in.csv" AS CSV {self.TYPE} INTO r\n'
            f'  FETCH "http://host.test/rows" {self.TYPE} INTO f\n OUTPUT f'
        )
        first, second = self.schemas(parse(source)), self.schemas(parse(source))
        assert first[0] == schema_of(("k", ValueType.INT), ("v", ValueType.STRING))
        assert len({id(schema) for schema in first + second}) == 1

    @pytest.mark.parametrize("name", ["corpus", "fixture", "fuzz"])
    def test_digests_are_the_same_cold_and_warm(self, name):
        texts = {
            "corpus": fuzzing.corpus_sources,
            "fixture": fuzzing.fixture_sources,
            "fuzz": lambda: fuzzing.fuzz_inputs(10_000),
        }[name]()
        assert _parser_digest(texts) == PARSER_DIGESTS[name]
        assert parser._table_type.cache_info().currsize > 0
        assert _parser_digest(texts) == PARSER_DIGESTS[name]

    @pytest.mark.parametrize("bad", [
        "TABLE[a: INT, a: INT]\n STEP s:\n  DISTINCT t INTO r\n OUTPUT r",
        "TABLE[a: INT\n INPUT u: TABLE[a: INT]\n STEP s:\n  DISTINCT t INTO r\n OUTPUT r",
        "TABLE[a: INT",
    ], ids=["duplicate-field", "cut-before-a-later-type", "cut-at-end"])
    def test_a_type_that_fails_raises_the_same_error_once_a_prefix_is_cached(self, bad):
        def error():
            with pytest.raises(ParseError) as caught:
                parse(f"PIPELINE p:\n INPUT t: {bad}")
            err = caught.value
            loc = err.location
            return err.message, loc.line, loc.column, loc.offset, err.expected

        cache_info = parser._table_type.cache_info
        cold = error()
        assert cache_info().currsize == 0
        parse(MINIMAL)  # caches TABLE[a: INT]
        cached = cache_info().currsize
        assert error() == cold
        assert cache_info().currsize == cached

    def test_memo_keeps_at_most_512_types(self):
        cache_info = parser._table_type.cache_info

        def parse_type(i):
            parse(f"PIPELINE p:\n INPUT t: TABLE[c{i}: INT]\n STEP s:\n  DISTINCT t INTO r\n"
                  " OUTPUT r")

        for i in range(512):
            parse_type(i)
        parse_type(0)  # used again just before the 513th type
        for i in range(512, 600):
            parse_type(i)
        assert cache_info().currsize == 512
        # the 88 least recently used, c1 through c88, were dropped
        hits, misses = cache_info().hits, cache_info().misses
        parse_type(0)
        assert (cache_info().hits, cache_info().misses) == (hits + 1, misses)
        parse_type(1)
        assert (cache_info().hits, cache_info().misses) == (hits + 1, misses + 1)
        assert cache_info().currsize == 512
