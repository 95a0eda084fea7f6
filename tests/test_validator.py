"""Static analysis: inference rules, binding discipline, typing."""

import datetime
import hashlib
import operator
import re
from decimal import Decimal

import pytest

from anka import ast_nodes as ast
from anka.builtins import AGGREGATES
from anka.errors import ParseError, ValidationKind
from anka.formatter import format_ast
from anka.interpreter import run_pipeline
from anka.io_adapters import IoAdapter
from anka.location import SourceLocation
from anka.parser import MAX_NESTING_DEPTH, parse
from anka.validator import ValidationException, validate
from anka.values import Schema, ValueType, cell_matches, make_table

import fuzzing
from builders import expression_type, schema_of

REFERENCE_PIPELINE = """
PIPELINE transform_sales:
    INPUT orders: TABLE[order_id: INT, customer: STRING, amount: DECIMAL, date: DATE]
    STEP filter_large:
        FILTER orders WHERE amount > 1000 INTO large_orders
    STEP add_tax:
        MAP large_orders WITH tax => amount * 0.08 INTO with_tax
    STEP summarize:
        AGGREGATE with_tax GROUP_BY customer
        COMPUTE SUM(amount) AS total, COUNT() AS num_orders INTO summary
    OUTPUT summary
"""


def check(source: str):
    return validate(parse(source))


def kinds(result):
    return [e.kind for e in result.errors]


def pipeline_with(statement: str, inputs="INPUT t: TABLE[a: INT, b: STRING]"):
    return f"PIPELINE p:\n {inputs}\n STEP s:\n  {statement}\n OUTPUT t"


class TestReferenceInference:
    def test_clean(self):
        result = check(REFERENCE_PIPELINE)
        assert result.ok

    def test_intermediate_schemas(self):
        result = check(REFERENCE_PIPELINE)
        env = result.environment
        assert env["with_tax"] == schema_of(
            ("order_id", ValueType.INT),
            ("customer", ValueType.STRING),
            ("amount", ValueType.DECIMAL),
            ("date", ValueType.DATE),
            ("tax", ValueType.DECIMAL),
        )
        assert result.output_schema == schema_of(
            ("customer", ValueType.STRING),
            ("total", ValueType.DECIMAL),
            ("num_orders", ValueType.INT),
        )

    def test_environment_provenance(self):
        env = check(REFERENCE_PIPELINE).environment
        assert tuple(env) == ("orders", "large_orders", "with_tax", "summary")

    def test_result_is_kept_on_the_pipeline(self):
        pipeline = parse(REFERENCE_PIPELINE)
        assert validate(pipeline) is validate(pipeline)
        # equal text parsed again is another object with its own result
        assert validate(parse(REFERENCE_PIPELINE)) is not validate(pipeline)


class TestBindingDiscipline:
    def test_rebinding_is_an_error(self):
        source = (
            "PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n"
            "  FILTER t WHERE a > 0 INTO big\n"
            "  FILTER t WHERE a > 1 INTO big\n OUTPUT big"
        )
        result = check(source)
        assert kinds(result) == [ValidationKind.DUPLICATE_BINDING]
        assert result.errors[0].location.line == 5

    def test_rebinding_an_input_is_an_error(self):
        result = check(pipeline_with("FILTER t WHERE a > 0 INTO t"))
        assert ValidationKind.DUPLICATE_BINDING in kinds(result)

    def test_unknown_dataset(self):
        result = check(pipeline_with("FILTER ghost WHERE a > 0 INTO r"))
        assert kinds(result) == [ValidationKind.UNKNOWN_DATASET]

    def test_unknown_column(self):
        result = check(pipeline_with("FILTER t WHERE missing_col > 1 INTO r"))
        assert kinds(result) == [ValidationKind.UNKNOWN_COLUMN]

    def test_output_undefined(self):
        source = "PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n  DISTINCT t INTO r\n OUTPUT ghost"
        result = check(source)
        assert kinds(result) == [ValidationKind.OUTPUT_UNDEFINED]

    def test_errors_are_collected_not_short_circuited(self):
        source = (
            "PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n"
            "  FILTER ghost WHERE a > 0 INTO x\n"
            "  FILTER t WHERE nope > 0 INTO y\n"
            "  DISTINCT t INTO y\n OUTPUT missing"
        )
        result = check(source)
        assert len(result.errors) == 4

    def test_poisoned_bindings_do_not_cascade(self):
        # x's schema is unknown (bad source), so uses of x stay quiet
        source = (
            "PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n"
            "  FILTER ghost WHERE a > 0 INTO x\n"
            "  FILTER x WHERE whatever > 0 INTO y\n OUTPUT y"
        )
        result = check(source)
        assert kinds(result) == [ValidationKind.UNKNOWN_DATASET]


class TestStatementRules:
    def test_select_unknown_and_duplicate(self):
        result = check(pipeline_with("SELECT t COLUMNS a, a INTO r"))
        assert ValidationKind.SCHEMA_MISMATCH in kinds(result)
        result = check(pipeline_with("SELECT t COLUMNS z INTO r"))
        assert ValidationKind.UNKNOWN_COLUMN in kinds(result)

    def test_map_cannot_overwrite(self):
        result = check(pipeline_with("MAP t WITH a => a + 1 INTO r"))
        assert ValidationKind.SCHEMA_MISMATCH in kinds(result)

    def test_drop_last_column_forbidden(self):
        result = check(
            pipeline_with("DROP t COLUMN a INTO r", inputs="INPUT t: TABLE[a: INT]")
        )
        assert kinds(result) == [ValidationKind.SCHEMA_MISMATCH]

    def test_rename_collision(self):
        result = check(pipeline_with("RENAME t COLUMN a TO b INTO r"))
        assert kinds(result) == [ValidationKind.SCHEMA_MISMATCH]

    def test_union_schema_mismatch(self):
        source = (
            "PIPELINE p:\n INPUT t: TABLE[a: INT]\n INPUT u: TABLE[a: STRING]\n"
            " STEP s:\n  UNION t WITH u INTO r\n OUTPUT r"
        )
        result = check(source)
        assert kinds(result) == [ValidationKind.SCHEMA_MISMATCH]

    def test_join_key_types_and_collisions(self):
        source = (
            "PIPELINE p:\n INPUT t: TABLE[k: INT, v: STRING]\n"
            " INPUT u: TABLE[kk: STRING, w: STRING]\n"
            " STEP s:\n  JOIN t WITH u ON k == kk INTO r\n OUTPUT r"
        )
        assert kinds(check(source)) == [ValidationKind.TYPE_MISMATCH]
        source = (
            "PIPELINE p:\n INPUT t: TABLE[k: INT, v: STRING]\n"
            " INPUT u: TABLE[kk: INT, v: STRING]\n"
            " STEP s:\n  JOIN t WITH u ON k == kk INTO r\n OUTPUT r"
        )
        assert kinds(check(source)) == [ValidationKind.SCHEMA_MISMATCH]

    def test_join_numeric_keys_cross_type_ok(self):
        source = (
            "PIPELINE p:\n INPUT t: TABLE[k: INT, v: STRING]\n"
            " INPUT u: TABLE[kk: DECIMAL, w: STRING]\n"
            " STEP s:\n  JOIN t WITH u ON k == kk INTO r\n OUTPUT r"
        )
        assert check(source).ok

    def test_negative_bounds_rejected(self):
        assert kinds(check(pipeline_with("LIMIT t TO -1 INTO r"))) == [
            ValidationKind.TYPE_MISMATCH
        ]
        assert kinds(check(pipeline_with("SKIP t FIRST -2 INTO r"))) == [
            ValidationKind.TYPE_MISMATCH
        ]
        assert kinds(check(pipeline_with("SLICE t FROM -1 TO 2 INTO r"))) == [
            ValidationKind.TYPE_MISMATCH
        ]

    def test_aggregate_rules(self):
        result = check(pipeline_with("AGGREGATE t COMPUTE SUM(b) AS s INTO r"))
        assert kinds(result) == [ValidationKind.TYPE_MISMATCH]  # SUM of STRING
        result = check(
            pipeline_with("AGGREGATE t GROUP_BY b COMPUTE COUNT() AS b INTO r")
        )
        assert kinds(result) == [ValidationKind.SCHEMA_MISMATCH]  # alias collides
        result = check(pipeline_with("AGGREGATE t COMPUTE MIN(b) AS low INTO r"))
        assert result.ok  # MIN on STRING is allowed

    def test_read_binds_declared_schema(self):
        source = (
            'PIPELINE p:\n STEP s:\n  READ "x.json" AS JSON TABLE[a: INT] INTO t\n'
            " OUTPUT t"
        )
        result = check(source)
        assert result.ok
        assert result.output_schema == schema_of(("a", ValueType.INT))

    def test_write_requires_known_source(self):
        source = 'PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n  WRITE ghost TO "x.json" AS JSON\n OUTPUT t'
        assert kinds(check(source)) == [ValidationKind.UNKNOWN_DATASET]


class TestExpressionTyping:
    SCHEMA = schema_of(
        ("amount", ValueType.DECIMAL), ("n", ValueType.INT), ("s", ValueType.STRING)
    )

    def _expr(self, text: str):
        source = pipeline_with(
            f"FILTER t WHERE {text} INTO r",
            inputs="INPUT t: TABLE[amount: DECIMAL, n: INT, s: STRING]",
        )
        return parse(source).steps[0].body[0].predicate

    def test_arithmetic_promotion(self):
        map_src = pipeline_with(
            "MAP t WITH c => amount * 0.08 INTO r",
            inputs="INPUT t: TABLE[amount: DECIMAL]",
        )
        pipeline = parse(map_src)
        expr = pipeline.steps[0].body[0].expr
        schema = pipeline.inputs[0].schema
        assert expression_type(expr, schema) is ValueType.DECIMAL

    def test_comparison_yields_bool(self):
        assert expression_type(self._expr("amount > 1000"), self.SCHEMA) is ValueType.BOOL

    def test_int_decimal_comparison_ok(self):
        assert expression_type(self._expr("n > amount"), self.SCHEMA) is ValueType.BOOL

    def test_string_plus_int_rejected(self):
        with pytest.raises(ValidationException) as err:
            expression_type(self._expr('s + 1 == 2'), self.SCHEMA)
        assert any(
            e.kind is ValidationKind.TYPE_MISMATCH and "STRING" in e.message
            for e in err.value.errors
        )

    def test_where_condition_must_be_bool(self):
        result = check(pipeline_with("FILTER t WHERE a + 1 INTO r"))
        assert kinds(result) == [ValidationKind.TYPE_MISMATCH]

    def test_negated_unknown_column_is_one_diagnostic(self):
        # the unknown operand is reported, and the negation adds no
        # type mismatch of its own
        result = check(pipeline_with("MAP t WITH n => -nope INTO r"))
        assert [(e.kind, e.message) for e in result.errors] == [
            (ValidationKind.UNKNOWN_COLUMN, "unknown column 'nope'")
        ]

    def test_unknown_function(self):
        result = check(pipeline_with("FILTER t WHERE FROB(a) INTO r"))
        assert kinds(result) == [ValidationKind.TYPE_MISMATCH]

    def test_builtin_arity_and_types(self):
        result = check(pipeline_with('FILTER t WHERE LENGTH(b, b) > 0 INTO r'))
        assert kinds(result) == [ValidationKind.TYPE_MISMATCH]
        result = check(pipeline_with("FILTER t WHERE LENGTH(a) > 0 INTO r"))
        assert kinds(result) == [ValidationKind.TYPE_MISMATCH]
        result = check(pipeline_with("FILTER t WHERE LENGTH(b) > 0 INTO r"))
        assert result.ok

    @pytest.mark.parametrize("cast", ["TO_INT", "TO_DECIMAL"])
    @pytest.mark.parametrize("arg, type_name", [("f", "BOOL"), ("TRUE", "BOOL"), ("d", "DATE")])
    def test_casts_reject_bool_and_date(self, cast, arg, type_name):
        # the casts' implementations rely on this: they handle only
        # STRING, INT and DECIMAL
        result = check(
            pipeline_with(
                f"MAP t WITH c => {cast}({arg}) INTO r",
                inputs="INPUT t: TABLE[f: BOOL, d: DATE]",
            )
        )
        assert kinds(result) == [ValidationKind.TYPE_MISMATCH]
        assert f"{cast} expects DECIMAL/INT/STRING, got {type_name}" in result.errors[0].message

    def test_statement_schemas_are_recorded_by_node(self):
        pipeline = parse(pipeline_with("SELECT t COLUMNS b, a INTO r"))
        result = validate(pipeline)
        stmt = pipeline.steps[0].body[0]
        assert result.sources[id(stmt)] == [pipeline.inputs[0].schema]
        assert result.outputs[id(stmt)] == schema_of(
            ("b", ValueType.STRING), ("a", ValueType.INT)
        )


class TestControlFlowScoping:
    def test_if_binding_must_cover_both_branches(self):
        source = pipeline_with(
            "IF TRUE THEN FILTER t WHERE a > 0 INTO x ELSE DISTINCT t INTO y END_IF "
            "DISTINCT x INTO z"
        )
        result = check(source)
        assert kinds(result) == [ValidationKind.UNKNOWN_DATASET]

    def test_if_binding_in_both_branches_is_visible(self):
        source = pipeline_with(
            "IF TRUE THEN FILTER t WHERE a > 0 INTO x ELSE DISTINCT t INTO x END_IF "
            "DISTINCT x INTO z"
        )
        assert check(source).ok

    def test_if_branches_binding_different_schemas(self):
        source = pipeline_with(
            "IF TRUE THEN SELECT t COLUMNS a INTO x ELSE SELECT t COLUMNS b INTO x END_IF"
        )
        result = check(source)
        assert kinds(result) == [ValidationKind.SCHEMA_MISMATCH]
        assert result.errors[0].message == (
            "'x' is bound with different schemas in the IF branches"
        )

    def test_try_and_on_error_binding_different_schemas(self):
        source = pipeline_with(
            "TRY SELECT t COLUMNS a INTO x ON_ERROR SELECT t COLUMNS b INTO x END_TRY"
        )
        result = check(source)
        assert kinds(result) == [ValidationKind.SCHEMA_MISMATCH]
        assert result.errors[0].message == (
            "'x' is bound with different schemas in TRY and ON_ERROR"
        )

    def test_condition_must_be_scalar_bool(self):
        result = check(pipeline_with("IF a > 0 THEN DISTINCT t INTO x END_IF"))
        assert kinds(result) == [ValidationKind.UNKNOWN_COLUMN]
        result = check(pipeline_with('IF 1 + 1 THEN DISTINCT t INTO x END_IF'))
        assert kinds(result) == [ValidationKind.TYPE_MISMATCH]

    def test_for_each_row_scope_allows_columns(self):
        source = pipeline_with(
            "FOR_EACH row IN t DO "
            'IF a > 0 THEN POST t TO "http://x.test/" END_IF '
            "END_FOR"
        )
        assert check(source).ok

    @pytest.mark.parametrize(
        "prelude, source, first",
        [
            ("", "nope", "unknown dataset 'nope'"),
            ("SELECT t COLUMNS zz INTO bad ", "bad", "unknown column 'zz' in 't'"),
        ],
        ids=["unknown", "poisoned"],
    )
    def test_columns_under_an_unresolved_for_each_are_not_reported(
        self, prelude, source, first
    ):
        result = check(pipeline_with(
            f"{prelude}FOR_EACH r IN {source} DO "
            "IF a > 1 THEN DISTINCT t INTO x END_IF "
            "WHILE b < 2 AND NOT c DO DISTINCT t INTO y END_WHILE "
            "END_FOR"
        ))
        assert [e.message for e in result.errors] == [first]

    def test_loop_bindings_do_not_escape(self):
        source = pipeline_with(
            "FOR_EACH row IN t DO DISTINCT t INTO inner END_FOR DISTINCT inner INTO out"
        )
        result = check(source)
        assert kinds(result) == [ValidationKind.UNKNOWN_DATASET]
        source = pipeline_with(
            "WHILE FALSE DO DISTINCT t INTO inner END_WHILE DISTINCT inner INTO out"
        )
        result = check(source)
        assert kinds(result) == [ValidationKind.UNKNOWN_DATASET]

    def test_try_intersection_rule(self):
        source = pipeline_with(
            "TRY MAP t WITH c => a / 0 INTO x ON_ERROR ADD_COLUMN t WITH c = 0 INTO x END_TRY "
            "DISTINCT x INTO y"
        )
        assert check(source).ok
        source = pipeline_with(
            "TRY MAP t WITH c => a / 0 INTO x ON_ERROR DISTINCT t INTO other END_TRY "
            "DISTINCT x INTO y"
        )
        result = check(source)
        assert kinds(result) == [ValidationKind.UNKNOWN_DATASET]

    def test_branch_local_rebinding_still_checked(self):
        source = pipeline_with(
            "IF TRUE THEN FILTER t WHERE a > 0 INTO t ELSE DISTINCT t INTO x END_IF"
        )
        result = check(source)
        assert ValidationKind.DUPLICATE_BINDING in kinds(result)

    @pytest.mark.parametrize(
        "opening, between, closing",
        [("IF TRUE THEN", "ELSE", "END_IF"), ("TRY", "ON_ERROR", "END_TRY")],
        ids=["IF", "TRY"],
    )
    def test_a_name_poisoned_in_either_branch_stays_poisoned(self, opening, between, closing):
        # the merge must not depend on which branch is written first: a
        # later reference to the poisoned name reports nothing further
        bad, good = "MAP t WITH c => nope INTO x", "DISTINCT t INTO x"

        def diagnostics(first, second):
            result = check(pipeline_with(
                f"{opening} {first} {between} {second} {closing} "
                "FILTER x WHERE zzz > 1 INTO y"
            ))
            assert result.environment["x"] is None
            return [(e.kind, e.message) for e in result.errors]

        assert diagnostics(bad, good) == diagnostics(good, bad) == [
            (ValidationKind.UNKNOWN_COLUMN, "unknown column 'nope'")
        ]

    def test_branch_bindings_stay_in_their_branch(self):
        # each branch binds into its own copy of the enclosing scope
        for statement in (
            "IF TRUE THEN DISTINCT t INTO x ELSE DISTINCT x INTO y END_IF",
            "TRY DISTINCT t INTO x ON_ERROR DISTINCT x INTO y END_TRY",
        ):
            result = check(pipeline_with(statement))
            assert kinds(result) == [ValidationKind.UNKNOWN_DATASET]


class TestLiveness:
    def test_dies_names_each_bindings_last_toucher(self):
        pipeline = parse(
            "PIPELINE p:\n INPUT t: TABLE[a: INT, b: STRING]\n STEP s:\n"
            "  FILTER t WHERE a > 0 INTO pos\n"
            "  DISTINCT t INTO unread\n"
            "  IF TRUE THEN\n"
            "    DISTINCT pos INTO x\n"
            "    DISTINCT pos INTO only_then\n"
            "  ELSE\n"
            "    DISTINCT t INTO x\n"
            "  END_IF\n"
            " STEP loops:\n"
            "  FOR_EACH row IN x DO\n"
            "    WHILE FALSE DO\n"
            "      DISTINCT pos INTO loop_local\n"
            "    END_WHILE\n"
            "  END_FOR\n"
            "  TRY DISTINCT x INTO result ON_ERROR DISTINCT t INTO result END_TRY\n"
            '  POST x TO "http://out.test/"\n'
            " OUTPUT result"
        )
        result = validate(pipeline)
        assert result.ok
        top = [stmt for step in pipeline.steps for stmt in step.body]
        # reads and binds anywhere inside a control statement count against
        # it; the input and the OUTPUT name never die, and the last
        # statement releases nothing, since the run ends there
        assert [result.dies.get(id(stmt), ()) for stmt in top] == [
            (),
            ("unread",),
            ("only_then",),
            ("pos", "loop_local"),
            (),
            (),
        ]
        assert set(result.dies) == {id(stmt) for stmt in top[1:4]}


def derivation_chain(length: int) -> str:
    """A pipeline of ``length`` MAP, ADD_COLUMN, RENAME and DROP statements
    in turn, each reading the one before; it gains a column every four."""
    statements = []
    for n in range(length):
        source, target = f"t{n}", f"t{n + 1}"
        statements.append([
            f"MAP {source} WITH m{n} => a + 1 INTO {target}",
            f'ADD_COLUMN {source} WITH c{n} = "x" INTO {target}',
            f"RENAME {source} COLUMN c{n - 1} TO r{n} INTO {target}",
            f"DROP {source} COLUMN r{n - 1} INTO {target}",
        ][n % 4])
    body = "\n  ".join(statements)
    return f"PIPELINE p:\n INPUT t0: TABLE[a: INT, b: STRING]\n STEP s:\n  {body}\n OUTPUT t{length}"


class TestCompileCost:
    def test_derived_schemas_build_no_schema(self, monkeypatch):
        # a count, not a timing: a statement that adds, renames or drops
        # one column derives its schema from its source's
        built = []
        construct = Schema.__init__

        def counting(self, fields):
            built.append(1)
            construct(self, fields)

        counts = []
        for length in (100, 300):
            pipeline = parse(derivation_chain(length))
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(Schema, "__init__", counting)
                result = validate(pipeline)
            assert result.ok
            assert len(result.output_schema) == 2 + length // 4
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_selected_and_grouped_columns_reuse_the_source_fields(self):
        pipeline = parse(
            "PIPELINE p:\n INPUT t: TABLE[a: INT, b: STRING, c: DATE]\n STEP s:\n"
            "  SELECT t COLUMNS c, a INTO r\n"
            "  AGGREGATE t GROUP_BY b COMPUTE COUNT() AS n INTO g\n OUTPUT r"
        )
        result = validate(pipeline)
        select, aggregate = pipeline.steps[0].body
        a, b, c = pipeline.inputs[0].schema.fields
        assert result.outputs[id(select)].fields == (c, a)
        assert all(map(operator.is_, result.outputs[id(select)].fields, (c, a)))
        assert result.outputs[id(aggregate)].fields[0] is b


def _with_first_statement(pipeline, build):
    """``pipeline`` with its first statement replaced by ``build(it)``."""
    step = pipeline.steps[0]
    body = (build(step.body[0]),) + step.body[1:]
    return pipeline._replace(steps=(step._replace(body=body),) + pipeline.steps[1:])


def _plus_chain(pipeline, terms: int):
    """``a + 1 + ... + 1`` as the MAP of ``pipeline``, built through the
    AST API, each node at its own location."""
    expr = ast.ColumnRef(name="a", location=SourceLocation(1, 1))
    for column in range(2, terms + 1):
        one = ast.Literal(value=1, type=ValueType.INT, location=SourceLocation(2, column))
        expr = ast.BinaryOp(op="+", left=expr, right=one, location=SourceLocation(1, column))
    return _with_first_statement(pipeline, lambda stmt: stmt._replace(expr=expr)), expr


class TestNestingBound:
    """A tree built through the AST API is not bounded by the parser; the
    validator reports one past its bound instead of recursing into it."""

    MAP = pipeline_with("MAP t WITH c => a + 1 INTO r")

    @pytest.mark.parametrize("terms", [1_000, 100_000])
    def test_long_chain_is_one_diagnostic(self, terms):
        pipeline, root = _plus_chain(parse(self.MAP), terms)
        # the MAP is level 1 and the root level 2: the first node past
        # the bound is the root's 199th left descendant
        node = root
        for _ in range(MAX_NESTING_DEPTH - 1):
            node = node.left
        result = validate(pipeline)
        assert [(e.kind, e.message) for e in result.errors] == [
            (ValidationKind.TYPE_MISMATCH, "nesting too deep")
        ]
        assert result.errors[0].location == node.location
        with pytest.raises(ValidationException, match="nesting too deep"):
            run_pipeline(pipeline, {})

    @pytest.mark.parametrize("construct", ["IF", "TRY"])
    def test_deep_nest_is_one_diagnostic(self, construct):
        nest = []  # innermost first: nest[-k] is k levels deep

        def wrap(stmt):
            for line in range(1, 1_001):
                location = SourceLocation(line, 1)
                if construct == "IF":
                    condition = ast.Literal(value=True, type=ValueType.BOOL,
                                            location=SourceLocation(line, 4))
                    stmt = ast.If(condition=condition, then_body=(stmt,), else_body=(),
                                  location=location)
                else:
                    stmt = ast.Try(body=(stmt,), handler=(), location=location)
                nest.append(stmt)
            return stmt

        pipeline = _with_first_statement(parse(pipeline_with("DISTINCT t INTO r")), wrap)
        result = validate(pipeline)
        assert [(e.kind, e.message) for e in result.errors] == [
            (ValidationKind.TYPE_MISMATCH, "nesting too deep")
        ]
        # the first node past the bound: the condition of the IF at the
        # bound, one level below it; a TRY has none, so the TRY past it
        if construct == "IF":
            first = nest[-MAX_NESTING_DEPTH].condition
        else:
            first = nest[-MAX_NESTING_DEPTH - 1]
        assert result.errors[0].location == first.location
        with pytest.raises(ValidationException, match="nesting too deep"):
            run_pipeline(pipeline, {})

    def test_chain_at_the_bound_validates(self):
        # the MAP and 199 expression levels: a + 1 + ... with 199 terms
        pipeline, _ = _plus_chain(parse(self.MAP), MAX_NESTING_DEPTH - 1)
        assert validate(pipeline).ok
        pipeline, _ = _plus_chain(parse(self.MAP), MAX_NESTING_DEPTH)
        assert [e.message for e in validate(pipeline).errors] == ["nesting too deep"]

    @pytest.mark.parametrize("whiles", [MAX_NESTING_DEPTH - 1, MAX_NESTING_DEPTH])
    def test_statement_past_the_bound_is_not_inferred(self, whiles):
        nest = []  # innermost first

        def wrap(stmt):
            for line in range(101, 101 + whiles):
                condition = ast.Literal(value=True, type=ValueType.BOOL,
                                        location=SourceLocation(line, 7))
                stmt = ast.While(condition=condition, body=(stmt,),
                                 location=SourceLocation(line, 1))
                nest.append(stmt)
            return stmt

        source = pipeline_with("FILTER t WHERE nope > 0 INTO r")
        pipeline = _with_first_statement(parse(source), wrap)
        filter_, = nest[0].body
        result = validate(pipeline)
        assert [(e.kind, e.message) for e in result.errors] == [
            (ValidationKind.TYPE_MISMATCH, "nesting too deep")
        ]
        if whiles == MAX_NESTING_DEPTH:
            # the FILTER sits past the bound, under the innermost WHILE's
            # condition, which is reported: the FILTER binds no schema
            assert result.errors[0].location == nest[0].condition.location
            assert result.outputs[id(filter_)] is None
        else:
            # one WHILE fewer: the FILTER is inferred, and its condition
            # is the node past the bound
            assert result.errors[0].location == filter_.predicate.location
            assert result.outputs[id(filter_)] == schema_of(
                ("a", ValueType.INT), ("b", ValueType.STRING)
            )
        with pytest.raises(ValidationException, match="nesting too deep"):
            run_pipeline(pipeline, {})

    def test_parsed_trees_stay_within_the_bound(self):
        parsed = 0
        for source in fuzzing.nesting_inputs():
            try:
                pipeline = parse(source)
            except ParseError:
                continue
            parsed += 1
            messages = [e.message for e in validate(pipeline).errors]
            assert "nesting too deep" not in messages, source
        assert parsed


class TestApiOnlyTrees:
    """Trees the parser cannot build but the AST API can: each is
    reported, so that ``run_pipeline`` refuses it rather than failing
    with a Python error or a table without a schema."""

    @pytest.mark.parametrize(
        "value, vtype",
        [
            (None, ValueType.INT),
            ("x", ValueType.INT),
            (True, ValueType.INT),
            (2**63, ValueType.INT),
            (1, ValueType.DECIMAL),
            (Decimal("NaN"), ValueType.DECIMAL),
        ],
        ids=["null", "string", "bool", "out-of-range", "int-as-decimal", "nan"],
    )
    def test_literal_that_its_type_does_not_hold(self, value, vtype):
        literal = ast.Literal(value=value, type=vtype, location=SourceLocation(2, 7))
        pipeline = _with_first_statement(
            parse(pipeline_with("MAP t WITH c => a + 1 INTO r")),
            lambda stmt: stmt._replace(expr=stmt.expr._replace(right=literal)),
        )
        result = validate(pipeline)
        assert [(e.kind, e.location) for e in result.errors] == [
            (ValidationKind.TYPE_MISMATCH, literal.location)
        ]
        assert result.errors[0].message.endswith(f" is not of type {vtype.value}")
        table = make_table(schema_of(("a", ValueType.INT), ("b", ValueType.STRING)), [])
        with pytest.raises(ValidationException, match="is not of type"):
            run_pipeline(pipeline, {"t": table})

    @pytest.mark.parametrize(
        "statement, empty, message",
        [
            ("SELECT t COLUMNS a INTO r", {"columns": ()}, "SELECT yields no column"),
            (
                "AGGREGATE t GROUP_BY a COMPUTE COUNT() AS n INTO r",
                {"group_by": (), "computes": ()},
                "AGGREGATE yields no column",
            ),
        ],
        ids=["select", "aggregate"],
    )
    def test_statement_with_no_output_column(self, statement, empty, message):
        source = f"PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n  {statement}\n OUTPUT r"
        pipeline = _with_first_statement(parse(source), lambda stmt: stmt._replace(**empty))
        result = validate(pipeline)
        assert [(e.kind, e.message, e.location.line) for e in result.errors] == [
            (ValidationKind.SCHEMA_MISMATCH, message, 4)
        ]
        table = make_table(schema_of(("a", ValueType.INT)), [(1,)])
        with pytest.raises(ValidationException, match=message):
            run_pipeline(pipeline, {"t": table})

    @pytest.mark.parametrize(
        "statement, build",
        [
            ('READ "x.json" AS JSON TABLE[a: INT] INTO r', lambda s: s._replace(format="xml")),
            ('WRITE t TO "x.csv" AS CSV', lambda s: s._replace(format="xml")),
            ("MAP t WITH c => a + 1 INTO r",
             lambda s: s._replace(expr=ast.Expr(location=SourceLocation(4, 18)))),
            ("DISTINCT t INTO r", lambda s: ast.Statement(location=SourceLocation(4, 3))),
        ],
        ids=["read-format", "write-format", "bare-expr", "bare-statement"],
    )
    def test_node_or_format_outside_the_language(self, statement, build):
        source = f"PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n  {statement}\n OUTPUT t"
        pipeline = _with_first_statement(parse(source), build)
        node = pipeline.steps[0].body[0]
        result = validate(pipeline)
        message = {
            ast.Read: "unknown table format 'xml'",
            ast.Write: "unknown table format 'xml'",
            ast.Map: "unknown expression Expr",
            ast.Statement: "unknown statement Statement",
        }[type(node)]
        assert [(e.kind, e.message, e.location) for e in result.errors] == [
            (ValidationKind.TYPE_MISMATCH, message, getattr(node, "expr", node).location)
        ]
        # an adapter that may read and write, so only validation stops the run
        table = make_table(schema_of(("a", ValueType.INT)), [(1,)])
        with pytest.raises(ValidationException, match=message):
            run_pipeline(pipeline, {"t": table}, IoAdapter(sandbox=False))

    @pytest.mark.parametrize(
        "statement, field, value, message",
        [
            ("SORT t BY a DESC INTO r", "descending", "yes",
             "SORT descending must be bool, got 'yes'"),
            ("LIMIT t TO 1 INTO r", "count", "1", "LIMIT count must be int, got '1'"),
            ("ADD_COLUMN t WITH c = 1 INTO r", "value", None,
             "ADD_COLUMN value must be Literal, got None"),
            ("SLICE t FROM 0 TO 2 INTO r", "start", 1.5, "SLICE start must be int, got 1.5"),
            ("SKIP t FIRST 1 INTO r", "count", True, "SKIP count must be int, got True"),
        ],
        ids=["sort-descending", "limit-count", "add-column-value", "slice-start", "skip-count"],
    )
    def test_field_of_another_python_type(self, statement, field, value, message):
        source = f"PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n  {statement}\n OUTPUT r"
        pipeline = _with_first_statement(parse(source), lambda s: s._replace(**{field: value}))
        result = validate(pipeline)
        assert [(e.kind, e.message, e.location.line) for e in result.errors] == [
            (ValidationKind.TYPE_MISMATCH, message, 4)
        ]
        table = make_table(schema_of(("a", ValueType.INT)), [(1,), (2,)])
        with pytest.raises(ValidationException, match=re.escape(message)):
            run_pipeline(pipeline, {"t": table})


# One column of each type, named after it, with two rows of values and a
# row of nulls.
_EACH_TYPE = schema_of(*((vtype.value.lower(), vtype) for vtype in ValueType))
_EACH_TYPE_ROWS = [
    (3, "b", Decimal("1.5"), True, datetime.date(2024, 1, 2),
     datetime.datetime(2024, 1, 2, 3, 4, 5)),
    (5, "a", Decimal("2.25"), False, datetime.date(2024, 1, 1),
     datetime.datetime(2024, 1, 1, 0, 0, 0)),
    (None,) * len(ValueType),
]


class TestAggregateTable:
    """``builtins.AGGREGATES`` against the validator and the run: each
    function accepts the column types its row gives and yields its row's
    result type; nothing else validates."""

    @staticmethod
    def _source(compute: str) -> str:
        decl = ", ".join(f"{f.name}: {f.type.value}" for f in _EACH_TYPE.fields)
        return (f"PIPELINE p:\n INPUT t: TABLE[{decl}]\n STEP s:\n"
                f"  AGGREGATE t COMPUTE {compute} AS x INTO r\n OUTPUT r")

    @pytest.mark.parametrize("fn", list(AGGREGATES))
    @pytest.mark.parametrize("column", list(ValueType), ids=lambda t: t.value)
    def test_each_function_on_each_column_type(self, fn, column):
        function = AGGREGATES[fn]
        arg = column.value.lower() if function.params else ""
        pipeline = parse(self._source(f"{fn}({arg})"))
        assert parse(format_ast(pipeline)) == pipeline
        result = validate(pipeline)
        if function.params and column not in function.params[0]:
            assert [(e.kind, e.location.line) for e in result.errors] == [
                (ValidationKind.TYPE_MISMATCH, 4)
            ]
            return
        assert result.ok
        result_type = function.result or column
        assert result.output_schema == schema_of(("x", result_type))
        for rows in (_EACH_TYPE_ROWS, []):
            (cell,) = run_pipeline(pipeline, {"t": make_table(_EACH_TYPE, rows)}).rows[0]
            # an empty group is null, but for COUNT, which counts no rows
            assert (cell is None) == (not rows and bool(function.params))
            assert cell is None or cell_matches(cell, result_type)

    @pytest.mark.parametrize(
        "compute, spec, message",
        [
            ("SUM(int)", {"fn": "MEDIAN"}, "unknown aggregate function 'MEDIAN'"),
            ("COUNT()", {"arg": "int"}, "COUNT takes 0 argument(s), got 1"),
            ("SUM(int)", {"arg": None}, "SUM takes 1 argument(s), got 0"),
        ],
        ids=["unknown", "count-with-argument", "sum-without-argument"],
    )
    def test_ast_built_spec_outside_the_table(self, compute, spec, message):
        pipeline = _with_first_statement(
            parse(self._source(compute)),
            lambda stmt: stmt._replace(computes=(stmt.computes[0]._replace(**spec),)),
        )
        location = pipeline.steps[0].body[0].computes[0].location
        assert [(e.kind, e.message, e.location) for e in validate(pipeline).errors] == [
            (ValidationKind.TYPE_MISMATCH, message, location)
        ]
        with pytest.raises(ValidationException, match=re.escape(message)):
            run_pipeline(pipeline, {"t": make_table(_EACH_TYPE, _EACH_TYPE_ROWS)})


_TWO_INPUTS = "INPUT t: TABLE[a: INT, b: STRING]\n INPUT u: TABLE[k: INT, b: DATE]"

# One program per rule at least, several rules firing in one statement
# where a statement checks more than one, so their order is pinned too.
RULE_CASES = [
    pipeline_with("SORT t BY z DESC INTO r"),
    pipeline_with("SELECT t COLUMNS z, a, a, y INTO r"),
    pipeline_with("RENAME t COLUMN z TO y INTO r"),
    pipeline_with("RENAME t COLUMN a TO b INTO r"),
    pipeline_with("RENAME t COLUMN a TO a INTO r"),
    pipeline_with("DROP t COLUMN z INTO r"),
    pipeline_with("DROP t COLUMN a INTO r", inputs="INPUT t: TABLE[a: INT]"),
    pipeline_with("MAP t WITH a => z + 1 INTO r"),
    pipeline_with("MAP t WITH c => z + 1 INTO r"),
    pipeline_with('ADD_COLUMN t WITH b = "x" INTO r'),
    pipeline_with("LIMIT t TO -1 INTO r"),
    pipeline_with("SKIP t FIRST -2 INTO r"),
    pipeline_with("SLICE t FROM 3 TO -1 INTO r"),
    pipeline_with("AGGREGATE t GROUP_BY z, b, b COMPUTE COUNT() AS b, SUM(y) AS s INTO r"),
    pipeline_with("AGGREGATE t COMPUTE SUM(b) AS s, AVG(b) AS v, COUNT() AS s INTO r"),
    pipeline_with("AGGREGATE t COMPUTE MIN(f) AS lo, MAX(f) AS hi, MIN(a) AS m INTO r",
                  inputs="INPUT t: TABLE[a: INT, f: BOOL]"),
    pipeline_with("JOIN t WITH u ON z == y INTO r", inputs=_TWO_INPUTS),
    pipeline_with("LEFT_JOIN t WITH u ON a == b INTO r", inputs=_TWO_INPUTS),
    pipeline_with("JOIN t WITH u ON a == k INTO r", inputs=_TWO_INPUTS),
    pipeline_with("UNION t WITH u INTO r", inputs=_TWO_INPUTS),
    pipeline_with("UNION t WITH ghost INTO r"),
    pipeline_with("FILTER t WHERE a INTO r"),
    pipeline_with("FILTER t WHERE b OR a > 0 AND 1 INTO r"),
    pipeline_with("FILTER t WHERE NOT a AND -b == 1 OR a + b INTO r"),
    pipeline_with("FILTER t WHERE a > DATE \"2024-01-01\" INTO r"),
    pipeline_with("FILTER t WHERE UPPER(b, b) == b AND LENGTH(a) > FROB(z) INTO r"),
    pipeline_with("IF 1 THEN DISTINCT t INTO x END_IF"),
    pipeline_with("IF a > 0 THEN DISTINCT t INTO x END_IF"),
    pipeline_with("WHILE 2.5 DO DISTINCT t INTO x END_WHILE"),
    pipeline_with("FOR_EACH row IN t DO WHILE b DO DISTINCT t INTO y END_WHILE END_FOR"),
    pipeline_with("IF TRUE THEN SELECT t COLUMNS a INTO x ELSE SELECT t COLUMNS b INTO x END_IF"),
    pipeline_with("TRY SELECT t COLUMNS a INTO x ON_ERROR SELECT t COLUMNS b INTO x END_TRY"),
    pipeline_with('WRITE ghost TO "x.json" AS JSON'),
    pipeline_with("DISTINCT t INTO t"),
    "PIPELINE p:\n INPUT t: TABLE[a: INT]\n INPUT t: TABLE[b: INT]\n"
    " STEP s:\n  DISTINCT t INTO r\n OUTPUT ghost",
]


def _validator_digest(texts, skipped: str = "") -> str:
    """SHA-256 over, for each text in turn, each diagnostic's kind,
    message, line and column in order and the output schema, or a
    marker for a text that does not parse. Diagnostics whose message
    holds a non-empty ``skipped`` are left out."""
    digest = hashlib.sha256()
    for text in texts:
        try:
            pipeline = parse(text)
        except ParseError:
            record = ("parse error",)
        else:
            result = validate(pipeline)
            diagnostics = [(e.kind.value, e.message, e.location.line, e.location.column)
                           for e in result.errors if not skipped or skipped not in e.message]
            record = (diagnostics, repr(result.output_schema))
        digest.update(repr(record).encode("utf-8") + b"\0")
    return digest.hexdigest()


# Recorded from the validator that wrote each rule out once per statement
# in an isinstance chain; no diagnostic may change. The "mutants" entry was
# recorded again when a name poisoned in either IF or TRY branch became
# poisoned after the merge: six mutants' output schema became None. It was
# recorded again when column references under a FOR_EACH over an unknown or
# poisoned dataset stopped being reported: 70 diagnostics left 54 mutants.
# "mutants_no_row_scope" leaves out every "referenced outside row scope"
# diagnostic, so it reads the same from the validators before and after
# that change: no other diagnostic moved.
VALIDATOR_DIGESTS = {
    "mutants": "498d30248538fd15cc7d6cec006d26c68c9d52e5f700b39c64500d5e4285c4ae",
    "mutants_no_row_scope": "498d30248538fd15cc7d6cec006d26c68c9d52e5f700b39c64500d5e4285c4ae",
    "rules": "3a22df32d7306a966d1e48e9f8f861e1780b82dc622074abfeca16e48f49a197",
}


@pytest.mark.parametrize("name", sorted(VALIDATOR_DIGESTS))
def test_validator_digest_unchanged(name):
    texts = RULE_CASES if name == "rules" else fuzzing.semantic_mutants()
    skipped = "referenced outside row scope" if name == "mutants_no_row_scope" else ""
    assert _validator_digest(texts, skipped) == VALIDATOR_DIGESTS[name]
