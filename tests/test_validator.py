"""Static analysis: inference rules, binding discipline, typing."""

import pytest

from anka.errors import ValidationKind
from anka.parser import parse
from anka.validator import ValidationException, typecheck_expr, validate
from anka.values import ValueType, schema_of

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
        assert env["with_tax"].schema == schema_of(
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
        assert env["orders"].provenance == "INPUT"
        assert env["summary"].provenance == "INTO"
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
        assert typecheck_expr(expr, schema) is ValueType.DECIMAL

    def test_comparison_yields_bool(self):
        assert typecheck_expr(self._expr("amount > 1000"), self.SCHEMA) is ValueType.BOOL

    def test_int_decimal_comparison_ok(self):
        assert typecheck_expr(self._expr("n > amount"), self.SCHEMA) is ValueType.BOOL

    def test_string_plus_int_rejected(self):
        with pytest.raises(ValidationException) as err:
            typecheck_expr(self._expr('s + 1 == 2'), self.SCHEMA)
        assert any(
            e.kind is ValidationKind.TYPE_MISMATCH and "STRING" in e.message
            for e in err.value.errors
        )

    def test_where_condition_must_be_bool(self):
        result = check(pipeline_with("FILTER t WHERE a + 1 INTO r"))
        assert kinds(result) == [ValidationKind.TYPE_MISMATCH]

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
