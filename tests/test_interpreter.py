"""Interpreter semantics: operations, expressions, control flow."""

import datetime
import weakref
from decimal import Decimal

import pytest

from anka import interpreter
from anka.builtins import MAX_STRING_LENGTH
from anka.errors import (
    AssertionFailed,
    ConversionError,
    DivisionByZero,
    HttpError,
    InputError,
    IoError,
    TableError,
    ValidationKind,
)
from anka.interpreter import run_pipeline
from anka.io_adapters import IoAdapter
from anka.parser import parse
from anka.validator import ValidationException, validate
from anka.values import (
    ARITHMETIC_KERNELS,
    Table,
    ValueType as VT,
    make_table,
    schema_of,
    table_equal,
)

D = Decimal


def run(source: str, inputs=None, **kwargs):
    pipeline = parse(source)
    result = validate(pipeline)
    assert result.ok, result.errors
    return run_pipeline(pipeline, inputs or {}, **kwargs)


def simple(statements: str, table: Table, input_name="t", **kwargs) -> Table:
    decl = ", ".join(f"{f.name}: {f.type.value}" for f in table.schema.fields)
    source = (
        f"PIPELINE p:\n INPUT {input_name}: TABLE[{decl}]\n STEP s:\n"
        f"  {statements}\n OUTPUT result"
    )
    return run(source, {input_name: table}, **kwargs)


AMOUNTS = make_table(
    schema_of(("amount", VT.INT)), [(1500,), (800,), (2000,)]
)

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

ORDERS = make_table(
    schema_of(
        ("order_id", VT.INT),
        ("customer", VT.STRING),
        ("amount", VT.DECIMAL),
        ("date", VT.DATE),
    ),
    [
        (1, "alice", D("1500.00"), datetime.date(2024, 1, 1)),
        (2, "bob", D("800.00"), datetime.date(2024, 1, 2)),
        (3, "alice", D("2000.00"), datetime.date(2024, 1, 3)),
    ],
)


class TestReferencePipeline:
    def test_end_to_end_result(self):
        out = run(REFERENCE_PIPELINE, {"orders": ORDERS})
        expected = make_table(
            schema_of(
                ("customer", VT.STRING), ("total", VT.DECIMAL), ("num_orders", VT.INT)
            ),
            [("alice", D("3500.00"), 2)],
        )
        assert table_equal(out, expected)

    def test_inputs_not_mutated(self):
        before = ORDERS.rows
        run(REFERENCE_PIPELINE, {"orders": ORDERS})
        assert ORDERS.rows == before

    def test_missing_input_rejected_before_execution(self):
        with pytest.raises(InputError, match="missing input"):
            run(REFERENCE_PIPELINE, {})

    def test_undeclared_input_rejected(self):
        extra = make_table(schema_of(("a", VT.INT)), [])
        with pytest.raises(InputError) as err:
            run(REFERENCE_PIPELINE, {"orders": ORDERS, "x": extra})
        assert str(err.value) == "unexpected input table 'x'"

    def test_mismatched_input_schema_rejected(self):
        bad = make_table(schema_of(("order_id", VT.INT)), [(1,)])
        with pytest.raises(InputError, match="schema"):
            run(REFERENCE_PIPELINE, {"orders": bad})


class TestFilterAndMap:
    def test_filter_keeps_matching_rows_in_order(self):
        out = simple("FILTER t WHERE amount > 1000 INTO result", AMOUNTS)
        assert out.rows == ((1500,), (2000,))

    def test_filter_true_is_identity(self):
        out = simple("FILTER t WHERE TRUE INTO result", AMOUNTS)
        assert out.rows == AMOUNTS.rows

    def test_filter_false_empties_but_keeps_schema(self):
        out = simple("FILTER t WHERE FALSE INTO result", AMOUNTS)
        assert out.rows == () and out.schema == AMOUNTS.schema

    def test_filter_on_empty_table(self):
        empty = make_table(AMOUNTS.schema, [])
        out = simple("FILTER t WHERE amount > 1000 INTO result", empty)
        assert out.rows == () and out.schema == AMOUNTS.schema

    def test_null_predicate_drops_row(self):
        table = make_table(schema_of(("amount", VT.INT)), [(10,), (None,), (30,)])
        out = simple("FILTER t WHERE amount > 0 INTO result", table)
        assert out.rows == ((10,), (30,))

    def test_map_appends_exact_decimal_column(self):
        table = make_table(
            schema_of(("amount", VT.DECIMAL)), [(D("1500.00"),), (D("2000.00"),)]
        )
        out = simple("MAP t WITH tax => amount * 0.08 INTO result", table)
        assert out.schema.names() == ("amount", "tax")
        assert [str(r[1]) for r in out.rows] == ["120.0000", "160.0000"]

    def test_map_constant_over_empty_table(self):
        empty = make_table(schema_of(("amount", VT.INT)), [])
        out = simple("MAP t WITH one => 1 INTO result", empty)
        assert out.rows == () and out.schema.names() == ("amount", "one")

    def test_map_null_propagates(self):
        table = make_table(schema_of(("amount", VT.INT)), [(None,), (2,)])
        out = simple("MAP t WITH double => amount * 2 INTO result", table)
        assert out.column("double") == (None, 4)

    def test_division_by_zero_carries_location(self):
        table = make_table(schema_of(("amount", VT.INT)), [(1,)])
        with pytest.raises(DivisionByZero) as err:
            simple("MAP t WITH bad => 1 / 0 INTO result", table)
        assert err.value.location is not None


class TestRowOperations:
    def test_sort_asc(self):
        table = make_table(schema_of(("a", VT.INT)), [(3,), (1,), (2,)])
        out = simple("SORT t BY a ASC INTO result", table)
        assert out.rows == ((1,), (2,), (3,))

    def test_sort_stable_with_duplicate_keys(self):
        table = make_table(
            schema_of(("k", VT.INT), ("tag", VT.STRING)), [(1, "x"), (1, "y")]
        )
        out = simple("SORT t BY k ASC INTO result", table)
        assert out.rows == ((1, "x"), (1, "y"))
        out = simple("SORT t BY k DESC INTO result", table)
        assert out.rows == ((1, "x"), (1, "y"))

    def test_sort_nulls_last_both_directions(self):
        table = make_table(schema_of(("a", VT.INT)), [(None,), (2,), (1,), (None,)])
        asc = simple("SORT t BY a ASC INTO result", table)
        assert asc.rows == ((1,), (2,), (None,), (None,))
        desc = simple("SORT t BY a DESC INTO result", table)
        assert desc.rows == ((2,), (1,), (None,), (None,))

    def test_limit_beyond_size_is_identity(self):
        out = simple("LIMIT t TO 99 INTO result", AMOUNTS)
        assert out.rows == AMOUNTS.rows

    def test_skip_and_slice(self):
        table = make_table(schema_of(("a", VT.STRING)), [("a",), ("b",), ("c",), ("d",)])
        assert simple("SKIP t FIRST 2 INTO result", table).rows == (("c",), ("d",))
        assert simple("SLICE t FROM 1 TO 3 INTO result", table).rows == (("b",), ("c",))
        assert simple("SLICE t FROM 3 TO 1 INTO result", table).rows == ()

    def test_distinct_keeps_first_occurrence(self):
        table = make_table(
            schema_of(("a", VT.INT), ("b", VT.STRING)),
            [(1, "x"), (2, "y"), (1, "x"), (None, None), (None, None)],
        )
        out = simple("DISTINCT t INTO result", table)
        assert out.rows == ((1, "x"), (2, "y"), (None, None))

    def test_select_projects_and_reorders(self):
        table = make_table(
            schema_of(("a", VT.INT), ("b", VT.STRING)), [(1, "x"), (2, "y")]
        )
        out = simple("SELECT t COLUMNS b, a INTO result", table)
        assert out.schema.names() == ("b", "a")
        assert out.rows == (("x", 1), ("y", 2))

    def test_rename_drop_add_column(self):
        table = make_table(
            schema_of(("a", VT.INT), ("b", VT.STRING)), [(1, "x")]
        )
        out = simple("RENAME t COLUMN a TO z INTO result", table)
        assert out.schema.names() == ("z", "b")
        out = simple("DROP t COLUMN b INTO result", table)
        assert out.schema.names() == ("a",) and out.rows == ((1,),)
        out = simple("ADD_COLUMN t WITH note = \"hi\" INTO result", table)
        assert out.rows == ((1, "x", "hi"),)


class TestJoins:
    LEFT = make_table(schema_of(("k", VT.INT), ("l", VT.STRING)), [(1, "a"), (2, "b")])
    RIGHT = make_table(
        schema_of(("rk", VT.INT), ("r", VT.STRING)), [(2, "x"), (2, "y"), (9, "z")]
    )

    def _join(self, kind: str, left=LEFT, right=RIGHT, **kwargs) -> Table:
        source = (
            "PIPELINE p:\n INPUT t: TABLE[k: INT, l: STRING]\n"
            " INPUT u: TABLE[rk: INT, r: STRING]\n STEP s:\n"
            f"  {kind} t WITH u ON k == rk INTO result\n OUTPUT result"
        )
        return run(source, {"t": left, "u": right}, **kwargs)

    def test_inner_join_order_and_matches(self):
        out = self._join("JOIN")
        assert out.schema.names() == ("k", "l", "r")
        assert out.rows == ((2, "b", "x"), (2, "b", "y"))

    def test_left_join_pads_unmatched(self):
        out = self._join("LEFT_JOIN")
        assert out.rows == ((1, "a", None), (2, "b", "x"), (2, "b", "y"))

    def test_null_keys_never_match(self):
        left = make_table(schema_of(("k", VT.INT)), [(None,), (1,)])
        right = make_table(schema_of(("rk", VT.INT), ("r", VT.STRING)), [(None, "n")])
        source = (
            "PIPELINE p:\n INPUT t: TABLE[k: INT]\n INPUT u: TABLE[rk: INT, r: STRING]\n"
            " STEP s:\n  LEFT_JOIN t WITH u ON k == rk INTO result\n OUTPUT result"
        )
        out = run(source, {"t": left, "u": right})
        assert out.rows == ((None, None), (1, None))

    @pytest.mark.parametrize(
        "left_type, left_keys, right_type, right_keys",
        [
            (VT.INT, [2, 3], VT.DECIMAL, [D("2.00"), D("3.01")]),
            (VT.DECIMAL, [D("2.5"), D("3")], VT.DECIMAL, [D("2.50"), D("3.1")]),
        ],
    )
    def test_int_and_decimal_keys_match_exactly(
        self, left_type, left_keys, right_type, right_keys
    ):
        left = make_table(schema_of(("k", left_type)), [(k,) for k in left_keys])
        right = make_table(
            schema_of(("rk", right_type), ("r", VT.STRING)),
            [(k, str(k)) for k in right_keys],
        )
        source = (
            f"PIPELINE p:\n INPUT t: TABLE[k: {left_type.value}]\n"
            f" INPUT u: TABLE[rk: {right_type.value}, r: STRING]\n"
            " STEP s:\n  JOIN t WITH u ON k == rk INTO result\n OUTPUT result"
        )
        out = run(source, {"t": left, "u": right})
        assert out.rows == ((left_keys[0], str(right_keys[0])),)

    def test_duplicate_and_null_keys_keep_left_then_right_order(self):
        left = make_table(
            schema_of(("k", VT.INT), ("l", VT.STRING)),
            [(2, "a"), (1, "b"), (None, "n"), (7, "c"), (2, "d")],
        )
        right = make_table(
            schema_of(("rk", VT.INT), ("r", VT.STRING)),
            [(2, "x"), (1, "y"), (None, "m"), (2, "z")],
        )
        # null keys on either side match nothing; LEFT_JOIN pads the left ones
        matched = ((2, "a", "x"), (2, "a", "z"), (1, "b", "y"))
        tail = ((2, "d", "x"), (2, "d", "z"))
        assert self._join("JOIN", left, right).rows == matched + tail
        padded = ((None, "n", None), (7, "c", None))
        assert self._join("LEFT_JOIN", left, right).rows == matched + padded + tail

    def test_join_past_row_limit_raises(self):
        left = make_table(schema_of(("k", VT.INT), ("l", VT.STRING)), [(1, "a")] * 10)
        right = make_table(schema_of(("rk", VT.INT), ("r", VT.STRING)), [(1, "x")] * 10)
        for kind in ("JOIN", "LEFT_JOIN"):
            assert len(self._join(kind, left, right, max_rows=100)) == 100
            with pytest.raises(AssertionFailed, match="row limit"):
                self._join(kind, left, right, max_rows=99)

    def test_join_row_limit_error_names_the_statement(self):
        table = make_table(schema_of(("k", VT.INT)), [(1,)] * 10)
        for kind in ("JOIN", "LEFT_JOIN"):
            source = (
                "PIPELINE p:\n INPUT t: TABLE[k: INT]\n STEP s:\n"
                f"  {kind} t WITH t ON k == k INTO result\n OUTPUT result"
            )
            with pytest.raises(AssertionFailed, match="row limit of 5") as err:
                run(source, {"t": table}, max_rows=5)
            location = err.value.location
            assert (location.line, location.column) == (4, 3), kind

    def test_left_join_padding_alone_crosses_the_row_limit(self):
        # no key matches, so every output row is a padded one
        left = make_table(schema_of(("k", VT.INT)), [(i,) for i in range(6)])
        right = make_table(schema_of(("rk", VT.INT), ("r", VT.STRING)), [(-1, "x")])
        source = (
            "PIPELINE p:\n INPUT t: TABLE[k: INT]\n INPUT u: TABLE[rk: INT, r: STRING]\n"
            " STEP s:\n  LEFT_JOIN t WITH u ON k == rk INTO result\n OUTPUT result"
        )
        inputs = {"t": left, "u": right}
        assert run(source, inputs, max_rows=6).rows == tuple((i, None) for i in range(6))
        with pytest.raises(AssertionFailed, match="row limit of 5") as err:
            run(source, inputs, max_rows=5)
        location = err.value.location
        assert (location.line, location.column) == (5, 3)

    def test_join_past_deadline_raises(self, monkeypatch):
        class SteppingClock:
            """Stands in for the time module: each reading is 1 s later."""

            now = 0.0

            def monotonic(self):
                self.now += 1.0
                return self.now

        # the statement reads the clock once (1 s), then the join reads it
        # before each of its three left rows (2 s, 3 s, 4 s)
        left = make_table(
            schema_of(("k", VT.INT), ("l", VT.STRING)), [(i, "a") for i in range(3)]
        )
        right = make_table(schema_of(("rk", VT.INT), ("r", VT.STRING)), [(-1, "x")])
        for deadline in (1.5, 3.5):
            monkeypatch.setattr(interpreter, "time", SteppingClock())
            with pytest.raises(AssertionFailed, match="time limit"):
                self._join("JOIN", left, right, deadline=deadline)
        monkeypatch.setattr(interpreter, "time", SteppingClock())
        assert len(self._join("JOIN", left, right, deadline=4.5)) == 0

    def test_union_concatenates(self):
        source = (
            "PIPELINE p:\n INPUT t: TABLE[k: INT]\n INPUT u: TABLE[k: INT]\n"
            " STEP s:\n  UNION t WITH u INTO result\n OUTPUT result"
        )
        a = make_table(schema_of(("k", VT.INT)), [(1,), (2,)])
        b = make_table(schema_of(("k", VT.INT)), [(2,), (3,)])
        out = run(source, {"t": a, "u": b})
        assert out.rows == ((1,), (2,), (2,), (3,))


class TestAggregate:
    def test_group_sum_first_appearance_order(self):
        table = make_table(
            schema_of(("customer", VT.STRING), ("amount", VT.INT)),
            [("alice", 10), ("bob", 20), ("alice", 30)],
        )
        out = simple(
            "AGGREGATE t GROUP_BY customer COMPUTE SUM(amount) AS total INTO result",
            table,
        )
        assert out.rows == (("alice", 40), ("bob", 20))

    def test_count_on_empty_table_without_groups(self):
        empty = make_table(schema_of(("amount", VT.INT)), [])
        out = simple("AGGREGATE t COMPUTE COUNT() AS n INTO result", empty)
        assert out.rows == ((0,),)

    def test_sum_of_empty_group_is_null(self):
        empty = make_table(schema_of(("amount", VT.INT)), [])
        out = simple("AGGREGATE t COMPUTE SUM(amount) AS s INTO result", empty)
        assert out.rows == ((None,),)

    def test_aggregates_skip_nulls_and_count_rows(self):
        table = make_table(schema_of(("amount", VT.INT)), [(1,), (None,), (3,)])
        out = simple(
            "AGGREGATE t COMPUTE COUNT() AS n, SUM(amount) AS s, MIN(amount) AS lo, "
            "MAX(amount) AS hi, AVG(amount) AS mean INTO result",
            table,
        )
        assert out.rows == ((3, 4, 1, 3, D("2.0000")),)

    def test_min_over_all_null_group_is_null(self):
        table = make_table(schema_of(("amount", VT.INT)), [(None,), (None,)])
        out = simple("AGGREGATE t COMPUTE MIN(amount) AS lo INTO result", table)
        assert out.rows == ((None,),)

    def test_avg_scale_follows_operands(self):
        table = make_table(schema_of(("v", VT.DECIMAL)), [(D("1.50"),), (D("2.51"),)])
        out = simple("AGGREGATE t COMPUTE AVG(v) AS mean INTO result", table)
        assert str(out.rows[0][0]) == "2.005000"

    def test_null_group_keys_group_together(self):
        table = make_table(
            schema_of(("k", VT.STRING), ("v", VT.INT)),
            [(None, 1), ("a", 2), (None, 3)],
        )
        out = simple(
            "AGGREGATE t GROUP_BY k COMPUTE SUM(v) AS s INTO result", table
        )
        assert out.rows == ((None, 4), ("a", 2))

    def test_sum_overflow_is_conversion_error(self):
        table = make_table(
            schema_of(("v", VT.INT)), [(2**63 - 1,), (1,)]
        )
        with pytest.raises(ConversionError, match="overflow"):
            simple("AGGREGATE t COMPUTE SUM(v) AS s INTO result", table)


class TestExpressions:
    def _expr(self, expr: str, table=None):
        table = table or make_table(schema_of(("n", VT.INT)), [(7,)])
        out = simple(f"MAP t WITH c => {expr} INTO result", table)
        return out.rows[0][-1]

    def test_int_division_truncates(self):
        assert self._expr("n / 2") == 3
        assert self._expr("0 - n / 2") == -3

    def test_upper_lower_trim_length(self):
        table = make_table(schema_of(("s", VT.STRING)), [("  abc  ",)])
        assert self._expr("UPPER(s)", table) == "  ABC  "
        assert self._expr("LOWER(\"AbC\")", table) == "abc"
        assert self._expr("TRIM(s)", table) == "abc"
        assert self._expr("LENGTH(TRIM(s))", table) == 3

    def test_substring_zero_based(self):
        table = make_table(schema_of(("s", VT.STRING)), [("hello",)])
        assert self._expr("SUBSTRING(s, 1, 3)", table) == "ell"
        assert self._expr("SUBSTRING(s, 4, 10)", table) == "o"

    def test_substring_negative_is_conversion_error(self):
        table = make_table(schema_of(("s", VT.STRING)), [("hello",)])
        with pytest.raises(ConversionError):
            self._expr("SUBSTRING(s, 0 - 1, 3)", table)

    def test_replace_and_concat(self):
        table = make_table(schema_of(("s", VT.STRING)), [("a-b-c",)])
        assert self._expr('REPLACE(s, "-", "+")', table) == "a+b+c"
        assert self._expr('CONCAT(s, "!")', table) == "a-b-c!"

    def test_string_length_cap(self):
        half = make_table(schema_of(("s", VT.STRING)), [("a" * (MAX_STRING_LENGTH // 2),)])
        assert len(self._expr("CONCAT(s, s)", half)) == MAX_STRING_LENGTH
        assert len(self._expr('REPLACE(s, "a", "aa")', half)) == MAX_STRING_LENGTH
        for expr in ('CONCAT(CONCAT(s, s), "b")', 'REPLACE(CONCAT(s, "b"), "a", "aa")'):
            with pytest.raises(AssertionFailed, match="STRING length limit") as info:
                self._expr(expr, half)
            # located at the outer call, the one whose result is too long
            assert (info.value.location.line, info.value.location.column) == (4, 19)

    def test_nested_replace_stops_at_the_string_cap(self):
        # each call doubles the string: 40 calls would build 2**40 characters
        expr = "s"
        for _ in range(40):
            expr = f'REPLACE({expr}, "a", "aa")'
        table = make_table(schema_of(("s", VT.STRING)), [("a",)])
        with pytest.raises(AssertionFailed, match="REPLACE result of 1048576 characters"):
            self._expr(expr, table)

    def test_casts(self):
        assert self._expr('TO_INT("42")') == 42
        assert self._expr("TO_INT(9.99)") == 9
        assert self._expr("TO_INT(0.0 - 9.99)") == -9
        assert self._expr('TO_DECIMAL("2.50")') == D("2.50")
        assert self._expr("TO_STRING(n)") == "7"
        assert self._expr("TO_STRING(TRUE)") == "true"

    def test_cast_failure(self):
        with pytest.raises(ConversionError):
            self._expr('TO_INT("nope")')

    def test_cast_text_grammar(self):
        assert self._expr('TO_INT(" -12\\n")') == -12  # casts strip whitespace
        assert self._expr('TO_DECIMAL(" 1E+3 ")') == D(1000)
        for expr in ('TO_INT("١٢")', 'TO_INT("1_000")', 'TO_DECIMAL("١٫٥")'):
            with pytest.raises(ConversionError):
                self._expr(expr)

    @pytest.mark.parametrize(
        "expr, fallback",
        [
            (f'TO_INT("{"9" * 5000}")', "-1"),
            (f'TO_DECIMAL("{"9" * 5000}")', "-1.0"),
            ('TO_DECIMAL("1E+99")', "-1.0"),
            ('TO_DECIMAL("1e999999")', "-1.0"),
            ('TO_INT(TO_STRING(TO_DECIMAL("1E+30")))', "-1"),
        ],
        ids=["int-5000-digits", "decimal-5000-digits", "1E+99", "1e999999", "1E+30"],
    )
    def test_cast_out_of_range_is_catchable(self, expr, fallback):
        with pytest.raises(ConversionError):
            self._expr(expr)
        table = make_table(schema_of(("n", VT.INT)), [(7,)])
        out = simple(
            f"TRY MAP t WITH c => {expr} INTO result "
            f"ON_ERROR ADD_COLUMN t WITH c = {fallback} INTO result END_TRY",
            table,
        )
        assert out.rows == ((7, D(fallback)),)

    def test_date_parts(self):
        table = make_table(
            schema_of(("d", VT.DATE), ("ts", VT.DATETIME)),
            [(datetime.date(2024, 5, 17), datetime.datetime(2023, 2, 3, 4, 5, 6))],
        )
        assert self._expr("YEAR(d)", table) == 2024
        assert self._expr("MONTH(d)", table) == 5
        assert self._expr("DAY(d)", table) == 17
        assert self._expr("YEAR(ts)", table) == 2023

    def test_builtin_null_propagation(self):
        table = make_table(schema_of(("s", VT.STRING)), [(None,)])
        assert self._expr("UPPER(s)", table) is None
        assert self._expr("LENGTH(s)", table) is None

    def test_three_valued_logic(self):
        table = make_table(
            schema_of(("a", VT.INT), ("flag", VT.BOOL)),
            [(None, True), (None, False), (1, True)],
        )
        out = simple("FILTER t WHERE a > 0 AND flag INTO result", table)
        assert out.rows == ((1, True),)
        # null OR true is true: row with null a survives via flag
        out = simple("FILTER t WHERE a > 0 OR flag INTO result", table)
        assert out.rows == ((None, True), (1, True))
        # NOT null is null, so the row stays dropped
        out = simple("FILTER t WHERE NOT (a > 0) INTO result", table)
        assert out.rows == ()

    def test_comparisons_across_numeric_types(self):
        table = make_table(schema_of(("d", VT.DECIMAL)), [(D("2.0"),)])
        assert self._expr("d == 2", table) is True
        assert self._expr("d < 3", table) is True

    def test_string_and_date_comparisons(self):
        table = make_table(
            schema_of(("s", VT.STRING), ("d", VT.DATE)),
            [("b", datetime.date(2024, 1, 2))],
        )
        assert self._expr('s > "a"', table) is True
        assert self._expr('d > DATE "2024-01-01"', table) is True


class TestControlFlow:
    def test_if_then_branch_binding_visible(self):
        table = make_table(schema_of(("a", VT.INT)), [(1,), (-1,)])
        out = simple(
            "IF TRUE THEN FILTER t WHERE a > 0 INTO result "
            "ELSE FILTER t WHERE a < 0 INTO result END_IF",
            table,
        )
        assert out.rows == ((1,),)

    def test_if_else_branch_taken(self):
        table = make_table(schema_of(("a", VT.INT)), [(1,), (-1,)])
        out = simple(
            "IF FALSE THEN FILTER t WHERE a > 0 INTO result "
            "ELSE FILTER t WHERE a < 0 INTO result END_IF",
            table,
        )
        assert out.rows == ((-1,),)

    def test_try_swallows_error_and_binds_handler_result(self):
        table = make_table(schema_of(("a", VT.INT)), [(1,)])
        out = simple(
            "TRY MAP t WITH c => 1 / 0 INTO result "
            "ON_ERROR ADD_COLUMN t WITH c = -1 INTO result END_TRY",
            table,
        )
        assert out.rows == ((1, -1),)

    def test_try_happy_path_keeps_body_binding(self):
        table = make_table(schema_of(("a", VT.INT)), [(4,)])
        out = simple(
            "TRY MAP t WITH c => a / 2 INTO result "
            "ON_ERROR ADD_COLUMN t WITH c = -1 INTO result END_TRY",
            table,
        )
        assert out.rows == ((4, 2),)

    def test_try_discards_partial_bindings_on_error(self):
        # the body binds partial state and then fails; the handler's
        # result wins and the partial binding is gone afterwards
        table = make_table(schema_of(("a", VT.INT)), [(1,), (-2,)])
        source = (
            "PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n"
            "  TRY\n"
            "    FILTER t WHERE a > 0 INTO result\n"
            "    MAP result WITH c => 1 / 0 INTO broken\n"
            "  ON_ERROR\n"
            "    DISTINCT t INTO result\n"
            "  END_TRY\n"
            " OUTPUT result"
        )
        out = run(source, {"t": table})
        assert out.rows == ((1,), (-2,))

    def test_while_false_runs_zero_iterations(self):
        table = make_table(schema_of(("a", VT.INT)), [(1,)])
        out = simple(
            "WHILE FALSE DO DISTINCT t INTO ignored END_WHILE DISTINCT t INTO result",
            table,
        )
        assert out.rows == ((1,),)

    def test_while_iteration_cap(self):
        table = make_table(schema_of(("a", VT.INT)), [(1,)])
        with pytest.raises(AssertionFailed, match="iteration cap"):
            simple(
                "WHILE TRUE DO DISTINCT t INTO ignored END_WHILE "
                "DISTINCT t INTO result",
                table,
                while_cap=50,
            )

    def test_for_each_runs_body_per_row(self):
        table = make_table(schema_of(("a", VT.INT)), [(1,), (5,), (2,)])
        # IF over row columns picks rows one at a time; POST is sandboxed
        # so TRY gives each iteration an observable effect instead
        source = (
            "PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n"
            "  FOR_EACH row IN t DO\n"
            "    IF a > 1 THEN\n"
            "      DISTINCT t INTO scratch\n"
            "    END_IF\n"
            "  END_FOR\n"
            "  DISTINCT t INTO result\n"
            " OUTPUT result"
        )
        out = run(source, {"t": table})
        assert out.rows == table.rows

    def test_deadline_stops_long_loop(self):
        import time

        table = make_table(schema_of(("a", VT.INT)), [(1,)])
        with pytest.raises(AssertionFailed, match="time limit"):
            simple(
                "WHILE TRUE DO DISTINCT t INTO x END_WHILE DISTINCT t INTO result",
                table,
                deadline=time.monotonic() + 0.05,
            )

    def test_deadline_stops_within_one_row_of_work(self, monkeypatch):
        # Self-JOINs on a constant key multiply the rows, then each row
        # pays for nested REPLACE calls. Time here advances 1 s per call,
        # so the work done after the deadline is the calls made past it.
        class WorkClock:
            now = 0.0

            def monotonic(self):
                return self.now

        clock = WorkClock()
        late_calls = []

        def replace_taking_a_second(name, args):
            clock.now += 1.0
            if clock.now > deadline:
                late_calls.append(name)
            return call_builtin(name, args)

        call_builtin = interpreter.call_builtin
        monkeypatch.setattr(interpreter, "time", clock)
        monkeypatch.setattr(interpreter, "call_builtin", replace_taking_a_second)
        table = make_table(schema_of(("k", VT.INT), ("s", VT.STRING)), [(1, "x")] * 4)
        nested = "s"
        for _ in range(3):
            nested = f'REPLACE({nested}, "x", "xx")'
        deadline = 100.5  # inside the 34th of 64 rows, three calls each
        with pytest.raises(AssertionFailed, match="time limit"):
            simple(
                "SELECT t COLUMNS k INTO keys "
                "JOIN t WITH keys ON k == k INTO once "
                "JOIN once WITH keys ON k == k INTO twice "
                f"MAP twice WITH grown => {nested} INTO result",
                table,
                deadline=deadline,
            )
        assert 0 < len(late_calls) <= 3

    def test_max_rows_guard(self):
        table = make_table(schema_of(("a", VT.INT)), [(1,)] * 10)
        source = (
            "PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n"
            "  UNION t WITH t INTO result\n OUTPUT result"
        )
        pipeline = parse(source)
        assert validate(pipeline).ok
        with pytest.raises(AssertionFailed, match="row limit"):
            run_pipeline(pipeline, {"t": table}, max_rows=15)


class SteppingClock:
    """Stands in for the time module: each reading is 1 s later."""

    now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


class RefusingClock:
    """Stands in for the time module and fails the run if it is read."""

    def monotonic(self):
        raise RuntimeError("the clock was read")


THREE_ROWS = make_table(
    schema_of(("k", VT.INT), ("s", VT.STRING)), [(1, "a"), (2, "b"), (3, "c")]
)


class TestDeadlineReads:
    """The per-row operators read the clock once per row after the
    statement's own read, and never when the run has no deadline."""

    @pytest.mark.parametrize(
        "statement",
        [
            "FILTER t WHERE k > 0 INTO result",
            "DISTINCT t INTO result",
            "MAP t WITH c => k + 1 INTO result",
            "AGGREGATE t GROUP_BY s COMPUTE COUNT() AS n INTO result",
        ],
        ids=["filter", "distinct", "map", "aggregate"],
    )
    def test_one_read_per_row(self, monkeypatch, statement):
        # the statement reads the clock at 1 s, its three rows at 2, 3, 4 s
        for deadline in (1.5, 2.5, 3.5):
            clock = SteppingClock()
            monkeypatch.setattr(interpreter, "time", clock)
            with pytest.raises(AssertionFailed, match="time limit") as err:
                simple(statement, THREE_ROWS, deadline=deadline)
            # stopped at the row whose read passed the deadline
            assert clock.now == deadline + 0.5
            location = err.value.location
            assert (location.line, location.column) == (4, 3)
        clock = SteppingClock()
        monkeypatch.setattr(interpreter, "time", clock)
        assert len(simple(statement, THREE_ROWS, deadline=4.5)) == 3
        assert clock.now == 4.0

    def test_statement_read_carries_its_location(self, monkeypatch):
        monkeypatch.setattr(interpreter, "time", SteppingClock())
        with pytest.raises(AssertionFailed, match="time limit") as err:
            simple("DISTINCT t INTO result", THREE_ROWS, deadline=0.5)
        assert (err.value.location.line, err.value.location.column) == (4, 3)

    def test_no_deadline_reads_no_clock(self, monkeypatch):
        monkeypatch.setattr(interpreter, "time", RefusingClock())
        out = simple(
            "FILTER t WHERE k > 0 INTO kept "
            "DISTINCT kept INTO unique "
            "MAP unique WITH c => UPPER(s) INTO mapped "
            "SELECT t COLUMNS k INTO keys "
            "JOIN mapped WITH keys ON k == k INTO joined "
            "LEFT_JOIN joined WITH keys ON k == k INTO padded "
            "FOR_EACH row IN padded DO DISTINCT t INTO ignored END_FOR "
            "AGGREGATE padded GROUP_BY c COMPUTE COUNT() AS n INTO result",
            THREE_ROWS,
        )
        assert out.rows == (("A", 1), ("B", 1), ("C", 1))


# Inputs for the located-error cases: ``n`` overflows a SUM of either type.
LOCATING_INPUTS = {
    "t": THREE_ROWS,
    "u": make_table(
        schema_of(("rk", VT.INT), ("r", VT.STRING)), [(1, "x"), (2, "y"), (3, "z")]
    ),
    "n": make_table(
        schema_of(("v", VT.INT), ("d", VT.DECIMAL)),
        [(2**63 - 1, D("9" * 27 + "." + "9" * 10))] * 20,
    ),
}

# Each case: its statements, "@" marking the one the error must name,
# the run's caps, and the error's class and message. Where a case sets a
# deadline the clock reads 1 s, 2 s, ... (SteppingClock): once before
# each statement and loop iteration, and once per row in the per-row
# operators.
LOCATED_ERRORS = {
    # the SELECT reads at 1 s and the statement at 2 s; its second row's
    # read, at 4 s, passes the deadline
    **{
        f"row-time-{name}": (
            ["SELECT t COLUMNS k, s INTO first", f"@{statement}"],
            {"deadline": 3.5},
            AssertionFailed,
            "time limit",
        )
        for name, statement in {
            "filter": "FILTER first WHERE k > 0 INTO a",
            "distinct": "DISTINCT first INTO a",
            "map": "MAP first WITH c => k + 1 INTO a",
            "aggregate": "AGGREGATE first GROUP_BY s COMPUTE COUNT() AS n INTO a",
            "join": "JOIN first WITH u ON k == rk INTO a",
            "left-join": "LEFT_JOIN first WITH u ON k == rk INTO a",
        }.items()
    },
    "statement-time": (
        ["SELECT t COLUMNS k INTO a", "@SORT t BY k ASC INTO b"],
        {"deadline": 1.5},
        AssertionFailed,
        "time limit",
    ),
    "for-each-iteration-time": (
        ["@FOR_EACH row IN t DO", "  DISTINCT t INTO x", "END_FOR"],
        {"deadline": 1.5},
        AssertionFailed,
        "time limit",
    ),
    "for-each-body-time": (
        ["FOR_EACH row IN t DO", "  @DISTINCT t INTO x", "END_FOR"],
        {"deadline": 2.5},
        AssertionFailed,
        "time limit",
    ),
    "while-iteration-time": (
        ["@WHILE TRUE DO", "  DISTINCT t INTO x", "END_WHILE"],
        {"deadline": 1.5},
        AssertionFailed,
        "time limit",
    ),
    "while-cap": (
        ["@WHILE TRUE DO", "  SORT t BY k ASC INTO x", "END_WHILE"],
        {"while_cap": 2},
        AssertionFailed,
        "iteration cap of 2",
    ),
    "join-rows": (
        ["SELECT t COLUMNS k INTO a", "@JOIN t WITH u ON k == rk INTO b"],
        {"max_rows": 2},
        AssertionFailed,
        "row limit of 2",
    ),
    "union-rows": (
        ["SELECT t COLUMNS k INTO a", "@UNION t WITH t INTO b"],
        {"max_rows": 5},
        AssertionFailed,
        "row limit of 5",
    ),
    "cells": (
        ["SELECT t COLUMNS k INTO a", "@UNION t WITH t INTO b"],
        {"max_cells": 10},
        AssertionFailed,
        "cell limit of 10",
    ),
    "read": (['@READ "in.json" AS JSON TABLE[k: INT] INTO a'], {}, IoError, "sandboxed"),
    "write": (['@WRITE t TO "out.json" AS JSON'], {}, IoError, "sandboxed"),
    "fetch": (['@FETCH "http://host/in" TABLE[k: INT] INTO a'], {}, HttpError, "sandboxed"),
    "post": (['@POST t TO "http://host/out"'], {}, HttpError, "sandboxed"),
    "sum-int-overflow": (
        ["SELECT t COLUMNS k INTO a", "@AGGREGATE n COMPUTE SUM(v) AS s INTO b"],
        {},
        ConversionError,
        "INT overflow",
    ),
    "sum-decimal-overflow": (
        ["SELECT t COLUMNS k INTO a", "@AGGREGATE n COMPUTE SUM(d) AS s INTO b"],
        {},
        ConversionError,
        "DECIMAL overflow",
    ),
    "avg-decimal-overflow": (
        ["SELECT t COLUMNS k INTO a", "@AGGREGATE n COMPUTE AVG(d) AS s INTO b"],
        {},
        ConversionError,
        "DECIMAL overflow",
    ),
    # inside a control statement the nested statement is named
    "in-if": (
        ["IF TRUE THEN", "  @UNION t WITH t INTO x", "END_IF"],
        {"max_rows": 5},
        AssertionFailed,
        "row limit",
    ),
    "in-for-each": (
        ["FOR_EACH row IN t DO", "  @UNION t WITH t INTO x", "END_FOR"],
        {"max_rows": 5},
        AssertionFailed,
        "row limit",
    ),
    "in-while": (
        ["WHILE TRUE DO", "  @UNION t WITH t INTO x", "END_WHILE"],
        {"max_rows": 5},
        AssertionFailed,
        "row limit",
    ),
    "in-try-handler": (
        [
            "TRY",
            "  UNION t WITH t INTO x",
            "ON_ERROR",
            "  @UNION t WITH t INTO x",
            "END_TRY",
        ],
        {"max_rows": 5},
        AssertionFailed,
        "row limit",
    ),
    "in-if-in-for-each": (
        [
            "FOR_EACH row IN t DO",
            "  IF k > 1 THEN",
            "    @WHILE TRUE DO",
            "      SORT t BY k ASC INTO y",
            "    END_WHILE",
            "  END_IF",
            "END_FOR",
        ],
        {"while_cap": 2},
        AssertionFailed,
        "iteration cap",
    ),
}


class TestErrorLocations:
    """Every ExecutionError that leaves ``run_pipeline`` names a source
    location: the statement it stopped in, or the innermost one when
    statements nest."""

    @pytest.mark.parametrize("case", sorted(LOCATED_ERRORS))
    def test_error_names_its_statement(self, monkeypatch, case):
        lines, caps, kind, message = LOCATED_ERRORS[case]
        decls = "".join(
            f" INPUT {name}: TABLE["
            + ", ".join(f"{f.name}: {f.type.value}" for f in table.schema.fields)
            + "]\n"
            for name, table in LOCATING_INPUTS.items()
        )
        body = "".join(f"  {line}\n" for line in lines)
        source = f"PIPELINE p:\n{decls} STEP s:\n{body}  DISTINCT t INTO result\n OUTPUT result"
        marked = source.index("@")
        line = source.count("\n", 0, marked) + 1
        column = marked - source.rfind("\n", 0, marked)
        if "deadline" in caps:
            monkeypatch.setattr(interpreter, "time", SteppingClock())
        with pytest.raises(kind, match=message) as err:
            run(source.replace("@", ""), LOCATING_INPUTS, **caps)
        assert err.value.location is not None
        assert (err.value.location.line, err.value.location.column) == (line, column)


class TestBuiltinCalls:
    """A trailing literal argument is bound once as a constant; the call
    must behave exactly as with the same value read from a column."""

    SOURCE = make_table(
        schema_of(
            ("s", VT.STRING), ("zero", VT.INT), ("three", VT.INT), ("x", VT.STRING),
            ("yy", VT.STRING), ("bang", VT.STRING), ("minus", VT.INT), ("two", VT.INT),
        ),
        [
            (s, 0, 3, "x", "yy", "!", -1, 2)
            for s in ("xaxbx", "", None, "ab", "日本x{0}")
        ],
    )

    def _column(self, expr: str):
        out = simple(f"MAP t WITH c => {expr} INTO result", self.SOURCE)
        return [row[-1] for row in out.rows]

    @pytest.mark.parametrize(
        "literal, columns",
        [
            ("SUBSTRING(s, 0, 3)", "SUBSTRING(s, zero, three)"),
            ("SUBSTRING(s, zero, 3)", "SUBSTRING(s, zero, three)"),
            ('REPLACE(s, "x", "yy")', "REPLACE(s, x, yy)"),
            ('REPLACE(s, x, "yy")', "REPLACE(s, x, yy)"),
            ('CONCAT(s, "!")', "CONCAT(s, bang)"),
            ('CONCAT("x", "!")', "CONCAT(x, bang)"),
            ('LENGTH("yy")', "LENGTH(yy)"),
            ("TO_STRING(3)", "TO_STRING(three)"),
        ],
    )
    def test_literal_argument_matches_column(self, literal, columns):
        expected = self._column(columns)
        assert self._column(literal) == expected
        # the third row's null s propagates through every call that reads it
        assert (expected[2] is None) == literal.startswith(("SUBSTRING", "REPLACE", "CONCAT(s"))

    def test_literal_argument_fails_like_column(self):
        errors = []
        for expr in ("SUBSTRING(s, -1, 2)", "SUBSTRING(s, minus, two)"):
            with pytest.raises(ConversionError) as err:
                self._column(expr)
            location = err.value.location
            errors.append((type(err.value), err.value.message, location.line, location.column))
        assert errors[0] == errors[1]
        assert errors[0][2:] == (4, 19)  # at the call

    def test_each_call_goes_through_the_hook(self, monkeypatch):
        calls = []
        call_builtin = interpreter.call_builtin

        def counting(name, args):
            calls.append((name, args))
            return call_builtin(name, args)

        monkeypatch.setattr(interpreter, "call_builtin", counting)
        out = self._column('CONCAT(UPPER(SUBSTRING(TRIM(s), 0, 3)), TO_STRING(LENGTH("ab")))')
        assert out == ["XAX2", "2", None, "AB2", "日本X2"]
        # a null argument short-circuits before the hook, as call_builtin
        # does before the kernel: the null row skips its four calls on s
        rows = len(self.SOURCE)
        assert len(calls) == rows * 6 - 4
        names = [name for name, _ in calls]
        assert names.count("LENGTH") == rows and names.count("SUBSTRING") == rows - 1
        assert not any(None in args for _, args in calls)


class PostedTables(IoAdapter):
    """Keeps each POSTed table by URL instead of sending it."""

    def __init__(self):
        super().__init__(sandbox=True)
        self.tables = {}

    def post_table(self, url, table):
        self.tables[url] = table


class AliveAtPost(IoAdapter):
    """At each POST, records by URL which watched tables are still alive,
    without keeping the posted table."""

    def __init__(self, watched):
        super().__init__(sandbox=True)
        self.watched = watched
        self.alive = {}
        self.posts = 0

    def post_table(self, url, table):
        self.posts += 1
        self.alive[url] = [ref() is not None for ref in self.watched]


def watch_filters(monkeypatch) -> list:
    """Weak references to every table FILTER builds from now on."""
    made = []
    eval_filter = interpreter.Interpreter.eval_filter

    def watched(self, src, keep):
        table = eval_filter(self, src, keep)
        made.append(weakref.ref(table))
        return table

    monkeypatch.setattr(interpreter.Interpreter, "eval_filter", watched)
    return made


def pipeline_of(statements: str) -> str:
    return (
        "PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n"
        + "".join(f"  {line}\n" for line in statements.strip().splitlines())
        + " OUTPUT result"
    )


class TestReleasedBindings:
    TABLE = make_table(schema_of(("a", VT.INT)), [(1,), (-2,), (3,)])

    def test_intermediate_is_released_after_its_last_reader(self, monkeypatch):
        made = watch_filters(monkeypatch)
        probe = AliveAtPost(made)
        source = pipeline_of('''
            FILTER t WHERE a > 0 INTO mid
            POST t TO "http://before.test/"
            MAP mid WITH b => a + 1 INTO result
            POST t TO "http://after.test/"
        ''')
        out = run_pipeline(parse(source), {"t": self.TABLE}, probe)
        assert out.rows == ((1, 2), (3, 4))
        assert probe.alive == {"http://before.test/": [True], "http://after.test/": [False]}

    def test_name_read_only_inside_a_loop_body_lives_through_the_loop(self, monkeypatch):
        made = watch_filters(monkeypatch)
        probe = AliveAtPost(made)
        source = pipeline_of('''
            FILTER t WHERE a > 0 INTO kept
            FOR_EACH row IN t DO
                POST kept TO "http://each.test/"
            END_FOR
            TRY
                WHILE TRUE DO
                    POST kept TO "http://while.test/"
                END_WHILE
            ON_ERROR
                DISTINCT t INTO ignored
            END_TRY
            DISTINCT t INTO result
            POST t TO "http://after.test/"
        ''')
        run_pipeline(parse(source), {"t": self.TABLE}, probe, while_cap=2)
        # three rows, then two WHILE iterations before the cap, all posting
        # the one FILTER result, which is released once the TRY has run
        assert probe.posts == 3 + 2 + 1
        assert probe.alive["http://while.test/"] == [True]
        assert probe.alive["http://after.test/"] == [False]

    def test_name_bound_in_both_try_branches_survives_to_its_reader(self):
        source = pipeline_of('''
            TRY
                MAP t WITH c => 6 / a INTO x
            ON_ERROR
                ADD_COLUMN t WITH c = 0 INTO x
            END_TRY
            DISTINCT t INTO spacer
            FILTER x WHERE c > 0 INTO result
        ''')
        pipeline = parse(source)
        out = run_pipeline(pipeline, {"t": self.TABLE})
        assert out.rows == ((1, 6), (3, 2))
        zero = make_table(schema_of(("a", VT.INT)), [(0,), (2,)])
        assert run_pipeline(pipeline, {"t": zero}).rows == ()

    def test_output_bound_early_and_never_read_again_is_returned(self):
        source = pipeline_of('''
            DISTINCT t INTO result
            FILTER t WHERE a > 0 INTO other
            SELECT other COLUMNS a INTO last
        ''')
        assert run_pipeline(parse(source), {"t": self.TABLE}).rows == self.TABLE.rows

    def test_caller_inputs_are_untouched(self):
        inputs = {"t": self.TABLE}
        source = pipeline_of('''
            FILTER t WHERE a > 0 INTO mid
            DISTINCT mid INTO result
        ''')
        run_pipeline(parse(source), inputs)
        assert list(inputs) == ["t"] and inputs["t"] is self.TABLE
        assert self.TABLE.rows == ((1,), (-2,), (3,))


def self_unions_then_columns(unions: int, columns: int) -> str:
    """The cell-cap escape: self-UNIONs double the rows, then each
    ADD_COLUMN widens the last table by one."""
    lines = ["DISTINCT t INTO u0"]
    lines += [f"UNION u{i} WITH u{i} INTO u{i + 1}" for i in range(unions)]
    lines.append(f"RENAME u{unions} COLUMN a TO a INTO w0")
    lines += [f"ADD_COLUMN w{i} WITH c{i} = {i} INTO w{i + 1}" for i in range(columns)]
    lines.append(f"DISTINCT w{columns} INTO result")
    return pipeline_of("\n".join(lines))


class TestCellCap:
    TEN = make_table(schema_of(("a", VT.INT)), [(n,) for n in range(10)])

    def test_escape_stops_at_the_cell_limit(self):
        # 10 rows doubled 6 times are 640; the 40 columns would need 26k
        # cells in the last table alone
        pipeline = parse(self_unions_then_columns(6, 40))
        with pytest.raises(AssertionFailed, match="cell limit of 3000") as err:
            run_pipeline(pipeline, {"t": self.TEN}, max_cells=3000)
        assert err.value.location.line > 4
        assert len(run_pipeline(pipeline, {"t": self.TEN}).schema) == 41

    def test_try_catches_the_cell_limit(self):
        source = pipeline_of('''
            TRY
                UNION t WITH t INTO twice
                UNION twice WITH twice INTO result
            ON_ERROR
                DISTINCT t INTO result
            END_TRY
        ''')
        out = run_pipeline(parse(source), {"t": self.TEN}, max_cells=50)
        assert out.rows == self.TEN.rows

    def test_released_tables_return_their_cells(self):
        # each table holds 10 cells and at most two are bound at once, but
        # the six together hold 60
        chain = "\n".join(
            f"DISTINCT {a} INTO {b}"
            for a, b in zip(["t", "x1", "x2", "x3", "x4", "x5"], ["x1", "x2", "x3", "x4", "x5", "result"])
        )
        out = run_pipeline(parse(pipeline_of(chain)), {"t": self.TEN}, max_cells=20)
        assert out.rows == self.TEN.rows

    def test_discarded_scopes_return_their_cells(self):
        # every iteration and the failed TRY body bind 20 cells that their
        # scope discards; kept, they would pass the cap of 30
        source = pipeline_of('''
            FOR_EACH row IN t DO
                UNION t WITH t INTO inner
            END_FOR
            TRY
                UNION t WITH t INTO doomed
                MAP doomed WITH b => a / 0 INTO broken
                DISTINCT t INTO spare
            ON_ERROR
                DISTINCT t INTO spare
            END_TRY
            UNION t WITH spare INTO result
        ''')
        out = run_pipeline(parse(source), {"t": self.TEN}, max_cells=30)
        assert len(out) == 20

    def test_rebinding_a_branch_local_name_returns_its_cells(self):
        # the IF leaves `x` behind though it is not visible after END_IF, so
        # the top-level rebinding replaces a table that held 10 cells
        source = pipeline_of('''
            IF TRUE THEN
                DISTINCT t INTO x
            END_IF
            DISTINCT t INTO x
            DISTINCT x INTO result
        ''')
        out = run_pipeline(parse(source), {"t": self.TEN}, max_cells=20)
        assert out.rows == self.TEN.rows

    def test_input_cells_are_not_charged(self):
        out = simple("DISTINCT t INTO result", self.TEN, max_cells=10)
        assert out.rows == self.TEN.rows
        with pytest.raises(AssertionFailed, match="cell limit of 9"):
            simple("DISTINCT t INTO result", self.TEN, max_cells=9)


class TestValidatedPlans:
    def test_pipeline_that_does_not_validate_raises(self):
        pipeline = parse(
            "PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n"
            "  FILTER t WHERE b > 0 INTO result\n OUTPUT result"
        )
        table = make_table(schema_of(("a", VT.INT)), [(1,)])
        with pytest.raises(ValidationException) as err:
            run_pipeline(pipeline, {"t": table})
        assert [e.kind for e in err.value.errors] == [ValidationKind.UNKNOWN_COLUMN]

    def test_layout_twins_report_their_own_error_locations(self):
        # equal trees (locations take no part in equality), run one after
        # the other: each error is located in its own program's text
        compact = parse(
            "PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n"
            "  MAP t WITH c => a / 0 INTO result\n OUTPUT result"
        )
        spread = parse(
            "PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n\n"
            "  MAP t\n    WITH c =>\n        a / 0\n    INTO result\n OUTPUT result"
        )
        assert compact == spread
        table = make_table(schema_of(("a", VT.INT)), [(1,)])
        located = []
        for pipeline in (compact, spread):
            with pytest.raises(DivisionByZero) as err:
                run_pipeline(pipeline, {"t": table})
            located.append((err.value.location.line, err.value.location.column))
        assert located == [(4, 21), (7, 11)]

    def test_equal_statements_in_try_body_and_handler_see_their_own_schemas(self):
        # both branches run SELECT a COLUMNS y INTO b, over an `a` whose
        # columns come in opposite orders; the IFs keep `a` branch-local
        source = (
            "PIPELINE p:\n INPUT t: TABLE[x: INT, y: INT]\n STEP s:\n"
            "  TRY\n"
            "    IF TRUE THEN\n"
            "      SELECT t COLUMNS x, y INTO a\n"
            "      SELECT a COLUMNS y INTO b\n"
            '      POST b TO "http://body.test/"\n'
            "    END_IF\n"
            "    MAP t WITH z => x / y INTO result\n"
            "  ON_ERROR\n"
            "    IF TRUE THEN\n"
            "      SELECT t COLUMNS y, x INTO a\n"
            "      SELECT a COLUMNS y INTO b\n"
            '      POST b TO "http://handler.test/"\n'
            "    END_IF\n"
            "    ADD_COLUMN t WITH z = 0 INTO result\n"
            "  END_TRY\n"
            " OUTPUT result"
        )
        pipeline = parse(source)
        attempt, handler = pipeline.steps[0].body[0].body, pipeline.steps[0].body[0].handler
        assert attempt[0].then_body[1] == handler[0].then_body[1]
        schema = schema_of(("x", VT.INT), ("y", VT.INT))

        posted = PostedTables()
        out = run_pipeline(pipeline, {"t": make_table(schema, [(6, 2), (9, 3)])}, posted)
        assert out.rows == ((6, 2, 3), (9, 3, 3))
        assert posted.tables["http://body.test/"].rows == ((2,), (3,))

        posted = PostedTables()
        out = run_pipeline(pipeline, {"t": make_table(schema, [(6, 2), (9, 0)])}, posted)
        assert out.rows == ((6, 2, 0), (9, 0, 0))
        assert posted.tables["http://body.test/"].rows == ((2,), (0,))
        assert posted.tables["http://handler.test/"].rows == ((2,), (0,))


class TestTrustedTables:
    def test_row_passing_operators_keep_source_rows(self):
        table = make_table(schema_of(("a", VT.INT)), [(2,), (1,)])
        assert simple("RENAME t COLUMN a TO b INTO result", table).rows is table.rows
        for statement in (
            "FILTER t WHERE TRUE INTO result",
            "SORT t BY a ASC INTO result",
            "LIMIT t TO 5 INTO result",
        ):
            out = simple(statement, table)
            assert {id(row) for row in out.rows} == {id(row) for row in table.rows}

    def test_operator_outputs_are_not_rechecked(self, monkeypatch):
        # an ill-typed INT + INT result passes through unchecked ...
        monkeypatch.setitem(ARITHMETIC_KERNELS, ("+", VT.INT), lambda a, b: str(a + b))
        table = make_table(schema_of(("a", VT.INT)), [(1,)])
        assert simple("MAP t WITH b => a + a INTO result", table).rows == ((1, "2"),)

    def test_checked_tables_fixture_rechecks_operator_outputs(
        self, checked_tables, monkeypatch
    ):
        # ... and the fixture that criteria 04 and 05 run under catches it
        monkeypatch.setitem(ARITHMETIC_KERNELS, ("+", VT.INT), lambda a, b: str(a + b))
        table = make_table(schema_of(("a", VT.INT)), [(1,)])
        with pytest.raises(TableError, match="column 'b': expected INT, got STRING"):
            simple("MAP t WITH b => a + a INTO result", table)
