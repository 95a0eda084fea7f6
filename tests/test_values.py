"""Core data model: tables, cell typing, ordering, decimal arithmetic."""

import datetime
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from anka.errors import ConversionError, DivisionByZero, TableError
from anka.interpreter import run_pipeline
from anka.parser import parse
from anka.validator import ValidationKind, validate
from anka.values import (
    ARITHMETIC_KERNELS,
    CELL_TYPES,
    Field,
    Schema,
    ValueType,
    check_decimal,
    check_int,
    decimal_scale,
    format_cell,
    make_table,
    parse_date,
    parse_datetime,
    parse_decimal,
    parse_int,
    table_equal,
    value_type_of,
)

import generic_values as generic
from builders import schema_of

INT_SCHEMA = schema_of(("a", ValueType.INT))


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(TableError, match="duplicate field name 'a'"):
            schema_of(("a", ValueType.INT), ("a", ValueType.STRING))

    def test_empty_schema_rejected(self):
        with pytest.raises(TableError, match="at least one field"):
            Schema([])

    def test_derivations_equal_constructed_schemas(self):
        base = schema_of(("a", ValueType.INT), ("b", ValueType.STRING), ("c", ValueType.DATE))
        a, b, c = base.fields
        derived = [
            (base.with_field(Field("d", ValueType.BOOL)), [a, b, c, Field("d", ValueType.BOOL)]),
            (base.renamed("b", "x"), [a, Field("x", ValueType.STRING), c]),
            (base.renamed("a", "a"), [a, b, c]),
            (base.without("a"), [b, c]),
            (base.without("b"), [a, c]),
            (base.without("c"), [a, b]),
        ]
        for schema, fields in derived:
            built = Schema(fields)
            assert schema == built and hash(schema) == hash(built)
            assert schema.names() == built.names()
            assert [schema.index_of(n) for n in built.names()] == list(range(len(fields)))
            assert all(schema.has(n) == built.has(n) for n in ("a", "b", "c", "d", "x"))
        assert base == schema_of(("a", ValueType.INT), ("b", ValueType.STRING), ("c", ValueType.DATE))
        assert not base.has("d") and not base.has("x")

    def test_derivations_keep_the_constructor_invariants(self):
        base = schema_of(("a", ValueType.INT), ("b", ValueType.STRING))
        with pytest.raises(TableError, match="duplicate field name 'b'"):
            base.with_field(Field("b", ValueType.INT))
        with pytest.raises(TableError, match="duplicate field name 'b'"):
            base.renamed("a", "b")
        with pytest.raises(KeyError, match="no field named 'z'"):
            base.renamed("z", "y")
        with pytest.raises(KeyError, match="no field named 'z'"):
            base.without("z")
        with pytest.raises(TableError, match="at least one field"):
            base.without("a").without("b")

    def test_order_matters_for_equality(self):
        ab = schema_of(("a", ValueType.INT), ("b", ValueType.INT))
        ba = schema_of(("b", ValueType.INT), ("a", ValueType.INT))
        assert ab != ba


class TestCellTypes:
    SAMPLES = {
        ValueType.INT: -42,
        ValueType.STRING: "a,\"b\"\n",
        ValueType.DECIMAL: Decimal("-0.0050"),
        ValueType.BOOL: False,
        ValueType.DATE: datetime.date(9, 2, 3),
        ValueType.DATETIME: datetime.datetime(2024, 1, 2, 3, 4, 5),
    }

    def test_one_row_per_type_reads_its_own_text_back(self):
        assert list(CELL_TYPES) == list(ValueType)
        for vtype, row in CELL_TYPES.items():
            cell = self.SAMPLES[vtype]
            assert type(cell) is row.cls
            assert value_type_of(cell) is vtype
            parsed = row.parse(row.text(cell))
            assert type(parsed) is row.cls and repr(parsed) == repr(cell), vtype

    @pytest.mark.parametrize("value, shown", [(None, "null"), (object(), "object")])
    def test_format_cell_refuses_what_is_no_cell(self, value, shown):
        with pytest.raises(ConversionError, match=f"^cannot format {shown}$"):
            format_cell(value)


class _Text(str):
    pass


class _Moment(datetime.datetime):
    pass


class TestMakeTable:
    def test_empty_table(self):
        table = make_table(INT_SCHEMA, [])
        assert len(table) == 0

    def test_rows_kept_in_order(self):
        table = make_table(INT_SCHEMA, [(1,), (2,)])
        assert table.rows == ((1,), (2,))

    def test_type_mismatch_names_row_and_column(self):
        with pytest.raises(TableError) as err:
            make_table(INT_SCHEMA, [("x",)])
        assert "row 0" in str(err.value)
        assert "'a'" in str(err.value)
        assert "expected INT" in str(err.value)
        assert "STRING" in str(err.value)

    def test_arity_mismatch_names_row(self):
        with pytest.raises(TableError, match="row 1"):
            make_table(INT_SCHEMA, [(1,), (1, 2)])

    def test_bool_is_not_int(self):
        with pytest.raises(TableError):
            make_table(INT_SCHEMA, [(True,)])

    def test_datetime_is_not_date(self):
        schema = schema_of(("d", ValueType.DATE))
        with pytest.raises(TableError):
            make_table(schema, [(datetime.datetime(2024, 1, 1, 0, 0, 0),)])

    @pytest.mark.parametrize(
        "vtype, source, cell",
        [
            (ValueType.STRING, '"x"', _Text("x")),
            (
                ValueType.DATETIME,
                'DATETIME "2024-01-02T03:04:05"',
                _Moment(2024, 1, 2, 3, 4, 5),
            ),
        ],
        ids=["str", "datetime"],
    )
    def test_subclass_instance_is_no_cell(self, vtype, source, cell):
        # cells are typed by their exact class
        message = f"expected {vtype.value}, got {type(cell).__name__}$"
        with pytest.raises(TableError, match=message):
            make_table(schema_of(("a", vtype)), [(cell,)])
        pipeline = parse(
            f"PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n"
            f"  MAP t WITH c => {source} INTO r\n OUTPUT r"
        )
        assert validate(pipeline).ok
        step = pipeline.steps[0]
        stmt = step.body[0]
        stmt = stmt._replace(expr=stmt.expr._replace(value=cell))
        result = validate(pipeline._replace(steps=(step._replace(body=(stmt,)),)))
        assert [e.kind for e in result.errors] == [ValidationKind.TYPE_MISMATCH]
        assert result.errors[0].message.endswith(f"is not of type {vtype.value}")

    def test_null_allowed_in_any_column(self):
        schema = schema_of(("a", ValueType.INT), ("s", ValueType.STRING))
        table = make_table(schema, [(None, None)])
        assert table.rows == ((None, None),)

    def test_int64_range_enforced(self):
        with pytest.raises(TableError):
            make_table(INT_SCHEMA, [(2**63,)])

    def test_tables_are_immutable(self):
        table = make_table(INT_SCHEMA, [(1,)])
        with pytest.raises(AttributeError):
            table.rows = ()

    def test_construction_readback_roundtrip(self):
        schema = schema_of(("a", ValueType.INT), ("s", ValueType.STRING))
        rows = [(1, "x"), (None, ""), (3, None)]
        table = make_table(schema, rows)
        assert list(table.rows) == [tuple(r) for r in rows]
        assert [row[0] for row in table.rows] == [1, None, 3]


class TestTableEqual:
    def test_empty_tables_equal(self):
        assert table_equal(make_table(INT_SCHEMA, []), make_table(INT_SCHEMA, []))

    def test_row_order_significant(self):
        t1 = make_table(INT_SCHEMA, [(1,), (2,)])
        t2 = make_table(INT_SCHEMA, [(2,), (1,)])
        assert not table_equal(t1, t2)

    def test_column_order_significant(self):
        ab = schema_of(("a", ValueType.INT), ("b", ValueType.INT))
        ba = schema_of(("b", ValueType.INT), ("a", ValueType.INT))
        t1 = make_table(ab, [(1, 2)])
        t2 = make_table(ba, [(2, 1)])
        assert not table_equal(t1, t2)

    def test_null_equals_null(self):
        t1 = make_table(INT_SCHEMA, [(None,)])
        t2 = make_table(INT_SCHEMA, [(None,)])
        assert table_equal(t1, t2)

    def test_decimal_compares_by_value(self):
        schema = schema_of(("d", ValueType.DECIMAL))
        t1 = make_table(schema, [(Decimal("2.50"),)])
        t2 = make_table(schema, [(Decimal("2.5"),)])
        assert table_equal(t1, t2)

    def test_schema_mismatch(self):
        other = schema_of(("a", ValueType.DECIMAL))
        t1 = make_table(INT_SCHEMA, [])
        t2 = make_table(other, [])
        assert not table_equal(t1, t2)

    def test_equivalence_relation_on_random_tables(self):
        import random

        from generators import rand_schema, rand_table

        rng = random.Random(99)
        for _ in range(60):
            schema = rand_schema(rng)
            a = rand_table(rng, schema, duplicate_rate=0.5)
            b = rand_table(rng, schema, duplicate_rate=0.5)
            c = make_table(schema, a.rows)
            assert table_equal(a, a)
            assert table_equal(a, c) and table_equal(c, a)
            assert table_equal(a, b) == table_equal(b, a)
            if table_equal(a, b) and table_equal(b, c):
                assert table_equal(a, c)


class TestCompareValues:
    """The reference order the comparison, MIN and MAX kernels are checked
    against in test_kernels.py."""

    def test_int_decimal_promotion_equal(self):
        assert generic.compare_values(2, Decimal("2.0")) == 0

    def test_string_lexicographic(self):
        assert generic.compare_values("a", "b") == -1

    def test_cross_type_incomparable(self):
        with pytest.raises(TypeError):
            generic.compare_values("a", 1)

    def test_bool_not_comparable_with_int(self):
        with pytest.raises(TypeError):
            generic.compare_values(True, 1)

    def test_date_not_comparable_with_datetime(self):
        with pytest.raises(TypeError):
            generic.compare_values(
                datetime.date(2024, 1, 1), datetime.datetime(2024, 1, 1, 0, 0, 0)
            )

    def test_false_before_true(self):
        assert generic.compare_values(False, True) == -1

    def test_null_sorts_last(self):
        assert generic.compare_values(None, 5) == 1
        assert generic.compare_values(5, None) == -1
        assert generic.compare_values(None, None) == 0

    @given(st.lists(st.integers(-100, 100) | st.none(), min_size=3, max_size=3))
    def test_transitive_over_ints_and_nulls(self, vals):
        a, b, c = vals
        if generic.compare_values(a, b) <= 0 and generic.compare_values(b, c) <= 0:
            assert generic.compare_values(a, c) <= 0

    @given(
        st.decimals(allow_nan=False, allow_infinity=False, places=4, min_value=-10**6, max_value=10**6),
        st.decimals(allow_nan=False, allow_infinity=False, places=4, min_value=-10**6, max_value=10**6),
    )
    def test_antisymmetric_over_decimals(self, a, b):
        assert generic.compare_values(a, b) == -generic.compare_values(b, a)


ADD = ARITHMETIC_KERNELS["+", ValueType.DECIMAL]
SUBTRACT = ARITHMETIC_KERNELS["-", ValueType.DECIMAL]
MULTIPLY = ARITHMETIC_KERNELS["*", ValueType.DECIMAL]
DIVIDE = ARITHMETIC_KERNELS["/", ValueType.DECIMAL]
INT_DIVIDE = ARITHMETIC_KERNELS["/", ValueType.INT]


class TestDecimalArithmetic:
    """The kernels the interpreter picks per operator and result type."""

    def test_addition_keeps_worst_scale(self):
        total = ADD(Decimal("1.50"), Decimal("2.5"))
        assert total == Decimal("4.00")
        assert decimal_scale(total) == 2

    def test_multiplication_adds_scales(self):
        product = MULTIPLY(Decimal("1500.00"), Decimal("0.08"))
        assert str(product) == "120.0000"

    @given(
        st.decimals(allow_nan=False, allow_infinity=False, places=4, min_value=-10**8, max_value=10**8),
        st.decimals(allow_nan=False, allow_infinity=False, places=4, min_value=-10**8, max_value=10**8),
    )
    def test_add_then_subtract_is_identity(self, a, b):
        assert SUBTRACT(ADD(a, b), b) == a

    def test_int_division_truncates_toward_zero(self):
        assert INT_DIVIDE(7, 2) == 3
        assert INT_DIVIDE(-7, 2) == -3
        assert INT_DIVIDE(7, -2) == -3

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            INT_DIVIDE(1, 0)
        with pytest.raises(DivisionByZero):
            DIVIDE(Decimal("1"), Decimal("0.00"))

    def test_decimal_division_scale_and_rounding(self):
        # scale = max(0, 0) + 4, ties round half-even
        assert str(DIVIDE(Decimal("1"), Decimal("3"))) == "0.3333"
        assert str(DIVIDE(Decimal("2"), Decimal("3"))) == "0.6667"
        # exact ties at the fifth digit: 1/32 = 0.03125, 3/32 = 0.09375
        assert str(DIVIDE(Decimal("1"), Decimal("32"))) == "0.0312"
        assert str(DIVIDE(Decimal("3"), Decimal("32"))) == "0.0938"

    def test_mixed_int_decimal_promotes(self):
        assert ADD(1, Decimal("0.5")) == Decimal("1.5")
        assert isinstance(MULTIPLY(2, Decimal("1.1")), Decimal)
        assert str(DIVIDE(1, 4)) == "0.2500"

    def test_null_propagates(self):
        # kernels never see null: the compiled operator checks first
        schema = schema_of(("a", ValueType.INT), ("b", ValueType.DECIMAL))
        table = make_table(schema, [(None, Decimal("1")), (1, None), (1, Decimal("2"))])
        source = (
            "PIPELINE p:\n INPUT t: TABLE[a: INT, b: DECIMAL]\n STEP s:\n"
            "  MAP t WITH c => a / b + a INTO r\n OUTPUT r"
        )
        out = run_pipeline(parse(source), {"t": table})
        assert [row[2] for row in out.rows] == [None, None, Decimal("1.5000")]

    def test_int_overflow_raises(self):
        with pytest.raises(ConversionError, match="INT overflow"):
            ARITHMETIC_KERNELS["+", ValueType.INT](2**63 - 1, 1)

    def test_parse_decimal_scale_cap(self):
        parse_decimal("0.0000000001")  # scale 10 is fine
        with pytest.raises(ConversionError, match="scale"):
            parse_decimal("0.00000000001")

    def test_parse_decimal_normalizes_exponent(self):
        assert str(parse_decimal("1E+3")) == "1000"


LONG_DIGITS = "9" * 5000


class TestTextToCells:
    """parse_int, parse_decimal, check_int and check_decimal raise
    nothing but ConversionError."""

    def test_parse_int_grammar(self):
        assert parse_int("42") == 42
        assert parse_int("-42") == -42
        assert parse_int("+7") == 7
        assert parse_int("0" * 5000 + "7") == 7
        assert parse_int("9223372036854775807") == 2**63 - 1
        assert parse_int("-9223372036854775808") == -(2**63)
        for text in ("", "-", "1.0", " 1", "1 ", "12\n", "1_000", "١٢", "１２", "0x1"):
            with pytest.raises(ConversionError, match="as INT"):
                parse_int(text)

    def test_parse_int_range(self):
        for text in ("9223372036854775808", "-9223372036854775809", LONG_DIGITS):
            with pytest.raises(ConversionError, match="out of 64-bit range"):
                parse_int(text)

    def test_check_int(self):
        assert check_int(2**63 - 1) == 2**63 - 1
        for value in (2**63, -(2**63) - 1, 10**5000):
            with pytest.raises(ConversionError, match="out of 64-bit range"):
                check_int(value)

    def test_parse_decimal_grammar(self):
        assert parse_decimal("-1.50") == Decimal("-1.50")
        assert parse_decimal("1.") == Decimal(1)
        assert parse_decimal(".5") == Decimal("0.5")
        assert str(parse_decimal("2.5e-3")) == "0.0025"
        for text in ("", ".", "1.2.3", " 1.5", "1.5\n", "1_0.5", "١٫٥", "NaN",
                     "Infinity", "-inf", "1e", "0x1p3", "1e1234567890"):
            with pytest.raises(ConversionError, match="malformed DECIMAL"):
                parse_decimal(text)

    def test_parse_decimal_bounds(self):
        assert parse_decimal("1" * 38) == Decimal("1" * 38)
        assert str(parse_decimal("1E+37")) == "1" + "0" * 37
        assert str(parse_decimal("0E+999999")) == "0"
        for text in ("1E+38", "1E+99", "1e999999", "1e999999999", "1" * 39,
                     LONG_DIGITS, "1" * 45 + ".5"):
            with pytest.raises(ConversionError, match="precision"):
                parse_decimal(text)
        for text in ("1e-11", "1e-999999", "1e-999999999"):
            with pytest.raises(ConversionError, match="scale"):
                parse_decimal(text)

    def test_check_decimal(self):
        assert str(check_decimal(Decimal("1E+3"))) == "1000"
        assert check_decimal(Decimal("0.0000000001")) == Decimal("1E-10")
        for value, match in (
            (Decimal("NaN"), "not finite"),
            (Decimal("-Infinity"), "not finite"),
            (Decimal("1E-11"), "scale"),
            (Decimal("1E+999999"), "precision"),
            (Decimal(LONG_DIGITS), "precision"),
        ):
            with pytest.raises(ConversionError, match=match):
                check_decimal(value)

    def test_messages_clip_long_text(self):
        for parse, text in (
            (parse_int, LONG_DIGITS),
            (parse_int, "x" * 5000),
            (parse_decimal, LONG_DIGITS),
            (parse_decimal, "x" * 5000),
        ):
            with pytest.raises(ConversionError) as err:
                parse(text)
            assert len(err.value.message) < 100
            assert "…" in err.value.message
        with pytest.raises(ConversionError) as err:
            parse_decimal("0.00000000001")
        assert err.value.message == (
            "DECIMAL value '0.00000000001' exceeds maximum scale of 10"
        )


class TestTemporalParsing:
    def test_date_roundtrip(self):
        assert parse_date("2024-01-31") == datetime.date(2024, 1, 31)

    def test_rejects_loose_formats(self):
        with pytest.raises(ConversionError):
            parse_date("2024-1-3")
        with pytest.raises(ConversionError):
            parse_date("20240103")
        with pytest.raises(ConversionError):
            parse_datetime("2024-01-03 10:00:00")

    def test_datetime_roundtrip(self):
        parsed = parse_datetime("2024-01-03T10:20:30")
        assert parsed == datetime.datetime(2024, 1, 3, 10, 20, 30)

    def test_invalid_calendar_date(self):
        with pytest.raises(ConversionError):
            parse_date("2024-02-31")

    @pytest.mark.parametrize(
        "parse, text, expected",
        [
            (parse_date, "2024-01-02\n", "YYYY-MM-DD"),
            (parse_date, "٢٠٢٤-01-02", "YYYY-MM-DD"),
            (parse_datetime, "2024-01-02T03:04:05\n", "YYYY-MM-DDTHH:MM:SS"),
            (parse_datetime, "٢٠٢٤-01-02T03:04:05", "YYYY-MM-DDTHH:MM:SS"),
        ],
        ids=["date-newline", "date-arabic-digits", "datetime-newline", "datetime-arabic-digits"],
    )
    def test_shape_is_ascii_and_whole_text(self, parse, text, expected):
        # a trailing newline and other scripts' digits are malformed text,
        # not a date that the calendar rejects
        with pytest.raises(ConversionError) as err:
            parse(text)
        assert err.value.message.startswith("malformed ")
        assert err.value.message.endswith(f"{text!r}, expected {expected}")
