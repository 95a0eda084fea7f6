"""Differential tests: each typed kernel and fast path against the general
reference it replaces (``generic_values``), on seeded random and edge
inputs. Outcomes compare exactly: a value by its repr, so its type and
DECIMAL exponent count, and an error by its class and message."""

import csv
import datetime
import io
import json
import random
from decimal import Decimal

import pytest

from anka.builtins import BUILTINS, call_builtin
from anka.errors import ConversionError, ExecutionError
from anka.interpreter import run_pipeline
from anka.io_adapters import table_from_csv, table_to_csv, table_to_json
from anka.parser import parse
from anka.values import (
    CELL_TYPES,
    INT64_MAX,
    INT64_MIN,
    Table,
    ValueType as VT,
    decimal_divide,
    format_cell,
    parse_column,
    parse_decimal,
    parse_int,
)

import generic_values as generic
from builders import schema_of
from generators import PLAIN_FIELDS, rand_cell, rand_schema, rand_table

INT_EDGES = [
    0, 1, -1, 2, -2, 7, INT64_MAX, INT64_MIN, INT64_MAX - 1, INT64_MIN + 1,
    3037000499, 3037000500, -3037000500, 2**32, -(2**32),
]


def _rand_int(rng):
    pick = rng.random()
    if pick < 0.3:
        return rng.choice(INT_EDGES)
    if pick < 0.6:
        return rng.randint(INT64_MIN, INT64_MAX)
    return rng.randint(-1000, 1000)


def _rand_decimal(rng):
    """Up to 38 digits at scale 0 to 10, so sums and products can need
    more than 38 digits."""
    digits = rng.choice([1, 2, 5, 10, 19, 30, 37, 38])
    mantissa = rng.randint(0, 10**digits - 1) * rng.choice([1, -1])
    return Decimal(mantissa).scaleb(-rng.randint(0, 10))


def _rand_operand(rng, vtype):
    if rng.random() < 0.1:
        return None
    return _rand_int(rng) if vtype is VT.INT else _rand_decimal(rng)


def _outcome(compute, *args):
    try:
        return "ok", repr(compute(*args))
    except ExecutionError as exc:
        return type(exc).__name__, exc.message


def _expression_runner(expr: str, schema):
    """A function of one row: the outcome of MAP ``expr`` on a one-row
    table, run through the compiled plan like any pipeline."""
    decl = ", ".join(f"{f.name}: {f.type.value}" for f in schema.fields)
    pipeline = parse(
        f"PIPELINE p:\n INPUT t: TABLE[{decl}]\n STEP s:\n"
        f"  MAP t WITH z => {expr} INTO r\n OUTPUT r"
    )

    def run(*row):
        return run_pipeline(pipeline, {"t": Table(schema, [row])}).rows[0][-1]

    return run


NUMERIC_PAIRS = [(VT.INT, VT.INT), (VT.INT, VT.DECIMAL), (VT.DECIMAL, VT.INT),
                 (VT.DECIMAL, VT.DECIMAL)]


class TestArithmeticKernels:
    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    @pytest.mark.parametrize("types", NUMERIC_PAIRS, ids=lambda t: f"{t[0].value}-{t[1].value}")
    def test_matches_generic_dispatch(self, op, types):
        rng = random.Random(f"kernel {op} {types}")
        schema = schema_of(("a", types[0]), ("b", types[1]))
        run = _expression_runner(f"a {op} b", schema)
        seen = set()  # the draws must reach results, not only errors
        for _ in range(400):
            a, b = (_rand_operand(rng, vtype) for vtype in types)
            expected = _outcome(generic.ARITHMETIC[op], a, b)
            assert _outcome(run, a, b) == expected, (a, op, b)
            seen.add(expected[0])
        assert "ok" in seen

    def test_int64_boundaries(self):
        schema = schema_of(("a", VT.INT), ("b", VT.INT))
        for op in "+-*/":
            run = _expression_runner(f"a {op} b", schema)
            for a in INT_EDGES:
                for b in INT_EDGES:
                    assert _outcome(run, a, b) == _outcome(generic.ARITHMETIC[op], a, b)

    def test_38_digit_overflow_message(self):
        schema = schema_of(("a", VT.DECIMAL), ("b", VT.DECIMAL))
        big = Decimal("9" * 38)
        for op, name in (("+", "addition"), ("-", "subtraction"), ("*", "multiplication")):
            run = _expression_runner(f"a {op} b", schema)
            assert _outcome(run, big, big.copy_negate() if op == "-" else big) == (
                "ConversionError", f"DECIMAL overflow in {name}"
            )

    @pytest.mark.parametrize("vtype", [VT.INT, VT.DECIMAL])
    def test_negation(self, vtype):
        rng = random.Random(f"negation {vtype}")
        run = _expression_runner("-a", schema_of(("a", vtype)))
        for _ in range(300):
            a = _rand_operand(rng, vtype)
            assert _outcome(run, a) == _outcome(generic.negate_value, a)
        if vtype is VT.INT:
            assert _outcome(run, INT64_MIN) == ("ConversionError", "INT overflow in negation")


SAMPLES = {
    VT.INT: lambda rng: rng.choice([_rand_int(rng), rng.randint(-3, 3)]),
    VT.DECIMAL: lambda rng: rng.choice(
        [_rand_decimal(rng), Decimal(rng.randint(-3, 3)).scaleb(-rng.randint(0, 3))]
    ),
    VT.STRING: lambda rng: rng.choice(["", "a", "b", "ab", "B", "é", "a\x00", "zz"]),
    VT.BOOL: lambda rng: rng.random() < 0.5,
    VT.DATE: lambda rng: datetime.date(2024, 1, 1) + datetime.timedelta(days=rng.randint(-2, 2)),
    VT.DATETIME: lambda rng: datetime.datetime(2024, 1, 1)
    + datetime.timedelta(seconds=rng.randint(-2, 2)),
}

COMPARISON_PAIRS = [(t, t) for t in VT] + [(VT.INT, VT.DECIMAL), (VT.DECIMAL, VT.INT)]

_HOLDS = {
    "==": lambda order: order == 0,
    "!=": lambda order: order != 0,
    ">": lambda order: order > 0,
    ">=": lambda order: order >= 0,
    "<": lambda order: order < 0,
    "<=": lambda order: order <= 0,
}


class TestComparisonKernels:
    @pytest.mark.parametrize("types", COMPARISON_PAIRS, ids=lambda t: f"{t[0].value}-{t[1].value}")
    def test_matches_three_way_comparison(self, types):
        rng = random.Random(f"comparison {types}")
        schema = schema_of(("a", types[0]), ("b", types[1]))
        for op, holds in _HOLDS.items():
            run = _expression_runner(f"a {op} b", schema)
            for _ in range(60):
                a, b = (None if rng.random() < 0.1 else SAMPLES[t](rng) for t in types)
                expected = None if a is None or b is None else holds(generic.compare_values(a, b))
                assert run(a, b) is expected, (a, op, b)


class TestBuiltinKernels:
    # generated code takes a call's result to be null only when an
    # argument is, and skips the null test of a call on literals
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_non_null_arguments_give_a_non_null_cell(self, name):
        builtin, rng = BUILTINS[name], random.Random(name)
        admitted = [sorted(types or VT, key=str) for types in builtin.params]
        results = 0
        for _ in range(300):
            args = [rand_cell(rng, rng.choice(types), null_rate=0) for types in admitted]
            try:
                value = builtin.fn(*args)
            except ExecutionError:
                continue
            assert value is not None, (name, args)
            results += 1
        assert results > 30, name

    def test_call_builtin_gives_null_for_a_null_argument(self):
        assert call_builtin("UPPER", (None,)) is None
        assert call_builtin("CONCAT", ("a", None)) is None


def _literal(value):
    """A literal of ``value``'s type, and the value it holds. A number
    literal holds the magnitude, as a leading minus is an operator, and
    at most INT64_MAX for an INT; a DECIMAL literal needs a point, so an
    integral one gains a fractional zero, in place of its last digit
    where a 38th digit would be too many."""
    if isinstance(value, bool):
        return ("TRUE" if value else "FALSE"), value
    if isinstance(value, int):
        value = min(abs(value), INT64_MAX)
        return str(value), value
    if isinstance(value, Decimal):
        text = format(value.copy_abs(), "f")
        if "." not in text:
            text = (text if len(text) < 38 else text[:-1]) + ".0"
        return text, Decimal(text)
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"', value
    kind = "DATETIME" if isinstance(value, datetime.datetime) else "DATE"
    return f'{kind} "{format_cell(value)}"', value


def _located_outcome(compute, *args):
    try:
        return "ok", repr(compute(*args))
    except ExecutionError as exc:
        return type(exc).__name__, exc.message, (exc.location.line, exc.location.column)


class TestLiteralOperands:
    """A literal right operand is bound into its operator as a constant.
    Each operator must give what it gives with the same value in a column:
    the same result, null for a null left operand, and the same error at
    the same location."""

    @pytest.mark.parametrize("types", COMPARISON_PAIRS, ids=lambda t: f"{t[0].value}-{t[1].value}")
    def test_comparison(self, types):
        rng = random.Random(f"literal comparison {types}")
        schema = schema_of(("a", types[0]), ("b", types[1]))
        draws = (SAMPLES[types[1]](rng) for _ in range(8))
        literals = set(map(_literal, draws))
        lefts = [None] + [SAMPLES[types[0]](rng) for _ in range(20)]
        for op in _HOLDS:
            column = _expression_runner(f"a {op} b", schema)
            for text, b in literals:
                if isinstance(b, str) and not b.isprintable():
                    continue
                literal = _expression_runner(f"a {op} {text}", schema)
                for a in lefts:
                    assert literal(a, b) is column(a, b), (a, op, b)

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    @pytest.mark.parametrize("types", NUMERIC_PAIRS, ids=lambda t: f"{t[0].value}-{t[1].value}")
    def test_arithmetic(self, op, types):
        rng = random.Random(f"literal arithmetic {op} {types}")
        schema = schema_of(("a", types[0]), ("b", types[1]))
        column = _expression_runner(f"a {op} b", schema)
        # zero and the largest operands reach division by zero and overflow
        if types[1] is VT.INT:
            values = [0, 1, 3, INT64_MAX] + [_rand_int(rng) for _ in range(4)]
        else:
            values = [Decimal("0.00"), Decimal("3"), Decimal("9" * 37 + ".9")]
            values += [_rand_decimal(rng) for _ in range(4)]
        # -Decimal rounds to the default context's 28 digits; copy_negate is exact
        big = INT64_MAX if types[0] is VT.INT else Decimal("9" * 38)
        lefts = [None, big, -big if types[0] is VT.INT else big.copy_negate()]
        lefts += [_rand_operand(rng, types[0]) for _ in range(30)]
        seen = set()
        for text, b in map(_literal, values):
            literal = _expression_runner(f"a {op} {text}", schema)
            for a in lefts:
                expected = _located_outcome(column, a, b)
                assert _located_outcome(literal, a, b) == expected, (a, op, b)
                seen.add(expected[0])
        assert "ok" in seen and len(seen) > 1


def _generic_aggregate(fn, values):
    """SUM, AVG, MIN and MAX over non-null values, one generic step at
    a time."""
    if fn == "SUM":
        total = values[0]
        for value in values[1:]:
            total = generic.add_values(total, value)
        return total
    if fn == "AVG":
        total = Decimal(0)
        for value in values:
            total = generic.add_values(total, value)
        return generic.fraction_divide(total, Decimal(len(values)), generic.quotient_scale(total))
    order = -1 if fn == "MIN" else 1
    best = values[0]
    for value in values[1:]:
        if generic.compare_values(value, best) == order:
            best = value
    return best


AGGREGATE_EDGES = {
    # a partial sum out of range, though the total is not
    VT.INT: [[INT64_MAX, 1, -1], [INT64_MIN, -1, 1]],
    # a sum past 38 digits; equal values of different exponents, of
    # which MIN and MAX keep the first
    VT.DECIMAL: [[Decimal("9" * 38), Decimal(1)], [Decimal("2.0"), Decimal("2.00"), Decimal(1)]],
}


class TestAggregateKernels:
    @pytest.mark.parametrize("vtype", [VT.INT, VT.DECIMAL, VT.STRING, VT.DATE, VT.DATETIME])
    def test_matches_generic_steps(self, vtype):
        rng = random.Random(f"aggregate {vtype}")
        fns = ["SUM", "AVG", "MIN", "MAX"] if vtype in (VT.INT, VT.DECIMAL) else ["MIN", "MAX"]
        schema = schema_of(("a", vtype))
        for fn in fns:
            pipeline = parse(
                f"PIPELINE p:\n INPUT t: TABLE[a: {vtype.value}]\n STEP s:\n"
                f"  AGGREGATE t COMPUTE {fn}(a) AS v INTO r\n OUTPUT r"
            )
            cases = AGGREGATE_EDGES.get(vtype, []) + [
                [SAMPLES[vtype](rng) for _ in range(rng.randint(1, 6))] for _ in range(150)
            ]
            for values in cases:
                table = Table(schema, [(v,) for v in values])

                def run():
                    return run_pipeline(pipeline, {"t": table}).rows[0][0]

                assert _outcome(run) == _outcome(_generic_aggregate, fn, values), (fn, values)


class TestDecimalDivision:
    """decimal_divide against the Fraction reference."""

    def _check(self, numerator, denominator, scale):
        assert _outcome(decimal_divide, numerator, denominator, scale) == _outcome(
            generic.fraction_divide, numerator, denominator, scale
        ), (numerator, denominator, scale)

    def test_random_operands(self):
        rng = random.Random("division")
        for _ in range(3000):
            numerator = _rand_decimal(rng)
            denominator = _rand_decimal(rng) or Decimal(rng.choice([1, -7]))
            self._check(numerator, denominator, rng.randint(0, 14))

    def test_ties_round_half_even_in_both_signs(self):
        rng = random.Random("ties")
        for _ in range(2000):
            scale = rng.randint(0, 10)
            half = rng.randint(1, 10**6)
            quotient = rng.randint(-(10**12), 10**12)
            # numerator / (2 * half) * 10**scale == quotient + 1/2 exactly
            numerator = Decimal((2 * quotient + 1) * half).scaleb(-scale)
            denominator = Decimal(2 * half) * rng.choice([1, -1])
            self._check(numerator, denominator, scale)
            self._check(-numerator, denominator, scale)
        assert str(decimal_divide(Decimal("0.5"), Decimal(1), 0)) == "0"
        assert str(decimal_divide(Decimal("1.5"), Decimal(1), 0)) == "2"
        assert str(decimal_divide(Decimal("-2.5"), Decimal(1), 0)) == "-2"
        assert str(decimal_divide(Decimal("-0.0000000005"), Decimal(1), 9)) == "0E-9"

    def test_scale_ten_and_38_digit_results(self):
        self._check(Decimal("1.0000000001"), Decimal(3), 14)
        self._check(Decimal(1), Decimal("0.0000000003"), 10)
        widest = Decimal("9" * 28 + "." + "9" * 10)  # 38 digits at scale 10
        self._check(widest, Decimal(1), 10)
        self._check(widest, Decimal("0.9999999999"), 10)
        self._check(widest, Decimal("-3"), 10)
        assert repr(decimal_divide(widest, Decimal(1), 10)) == repr(widest)
        # the first mantissa past 38 digits
        assert _outcome(decimal_divide, widest, Decimal("0.5"), 10) == (
            "ConversionError", "DECIMAL overflow in division"
        )

    def test_int_operands(self):
        expected = generic.fraction_divide(Decimal(7), Decimal(2), 4)
        assert repr(decimal_divide(7, 2, 4)) == repr(expected)
        assert _outcome(decimal_divide, Decimal(1), 0, 4) == ("DivisionByZero", "division by zero")


CELL_EDGES = [
    "", "-0", "+5", "007", "0", "-", "+", "1" * 18, "9" * 18, "1" * 19, "9" * 19,
    "9223372036854775807", "9223372036854775808", "-9223372036854775808", "1" * 20,
    "１２", "١٢", "²", " 1", "1 ", "1_0", "1.", ".5", "1e3", "1E+3", "-1.5e-3",
    "0." + "1" * 10, "0." + "1" * 11, "1." + "0" * 10, "1." + "0" * 11,
    "9" * 27 + "." + "9" * 10, "9" * 28 + "." + "9" * 10, "1" * 37, "1" * 38,
    "1" * 39, "-" + "1" * 38, "-.5", "--1", "1.2.3", "0x10", "NaN", "١٫٥", "-00.50",
]


def _rand_text(rng):
    digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 40)))
    if rng.random() < 0.5:
        cut = rng.randint(0, len(digits))
        digits = digits[:cut] + "." + digits[cut:]
    return rng.choice(["", "", "-", "+"]) + digits


class TestCellFastPaths:
    @pytest.mark.parametrize(
        "fast, grammar",
        [(parse_int, generic.grammar_parse_int), (parse_decimal, generic.grammar_parse_decimal)],
        ids=["INT", "DECIMAL"],
    )
    def test_matches_grammar_path(self, fast, grammar):
        rng = random.Random(f"cells {fast.__name__}")
        for text in CELL_EDGES + [_rand_text(rng) for _ in range(3000)]:
            assert _outcome(fast, text) == _outcome(grammar, text), text


COLUMN_EDGES = {
    VT.INT: CELL_EDGES + ["-7", "-" + "9" * 18, "-" + "9" * 19, "12\n", "1\n2"],
    VT.DECIMAL: CELL_EDGES + [
        "0.0000000001", "0.00000000001", "1" * 27, "1" * 28, "1" * 28 + ".5",
        "-" + "9" * 27 + ".5", "5.", "1e3", ".5", "-0.0", "1.5\n", "1\n2",
    ],
    VT.BOOL: ["true", "false", "True", "TRUE", "FALSE", "1", "0", " true", "true ", "yes",
              "true\n", "true\nfalse", ""],
    VT.DATE: [
        "2024-01-02", "2024-02-29", "2023-02-29", "2024-02-30", "2024-13-01", "2024-00-10",
        "0000-01-01", "0001-01-01", "9999-12-31", "2024-W01-1", "20240102", "2024-1-2",
        "٢٠٢٤-01-02", "2024-01-02T00:00:00", " 2024-01-02", "2024-01-02\n",
        "2024-01-02\n2024-01-03", "",
    ],
    VT.DATETIME: [
        "2024-01-02T03:04:05", "2024-01-02T23:59:59", "2024-01-02T24:00:00",
        "2024-01-02T03:60:00", "2024-01-02 03:04:05", "2024-01-02T03:04:05.5",
        "2024-01-02T03:04", "2024-01-02T03:04:05Z", "2024-01-02T03:04:05+00:00",
        "2024-02-30T00:00:00", "20240102T030405", "2024-01-02", "٢٠٢٤-01-02T03:04:05",
        "2024-01-02T03:04:05\n", "",
    ],
}


def _per_cell(vtype, texts):
    """The outcome of reading ``texts`` field by field with their type's
    per-cell parser, empty as null: the cells, or the first bad field's
    error."""
    parse = CELL_TYPES[vtype].parse
    return _outcome(lambda: [parse(text) if text else None for text in texts])


class _Declined(Exception):
    pass


def _declined(text):
    """A per-cell parser that refuses every field, so that ``parse_column``
    gives cells only from its column fast path."""
    raise _Declined(text)


def _column_chunks(vtype):
    """Single edge fields, edge fields between a plain field and a null,
    and 400 seeded random mixes of edge and plain fields."""
    rng = random.Random(f"column {vtype}")
    edges, plain = COLUMN_EDGES[vtype], PLAIN_FIELDS[vtype]
    chunks = [[text] for text in edges] + [[plain, text, ""] for text in edges]
    pool = edges + [plain] * len(edges)
    return chunks + [rng.choices(pool, k=rng.randint(1, 60)) for _ in range(400)]


class TestColumnFastPath:
    """``parse_column`` against the per-cell parsers: every chunk reads as
    the per-cell parsers read it, and a chunk its fast path admits holds
    exactly the per-cell cells, so the fast path declines every chunk
    that holds a field the per-cell parser rejects."""

    @pytest.mark.parametrize("vtype", list(COLUMN_EDGES), ids=lambda t: t.value)
    def test_matches_per_cell_parsers(self, vtype):
        for chunk in _column_chunks(vtype):
            assert _outcome(parse_column, vtype, chunk) == _per_cell(vtype, chunk), chunk

    @pytest.mark.parametrize("vtype", list(COLUMN_EDGES), ids=lambda t: t.value)
    def test_fast_path_admits_only_per_cell_cells(self, vtype, monkeypatch):
        expected = [(chunk, _per_cell(vtype, chunk)) for chunk in _column_chunks(vtype)]
        monkeypatch.setitem(CELL_TYPES, vtype, CELL_TYPES[vtype]._replace(parse=_declined))
        admitted = 0
        for chunk, outcome in expected:
            try:
                cells = parse_column(vtype, chunk)
            except _Declined:
                continue
            admitted += 1
            assert ("ok", repr(cells)) == outcome, chunk
        assert admitted

    @pytest.mark.parametrize("vtype", list(COLUMN_EDGES), ids=lambda t: t.value)
    def test_plain_chunks_take_the_fast_path(self, vtype, monkeypatch):
        chunk = [PLAIN_FIELDS[vtype], ""] * 600
        expected = _per_cell(vtype, chunk)
        monkeypatch.setitem(CELL_TYPES, vtype, CELL_TYPES[vtype]._replace(parse=_declined))
        assert ("ok", repr(parse_column(vtype, chunk))) == expected


def _csv_per_cell(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(table.schema.names())
    for row in table.rows:
        writer.writerow(["" if cell is None else format_cell(cell) for cell in row])
    return buf.getvalue().encode("utf-8")


def _json_per_cell(table):
    def cell(value):
        if value is None or isinstance(value, (bool, int, str)):
            return value
        return format_cell(value)

    rows = [
        {field.name: cell(value) for field, value in zip(table.schema.fields, row)}
        for row in table.rows
    ]
    return (json.dumps(rows, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


class TestColumnCodecs:
    def test_encoders_match_per_cell_formatting(self):
        rng = random.Random("encoders")
        odd = schema_of(("d", VT.DECIMAL), ("b", VT.BOOL), ("t", VT.DATETIME))
        tables = [
            Table(odd, [(Decimal("1E-7"), True, datetime.datetime(2024, 1, 2, 3, 4, 5)),
                        (Decimal("0E-4"), None, None), (Decimal("-0"), False, None)]),
            Table(odd, []),
        ]
        tables += [rand_table(rng, rand_schema(rng)) for _ in range(300)]
        for table in tables:
            assert table_to_csv(table) == _csv_per_cell(table)
            assert table_to_json(table) == _json_per_cell(table)

    def test_csv_quoting_matches_the_csv_module(self):
        rng = random.Random("quoting")
        pieces = [",", '"', "\r", "\n", "\0", "\t", " ", '""', "a"]

        def cell(vtype):
            if rng.random() < 0.15:
                return None
            if vtype is VT.INT:
                return rng.randint(-99, 99)
            return "".join(rng.choice(pieces) for _ in range(rng.randint(0, 3)))

        tables = [
            Table(schema_of(("s", VT.STRING)), [("",), (None,), ("x",), ("",)]),
            Table(schema_of(("a", VT.INT)), [(None,), (1,), (None,)]),
        ]
        for _ in range(2000):
            types = [rng.choice([VT.STRING, VT.INT]) for _ in range(rng.randint(1, 3))]
            schema = schema_of(*[(f"c{i}", t) for i, t in enumerate(types)])
            rows = [tuple(map(cell, types)) for _ in range(rng.randint(0, 6))]
            tables.append(Table(schema, rows))
        for table in tables:
            assert table_to_csv(table) == _csv_per_cell(table), table.rows

    def test_csv_encoder_rejects_a_lone_surrogate(self):
        table = Table(schema_of(("s", VT.STRING), ("a", VT.INT)), [("ok\ud800", 1)])
        with pytest.raises(ConversionError, match="cannot encode"):
            table_to_csv(table)

    def test_csv_decoder_reports_the_first_failing_cell_in_row_order(self):
        schema = schema_of(("a", VT.INT), ("b", VT.DECIMAL))
        data = b"a,b\r\n1,1.5\r\n2,x\r\ny,2.5\r\n"
        with pytest.raises(ConversionError, match="line 3, field 'b'"):
            table_from_csv(data, schema)
        rows = [(i, Decimal(i).scaleb(-2)) for i in range(3000)]
        data = _csv_per_cell(Table(schema, rows)) + b"3000,oops\r\n"
        with pytest.raises(ConversionError, match="line 3002, field 'b'"):
            table_from_csv(data, schema)
        assert table_from_csv(_csv_per_cell(Table(schema, rows)), schema).rows == tuple(rows)
