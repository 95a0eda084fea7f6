"""The DECIMAL scale contract: a cell has at most 10 fractional digits,
whether it was read from text or computed. Quotients, AVG and products
of two DECIMALs round half-even to scale 10, so every table a run
produces reads back from the CSV and JSON its codecs write."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from anka.errors import ConversionError, ExecutionError
from anka.interpreter import run_pipeline
from anka.io_adapters import table_from_csv, table_from_json, table_to_csv, table_to_json
from anka.parser import parse
from anka.values import Table, ValueType as VT, cell_matches, check_decimal, format_cell

from builders import schema_of
from pipelinegen import rand_pipeline


def _computed(expr: str, *rows) -> Table:
    """MAP ``expr`` over a table of DECIMAL columns a and b."""
    pipeline = parse(
        "PIPELINE p:\n INPUT t: TABLE[a: DECIMAL, b: DECIMAL]\n STEP s:\n"
        f"  MAP t WITH c => {expr} INTO r\n OUTPUT r"
    )
    table = Table(schema_of(("a", VT.DECIMAL), ("b", VT.DECIMAL)), rows)
    return run_pipeline(pipeline, {"t": table})


def _csv_read_back(table: Table) -> Table:
    """``table`` as its CSV reads back: a null STRING cell as ``""``."""
    strings = [f.type is VT.STRING for f in table.schema]
    rows = [tuple("" if cell is None and string else cell for cell, string in zip(row, strings))
            for row in table.rows]
    return Table(table.schema, rows)


def _assert_round_trips(table: Table) -> None:
    assert table_from_json(table_to_json(table), table.schema) == table
    assert table_from_csv(table_to_csv(table), table.schema) == _csv_read_back(table)


@pytest.mark.parametrize(
    "expr, a, b, expected",
    [
        # the quotient was 0.33333333336667, at scale 14
        ("b / 3", None, "1.0000000001", "0.3333333334"),
        ("a / b", "1", "3", "0.3333"),
        ("a / b", "1.000000", "3", "0.3333333333"),
        # exact products up to scale 10 keep their scale
        ("a * b", "1500.00", "0.08", "120.0000"),
        ("a * b", "0.00001", "0.00001", "0.0000000001"),
        # past scale 10, ties go to the even digit
        ("a * b", "1.0000000001", "1.5", "1.5000000002"),
        ("a * b", "1.0000000001", "2.5", "2.5000000002"),
        ("a * b", "0.000001", "-0.000001", "0.0000000000"),
        ("a * b", "0.000000", "1.00000", "0.0000000000"),
        # an INT operand adds no scale
        ("a * 3", "1.0000000001", None, "3.0000000003"),
    ],
)
def test_results_round_half_even_to_scale_10(expr, a, b, expected):
    cells = tuple(None if cell is None else Decimal(cell) for cell in (a, b))
    table = _computed(expr, cells)
    assert format_cell(table.rows[0][-1]) == expected
    _assert_round_trips(table)


def test_a_product_past_38_exact_digits_rounds_into_range():
    a, b = Decimal("1234567890123456789.1234567891"), Decimal("1.1234567891")
    result = _computed("a * b", (a, b)).rows[0][-1]
    exact = Fraction(a) * Fraction(b)
    assert result == Decimal(f"{round(exact * 10**10)}E-10")
    with pytest.raises(ConversionError, match="DECIMAL overflow in multiplication"):
        _computed("a * b", (Decimal("9" * 28 + ".5"), Decimal("9" * 10 + ".5")))


@pytest.mark.parametrize("expr, name", [("a * 1000000000000000000", "multiplication"),
                                        ("b + b", "addition"), ("-b - b", "subtraction")])
def test_a_result_past_38_digits_overflows_though_its_extra_digits_are_zeros(expr, name):
    # each result is 10**38, 39 digits: the context would round it
    # exactly, to a coefficient of 38 digits, and no decoder reads it back
    with pytest.raises(ConversionError, match=f"DECIMAL overflow in {name}"):
        _computed(expr, (Decimal(10**20), Decimal(5 * 10**37)))


def test_avg_rounds_to_scale_10():
    pipeline = parse(
        "PIPELINE p:\n INPUT t: TABLE[a: DECIMAL]\n STEP s:\n"
        "  AGGREGATE t COMPUTE AVG(a) AS m INTO r\n OUTPUT r"
    )
    table = Table(schema_of(("a", VT.DECIMAL)), [(Decimal("1.0000000001"),), (Decimal(0),)])
    out = run_pipeline(pipeline, {"t": table})
    assert format_cell(out.rows[0][0]) == "0.5000000000"
    _assert_round_trips(out)


@pytest.mark.parametrize("text", ["1.5", "0.0000000001", "1E+3", "-0.00", "9" * 38,
                                  "0.00000000001", "NaN", "1" * 39, "-1E+38"])
def test_cell_matches_admits_what_check_decimal_admits(text):
    value = Decimal(text)
    try:
        check_decimal(value)
    except ConversionError:
        admitted = False
    else:
        admitted = True
    assert cell_matches(value, VT.DECIMAL) is admitted


def test_generated_pipeline_outputs_round_trip():
    rng = random.Random(31)
    ran = 0
    for _ in range(200):
        pipeline, tables = rand_pipeline(rng)
        try:
            out = run_pipeline(pipeline, tables)
        except ExecutionError:
            continue
        ran += 1
        _assert_round_trips(out)
    assert ran >= 150
