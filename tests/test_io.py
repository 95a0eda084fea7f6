"""Serialization round-trips, conversion errors, HTTP, and sandboxing."""

import csv
import datetime
import http.client
import io
import json
import random
import threading
import urllib.error
from decimal import Decimal
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from anka.bench import SuiteError, load_suite
from anka.errors import ConversionError, HttpError, IoError
from anka.interpreter import run_pipeline
from anka.io_adapters import (
    FileOps,
    HttpOps,
    IoAdapter,
    table_from_csv,
    table_from_json,
    table_to_csv,
    table_to_json,
)
from anka.parser import parse
from anka.values import (
    CELL_TYPES,
    ValueType as VT,
    make_table,
    schema_of,
    table_equal,
)

from generators import PLAIN_FIELDS, rand_schema, rand_table

FULL_SCHEMA = schema_of(
    ("i", VT.INT),
    ("s", VT.STRING),
    ("d", VT.DECIMAL),
    ("b", VT.BOOL),
    ("day", VT.DATE),
    ("at", VT.DATETIME),
)

FULL_TABLE = make_table(
    FULL_SCHEMA,
    [
        (
            42,
            'quote " comma , newline \n done',
            Decimal("120.0000"),
            True,
            datetime.date(2024, 1, 31),
            datetime.datetime(2024, 1, 31, 23, 59, 58),
        ),
        (None, None, None, None, None, None),
        (-7, "", Decimal("-0.5000"), False, None, None),
    ],
)


class TestJson:
    def test_basic_read(self):
        table = table_from_json(b'[{"a":1},{"a":2}]', schema_of(("a", VT.INT)))
        assert table.rows == ((1,), (2,))

    def test_leading_byte_order_mark_is_skipped(self):
        table = table_from_json(b'\xef\xbb\xbf[{"a":1}]', schema_of(("a", VT.INT)))
        assert table.rows == ((1,),)

    def test_empty_array(self):
        table = table_from_json(b"[]", schema_of(("a", VT.INT)))
        assert table.rows == ()

    def test_type_error_names_row_and_field(self):
        with pytest.raises(ConversionError, match="row 0, field 'a'"):
            table_from_json(b'[{"a":"x"}]', schema_of(("a", VT.INT)))

    def test_missing_keys_become_null_extras_ignored(self):
        table = table_from_json(
            b'[{"b": 3, "zzz": 1}]', schema_of(("a", VT.INT), ("b", VT.INT))
        )
        assert table.rows == ((None, 3),)

    def test_decimal_accepts_number_or_string_exactly(self):
        schema = schema_of(("d", VT.DECIMAL))
        by_number = table_from_json(b'[{"d": 0.1}]', schema)
        by_string = table_from_json(b'[{"d": "0.1"}]', schema)
        assert by_number.rows[0][0] == Decimal("0.1")
        assert str(by_string.rows[0][0]) == "0.1"

    def test_decimals_written_as_strings(self):
        data = json.loads(table_to_json(FULL_TABLE))
        assert data[0]["d"] == "120.0000"
        assert data[0]["i"] == 42
        assert data[0]["b"] is True
        assert data[1]["d"] is None

    def test_int_column_rejects_fraction_and_bool(self):
        schema = schema_of(("a", VT.INT))
        with pytest.raises(ConversionError):
            table_from_json(b'[{"a": 1.5}]', schema)
        with pytest.raises(ConversionError):
            table_from_json(b'[{"a": true}]', schema)
        assert table_from_json(b'[{"a": 2.0}]', schema).rows == ((2,),)

    def test_datetime_parsing(self):
        schema = schema_of(("at", VT.DATETIME))
        table = table_from_json(b'[{"at": "2024-01-31T23:59:58"}]', schema)
        assert table.rows[0][0] == datetime.datetime(2024, 1, 31, 23, 59, 58)
        with pytest.raises(ConversionError):
            table_from_json(b'[{"at": "2024-01-31 23:59:58"}]', schema)

    def test_malformed_json(self):
        with pytest.raises(ConversionError, match="malformed JSON"):
            table_from_json(b"[{", schema_of(("a", VT.INT)))
        with pytest.raises(ConversionError, match="array"):
            table_from_json(b"{}", schema_of(("a", VT.INT)))

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_rejected(self, constant):
        data = f'[{{"a": {constant}}}]'.encode()
        with pytest.raises(ConversionError) as err:
            table_from_json(data, schema_of(("a", VT.INT)))
        assert err.value.message == f"non-finite number '{constant}' in JSON input"

    def test_array_item_that_is_not_an_object(self):
        with pytest.raises(ConversionError) as err:
            table_from_json(b'[{"a": 1}, 5]', schema_of(("a", VT.INT)))
        assert err.value.message == "row 1: expected a JSON object"

    def test_text_equals_indented_dumps(self):
        schema = schema_of(
            ("s", VT.STRING), ("i", VT.INT), ("d", VT.DECIMAL),
            ("b", VT.BOOL), ("day", VT.DATE), ("at", VT.DATETIME),
        )
        texts = [
            "", 'quote " and \\ backslash', "new\nline\ttab\rreturn",
            "nul \x00 bell \x07 esc \x1b del \x7f", "naïve ∆ 日本 😀 \u2028",
        ]
        rows = [
            (text, n - 2**63, Decimal("-0.5000") * n, n % 2 == 0,
             datetime.date(2024, 1, n + 1), datetime.datetime(2024, 1, 31, 23, 59, n))
            for n, text in enumerate(texts)
        ] + [(None,) * 6]
        written = [
            {"s": s, "i": i, "d": format(d, "f"), "b": b,
             "day": day.isoformat(), "at": at.isoformat()}
            for s, i, d, b, day, at in rows[:-1]
        ] + [dict.fromkeys(schema.names())]
        for table, objects in ((make_table(schema, []), []), (make_table(schema, rows), written)):
            expected = json.dumps(objects, indent=2, ensure_ascii=False) + "\n"
            assert table_to_json(table) == expected.encode("utf-8")

    def test_random_text_equals_indented_dumps(self):
        # STRING cells mix JSON escapes, non-ASCII text and format fields,
        # which the row template must write as they are
        pieces = ["{", "}", "{0}", "{}", "{{s}}", '"', "\\", "\n", "\x00", "\x1f",
                  "\x7f", "é", "日本", "😀", "\u2028", "a", " "]
        texts = {
            VT.DECIMAL: lambda cell: format(cell, "f"),
            VT.DATE: datetime.date.isoformat,
            VT.DATETIME: datetime.datetime.isoformat,
        }
        rng = random.Random(4242)
        for case in range(300):
            # every type on its own, names that hold format fields and
            # quotes, then mixed schemas of up to six columns
            if case < len(VT):
                schema = schema_of(("a", list(VT)[case]))
            elif case == len(VT):
                schema = schema_of(("{0}", VT.STRING), ('"}{', VT.INT))
            else:
                schema = rand_schema(rng, max_cols=6)
            table = rand_table(rng, schema, max_rows=rng.choice((0, 1, 12)), null_rate=0.3)
            rows = [
                tuple(
                    "".join(rng.choices(pieces, k=rng.randint(0, 6)))
                    if field.type is VT.STRING and cell is not None else cell
                    for field, cell in zip(schema.fields, row)
                )
                for row in table.rows
            ]
            table = make_table(schema, rows)
            objects = [
                {
                    field.name: cell if cell is None or field.type not in texts
                    else texts[field.type](cell)
                    for field, cell in zip(schema.fields, row)
                }
                for row in rows
            ]
            expected = json.dumps(objects, indent=2, ensure_ascii=False) + "\n"
            assert table_to_json(table) == expected.encode("utf-8"), (schema, rows)

    def test_full_roundtrip(self):
        assert table_equal(
            table_from_json(table_to_json(FULL_TABLE), FULL_SCHEMA), FULL_TABLE
        )

    def test_random_roundtrips(self):
        rng = random.Random(777)
        for _ in range(80):
            schema = rand_schema(rng)
            table = rand_table(rng, schema)
            assert table_equal(table_from_json(table_to_json(table), schema), table)


# Cells before the year 1000, with the four-digit text every encoder writes.
EARLY_CELLS = [
    (VT.DATE, datetime.date(1, 1, 1), "0001-01-01"),
    (VT.DATE, datetime.date(999, 12, 31), "0999-12-31"),
    (VT.DATETIME, datetime.datetime(1, 1, 1, 0, 0, 0), "0001-01-01T00:00:00"),
    (VT.DATETIME, datetime.datetime(999, 1, 2, 3, 4, 5), "0999-01-02T03:04:05"),
]


@pytest.mark.parametrize(
    "vtype, cell, text", EARLY_CELLS, ids=[text for _, _, text in EARLY_CELLS]
)
class TestEarlyYears:
    def test_csv_round_trip(self, vtype, cell, text):
        schema = schema_of(("d", vtype))
        table = make_table(schema, [(cell,)])
        data = table_to_csv(table)
        assert data == f"d\r\n{text}\r\n".encode()
        assert table_equal(table_from_csv(data, schema), table)

    def test_json_round_trip(self, vtype, cell, text):
        schema = schema_of(("d", vtype))
        table = make_table(schema, [(cell,)])
        data = table_to_json(table)
        assert json.loads(data) == [{"d": text}]
        assert table_equal(table_from_json(data, schema), table)

    def test_to_string_reads_back(self, vtype, cell, text):
        source = (
            f"PIPELINE p:\n INPUT t: TABLE[d: {vtype.value}]\n STEP s:\n"
            "  MAP t WITH s => TO_STRING(d) INTO r\n OUTPUT r"
        )
        table = make_table(schema_of(("d", vtype)), [(cell,)])
        assert run_pipeline(parse(source), {"t": table}).rows == ((cell, text),)
        assert CELL_TYPES[vtype].parse(text) == cell


LONG_DIGITS = "9" * 5000
INT_COLUMN = schema_of(("a", VT.INT))
DECIMAL_COLUMN = schema_of(("a", VT.DECIMAL))


class TestNumbersFromOutside:
    """JSON and CSV number cells fail with ConversionError only, on the
    same grammar and bounds as literals and TO_INT/TO_DECIMAL."""

    @pytest.mark.parametrize("schema", [INT_COLUMN, DECIMAL_COLUMN])
    @pytest.mark.parametrize(
        "data",
        [
            f'[{{"a": {LONG_DIGITS}}}]',
            f'[{{"a": "{LONG_DIGITS}"}}]',
            '[{"a": 1e999999}]',
            '[{"a": "1e999999"}]',
            '[{"a": 1e99999999999999999999}]',
            '[{"a": 1e-999999}]',
        ],
    )
    def test_json_number_out_of_range(self, schema, data):
        with pytest.raises(ConversionError, match="row 0, field 'a'|malformed JSON"):
            table_from_json(data.encode(), schema)

    @pytest.mark.parametrize("schema", [INT_COLUMN, DECIMAL_COLUMN])
    @pytest.mark.parametrize(
        "cell", [LONG_DIGITS, "1e999999", "-" + LONG_DIGITS, "١٢", '"12\n"', " 12"]
    )
    def test_csv_number_rejected(self, schema, cell):
        with pytest.raises(ConversionError, match="field 'a'"):
            table_from_csv(f"a\n{cell}\n".encode(), schema)

    def test_csv_numbers_accepted(self):
        assert table_from_csv(b"a\n-12\n+3\n", INT_COLUMN).rows == ((-12,), (3,))
        table = table_from_csv(b"a\n1E+3\n.5\n", DECIMAL_COLUMN)
        assert [str(row[0]) for row in table.rows] == ["1000", "0.5"]

    def test_json_decimal_number_and_string_share_bounds(self):
        digits = "1" * 45 + ".5"
        for data in (f'[{{"a": {digits}}}]', f'[{{"a": "{digits}"}}]'):
            with pytest.raises(ConversionError, match="precision"):
                table_from_json(data.encode(), DECIMAL_COLUMN)
        table = table_from_json(b'[{"a": 1E+3}, {"a": "1E+3"}]', DECIMAL_COLUMN)
        assert [str(row[0]) for row in table.rows] == ["1000", "1000"]

    def test_json_int_column_bounds(self):
        assert table_from_json(b'[{"a": 1E+2}]', INT_COLUMN).rows == ((100,),)
        with pytest.raises(ConversionError, match="64-bit range"):
            table_from_json(b'[{"a": 1E+20}]', INT_COLUMN)

    def test_json_int_column_admits_an_integral_number_of_any_scale(self):
        data = b'[{"a": 1.00000000000}, {"a": 1.' + b"0" * 38 + b"}]"
        assert table_from_json(data, INT_COLUMN).rows == ((1,), (1,))

    def test_deeply_nested_json(self, tmp_path):
        deep = b"[" * 100_000 + b"]" * 100_000
        with pytest.raises(ConversionError, match="nesting too deep"):
            table_from_json(deep, INT_COLUMN)
        path = tmp_path / "suite.json"
        path.write_bytes(b'{"tasks": ' + deep + b"}")
        with pytest.raises(SuiteError, match="nesting too deep"):
            load_suite(path)

    def test_suite_file_with_bad_utf8(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_bytes(b'{"tasks": ["\xff"]}')
        with pytest.raises(SuiteError, match="UTF-8"):
            load_suite(path)


class TestCsv:
    def test_basic_read(self):
        table = table_from_csv(b"a\n1\n2\n", schema_of(("a", VT.INT)))
        assert table.rows == ((1,), (2,))

    def test_leading_byte_order_mark_is_skipped(self):
        table = table_from_csv(b"\xef\xbb\xbfa\n1\n", schema_of(("a", VT.INT)))
        assert table.rows == ((1,),)

    def test_bytes_that_are_not_utf8(self):
        with pytest.raises(ConversionError, match="^CSV input is not valid UTF-8: "):
            table_from_csv(b"a\n\xff\n", schema_of(("a", VT.STRING)))

    @pytest.mark.parametrize("data", [b"", b"\xef\xbb\xbf"], ids=["empty", "bom-only"])
    def test_empty_input_has_no_header(self, data):
        with pytest.raises(ConversionError) as err:
            table_from_csv(data, schema_of(("a", VT.INT)))
        assert err.value.message == "CSV input is empty, expected a header row"

    def test_header_mismatch(self):
        with pytest.raises(ConversionError) as err:
            table_from_csv(b"b\n1\n", schema_of(("a", VT.INT)))
        assert err.value.message == "line 1: header mismatch: expected ['a'], got ['b']"
        with pytest.raises(ConversionError) as err:
            table_from_csv(b"a\n1\n", schema_of(("a", VT.INT), ("b", VT.INT)))
        assert err.value.message == "line 1: header mismatch: expected ['a', 'b'], got ['a']"

    def test_field_count_mismatch_carries_line(self):
        with pytest.raises(ConversionError, match="line 3"):
            table_from_csv(
                b"a,b\n1,2\n3\n", schema_of(("a", VT.INT), ("b", VT.INT))
            )

    def test_value_error_carries_line_and_field(self):
        with pytest.raises(ConversionError, match="line 2, field 'a'"):
            table_from_csv(b"a\nx\n", schema_of(("a", VT.INT)))

    def test_quoted_comma_roundtrip(self):
        schema = schema_of(("s", VT.STRING))
        table = make_table(schema, [("a,b",), ('say "hi"',)])
        assert table_equal(table_from_csv(table_to_csv(table), schema), table)

    def test_empty_field_is_null_for_non_string(self):
        table = table_from_csv(
            b"a,s\n,\n", schema_of(("a", VT.INT), ("s", VT.STRING))
        )
        assert table.rows == ((None, ""),)

    def test_null_string_reads_back_as_empty(self):
        # CSV cannot tell a null string from an empty one; nulls in
        # STRING columns come back as ""
        schema = schema_of(("s", VT.STRING))
        table = make_table(schema, [(None,)])
        assert table_from_csv(table_to_csv(table), schema).rows == (("",),)

    def test_single_column_null_rows_survive(self):
        schema = schema_of(("a", VT.INT))
        table = make_table(schema, [(1,), (None,), (2,)])
        assert table_equal(table_from_csv(table_to_csv(table), schema), table)

    def test_bool_and_temporal_cells(self):
        schema = schema_of(("b", VT.BOOL), ("day", VT.DATE))
        table = make_table(schema, [(True, datetime.date(2024, 2, 3))])
        data = table_to_csv(table)
        assert b"true" in data and b"2024-02-03" in data
        assert table_equal(table_from_csv(data, schema), table)
        with pytest.raises(ConversionError, match="BOOL"):
            table_from_csv(b"b,day\nTRUE,2024-02-03\n", schema)

    def test_crlf_and_lf_both_accepted(self):
        schema = schema_of(("a", VT.INT))
        assert table_from_csv(b"a\r\n1\r\n", schema).rows == ((1,),)
        assert table_from_csv(b"a\n1\n", schema).rows == ((1,),)

    def test_field_past_the_csv_size_limit_is_a_conversion_error(self):
        big = b"x" * 200_000  # the csv module stops at 131,072 characters
        schema = schema_of(("a", VT.STRING))
        with pytest.raises(ConversionError, match="^line 2: field larger than field limit"):
            table_from_csv(b"a\r\n" + big + b"\r\n", schema)
        with pytest.raises(ConversionError, match="^line 1: field larger than field limit"):
            table_from_csv(big + b"\r\n", schema)

    def test_read_of_an_oversized_field_runs_on_error(self):
        files = RecordingFileOps({"big.csv": b"a\n" + b"x" * 200_000 + b"\n",
                                  "small.csv": b"a\nfallback\n"})
        source = (
            "PIPELINE p:\n STEP s:\n"
            '  TRY READ "big.csv" AS CSV TABLE[a: STRING] INTO t\n'
            '  ON_ERROR READ "small.csv" AS CSV TABLE[a: STRING] INTO t END_TRY\n'
            " OUTPUT t"
        )
        adapter = IoAdapter(sandbox=False, file_ops=files)
        assert run_pipeline(parse(source), {}, adapter).rows == (("fallback",),)
        assert files.calls == [("read", "big.csv"), ("read", "small.csv")]

    def test_blank_line_is_skipped_with_several_columns(self):
        schema = schema_of(("a", VT.INT), ("s", VT.STRING))
        table = table_from_csv(b"a,s\n1,x\n\n2,y\n", schema)
        assert table.rows == ((1, "x"), (2, "y"))

    def test_blank_line_is_a_null_row_with_one_column(self):
        table = table_from_csv(b"a\n1\n\n2\n", schema_of(("a", VT.INT)))
        assert table.rows == ((1,), (None,), (2,))
        strings = table_from_csv(b"s\nx\n\ny\n", schema_of(("s", VT.STRING)))
        assert strings.rows == (("x",), ("",), ("y",))

    def test_bad_cell_after_a_blank_line_names_its_line(self):
        # the blank line 3 is skipped, and still counted
        schema = schema_of(("a", VT.INT), ("s", VT.STRING))
        with pytest.raises(ConversionError, match="^line 5, field 'a': ") as err:
            table_from_csv(b"a,s\n1,x\n\n2,y\nbad,z\n", schema)
        assert "'bad'" in err.value.message

    def test_blank_lines_keep_the_column_path(self, monkeypatch):
        # a blank record is a null row or is skipped as it is read, so the
        # plain fields around it never reach the per-cell parsers
        for vtype, row in CELL_TYPES.items():
            if vtype is not VT.STRING:
                monkeypatch.setitem(CELL_TYPES, vtype, row._replace(parse=_refused))
        schema = schema_of(("a", VT.INT), ("day", VT.DATE), ("s", VT.STRING))
        table = table_from_csv(b"a,day,s\n1,2024-01-02,x\n\n2,,y\n\n", schema)
        assert table.rows == ((1, datetime.date(2024, 1, 2), "x"), (2, None, "y"))
        table = table_from_csv(b"a\n1\n\n2\n\n", INT_COLUMN)
        assert table.rows == ((1,), (None,), (2,), (None,))

    def test_a_bad_record_before_a_reader_error_is_reported_first(self):
        schema = schema_of(("a", VT.INT), ("s", VT.STRING))
        big = "x" * 140_000  # past the csv module's 131,072-character limit
        with pytest.raises(ConversionError) as err:
            table_from_csv(f"a,s\n1,x\nbad,y\n2,{big}\n".encode(), schema)
        assert err.value.message == "line 3, field 'a': cannot parse 'bad' as INT"
        with pytest.raises(ConversionError) as err:
            table_from_csv(f"a,s\n1,x\n2,{big}\nbad,y\n".encode(), schema)
        assert err.value.message.startswith("line 3: field larger than field limit")

    def test_a_chunk_of_blank_lines_only_is_skipped(self):
        # 1,100 blank lines in a row leave a chunk with no record at all
        schema = schema_of(("a", VT.INT), ("s", VT.STRING))
        data = b"a,s\r\n1,x\r\n" + b"\r\n" * 1100 + b"2,y\r\n" + b"\n" * 2048
        assert table_from_csv(data, schema).rows == ((1, "x"), (2, "y"))
        assert table_from_csv(b"a,s\r\n" + b"\r\n" * 1024, schema).rows == ()

    @pytest.mark.parametrize("record, message", [
        (b"2,y,z", "line 2103: expected 2 fields, got 3"),
        (b"q,y", "line 2103, field 'a': cannot parse 'q' as INT"),
    ])
    def test_a_bad_record_after_whole_chunks_of_blank_lines_is_named(self, record, message):
        # the error walk reads past the two chunks admitted whole, blanks and all
        schema = schema_of(("a", VT.INT), ("s", VT.STRING))
        data = b"a,s\r\n1,x\r\n" + b"\r\n" * 2100 + record + b"\r\n"
        with pytest.raises(ConversionError) as err:
            table_from_csv(data, schema)
        assert err.value.message == message

    def test_a_bad_cell_before_an_oversized_field_in_a_later_chunk_is_named(self):
        schema = schema_of(("a", VT.INT), ("s", VT.STRING))
        lines = [f"{i},x" for i in range(2500)]
        lines[1500] = "oops,x"  # in the second chunk, line 1,502
        lines[2200] = "1," + "x" * 140_000  # in the third
        data = "\r\n".join(["a,s", *lines, ""]).encode()
        with pytest.raises(ConversionError) as err:
            table_from_csv(data, schema)
        assert err.value.message == "line 1502, field 'a': cannot parse 'oops' as INT"

    def test_random_roundtrips_without_null_strings(self):
        rng = random.Random(778)
        for _ in range(80):
            schema = rand_schema(rng)
            has_string = any(f.type is VT.STRING for f in schema.fields)
            table = rand_table(rng, schema, null_rate=0.0 if has_string else 0.2)
            assert table_equal(table_from_csv(table_to_csv(table), schema), table)


# Edge fields of each type, good and bad, on either side of the column
# chunk shapes.
EDGE_FIELDS = {
    VT.INT: [
        "-7", "-0", "007", "+5", " 5", "5 ", "1_000", "١٢", "１２", "123456789012345678",
        "1234567890123456789", "9223372036854775807", "-9223372036854775808",
        "9223372036854775808", "12\n",
    ],
    VT.DECIMAL: [
        "-0.50", "0.0000000001", "0.00000000001", "1" * 27, "1" * 28, "1" * 28 + ".25",
        "1e3", "1E+3", ".5", "5.", "+1.5", "١٫٥", "NaN", "1.5\n",
    ],
    VT.BOOL: ["false", "True", "TRUE", "1", " true", "true\n"],
    VT.DATE: ["2024-02-29", "2023-02-29", "2024-02-30", "2024-W01-1", "20240102",
              "٢٠٢٤-01-02", "2024-01-02\n"],
    VT.DATETIME: ["2024-01-02T23:59:59", "2024-01-02T24:00:00", "2024-01-02 03:04:05",
                  "2024-01-02T03:04:05Z", "2024-01-02T03:04:05\n"],
}


def _csv_text(schema, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(schema.names())
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _decoded(data, schema):
    try:
        return "ok", repr(table_from_csv(data, schema).rows)
    except ConversionError as exc:
        return "error", exc.message


def _decoded_per_cell(data, schema):
    """What ``table_from_csv`` must give: the records past the header, a
    blank one a null row in a one-column table and skipped otherwise,
    each cell from its column's per-cell parser; or the error of the
    first bad record in file order (a reader error, a wrong field count
    or a failing cell) with the line the record ends on."""
    reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    next(reader)
    rows = []
    try:
        for record in reader:
            line = reader.line_num
            if record == [] and len(schema) > 1:
                continue
            record = record or [""]
            if len(record) != len(schema):
                return "error", f"line {line}: expected {len(schema)} fields, got {len(record)}"
            row = []
            for field, raw in zip(schema.fields, record):
                parse = None if field.type is VT.STRING else CELL_TYPES[field.type].parse
                try:
                    row.append(raw if parse is None else parse(raw) if raw else None)
                except ConversionError as exc:
                    return "error", f"line {line}, field '{field.name}': {exc.message}"
            rows.append(tuple(row))
    except csv.Error as exc:
        return "error", f"line {reader.line_num}: {exc}"
    return "ok", repr(tuple(rows))


def _refused(text):
    """A per-cell parser that refuses every field."""
    raise AssertionError(f"per-cell parser called on {text!r}")


def _csv_line(fields) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


# lines to put among a file's plain records, each built for the file's
# column types by a seeded random generator
ODD_LINES = [
    lambda rng, types: "",  # a blank line
    lambda rng, types: ",".join(["7"] * rng.choice([len(types) - 1, len(types) + 1])),
    lambda rng, types: "x" * 140_000,  # a field past the csv module's limit
    lambda rng, types: _csv_line(["two\nlines" if t is VT.STRING else "" for t in types]),
    lambda rng, types: _csv_line(
        [rng.choice(EDGE_FIELDS.get(t, ["", "a,b", 'say "hi"'])) for t in types]
    ),
]


def _random_csv(rng):
    """A schema of one to three columns and a file of plain records, half
    the time a few and otherwise about one, two or three chunks, with a
    few odd lines (see ``ODD_LINES``), many of them at a chunk edge."""
    types = [rng.choice([VT.STRING, *EDGE_FIELDS]) for _ in range(rng.randint(1, 3))]
    schema = schema_of(*[(f"c{i}", t) for i, t in enumerate(types)])
    lines = [",".join(PLAIN_FIELDS.get(t, "s") for t in types)]
    lines *= rng.choice([0, 2, 5, 1023, 1025, 2049])
    for _ in range(rng.randint(0, 3)):
        at = rng.choice([0, 1022, 1023, 1024, 2046, 2047, 2048, rng.randint(0, len(lines))])
        lines.insert(min(at, len(lines)), rng.choice(ODD_LINES)(rng, types))
    end = rng.choice(["\r\n", "\n"])
    return schema, end.join([",".join(schema.names()), *lines, ""]).encode("utf-8")


class TestCsvColumnChunks:
    """Cells are admitted a chunk of 1,024 records and one column at a
    time; a chunk must decode to exactly the per-cell parsers' cells, or
    fail with the same message and line."""

    @pytest.mark.parametrize("vtype", list(EDGE_FIELDS), ids=lambda t: t.value)
    @pytest.mark.parametrize("where", [0, 1024], ids=["first-chunk", "second-chunk"])
    def test_edge_fields_decode_as_per_cell(self, vtype, where):
        schema = schema_of(("s", VT.STRING), ("x", vtype))
        plain = PLAIN_FIELDS[vtype]
        # nulls, and a quoted field holding a line feed in each chunk
        base = [[f"r{i}", "" if i % 7 == 3 else plain] for i in range(1100)]
        base[5][0] = base[1030][0] = "two\nlines"
        for field in EDGE_FIELDS[vtype] + [plain]:
            rows = [list(row) for row in base]
            rows[where + 1][1] = field
            data = _csv_text(schema, rows)
            assert _decoded(data, schema) == _decoded_per_cell(data, schema), field

    def test_random_files_decode_as_per_cell(self):
        for seed in range(300):
            schema, data = _random_csv(random.Random(seed))
            assert _decoded(data, schema) == _decoded_per_cell(data, schema), seed

    def test_bad_cell_in_the_second_chunk_names_its_line(self):
        schema = schema_of(("a", VT.INT), ("b", VT.DATE))
        rows = [[str(i), "2024-01-02"] for i in range(1100)]
        rows[1024][1] = "2024-02-30"  # row 1,025: the second chunk's first
        with pytest.raises(ConversionError) as err:
            table_from_csv(_csv_text(schema, rows), schema)
        assert err.value.message == "line 1026, field 'b': invalid DATE value '2024-02-30'"
        # a quoted line feed before it moves it one line down
        schema = schema_of(("s", VT.STRING), ("a", VT.INT))
        rows = [["x", str(i)] for i in range(1100)]
        rows[3][0] = "two\nlines"
        rows[1024][1] = "1_000"
        with pytest.raises(ConversionError) as err:
            table_from_csv(_csv_text(schema, rows), schema)
        assert err.value.message == "line 1027, field 'a': cannot parse '1_000' as INT"


class RecordingFileOps(FileOps):
    def __init__(self, contents=None):
        self.calls = []
        self.contents = contents or {}

    def read_bytes(self, path):
        self.calls.append(("read", path))
        return self.contents.get(path, b"[]")

    def write_bytes(self, path, data):
        self.calls.append(("write", path))


class RecordingHttpOps(HttpOps):
    def __init__(self, status=200, body=b"[]"):
        self.calls = []
        self.status = status
        self.body = body

    def get(self, url, timeout):
        self.calls.append(("get", url))
        return self.status, self.body

    def post(self, url, body, timeout):
        self.calls.append(("post", url))
        return self.status, self.body


class FailingHttpOps(HttpOps):
    """Raises ``error`` on every request, as a broken connection does."""

    def __init__(self, error):
        self.error = error

    def get(self, url, timeout):
        raise self.error

    def post(self, url, body, timeout):
        raise self.error


CONNECTION_FAILURES = [
    http.client.RemoteDisconnected("Remote end closed connection without response"),
    http.client.IncompleteRead(b"[{", 10),
    http.client.InvalidURL("nonnumeric port: 'abc'"),
    http.client.HTTPException(),
    ConnectionResetError(104, "Connection reset by peer"),
    ValueError("Invalid IPv6 URL"),
]


class TestConnectionFailures:
    @pytest.mark.parametrize("error", CONNECTION_FAILURES, ids=lambda e: type(e).__name__)
    def test_fetch_and_post_raise_http_error(self, error):
        adapter = IoAdapter(sandbox=False, http_ops=FailingHttpOps(error))
        schema = schema_of(("a", VT.INT))
        reason = str(error) or type(error).__name__
        with pytest.raises(HttpError) as err:
            adapter.fetch_table("http://example.test/rows", schema)
        assert err.value.message == f"GET 'http://example.test/rows' failed: {reason}"
        with pytest.raises(HttpError) as err:
            adapter.post_table("http://example.test/sink", make_table(schema, []))
        assert err.value.message == f"POST 'http://example.test/sink' failed: {reason}"

    def test_an_unmapped_error_is_raised_unchanged(self):
        error = RuntimeError("handle bug")
        adapter = IoAdapter(sandbox=False, http_ops=FailingHttpOps(error))
        with pytest.raises(RuntimeError) as err:
            adapter.fetch_table("http://example.test/rows", schema_of(("a", VT.INT)))
        assert err.value is error

    def test_post_error_status_keeps_its_status(self):
        adapter = IoAdapter(sandbox=False, http_ops=RecordingHttpOps(status=404))
        empty = make_table(schema_of(("a", VT.INT)), [])
        with pytest.raises(HttpError) as err:
            adapter.post_table("http://example.test/sink", empty)
        assert err.value.status == 404

    @pytest.mark.parametrize(
        "error, reason",
        [(urllib.error.URLError("no route to host"), "failed: no route to host"),
         (TimeoutError("timed out"), "timed out"),
         (ConnectionResetError(104, "Connection reset by peer"),
          "failed: [Errno 104] Connection reset by peer")],
        ids=["URLError", "TimeoutError", "ConnectionResetError"],
    )
    def test_failed_post_has_no_status(self, error, reason):
        adapter = IoAdapter(sandbox=False, http_ops=FailingHttpOps(error))
        empty = make_table(schema_of(("a", VT.INT)), [])
        with pytest.raises(HttpError) as err:
            adapter.post_table("http://example.test/sink", empty)
        assert err.value.message == f"POST 'http://example.test/sink' {reason}"
        assert err.value.status is None

    def test_body_of_an_error_status_is_not_read(self):
        class BrokenBody(io.BytesIO):
            def read(self, *args):
                raise ConnectionResetError(104, "Connection reset by peer")

        url = "http://example.test/rows"
        error = urllib.error.HTTPError(url, 503, "Service Unavailable", {}, BrokenBody())
        adapter = IoAdapter(sandbox=False, http_ops=FailingHttpOps(error))
        with pytest.raises(HttpError) as err:
            adapter.fetch_table(url, schema_of(("a", VT.INT)))
        assert err.value.status == 503

    def test_try_catches_a_failed_fetch(self):
        error = http.client.RemoteDisconnected("Remote end closed connection")
        files = RecordingFileOps({"fallback.json": b'[{"a": 7}]'})
        adapter = IoAdapter(sandbox=False, file_ops=files, http_ops=FailingHttpOps(error))
        source = (
            "PIPELINE p:\n STEP s:\n"
            '  TRY FETCH "http://example.test/rows" TABLE[a: INT] INTO t\n'
            '  ON_ERROR READ "fallback.json" AS JSON TABLE[a: INT] INTO t END_TRY\n'
            " OUTPUT t"
        )
        assert run_pipeline(parse(source), {}, adapter).rows == ((7,),)
        assert files.calls == [("read", "fallback.json")]

    @pytest.mark.parametrize(
        "url, reason",
        [("http://x.test:abc/t", "nonnumeric port: 'abc'"),
         ("http://[::1/t", "Invalid IPv6 URL")],
    )
    def test_malformed_url_fails_before_connecting(self, monkeypatch, url, reason):
        # both fail while the URL is parsed; without a proxy nothing else
        # could be contacted
        for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
            monkeypatch.delenv(name, raising=False)
        adapter = IoAdapter(sandbox=False)
        with pytest.raises(HttpError) as err:
            adapter.fetch_table(url, schema_of(("a", VT.INT)))
        assert err.value.message == f"GET {url!r} failed: {reason}"


class TestUnencodableStrings:
    """A JSON escape admits a lone surrogate into a STRING cell, which
    UTF-8 cannot encode: writing it is a ConversionError, which TRY can
    catch, not a UnicodeEncodeError."""

    SCHEMA = schema_of(("a", VT.STRING))

    @pytest.mark.parametrize("encode", [table_to_json, table_to_csv])
    def test_encoders_raise_conversion_error(self, encode):
        table = table_from_json(b'[{"a": "\\ud800x"}]', self.SCHEMA)
        assert table.rows == (("\ud800x",),)
        with pytest.raises(ConversionError, match=r"^cannot encode '\\ud800' as UTF-8$"):
            encode(table)

    def test_try_around_a_write_runs_its_handler(self):
        files = RecordingFileOps({"in.json": b'[{"a": "\\udc80"}]'})
        source = (
            "PIPELINE p:\n STEP s:\n"
            '  READ "in.json" AS JSON TABLE[a: STRING] INTO t\n'
            '  TRY WRITE t TO "out.csv" AS CSV MAP t WITH written => TRUE INTO r\n'
            "  ON_ERROR MAP t WITH written => FALSE INTO r END_TRY\n"
            " OUTPUT r"
        )
        adapter = IoAdapter(sandbox=False, file_ops=files)
        assert run_pipeline(parse(source), {}, adapter).rows == (("\udc80", False),)
        assert files.calls == [("read", "in.json")]


class TestSandbox:
    def test_sandboxed_adapter_denies_everything_without_touching_handles(self):
        files, http = RecordingFileOps(), RecordingHttpOps()
        adapter = IoAdapter(sandbox=True, file_ops=files, http_ops=http)
        schema = schema_of(("a", VT.INT))
        table = make_table(schema, [])
        with pytest.raises(IoError, match="sandboxed"):
            adapter.read_table("x.json", "json", schema)
        with pytest.raises(IoError, match="sandboxed"):
            adapter.write_table(table, "x.json", "json")
        with pytest.raises(HttpError, match="sandboxed"):
            adapter.fetch_table("http://example.test/", schema)
        with pytest.raises(HttpError, match="sandboxed"):
            adapter.post_table("http://example.test/", table)
        assert files.calls == []
        assert http.calls == []

    def test_unsandboxed_adapter_uses_handles(self):
        files, http = RecordingFileOps(), RecordingHttpOps()
        adapter = IoAdapter(sandbox=False, file_ops=files, http_ops=http)
        schema = schema_of(("a", VT.INT))
        assert adapter.fetch_table("http://example.test/rows", schema).rows == ()
        assert adapter.post_table("http://example.test/sink", make_table(schema, [])) == 200
        assert adapter.read_table("x.json", "json", schema).rows == ()
        adapter.write_table(make_table(schema, []), "y.json", "json")
        assert ("get", "http://example.test/rows") in http.calls
        assert ("write", "y.json") in files.calls

    def test_non_2xx_fetch_raises_with_status(self):
        http = RecordingHttpOps(status=500)
        adapter = IoAdapter(sandbox=False, http_ops=http)
        with pytest.raises(HttpError) as err:
            adapter.fetch_table("http://example.test/", schema_of(("a", VT.INT)))
        assert err.value.status == 500

    def test_a_failed_fetch_in_a_pipeline_keeps_its_status(self):
        source = (
            'PIPELINE p:\n STEP s:\n  FETCH "http://example.test/" TABLE[a: INT] INTO t\n'
            " OUTPUT t"
        )
        adapter = IoAdapter(sandbox=False, http_ops=RecordingHttpOps(status=500))
        with pytest.raises(HttpError) as err:
            run_pipeline(parse(source), {}, adapter)
        assert (err.value.location.line, err.value.status) == (3, 500)
        assert str(err.value) == f"{err.value.location}: {err.value.message}"

    def test_invalid_url_scheme(self):
        adapter = IoAdapter(sandbox=False, http_ops=RecordingHttpOps())
        with pytest.raises(HttpError, match="http or https"):
            adapter.fetch_table("ftp://example.test/", schema_of(("a", VT.INT)))

    def test_file_roundtrip_on_disk(self, tmp_path):
        adapter = IoAdapter(sandbox=False)
        schema = schema_of(("a", VT.INT), ("s", VT.STRING))
        table = make_table(schema, [(1, "x"), (None, "y")])
        for fmt in ("json", "csv"):
            path = str(tmp_path / f"t.{fmt}")
            adapter.write_table(table, path, fmt)
            assert table_equal(adapter.read_table(path, fmt, schema), table)

    def test_missing_file_is_io_error(self):
        adapter = IoAdapter(sandbox=False)
        with pytest.raises(IoError, match="cannot read"):
            adapter.read_table("/nonexistent/nope.json", "json", schema_of(("a", VT.INT)))


class _Handler(BaseHTTPRequestHandler):
    posted = []

    def do_GET(self):
        if self.path == "/rows":
            body = b'[{"a": 1}, {"a": 2}]'
            self.send_response(200)
        elif self.path == "/boom":
            body = b"error"
            self.send_response(500)
        else:
            body = b"[]"
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        _Handler.posted.append(self.rfile.read(length))
        self.send_response(201)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


class TestRealHttp:
    def test_fetch_parses_body(self, http_server):
        adapter = IoAdapter(sandbox=False)
        table = adapter.fetch_table(f"{http_server}/rows", schema_of(("a", VT.INT)))
        assert table.rows == ((1,), (2,))

    def test_fetch_empty(self, http_server):
        adapter = IoAdapter(sandbox=False)
        table = adapter.fetch_table(f"{http_server}/empty", schema_of(("a", VT.INT)))
        assert table.rows == ()

    def test_fetch_500(self, http_server):
        adapter = IoAdapter(sandbox=False)
        with pytest.raises(HttpError) as err:
            adapter.fetch_table(f"{http_server}/boom", schema_of(("a", VT.INT)))
        assert err.value.status == 500

    def test_post_sends_json_table(self, http_server):
        _Handler.posted.clear()
        adapter = IoAdapter(sandbox=False)
        table = make_table(schema_of(("a", VT.INT)), [(5,)])
        status = adapter.post_table(f"{http_server}/sink", table)
        assert status == 201
        assert json.loads(_Handler.posted[0]) == [{"a": 5}]
