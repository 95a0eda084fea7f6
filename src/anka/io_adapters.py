"""Table serialization (JSON, CSV) and HTTP transfer behind a
swappable adapter.

The adapter holds low-level file and HTTP capability handles plus a
sandbox flag. Sandboxed adapters (the default) deny every operation
deterministically before touching any handle, which makes benchmark
runs hermetic.

The CSV decoder reads a chunk of records in one call and admits it a
column at a time through ``values.parse_column``, which admits each cell
by the per-cell rules; a file that fails is read again, past the chunks
it admitted whole, to name its first bad line. The CSV encoder turns
each column into text once and quotes only a STRING column that needs it.
"""

from __future__ import annotations

import csv
import decimal
import io
import json
import re
from decimal import Decimal
from itertools import islice
from json.encoder import encode_basestring
from typing import Optional, Sequence

from anka.errors import ConversionError, HttpError, IoError
from anka.values import (
    CELL_TYPES,
    Cell,
    Schema,
    Table,
    ValueType,
    check_decimal,
    check_int,
    parse_column,
)

DEFAULT_HTTP_TIMEOUT = 10.0


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def table_to_json(table: Table) -> bytes:
    """Encode as a JSON array of objects, fields in schema order, with
    the text of ``json.dumps(rows, indent=2, ensure_ascii=False)``.
    DECIMAL, DATE and DATETIME cells become their text form as strings,
    so no precision is lost in transit.

    Each column's cells become JSON text once, and one ``str.format``
    template per table, built from the encoded names, lays out every
    row. A cell is a ``format`` argument, never part of the template,
    so braces in its text are written as they are."""
    if not table.rows:
        return b"[]\n"
    fields = table.schema.fields
    template = "  {{\n" + ",\n".join(
        "    " + encode_basestring(field.name).replace("{", "{{").replace("}", "}}")
        + ": {}"
        for field in fields
    ) + "\n  }}"
    columns = [
        _json_column(field.type, column)
        for field, column in zip(fields, zip(*table.rows))
    ]
    rows = map(template.format, *columns)
    return _utf8("[\n" + ",\n".join(rows) + "\n]\n")


def _utf8(text: str) -> bytes:
    """Encoded text. A STRING cell may hold a lone surrogate, which a
    JSON escape such as ``\\ud800`` admits and UTF-8 cannot encode."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start : exc.end]
        raise ConversionError(f"cannot encode {bad!r} as UTF-8") from None


def _json_column(vtype: ValueType, column: tuple) -> list[str]:
    """Each cell of a column as JSON text: INT and BOOL cells as their
    text form, every other type's text form as a JSON string, and null
    as ``null``."""
    text = CELL_TYPES[vtype].text
    if vtype is ValueType.STRING:
        encode = encode_basestring
    elif vtype is ValueType.INT or vtype is ValueType.BOOL:
        encode = text
    else:

        def encode(cell):
            return encode_basestring(text(cell))

    if None in column:
        return ["null" if cell is None else encode(cell) for cell in column]
    return list(map(encode, column))


def _reject_constant(text: str):
    raise ConversionError(f"non-finite number {text!r} in JSON input")


def decode_json(data: bytes):
    """Decode a JSON document, every number as an exact Decimal. Raises
    only ConversionError, also for absurd exponents and deep nesting."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConversionError(f"JSON input is not valid UTF-8: {exc}") from None
    try:
        return json.loads(
            text,
            parse_float=Decimal,
            parse_int=Decimal,
            parse_constant=_reject_constant,
        )
    except json.JSONDecodeError as exc:
        raise ConversionError(f"malformed JSON: {exc}") from None
    except decimal.InvalidOperation:  # an exponent past Decimal's own limits
        raise ConversionError("malformed JSON: number out of range") from None
    except RecursionError:
        raise ConversionError("malformed JSON: nesting too deep") from None


def table_from_json(data: bytes, schema: Schema) -> Table:
    """Decode a JSON array of objects against a declared schema.

    Missing keys become null; unknown keys are ignored. Numbers are
    decoded exactly (never through binary floats); DECIMAL accepts both
    numbers and strings.
    """
    parsed = decode_json(data)
    if not isinstance(parsed, list):
        raise ConversionError("JSON input must be an array of objects")
    return json_rows_to_table(parsed, schema)


def json_rows_to_table(items: list, schema: Schema) -> Table:
    """Build a table from already-decoded JSON row objects. Numbers are
    Decimals, as decode_json gives them, or ints. Each cell is admitted
    by its column's type as it is read."""
    rows = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ConversionError(f"row {i}: expected a JSON object")
        row = []
        for field in schema.fields:
            value = item.get(field.name)
            try:
                row.append(_json_to_cell(value, field.type))
            except ConversionError as exc:
                raise ConversionError(
                    f"row {i}, field '{field.name}': {exc.message}"
                ) from None
        rows.append(tuple(row))
    return Table.trusted(schema, rows)


def _json_to_cell(value, vtype: ValueType) -> Cell:
    if value is None:
        return None
    if isinstance(value, bool):
        if vtype is ValueType.BOOL:
            return value
    elif isinstance(value, (int, Decimal)):
        if vtype is ValueType.DECIMAL:
            return check_decimal(Decimal(value))
        if vtype is ValueType.INT:
            number = Decimal(value)
            integral = number.to_integral_value()  # 1.000 is 1, whatever its scale
            if number != integral:
                check_decimal(number)  # past the DECIMAL bounds, its message first
                raise ConversionError(f"expected INT, got non-integral number {number}")
            return check_int(int(check_decimal(integral)))  # 38 digits at most for int()
    elif isinstance(value, str) and vtype in _JSON_TEXT_PARSERS:
        return _JSON_TEXT_PARSERS[vtype](value)
    temporal = vtype is ValueType.DATE or vtype is ValueType.DATETIME
    expected = f"{vtype.value} string" if temporal else vtype.value
    raise ConversionError(f"expected {expected}, got {_json_type_name(value)}")


# the column types a JSON string may hold, all but INT and BOOL, and how
# each reads it
_JSON_TEXT_PARSERS = {
    vtype: row.parse
    for vtype, row in CELL_TYPES.items()
    if vtype is not ValueType.INT and vtype is not ValueType.BOOL
}


def _json_type_name(value) -> str:
    return {
        bool: "boolean",
        int: "number",
        Decimal: "number",
        str: "string",
        list: "array",
        dict: "object",
    }.get(type(value), type(value).__name__)


# ---------------------------------------------------------------------------
# CSV (RFC 4180: comma delimiter, double-quote quoting, header row)
# ---------------------------------------------------------------------------


def table_to_csv(table: Table) -> bytes:
    """Encode with a header row of the schema names, fields joined by
    ``,`` and each line ended by CRLF, byte for byte as ``csv.writer``
    writes under ``QUOTE_MINIMAL``: a field holding ``,``, ``"``, CR or LF
    is quoted, its quotes doubled, null is an empty field, and in a
    one-column table an empty field is written ``""``. Each column
    becomes text once."""
    fields = table.schema.fields
    columns = [
        _csv_column(field.type, column)
        for field, column in zip(fields, zip(*table.rows))
    ]
    lines = [",".join(_csv_column(ValueType.STRING, table.schema.names()))]
    lines += map(",".join, zip(*columns))
    if len(fields) == 1:
        lines = [line or '""' for line in lines]
    return _utf8("\r\n".join(lines) + "\r\n")


_CSV_QUOTED = re.compile('[,"\r\n]')


def _csv_column(vtype: ValueType, column: Sequence) -> Sequence[str]:
    """Each cell of a column as a CSV field, null as an empty one. Only
    STRING text can need quotes, and a STRING column is quoted cell by
    cell only when its joined text holds a character that needs them."""
    if vtype is not ValueType.STRING:
        text = CELL_TYPES[vtype].text
        if None in column:
            return ["" if cell is None else text(cell) for cell in column]
        return list(map(text, column))
    if None in column:
        column = ["" if cell is None else cell for cell in column]
    if _CSV_QUOTED.search("".join(column)):
        return [
            '"' + cell.replace('"', '""') + '"' if _CSV_QUOTED.search(cell) else cell
            for cell in column
        ]
    return column


def table_from_csv(data: bytes, schema: Schema) -> Table:
    """Decode CSV with a header row matching the schema names in order.
    An empty field reads as null for non-STRING columns and as the empty
    string for STRING columns. A blank line is a row of one empty field
    in a one-column table and is skipped in any other. Each chunk of
    records is read in one call and admitted a column at a time by
    ``values.parse_column``; a file that fails is read again from its
    start, to name its first bad line."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConversionError(f"CSV input is not valid UTF-8: {exc}") from None
    lines = io.StringIO(text, newline="")
    reader = csv.reader(lines)
    width, rows, admitted = len(schema), [], 0
    try:
        if next(reader, None) == list(schema.names()):
            while chunk := list(islice(reader, _CSV_CHUNK_ROWS)):
                if not all(chunk):  # a blank line reads as an empty record
                    chunk = [r or [""] for r in chunk] if width == 1 else [r for r in chunk if r]
                if not {width}.issuperset(map(len, chunk)):
                    break  # a wrong field count: the walk below names it
                rows.extend(zip(*[
                    column if field.type is ValueType.STRING
                    else parse_column(field.type, column)
                    for field, column in zip(schema.fields, zip(*chunk))
                ]))
                admitted += _CSV_CHUNK_ROWS  # only the last chunk can be short
            else:
                return Table.trusted(schema, rows)
    except (csv.Error, ConversionError):
        pass
    raise _csv_error(lines, schema, admitted)


_CSV_CHUNK_ROWS = 1024


def _csv_error(lines: io.StringIO, schema: Schema, admitted: int) -> ConversionError:
    """The error of the first bad record, in file order, of the CSV text
    in ``lines`` that failed to decode, read again from its start: no
    header, a wrong header, a record the reader rejects (such as a field
    past the csv module's size limit), one with the wrong number of
    fields, or one with a cell its column's per-cell parser rejects,
    named by the line the record ends on. A text that ``parse_column``
    rejects has one, as it raises only what the per-cell parsers raise.
    The first ``admitted`` records after the header were admitted whole
    and are only read past."""
    lines.seek(0)
    reader = csv.reader(lines)
    expected = list(schema.names())
    try:
        header = next(reader, None)
        if header is None:
            return ConversionError("CSV input is empty, expected a header row")
        if header != expected:
            return ConversionError(
                f"line 1: header mismatch: expected {expected}, got {header}"
            )
        for record in islice(reader, admitted, None):
            # a blank record is never bad: a null row or a skipped line
            if record and len(record) != len(schema):
                return ConversionError(
                    f"line {reader.line_num}: expected {len(schema)} fields, got {len(record)}"
                )
            for field, raw in zip(schema.fields, record):
                try:
                    if raw:
                        CELL_TYPES[field.type].parse(raw)
                except ConversionError as exc:
                    return ConversionError(
                        f"line {reader.line_num}, field '{field.name}': {exc.message}"
                    )
    except csv.Error as exc:
        return ConversionError(f"line {reader.line_num}: {exc}")


# ---------------------------------------------------------------------------
# Capability handles
# ---------------------------------------------------------------------------


class FileOps:
    """Real filesystem access."""

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as fh:
            return fh.read()

    def write_bytes(self, path: str, data: bytes) -> None:
        with open(path, "wb") as fh:
            fh.write(data)


class HttpOps:
    """Real HTTP access via urllib, which is imported on the first request."""

    def get(self, url: str, timeout: float) -> tuple[int, bytes]:
        import urllib.request

        request = urllib.request.Request(url, method="GET")
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()

    def post(self, url: str, body: bytes, timeout: float) -> tuple[int, bytes]:
        import urllib.request

        request = urllib.request.Request(
            url,
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()


class IoAdapter:
    """READ/WRITE/FETCH/POST capabilities with a deny-all sandbox flag.

    ``sandbox=True`` (the default) raises IoError/HttpError for every
    operation before any handle is touched.
    """

    def __init__(
        self,
        *,
        sandbox: bool = True,
        file_ops: Optional[FileOps] = None,
        http_ops: Optional[HttpOps] = None,
    ) -> None:
        self.sandbox = sandbox
        self.file_ops = file_ops if file_ops is not None else FileOps()
        self.http_ops = http_ops if http_ops is not None else HttpOps()

    def read_table(self, path: str, fmt: str, schema: Schema) -> Table:
        if self.sandbox:
            raise IoError(f"sandboxed: cannot read {path!r}")
        try:
            data = self.file_ops.read_bytes(path)
        except OSError as exc:
            raise IoError(f"cannot read {path!r}: {exc}") from None
        return decode_table(data, fmt, schema)

    def write_table(self, table: Table, path: str, fmt: str) -> None:
        if self.sandbox:
            raise IoError(f"sandboxed: cannot write {path!r}")
        data = encode_table(table, fmt)
        try:
            self.file_ops.write_bytes(path, data)
        except OSError as exc:
            raise IoError(f"cannot write {path!r}: {exc}") from None

    def fetch_table(self, url: str, schema: Schema) -> Table:
        if self.sandbox:
            raise HttpError(f"sandboxed: cannot fetch {url!r}")
        status, body = self._request("GET", url, None)
        if not 200 <= status < 300:
            raise HttpError(f"GET {url!r} returned status {status}", status=status)
        return table_from_json(body, schema)

    def post_table(self, url: str, table: Table) -> int:
        if self.sandbox:
            raise HttpError(f"sandboxed: cannot post to {url!r}")
        status, _ = self._request("POST", url, table_to_json(table))
        if not 200 <= status < 300:
            raise HttpError(f"POST {url!r} returned status {status}", status=status)
        return status

    def _request(self, method: str, url: str, body: Optional[bytes]) -> tuple[int, bytes]:
        if not url.startswith(("http://", "https://")):
            raise HttpError(f"unsupported URL {url!r}, expected http or https")
        try:
            if method == "GET":
                return self.http_ops.get(url, DEFAULT_HTTP_TIMEOUT)
            return self.http_ops.post(url, body or b"", DEFAULT_HTTP_TIMEOUT)
        except Exception as exc:
            # the error classes are loaded only when a request fails
            import http.client
            import urllib.error

            if isinstance(exc, urllib.error.HTTPError):
                # a non-2xx status fails on its own; its body is never read
                return exc.code, b""
            if isinstance(exc, urllib.error.URLError):
                reason = exc.reason
            elif isinstance(exc, TimeoutError):
                raise HttpError(f"{method} {url!r} timed out") from None
            # a malformed URL, or a connection lost after the request was sent
            elif isinstance(exc, (http.client.HTTPException, OSError, ValueError)):
                reason = str(exc) or type(exc).__name__
            else:
                raise
            raise HttpError(f"{method} {url!r} failed: {reason}") from None


# Each table format's encoder and decoder, by the name a READ or WRITE
# node holds; ``grammar.FORMATS`` spells each name's keyword from here.
TABLE_CODECS = {
    "json": (table_to_json, table_from_json),
    "csv": (table_to_csv, table_from_csv),
}


def encode_table(table: Table, fmt: str) -> bytes:
    return TABLE_CODECS[fmt][0](table)


def decode_table(data: bytes, fmt: str, schema: Schema) -> Table:
    return TABLE_CODECS[fmt][1](data, schema)
