"""Table serialization (JSON, CSV) and HTTP transfer behind a
swappable adapter.

The adapter holds low-level file and HTTP capability handles plus a
sandbox flag. Sandboxed adapters (the default) deny every operation
deterministically before touching any handle, which makes benchmark
runs hermetic.

The CSV decoder admits cells a column chunk at a time, through
``values.parse_column``, which reads a chunk outside its fast path cell
by cell, so each cell is admitted by the same per-cell rules and a bad
one fails with the same message and line either way.
"""

from __future__ import annotations

import csv
import decimal
import http.client
import io
import json
import urllib.error
import urllib.request
from decimal import Decimal
from itertools import islice
from json.encoder import encode_basestring
from typing import Iterable, Optional

from anka.errors import ConversionError, HttpError, IoError
from anka.values import (
    CELL_FORMATTERS,
    CSV_PARSERS,
    Cell,
    Schema,
    Table,
    ValueType,
    check_decimal,
    check_int,
    parse_column,
    parse_date,
    parse_datetime,
    parse_decimal,
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
    return ("[\n" + ",\n".join(rows) + "\n]\n").encode("utf-8")


def _json_column(vtype: ValueType, column: tuple) -> list[str]:
    """Each cell of a column as JSON text: INT and BOOL cells as their
    text form, every other type's text form as a JSON string, and null
    as ``null``."""
    text = CELL_FORMATTERS[vtype]
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
        text = data.decode("utf-8")
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
            number = check_decimal(Decimal(value))  # 38 digits at most for int()
            if number != number.to_integral_value():
                raise ConversionError(f"expected INT, got non-integral number {number}")
            return check_int(int(number))
    elif isinstance(value, str) and vtype in _JSON_TEXT_PARSERS:
        return _JSON_TEXT_PARSERS[vtype](value)
    temporal = vtype is ValueType.DATE or vtype is ValueType.DATETIME
    expected = f"{vtype.value} string" if temporal else vtype.value
    raise ConversionError(f"expected {expected}, got {_json_type_name(value)}")


# the column types a JSON string may hold, and how each reads it
_JSON_TEXT_PARSERS = {
    ValueType.STRING: str,
    ValueType.DECIMAL: parse_decimal,
    ValueType.DATE: parse_date,
    ValueType.DATETIME: parse_datetime,
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(table.schema.names())
    writer.writerows(_formatted_rows(table))
    return buf.getvalue().encode("utf-8")


# the column types whose text form is str(), which the CSV writer applies
# itself; it writes null as an empty field
_CSV_NATIVE = frozenset(t for t, text in CELL_FORMATTERS.items() if text is str)


def _formatted_rows(table: Table) -> Iterable[tuple]:
    """The table's rows, each cell of a column whose type is not in
    ``_CSV_NATIVE`` replaced by its text form; nulls stay None. The
    formatter is picked once per column, and applied a column at a time."""
    formats = [
        (i, CELL_FORMATTERS[field.type])
        for i, field in enumerate(table.schema.fields)
        if field.type not in _CSV_NATIVE
    ]
    if not formats or not table.rows:
        return table.rows
    columns = list(zip(*table.rows))
    for i, text in formats:
        columns[i] = [None if cell is None else text(cell) for cell in columns[i]]
    return zip(*columns)


def table_from_csv(data: bytes, schema: Schema) -> Table:
    """Decode CSV with a header row matching the schema names in order.
    An empty field reads as null for non-STRING columns and as the empty
    string for STRING columns; errors carry 1-based line numbers. Cells
    are admitted a column chunk at a time by ``values.parse_column``,
    whose rules for each cell are the per-cell parser's."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConversionError(f"CSV input is not valid UTF-8: {exc}") from None
    try:
        rows = _csv_by_columns(text, schema)
    except (ConversionError, csv.Error):
        rows = None
    if rows is None:
        # row by row, so the first failing cell is reported with its line
        rows = _csv_by_rows(text, schema)
    return Table.trusted(schema, rows)


_CSV_CHUNK_ROWS = 1024


def _csv_reader(text: str, schema: Schema):
    """A reader over ``text`` past its header row, which must hold the
    schema's names in order."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(_records(reader))
    except StopIteration:
        raise ConversionError("CSV input is empty, expected a header row") from None
    expected = list(schema.names())
    if header != expected:
        raise ConversionError(
            f"line 1: header mismatch: expected {expected}, got {header}"
        )
    return reader


def _csv_by_columns(text: str, schema: Schema) -> Optional[list]:
    """The rows of well-formed CSV, decoded a chunk of records at a time
    one column at a time by ``parse_column``. None when a record is blank
    or has the wrong number of fields; a failing cell raises, without its
    line. The row-by-row reading handles both."""
    reader = _csv_reader(text, schema)
    arity = {len(schema)}
    rows: list = []
    while True:
        chunk = list(islice(reader, _CSV_CHUNK_ROWS))
        if not chunk:
            return rows
        if set(map(len, chunk)) != arity:
            return None
        columns = [
            column if field.type is ValueType.STRING
            else parse_column(field.type, column)
            for field, column in zip(schema.fields, zip(*chunk))
        ]
        rows.extend(zip(*columns))


def _csv_by_rows(text: str, schema: Schema) -> list:
    reader = _csv_reader(text, schema)
    parsers = [CSV_PARSERS.get(field.type) for field in schema.fields]
    rows = []
    for record in _records(reader):
        line = reader.line_num
        if record == []:
            # A blank line. For single-column tables this is how a null
            # cell serializes, so it is a real row; otherwise skip it.
            if len(schema) == 1:
                record = [""]
            else:
                continue
        if len(record) != len(schema):
            raise ConversionError(
                f"line {line}: expected {len(schema)} fields, got {len(record)}"
            )
        row = []
        for field, parse, raw in zip(schema.fields, parsers, record):
            try:
                row.append(raw if parse is None else parse(raw) if raw else None)
            except ConversionError as exc:
                raise ConversionError(
                    f"line {line}, field '{field.name}': {exc.message}"
                ) from None
        rows.append(tuple(row))
    return rows


def _records(reader):
    """The reader's records. A malformed one, such as a field past the
    csv module's size limit, raises ConversionError naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ConversionError(f"line {reader.line_num}: {exc}") from None


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
    """Real HTTP access via urllib."""

    def get(self, url: str, timeout: float) -> tuple[int, bytes]:
        request = urllib.request.Request(url, method="GET")
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()

    def post(self, url: str, body: bytes, timeout: float) -> tuple[int, bytes]:
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
        timeout: float = DEFAULT_HTTP_TIMEOUT,
    ) -> None:
        self.sandbox = sandbox
        self.file_ops = file_ops if file_ops is not None else FileOps()
        self.http_ops = http_ops if http_ops is not None else HttpOps()
        self.timeout = timeout

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
                return self.http_ops.get(url, self.timeout)
            return self.http_ops.post(url, body or b"", self.timeout)
        except urllib.error.HTTPError as exc:
            # a non-2xx status fails on its own; its body is never read
            return exc.code, b""
        except urllib.error.URLError as exc:
            raise HttpError(f"{method} {url!r} failed: {exc.reason}") from None
        except TimeoutError:
            raise HttpError(f"{method} {url!r} timed out") from None
        # a malformed URL, or a connection lost after the request was sent
        except (http.client.HTTPException, OSError, ValueError) as exc:
            reason = str(exc) or type(exc).__name__
            raise HttpError(f"{method} {url!r} failed: {reason}") from None


def encode_table(table: Table, fmt: str) -> bytes:
    if fmt == "json":
        return table_to_json(table)
    if fmt == "csv":
        return table_to_csv(table)
    raise ValueError(f"unknown table format {fmt!r}")


def decode_table(data: bytes, fmt: str, schema: Schema) -> Table:
    if fmt == "json":
        return table_from_json(data, schema)
    if fmt == "csv":
        return table_from_csv(data, schema)
    raise ValueError(f"unknown table format {fmt!r}")
