"""Plain-Python reference semantics the benchmark checks outputs against.

Nothing here imports ``anka``. Tables are ``(schema, rows)`` pairs where
``schema`` is a list of ``(name, type_tag)`` and ``rows`` a list of dicts
mapping names to cells (``None`` for null). Cells are ``int``, ``str``,
``Decimal``, ``bool`` and ``datetime.date``.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
from decimal import Decimal


def cell_eq(a, b) -> bool:
    """Null equals null; numbers compare by value (2.50 == 2.5); a bool
    never equals a number."""
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    return a == b


def rows_equal(schema, expected, actual_rows) -> bool:
    """``actual_rows`` are tuples in schema order."""
    if len(expected) != len(actual_rows):
        return False
    names = [name for name, _ in schema]
    for want, got in zip(expected, actual_rows):
        if len(got) != len(names):
            return False
        for name, cell in zip(names, got):
            if not cell_eq(want[name], cell):
                return False
    return True


# -- arithmetic ---------------------------------------------------------------


def int_div(a: int, b: int) -> int:
    """Integer division truncating toward zero."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def scale_of(value) -> int:
    if isinstance(value, Decimal):
        return max(0, -value.as_tuple().exponent)
    return 0


def decimal_div(numerator: Decimal, denominator: Decimal, scale: int) -> Decimal:
    """Half-even division to ``scale`` fractional digits by integer math."""
    n_sign, n_digits, n_exp = numerator.as_tuple()
    d_sign, d_digits, d_exp = denominator.as_tuple()
    n = int("".join(map(str, n_digits)))
    d = int("".join(map(str, d_digits)))
    shift = n_exp + scale - d_exp
    top, bottom = (n * 10**shift, d) if shift >= 0 else (n, d * 10**-shift)
    q, r = divmod(top, bottom)
    if 2 * r > bottom or (2 * r == bottom and q % 2 == 1):
        q += 1
    if n_sign != d_sign:
        q = -q
    return Decimal(q).scaleb(-scale)


def divide(a, b):
    """The language's ``/``: INT truncates, anything DECIMAL rounds
    half-even to max(operand scales) + 4."""
    if isinstance(a, int) and isinstance(b, int):
        return int_div(a, b)
    return decimal_div(Decimal(a), Decimal(b), max(scale_of(a), scale_of(b)) + 4)


def average(values) -> Decimal:
    total = Decimal(0)
    for v in values:
        total += Decimal(v)
    return decimal_div(total, Decimal(len(values)), scale_of(total) + 4)


# -- table operations ------------------------------------------------------------


def hash_join(left_rows, right_schema, right_rows, left_key, right_key, left_outer):
    """Equi-join in left order then right order; null keys never match."""
    right_names = [name for name, _ in right_schema if name != right_key]
    index: dict = {}
    for rrow in right_rows:
        if rrow[right_key] is not None:
            index.setdefault(rrow[right_key], []).append(rrow)
    out = []
    for lrow in left_rows:
        key = lrow[left_key]
        matches = index.get(key, []) if key is not None else []
        for rrow in matches:
            combined = dict(lrow)
            for name in right_names:
                combined[name] = rrow[name]
            out.append(combined)
        if left_outer and not matches:
            combined = dict(lrow)
            for name in right_names:
                combined[name] = None
            out.append(combined)
    return out


def stable_sort(rows, column, descending):
    """Stable sort; null keys last in original order either way."""
    keyed = [r for r in rows if r[column] is not None]
    nulls = [r for r in rows if r[column] is None]
    return sorted(keyed, key=lambda r: r[column], reverse=descending) + nulls


def group_rows(rows, group_by):
    """Groups in order of first appearance; null keys group together."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(tuple(row[name] for name in group_by), []).append(row)
    return groups


def distinct(schema, rows):
    seen = set()
    out = []
    for row in rows:
        key = tuple(row[name] for name, _ in schema)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


# -- wire formats ----------------------------------------------------------------


def cell_text(value) -> str:
    """Canonical text of a non-null cell (CSV fields, JSON strings)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Decimal):
        return format(value, "f")
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)


def to_csv(schema, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow([name for name, _ in schema])
    for row in rows:
        writer.writerow(
            ["" if row[name] is None else cell_text(row[name]) for name, _ in schema]
        )
    return buf.getvalue().encode("utf-8")


def to_json(schema, rows, omit_nulls=False) -> bytes:
    """JSON array of objects; DECIMAL, DATE as strings. ``omit_nulls``
    drops null keys, which readers treat as null."""
    items = []
    for row in rows:
        obj = {}
        for name, tag in schema:
            value = row[name]
            if value is None:
                if not omit_nulls:
                    obj[name] = None
            elif tag in ("DECIMAL", "DATE", "DATETIME"):
                obj[name] = cell_text(value)
            else:
                obj[name] = value
        items.append(obj)
    return json.dumps(items).encode("utf-8")


def _from_text(text: str, tag: str):
    if tag == "INT":
        return int(text)
    if tag == "DECIMAL":
        return Decimal(text)
    if tag == "BOOL":
        if text not in ("true", "false"):
            raise ValueError(f"bad BOOL text {text!r}")
        return text == "true"
    if tag == "DATE":
        return datetime.date.fromisoformat(text)
    return text


def read_csv(schema, data: bytes):
    """Decode CSV written by the program under test, with the csv module.
    Returns None when the header does not match the schema."""
    reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    if next(reader, None) != [name for name, _ in schema]:
        return None
    rows = []
    for record in reader:
        row = {}
        for (name, tag), raw in zip(schema, record):
            if raw == "":
                row[name] = "" if tag == "STRING" else None
            else:
                row[name] = _from_text(raw, tag)
        rows.append(row)
    return rows


def read_json(schema, data: bytes):
    """Decode a JSON array of objects written by the program under test.
    Returns None when an object's keys are not the schema's, in order."""
    items = json.loads(data.decode("utf-8"), parse_float=Decimal)
    names = [name for name, _ in schema]
    rows = []
    for item in items:
        if list(item) != names:
            return None
        row = {}
        for name, tag in schema:
            value = item[name]
            if value is None or tag in ("BOOL", "STRING") or (
                tag == "INT" and isinstance(value, int)
            ):
                row[name] = value
            else:
                row[name] = _from_text(str(value), tag)
        rows.append(row)
    return rows
