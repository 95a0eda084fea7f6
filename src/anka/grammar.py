"""Anka's canonical forms, each written once.

``STATEMENTS`` gives the form of each of the 23 statements, control
flow included: its keywords and operators, and typed slots for the parts
that vary, a nested block of statements among them. Its rows are those
of ``ast_nodes.STATEMENT_FORMS``, the table the statement classes are
built from, with each ``field:kind`` word's kind resolved to its slot in
``SLOTS``. ``BINARY_OPERATORS`` and ``PREFIX_OPERATORS`` give each
operator's precedence level and the node it builds. ``LITERAL_TOKENS``
and ``LITERAL_KEYWORDS`` give each literal's spelling around its
payload, the text form in its type's ``values.CELL_TYPES`` row. The
parser reads source by these tables and the formatter writes trees back
by them, so the two cannot disagree.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional

from anka import ast_nodes as ast
from anka.builtins import AGGREGATES
from anka.errors import ConversionError, ParseError
from anka.io_adapters import TABLE_CODECS
from anka.lexer import KIND_DECIMAL, KIND_INT, KIND_STRING, LITERAL_VALUES, token_kind
from anka.values import CELL_TYPES, Schema, ValueType, parse_date, parse_datetime, parse_int

# -- operators -----------------------------------------------------------------


class BinaryOperator(NamedTuple):
    level: int  # binding strength, 1 (OR) loosest
    node: type  # BoolOp, Comparison or BinaryOp
    # The lowest level its left operand may have without parentheses: its
    # own level for a left-associative operator, one above for one that
    # does not chain. The right operand always needs level + 1.
    left: int


class PrefixOperator(NamedTuple):
    level: int  # its operand may have this level too: NOT NOT a, - -a
    node: type  # Not or Neg


BINARY_OPERATORS = {
    "OR": BinaryOperator(1, ast.BoolOp, 1),
    "AND": BinaryOperator(2, ast.BoolOp, 2),
    **{op: BinaryOperator(4, ast.Comparison, 5)
       for op in ("==", "!=", ">=", "<=", ">", "<")},
    "+": BinaryOperator(5, ast.BinaryOp, 5),
    "-": BinaryOperator(5, ast.BinaryOp, 5),
    "*": BinaryOperator(6, ast.BinaryOp, 6),
    "/": BinaryOperator(6, ast.BinaryOp, 6),
}

PREFIX_OPERATORS = {
    "NOT": PrefixOperator(3, ast.Not),
    "-": PrefixOperator(7, ast.Neg),
}

# Literals, column references, calls and parenthesized expressions.
PRIMARY_LEVEL = 8

# A keyword operator is set off from its operand by a space.
_PREFIX_TEXT = {
    op.node: (op.level, text + " " if text.isalpha() else text)
    for text, op in PREFIX_OPERATORS.items()
}

_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}


def format_expr(expr: ast.Expr, min_level: int = 1) -> str:
    """Canonical text of ``expr``, parenthesized when its level is below
    ``min_level``; inner parentheses are the fewest the levels need."""
    level, text = _format_expr(expr)
    if level < min_level:
        return f"({text})"
    return text


def _format_expr(expr: ast.Expr) -> tuple[int, str]:
    if isinstance(expr, ast.Literal):
        return PRIMARY_LEVEL, format_literal(expr)
    if isinstance(expr, ast.ColumnRef):
        return PRIMARY_LEVEL, expr.name
    if isinstance(expr, ast.Call):
        args = ", ".join(format_expr(a) for a in expr.args)
        return PRIMARY_LEVEL, f"{expr.name}({args})"
    prefix = _PREFIX_TEXT.get(type(expr))
    if prefix is not None:
        level, text = prefix
        return level, text + format_expr(expr.operand, level)
    if isinstance(expr, (ast.BoolOp, ast.Comparison, ast.BinaryOp)):
        op = BINARY_OPERATORS[expr.op]
        left = format_expr(expr.left, op.left)
        right = format_expr(expr.right, op.level + 1)
        return op.level, f"{left} {expr.op} {right}"
    raise TypeError(f"cannot format expression {type(expr).__name__}")


def format_literal(lit: ast.Literal) -> str:
    return _LITERAL_WRITERS[lit.type](CELL_TYPES[lit.type].text(lit.value))


def format_schema(schema: Schema) -> str:
    inner = ", ".join(f"{f.name}: {f.type.value}" for f in schema.fields)
    return f"TABLE[{inner}]"


def quote(text: str) -> str:
    escaped = "".join(_STRING_ESCAPES.get(ch, ch) for ch in text)
    return f'"{escaped}"'


# -- literals ------------------------------------------------------------------


class LiteralForm(NamedTuple):
    """How a literal of ``type`` is spelled around its payload, the cell's
    text form. ``read(parser, text)`` gives its value once its first
    token, whose text is ``text``, has been taken; ``write(payload)``
    gives its canonical text."""

    type: ValueType
    read: Callable[[Any, Any], Any]
    write: Callable[[str], str]


def _with_point(payload: str) -> str:
    # Parsed DECIMAL literals always carry a fraction; keep a point on
    # programmatically built scale-0 values so they stay DECIMAL.
    return payload if "." in payload else payload + ".0"


def _text_literal(vtype: ValueType, parse: Callable[[str], Any]) -> LiteralForm:
    """The type's name, then a string of the cell's text read by ``parse``."""

    def read(p, text: str) -> Any:
        at = p.pos
        payload = p.expect_string(f"{vtype.value.lower()} string")
        try:
            return parse(payload)
        except ConversionError as exc:
            raise ParseError(str(exc), p.location(at)) from None

    return LiteralForm(vtype, read, lambda payload: f"{vtype.value} {quote(payload)}")


def _token_literal(kind: str, vtype: ValueType, write: Callable[[str], str]) -> LiteralForm:
    """A token of ``kind`` whose value is the literal."""
    value = LITERAL_VALUES[kind]
    return LiteralForm(vtype, lambda p, text: value(text), write)


# The literals by their first token's kind: a token whose value is the
# literal, where only a number may follow a leading "-" ...
LITERAL_TOKENS = {
    KIND_INT: _token_literal(KIND_INT, ValueType.INT, str),
    KIND_DECIMAL: _token_literal(KIND_DECIMAL, ValueType.DECIMAL, _with_point),
    KIND_STRING: _token_literal(KIND_STRING, ValueType.STRING, quote),
}

# ... a keyword that is the cell's text in capitals, or a type's name.
LITERAL_KEYWORDS = {
    "TRUE": LiteralForm(ValueType.BOOL, lambda p, text: True, str.upper),
    "FALSE": LiteralForm(ValueType.BOOL, lambda p, text: False, str.upper),
    "DATE": _text_literal(ValueType.DATE, parse_date),
    "DATETIME": _text_literal(ValueType.DATETIME, parse_datetime),
}

_LITERAL_WRITERS = {
    form.type: form.write for form in (*LITERAL_TOKENS.values(), *LITERAL_KEYWORDS.values())
}


# -- statement slots -----------------------------------------------------------


class Slot(NamedTuple):
    """A typed part of a statement form. ``read(parser, what)`` takes it
    from the parser's tokens, and ``what`` names it in the "expected …"
    of a ParseError; ``write(value)`` gives its canonical text, or None
    for an optional part that is absent. A block of statements has no
    ``write``: it goes on lines of its own, after its ``header`` keyword
    if it has one."""

    read: Callable[[Any, str], Any]
    write: Optional[Callable[[Any], Optional[str]]]
    what: str = ""
    header: str = ""


AGGREGATE_FNS = tuple(AGGREGATES)

# Each table format's keyword, with the name a READ or WRITE node holds.
FORMATS = {name.upper(): name for name in TABLE_CODECS}


def _read_name(p, what: str) -> str:
    return p.expect_ident(what)


def _read_names(p, what: str) -> tuple[str, ...]:
    return p.comma_list(lambda: p.expect_ident(what))


def _read_count(p, what: str) -> int:
    negative = p.accept("-")
    text = p.peek()
    if token_kind(text) != KIND_INT:
        raise p.fail(what)
    p.advance()
    value = parse_int(text)
    return -value if negative else value


def _read_string(p, what: str) -> str:
    return p.expect_string(what)


def _choice(words: dict[str, Any]) -> Slot:
    """A slot filled by one of ``words``' keywords, read as its value."""

    def read(p, what: str) -> Any:
        text = p.peek()
        if text in words:
            p.advance()
            return words[text]
        raise p.fail(*words)

    return Slot(read, {value: word for word, value in words.items()}.__getitem__)


def _read_group_by(p, what: str) -> tuple[str, ...]:
    return _read_names(p, what) if p.accept("GROUP_BY") else ()


def _write_group_by(names: tuple[str, ...]) -> Optional[str]:
    return "GROUP_BY " + ", ".join(names) if names else None


def _read_block(p, what: str) -> tuple[ast.Statement, ...]:
    return p.parse_statement_block()


def _optional_block(header: str) -> Slot:
    """A block after ``header``, or neither: read as () when absent."""

    def read(p, what: str) -> tuple[ast.Statement, ...]:
        return p.parse_statement_block() if p.accept(header) else ()

    return Slot(read, None, header=header)


def _read_aggregate_spec(p) -> ast.AggregateSpec:
    fn = p.peek()
    if fn not in AGGREGATE_FNS:
        raise p.fail(*AGGREGATE_FNS)
    start = p.advance()
    p.expect("(")
    arg = p.expect_ident("column name") if AGGREGATES[fn].params else None
    p.expect(")")
    p.expect("AS")
    alias = p.expect_ident("alias")
    return ast.AggregateSpec(fn=fn, arg=arg, alias=alias, location=p.location(start))


def _read_computes(p, what: str) -> tuple[ast.AggregateSpec, ...]:
    return p.comma_list(lambda: _read_aggregate_spec(p))


def _write_computes(specs: tuple[ast.AggregateSpec, ...]) -> str:
    return ", ".join(f"{c.fn}({c.arg if c.arg else ''}) AS {c.alias}" for c in specs)


SLOTS = {
    "dataset": Slot(_read_name, str, "dataset name"),
    "column": Slot(_read_name, str, "column name"),
    "new_column": Slot(_read_name, str, "new column name"),
    "target": Slot(_read_name, str, "target name"),
    "columns": Slot(_read_names, ", ".join, "column name"),
    "expression": Slot(lambda p, what: p.parse_expr(), format_expr),
    "literal": Slot(lambda p, what: p.parse_literal(), format_expr),
    "count": Slot(_read_count, str, "integer literal"),
    "path": Slot(_read_string, quote, "file path string"),
    "url": Slot(_read_string, quote, "URL string"),
    "format": _choice(FORMATS),
    "table": Slot(lambda p, what: p.parse_table_type(), format_schema),
    "direction": _choice({"ASC": False, "DESC": True}),
    "group_by": Slot(_read_group_by, _write_group_by, "column name"),
    "computes": Slot(_read_computes, _write_computes),
    "row": Slot(_read_name, str, "row variable"),
    "block": Slot(_read_block, None),
    "else": _optional_block("ELSE"),
}


# -- statements ----------------------------------------------------------------


# Keyword -> (node class, form after the keyword): one production each,
# the rows of ``ast_nodes.STATEMENT_FORMS`` with each (field, kind) part's
# kind resolved to its slot.
STATEMENTS = {
    keyword: (node, tuple(
        part if isinstance(part, str) else (part[0], SLOTS[part[1]]) for part in parts
    ))
    for keyword, (node, parts) in ast.STATEMENT_FORMS.items()
}

# Node class -> its statement keyword.
NODE_KEYWORDS = {node: keyword for keyword, (node, _) in STATEMENTS.items()}
