"""AST node types for pipelines, statements, and expressions.

Every node carries a SourceLocation, declared once on ``Node`` and
passed by keyword. Locations are excluded from equality so that a
formatted-and-reparsed tree compares equal to the original; all
semantic fields participate.

Every class is a ``dataclass(frozen=True, eq=False, repr=False)``.
``Node`` defines equality, hashing and the repr once, with the semantics
of the methods ``dataclass`` would generate, and every class has a
docstring, which ``dataclass`` would otherwise derive from its signature.

The 23 statement classes are not written out one by one: each is built
from its row of ``STATEMENT_FORMS``, whose form text spells the
statement's syntax and names its fields in order. ``grammar.STATEMENTS``
is the same rows with each slot kind resolved, so a statement's fields
and its form are declared once.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field, fields, make_dataclass
from decimal import Decimal
from typing import Any, Optional

from anka.location import SourceLocation
from anka.values import Schema, ValueType, format_cell


_node = dataclass(frozen=True, eq=False, repr=False)


@_node
class Node:
    """A syntax tree node. Two nodes are equal when they are of the same
    class and their compared fields, all but the locations, are equal."""

    location: SourceLocation = field(compare=False, kw_only=True)

    def _compared(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self) if f.compare)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._compared() == other._compared()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._compared())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return f"{self.__class__.__qualname__}({shown})"


# --- Expressions -----------------------------------------------------------


@_node
class Expr(Node):
    """An expression, evaluated per row."""


@_node
class Literal(Expr):
    """A constant of one of the six value types."""

    # not Union[...]: the UNION statement's class is this module's Union
    value: int | str | Decimal | bool | datetime.date | datetime.datetime
    type: ValueType


@_node
class ColumnRef(Expr):
    """The value of a column in the current row."""

    name: str


@_node
class BinaryOp(Expr):
    """Arithmetic: + - * /"""

    op: str
    left: Expr
    right: Expr


@_node
class Comparison(Expr):
    """Relational: > >= < <= == !="""

    op: str
    left: Expr
    right: Expr


@_node
class BoolOp(Expr):
    """AND / OR, short-circuiting, left-associative."""

    op: str
    left: Expr
    right: Expr


@_node
class Not(Expr):
    """Boolean negation."""

    operand: Expr


@_node
class Neg(Expr):
    """Unary arithmetic negation."""

    operand: Expr


@_node
class Call(Expr):
    """Builtin function application, e.g. CONCAT(a, ", ")."""

    name: str
    args: tuple[Expr, ...]


# --- Statements ------------------------------------------------------------


@_node
class Statement(Node):
    """A statement in a STEP or a block."""


@_node
class AggregateSpec(Node):
    """One COMPUTE entry: fn(arg) AS alias. COUNT takes no argument."""

    fn: str
    arg: Optional[str]
    alias: str


def _statement(keyword: str, name: str, form: str) -> tuple[type, tuple]:
    """The class and form parts of one statement row. The class is a
    frozen dataclass whose fields are the form's ``field:kind`` words in
    order, built as ``collections.namedtuple`` builds its classes. Each
    field is annotated ``Any``, which ``typing.get_type_hints`` resolves."""
    parts = tuple(tuple(word.split(":")) if ":" in word else word for word in form.split())
    cls = make_dataclass(
        name, [(part[0], Any) for part in parts if isinstance(part, tuple)],
        bases=(Statement,), namespace={"__doc__": f"{keyword} {form}"},
        frozen=True, eq=False, repr=False,
    )
    # make_dataclass names the module "types" on Python 3.10 and 3.11.
    cls.__module__ = __name__
    globals()[name] = cls
    return cls, parts


# Keyword -> (statement class, form parts), from one row per statement,
# control flow included: (keyword, class name, form after the keyword).
# In a form, ``field:kind`` is the class's next field, filled from a slot
# of that kind (``grammar.SLOTS``); any other word is a keyword or an
# operator that must appear as written. Each form part is that word, or
# a (field, kind) pair.
STATEMENT_FORMS = {
    keyword: _statement(keyword, name, form) for keyword, name, form in [
        ("FILTER", "Filter", "source:dataset WHERE predicate:expression INTO target:target"),
        ("SELECT", "Select", "source:dataset COLUMNS columns:columns INTO target:target"),
        ("DISTINCT", "Distinct", "source:dataset INTO target:target"),
        ("MAP", "Map",
         "source:dataset WITH column:new_column => expr:expression INTO target:target"),
        ("RENAME", "Rename",
         "source:dataset COLUMN old_name:column TO new_name:new_column INTO target:target"),
        ("DROP", "Drop", "source:dataset COLUMN column:column INTO target:target"),
        ("ADD_COLUMN", "AddColumn",
         "source:dataset WITH column:new_column = value:literal INTO target:target"),
        ("AGGREGATE", "Aggregate",
         "source:dataset group_by:group_by COMPUTE computes:computes INTO target:target"),
        ("SORT", "Sort",
         "source:dataset BY column:column descending:direction INTO target:target"),
        ("LIMIT", "Limit", "source:dataset TO count:count INTO target:target"),
        ("SKIP", "Skip", "source:dataset FIRST count:count INTO target:target"),
        ("SLICE", "Slice", "source:dataset FROM start:count TO stop:count INTO target:target"),
        ("JOIN", "Join",
         "left:dataset WITH right:dataset ON left_key:column == right_key:column "
         "INTO target:target"),
        ("LEFT_JOIN", "LeftJoin",
         "left:dataset WITH right:dataset ON left_key:column == right_key:column "
         "INTO target:target"),
        ("UNION", "Union", "left:dataset WITH right:dataset INTO target:target"),
        ("READ", "Read", "path:path AS format:format schema:table INTO target:target"),
        ("WRITE", "Write", "source:dataset TO path:path AS format:format"),
        ("FETCH", "Fetch", "url:url schema:table INTO target:target"),
        ("POST", "Post", "source:dataset TO url:url"),
        ("IF", "If", "condition:expression THEN then_body:block else_body:else END_IF"),
        ("FOR_EACH", "ForEach", "var:row IN source:dataset DO body:block END_FOR"),
        ("WHILE", "While", "condition:expression DO body:block END_WHILE"),
        ("TRY", "Try", "body:block ON_ERROR handler:block END_TRY"),
    ]
}


# --- Pipeline --------------------------------------------------------------


@_node
class InputDecl(Node):
    """INPUT name: TABLE[...], a dataset the caller passes in."""

    name: str
    schema: Schema


@_node
class Step(Node):
    """STEP name: the statements of one named step, in order."""

    name: str
    body: tuple[Statement, ...]


@_node
class Pipeline(Node):
    """PIPELINE name: its inputs, steps and OUTPUT dataset."""

    name: str
    inputs: tuple[InputDecl, ...]
    steps: tuple[Step, ...]
    output: str
    output_location: SourceLocation = field(compare=False, kw_only=True)


def statement_target(stmt: Statement) -> Optional[str]:
    """INTO target of a data-producing statement, else None."""
    return getattr(stmt, "target", None)


# --- Machine-readable dump -------------------------------------------------


def ast_to_dict(node: object) -> object:
    """Convert an AST into JSON-serializable dictionaries.

    Nodes become {"node": <ClassName>, ...fields...}; locations become
    {"line", "column", "offset"}; schemas become ordered field lists;
    literal payloads use their canonical text form alongside the type.
    """
    if isinstance(node, Literal):
        return {
            "node": "Literal",
            "type": node.type.value,
            "value": node.value if isinstance(node.value, (int, str)) else format_cell(node.value),
            "location": ast_to_dict(node.location),
        }
    if isinstance(node, Node):
        out: dict[str, object] = {"node": type(node).__name__}
        for f in fields(node):
            if f.name != "location":
                out[f.name] = ast_to_dict(getattr(node, f.name))
        out["location"] = ast_to_dict(node.location)
        return out
    if isinstance(node, SourceLocation):
        return {"line": node.line, "column": node.column, "offset": node.offset}
    if isinstance(node, Schema):
        return [{"name": f.name, "type": f.type.value} for f in node.fields]
    if isinstance(node, tuple):
        return [ast_to_dict(item) for item in node]
    return node
