"""AST node types for pipelines, statements, and expressions.

Every node carries a SourceLocation, declared once on ``Node`` and
passed by keyword. Locations are excluded from equality so that a
formatted-and-reparsed tree compares equal to the original; all
semantic fields participate.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field, fields
from decimal import Decimal
from typing import Optional, Union

from anka.location import SourceLocation
from anka.values import Schema, ValueType, format_cell


@dataclass(frozen=True)
class Node:
    location: SourceLocation = field(compare=False, kw_only=True)


# --- Expressions -----------------------------------------------------------


@dataclass(frozen=True)
class Expr(Node):
    pass


@dataclass(frozen=True)
class Literal(Expr):
    """A constant of one of the six value types."""

    value: Union[int, str, Decimal, bool, datetime.date, datetime.datetime]
    type: ValueType


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic: + - * /"""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Comparison(Expr):
    """Relational: > >= < <= == !="""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class BoolOp(Expr):
    """AND / OR, short-circuiting, left-associative."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr


@dataclass(frozen=True)
class Neg(Expr):
    """Unary arithmetic negation."""

    operand: Expr


@dataclass(frozen=True)
class Call(Expr):
    """Builtin function application, e.g. CONCAT(a, ", ")."""

    name: str
    args: tuple[Expr, ...]


# --- Statements ------------------------------------------------------------


@dataclass(frozen=True)
class Statement(Node):
    pass


@dataclass(frozen=True)
class Filter(Statement):
    source: str
    predicate: Expr
    target: str


@dataclass(frozen=True)
class Select(Statement):
    source: str
    columns: tuple[str, ...]
    target: str


@dataclass(frozen=True)
class Distinct(Statement):
    source: str
    target: str


@dataclass(frozen=True)
class Map(Statement):
    """Appends a computed column: MAP src WITH name => expr INTO t."""

    source: str
    column: str
    expr: Expr
    target: str


@dataclass(frozen=True)
class Rename(Statement):
    source: str
    old_name: str
    new_name: str
    target: str


@dataclass(frozen=True)
class Drop(Statement):
    source: str
    column: str
    target: str


@dataclass(frozen=True)
class AddColumn(Statement):
    """Appends a constant-valued column (MAP handles expressions)."""

    source: str
    column: str
    value: Literal
    target: str


@dataclass(frozen=True)
class AggregateSpec(Node):
    """One COMPUTE entry: fn(arg) AS alias. COUNT takes no argument."""

    fn: str
    arg: Optional[str]
    alias: str


@dataclass(frozen=True)
class Aggregate(Statement):
    source: str
    group_by: tuple[str, ...]
    computes: tuple[AggregateSpec, ...]
    target: str


@dataclass(frozen=True)
class Sort(Statement):
    source: str
    column: str
    descending: bool
    target: str


@dataclass(frozen=True)
class Limit(Statement):
    source: str
    count: int
    target: str


@dataclass(frozen=True)
class Skip(Statement):
    source: str
    count: int
    target: str


@dataclass(frozen=True)
class Slice(Statement):
    """Half-open row range on 0-based positions."""

    source: str
    start: int
    stop: int
    target: str


@dataclass(frozen=True)
class Join(Statement):
    left: str
    right: str
    left_key: str
    right_key: str
    target: str


@dataclass(frozen=True)
class LeftJoin(Statement):
    left: str
    right: str
    left_key: str
    right_key: str
    target: str


@dataclass(frozen=True)
class Union(Statement):
    left: str
    right: str
    target: str


@dataclass(frozen=True)
class Read(Statement):
    path: str
    format: str  # "json" | "csv"
    schema: Schema
    target: str


@dataclass(frozen=True)
class Write(Statement):
    source: str
    path: str
    format: str


@dataclass(frozen=True)
class Fetch(Statement):
    url: str
    schema: Schema
    target: str


@dataclass(frozen=True)
class Post(Statement):
    source: str
    url: str


@dataclass(frozen=True)
class If(Statement):
    condition: Expr
    then_body: tuple[Statement, ...]
    else_body: tuple[Statement, ...]


@dataclass(frozen=True)
class ForEach(Statement):
    var: str
    source: str
    body: tuple[Statement, ...]


@dataclass(frozen=True)
class While(Statement):
    condition: Expr
    body: tuple[Statement, ...]


@dataclass(frozen=True)
class Try(Statement):
    body: tuple[Statement, ...]
    handler: tuple[Statement, ...]


# --- Pipeline --------------------------------------------------------------


@dataclass(frozen=True)
class InputDecl(Node):
    name: str
    schema: Schema


@dataclass(frozen=True)
class Step(Node):
    name: str
    body: tuple[Statement, ...]


@dataclass(frozen=True)
class Pipeline(Node):
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
    if isinstance(node, ValueType):
        return node.value
    return node
