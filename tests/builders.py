"""Shorthands the tests build schemas, hand-made nodes' locations and
expression types with."""

from __future__ import annotations

from anka import ast_nodes as ast
from anka.location import SourceLocation
from anka.validator import ValidationException, validate
from anka.values import Field, Schema, ValueType

# The location of a node built by hand rather than parsed.
UNKNOWN_LOCATION = SourceLocation(line=1, column=1, offset=0)


def schema_of(*pairs: tuple[str, ValueType]) -> Schema:
    return Schema(Field(name, vtype) for name, vtype in pairs)


def expression_type(expr: ast.Expr, schema: Schema) -> ValueType:
    """The type ``validate`` gives ``expr`` as the one MAP of a pipeline
    over a table of ``schema``. Raises ValidationException on any
    diagnostic."""
    loc = UNKNOWN_LOCATION
    column = "x" * (1 + max(map(len, schema.names())))  # no column of schema
    step = ast.Step(name="s", location=loc, body=(
        ast.Map(source="t", column=column, expr=expr, target="r", location=loc),))
    pipeline = ast.Pipeline(
        name="p", inputs=(ast.InputDecl(name="t", schema=schema, location=loc),),
        steps=(step,), output="r", location=loc, output_location=loc)
    result = validate(pipeline)
    if result.errors:
        raise ValidationException(result.errors)
    return result.output_schema.type_of(column)
