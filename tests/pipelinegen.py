"""Random generator for well-formed pipelines plus conforming inputs.

Produces pipelines that should validate cleanly and, when executed on
the generated inputs, fail only with arithmetic errors (division by
zero inside TRY bodies, rare overflow), never with name or type errors.
Schema bookkeeping here intentionally mirrors the documented inference
rules; validate() is the judge of whether the result is actually clean.
"""

from __future__ import annotations

import random
from decimal import Decimal

from anka import ast_nodes as ast
from anka.values import Field, Schema, Table, ValueType

from builders import UNKNOWN_LOCATION as LOC, expression_type
from generators import rand_cell, rand_filter_predicate, rand_table, rand_type

_NUMERIC = (ValueType.INT, ValueType.DECIMAL)


class _Builder:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.env: dict[str, Schema] = {}
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"t{self.counter}"

    def pick_source(self) -> tuple[str, Schema]:
        name = self.rng.choice(sorted(self.env))
        return name, self.env[name]


def _small_literal(rng: random.Random, vtype: ValueType) -> ast.Expr:
    if vtype is ValueType.INT:
        value = rng.randint(0, 9)
        return ast.Literal(value=value, type=vtype, location=LOC)
    value = Decimal(rng.randint(1, 99)).scaleb(-rng.randint(1, 2))
    return ast.Literal(value=value, type=vtype, location=LOC)


def _safe_map_expr(rng: random.Random, schema: Schema) -> ast.Expr:
    """Overflow-safe MAP expression: small literals, no division."""
    numeric = [f for f in schema.fields if f.type in _NUMERIC]
    strings = [f for f in schema.fields if f.type is ValueType.STRING]
    if numeric and (not strings or rng.random() < 0.7):
        field = rng.choice(numeric)
        return ast.BinaryOp(
            op=rng.choice(["+", "-", "*"]),
            left=ast.ColumnRef(name=field.name, location=LOC),
            right=_small_literal(rng, field.type),
            location=LOC,
        )
    if strings:
        return ast.Call(
            name=rng.choice(["UPPER", "LOWER", "TRIM"]),
            args=(ast.ColumnRef(name=rng.choice(strings).name, location=LOC),),
            location=LOC,
        )
    return ast.Literal(value=rng.randint(0, 9), type=ValueType.INT, location=LOC)


def _fresh_column(schema: Schema, builder: _Builder) -> str:
    builder.counter += 1
    return f"c{builder.counter}"


def _scalar_condition(rng: random.Random) -> ast.Expr:
    if rng.random() < 0.4:
        return ast.Literal(value=rng.random() < 0.5, type=ValueType.BOOL, location=LOC)
    a, b = rng.randint(0, 9), rng.randint(0, 9)
    return ast.Comparison(
        op=rng.choice(["<", "<=", ">", ">=", "==", "!="]),
        left=ast.Literal(value=a, type=ValueType.INT, location=LOC),
        right=ast.Literal(value=b, type=ValueType.INT, location=LOC),
        location=LOC,
    )


def _rand_statement(builder: _Builder) -> ast.Statement:
    rng = builder.rng
    source, schema = builder.pick_source()
    target = builder.fresh()
    choices = [
        "filter", "select", "distinct", "map", "add_column", "sort",
        "limit", "skip", "slice", "aggregate", "rename", "union",
        "if", "try", "for_each", "while",
    ]
    if len(schema) >= 2:
        choices.append("drop")
    if "join_right" in builder.env and source != "join_right":
        choices.append("join")
    kind = rng.choice(choices)

    if kind == "filter":
        stmt = ast.Filter(
            source=source,
            predicate=rand_filter_predicate(rng, schema),
            target=target,
            location=LOC,
        )
        builder.env[target] = schema
        return stmt
    if kind == "select":
        names = list(schema.names())
        rng.shuffle(names)
        columns = tuple(names[: rng.randint(1, len(names))])
        stmt = ast.Select(source=source, columns=columns, target=target, location=LOC)
        builder.env[target] = Schema(
            Field(n, schema.type_of(n)) for n in columns
        )
        return stmt
    if kind == "distinct":
        builder.env[target] = schema
        return ast.Distinct(source=source, target=target, location=LOC)
    if kind == "map":
        column = _fresh_column(schema, builder)
        expr = _safe_map_expr(rng, schema)
        new_type = expression_type(expr, schema)
        builder.env[target] = Schema(tuple(schema.fields) + (Field(column, new_type),))
        return ast.Map(
            source=source, column=column, expr=expr, target=target, location=LOC
        )
    if kind == "add_column":
        column = _fresh_column(schema, builder)
        vtype = rand_type(rng)
        value = rand_cell(rng, vtype, null_rate=0.0)
        builder.env[target] = Schema(tuple(schema.fields) + (Field(column, vtype),))
        return ast.AddColumn(
            source=source,
            column=column,
            value=ast.Literal(value=value, type=vtype, location=LOC),
            target=target,
            location=LOC,
        )
    if kind == "sort":
        builder.env[target] = schema
        return ast.Sort(
            source=source,
            column=rng.choice(schema.names()),
            descending=rng.random() < 0.5,
            target=target,
            location=LOC,
        )
    if kind == "limit":
        builder.env[target] = schema
        return ast.Limit(
            source=source, count=rng.randint(0, 25), target=target, location=LOC
        )
    if kind == "skip":
        builder.env[target] = schema
        return ast.Skip(
            source=source, count=rng.randint(0, 25), target=target, location=LOC
        )
    if kind == "slice":
        builder.env[target] = schema
        return ast.Slice(
            source=source,
            start=rng.randint(0, 20),
            stop=rng.randint(0, 20),
            target=target,
            location=LOC,
        )
    if kind == "drop":
        column = rng.choice(schema.names())
        builder.env[target] = Schema(f for f in schema.fields if f.name != column)
        return ast.Drop(source=source, column=column, target=target, location=LOC)
    if kind == "rename":
        old = rng.choice(schema.names())
        new = _fresh_column(schema, builder)
        builder.env[target] = Schema(
            Field(new, f.type) if f.name == old else f for f in schema.fields
        )
        return ast.Rename(
            source=source, old_name=old, new_name=new, target=target, location=LOC
        )
    if kind == "union":
        builder.env[target] = schema
        return ast.Union(left=source, right=source, target=target, location=LOC)
    if kind == "aggregate":
        names = list(schema.names())
        group_by = tuple(rng.sample(names, rng.randint(0, min(2, len(names)))))
        specs = []
        minmaxable = [
            n
            for n in names
            if schema.type_of(n)
            in (*_NUMERIC, ValueType.STRING, ValueType.DATE, ValueType.DATETIME)
        ]
        numeric = [n for n in names if schema.type_of(n) in _NUMERIC]
        for i in range(rng.randint(1, 2)):
            options = ["COUNT"]
            if numeric:
                options += ["SUM", "AVG"]
            if minmaxable:
                options += ["MIN", "MAX"]
            fn = rng.choice(options)
            arg = None
            if fn in ("SUM", "AVG"):
                arg = rng.choice(numeric)
            elif fn in ("MIN", "MAX"):
                arg = rng.choice(minmaxable)
            builder.counter += 1
            specs.append(
                ast.AggregateSpec(fn=fn, arg=arg, alias=f"g{builder.counter}", location=LOC)
            )
        fields = [Field(n, schema.type_of(n)) for n in group_by]
        for spec in specs:
            if spec.fn == "COUNT":
                out_type = ValueType.INT
            elif spec.fn == "AVG":
                out_type = ValueType.DECIMAL
            else:
                out_type = schema.type_of(spec.arg)
            fields.append(Field(spec.alias, out_type))
        builder.env[target] = Schema(fields)
        return ast.Aggregate(
            source=source,
            group_by=group_by,
            computes=tuple(specs),
            target=target,
            location=LOC,
        )
    if kind == "join":
        right = "join_right"
        right_schema = builder.env[right]
        left_key = schema.names()[0]
        right_key = right_schema.names()[0]
        overlap = set(schema.names()) & (set(right_schema.names()) - {right_key})
        key_ok = schema.type_of(left_key) in _NUMERIC
        if overlap or not key_ok or source == right:
            builder.env[target] = schema
            return ast.Distinct(source=source, target=target, location=LOC)
        fields = list(schema.fields) + [
            f for f in right_schema.fields if f.name != right_key
        ]
        builder.env[target] = Schema(fields)
        node = ast.LeftJoin if rng.random() < 0.5 else ast.Join
        return node(
            left=source,
            right=right,
            left_key=left_key,
            right_key=right_key,
            target=target,
            location=LOC,
        )
    if kind == "if":
        condition = _scalar_condition(rng)
        then_stmt = ast.Filter(
            source=source,
            predicate=rand_filter_predicate(rng, schema),
            target=target,
            location=LOC,
        )
        else_stmt = ast.Filter(
            source=source,
            predicate=rand_filter_predicate(rng, schema),
            target=target,
            location=LOC,
        )
        builder.env[target] = schema
        return ast.If(
            condition=condition,
            then_body=(then_stmt,),
            else_body=(else_stmt,),
            location=LOC,
        )
    if kind == "try":
        numeric = [f for f in schema.fields if f.type in _NUMERIC]
        if not numeric:
            builder.env[target] = schema
            return ast.Distinct(source=source, target=target, location=LOC)
        field = rng.choice(numeric)
        column = _fresh_column(schema, builder)
        divisor = rng.choice([0, 0, 1, 2, 3])  # zero often, to take ON_ERROR
        body = ast.Map(
            source=source,
            column=column,
            expr=ast.BinaryOp(
                op="/",
                left=ast.ColumnRef(name=field.name, location=LOC),
                right=ast.Literal(value=divisor, type=ValueType.INT, location=LOC),
                location=LOC,
            ),
            target=target,
            location=LOC,
        )
        out_type = ValueType.INT if field.type is ValueType.INT else ValueType.DECIMAL
        fallback_value = 0 if out_type is ValueType.INT else Decimal("0.0")
        handler = ast.AddColumn(
            source=source,
            column=column,
            value=ast.Literal(value=fallback_value, type=out_type, location=LOC),
            target=target,
            location=LOC,
        )
        builder.env[target] = Schema(tuple(schema.fields) + (Field(column, out_type),))
        return ast.Try(body=(body,), handler=(handler,), location=LOC)
    if kind == "for_each":
        inner = ast.If(
            condition=rand_filter_predicate(rng, schema),
            then_body=(ast.Distinct(source=source, target=target, location=LOC),),
            else_body=(),
            location=LOC,
        )
        return ast.ForEach(var="row", source=source, body=(inner,), location=LOC)
    if kind == "while":
        body = ast.Distinct(source=source, target=target, location=LOC)
        return ast.While(
            condition=ast.Literal(value=False, type=ValueType.BOOL, location=LOC),
            body=(body,),
            location=LOC,
        )
    raise AssertionError(kind)


def rand_pipeline(rng: random.Random) -> tuple[ast.Pipeline, dict[str, Table]]:
    """A random well-formed pipeline and conforming input tables."""
    builder = _Builder(rng)
    input_schema = Schema(
        Field(name, rand_type(rng))
        for name in rng.sample(["a", "b", "c", "d"], rng.randint(1, 4))
    )
    builder.env["src"] = input_schema
    inputs = [ast.InputDecl(name="src", schema=input_schema, location=LOC)]
    tables = {"src": rand_table(rng, input_schema)}

    if rng.random() < 0.6:
        right_schema = Schema(
            Field(name, ValueType.INT if i == 0 else rand_type(rng))
            for i, name in enumerate(rng.sample(["e", "f", "g", "h"], rng.randint(1, 4)))
        )
        builder.env["join_right"] = right_schema
        inputs.append(
            ast.InputDecl(name="join_right", schema=right_schema, location=LOC)
        )
        tables["join_right"] = rand_table(rng, right_schema)

    steps = []
    for s in range(rng.randint(1, 3)):
        body = tuple(_rand_statement(builder) for _ in range(rng.randint(1, 3)))
        steps.append(ast.Step(name=f"step{s}", body=body, location=LOC))

    bound = [n for n in builder.env if n not in ("src", "join_right")]
    output = rng.choice(bound) if bound else "src"
    pipeline = ast.Pipeline(
        name="generated",
        inputs=tuple(inputs),
        steps=tuple(steps),
        output=output,
        output_location=LOC,
        location=LOC,
    )
    return pipeline, tables
