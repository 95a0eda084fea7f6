"""Canonical source emission from an AST.

``parse(format_ast(t))`` yields a tree structurally equal to ``t`` for
every valid tree. Each data statement is written on one line by its form
in ``grammar.STATEMENTS``, the table the parser reads it by; expressions
are written by ``grammar.format_expr`` with the fewest parentheses the
operator levels need. Control-flow bodies go on their own lines, one
indent deeper.
"""

from __future__ import annotations

from anka import ast_nodes as ast
from anka.grammar import NODE_KEYWORDS, STATEMENTS, format_expr, format_schema


def format_ast(pipeline: ast.Pipeline) -> str:
    """Emit canonical pipeline source text."""
    lines = [f"PIPELINE {pipeline.name}:"]
    for decl in pipeline.inputs:
        lines.append(f"  INPUT {decl.name}: {format_schema(decl.schema)}")
    for step in pipeline.steps:
        lines.append(f"  STEP {step.name}:")
        _emit_block(lines, step.body, indent=2)
    lines.append(f"  OUTPUT {pipeline.output}")
    return "\n".join(lines) + "\n"


def _emit_block(lines: list[str], body: tuple[ast.Statement, ...], indent: int) -> None:
    pad = "  " * indent
    for stmt in body:
        if isinstance(stmt, ast.If):
            lines.append(f"{pad}IF {format_expr(stmt.condition)} THEN")
            _emit_block(lines, stmt.then_body, indent + 1)
            if stmt.else_body:
                lines.append(f"{pad}ELSE")
                _emit_block(lines, stmt.else_body, indent + 1)
            lines.append(f"{pad}END_IF")
        elif isinstance(stmt, ast.ForEach):
            lines.append(f"{pad}FOR_EACH {stmt.var} IN {stmt.source} DO")
            _emit_block(lines, stmt.body, indent + 1)
            lines.append(f"{pad}END_FOR")
        elif isinstance(stmt, ast.While):
            lines.append(f"{pad}WHILE {format_expr(stmt.condition)} DO")
            _emit_block(lines, stmt.body, indent + 1)
            lines.append(f"{pad}END_WHILE")
        elif isinstance(stmt, ast.Try):
            lines.append(f"{pad}TRY")
            _emit_block(lines, stmt.body, indent + 1)
            lines.append(f"{pad}ON_ERROR")
            _emit_block(lines, stmt.handler, indent + 1)
            lines.append(f"{pad}END_TRY")
        else:
            lines.append(pad + format_statement(stmt))


def format_statement(stmt: ast.Statement) -> str:
    """Single-line canonical form of a data statement."""
    keyword = NODE_KEYWORDS.get(type(stmt))
    if keyword is None:
        raise TypeError(f"cannot format statement {type(stmt).__name__}")
    parts = [keyword]
    for part in STATEMENTS[keyword][1]:
        if isinstance(part, str):
            parts.append(part)
        else:
            field, slot = part
            text = slot.write(getattr(stmt, field))
            if text is not None:
                parts.append(text)
    return " ".join(parts)
