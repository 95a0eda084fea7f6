"""Canonical source emission from an AST.

``parse(format_ast(t))`` yields a tree structurally equal to ``t`` for
every valid tree. Each statement is written by its form in
``grammar.STATEMENTS``, the table the parser reads it by: a data
statement on one line, a control-flow statement with each block of its
form on lines of its own, one indent deeper. Expressions are written by
``grammar.format_expr`` with the fewest parentheses the operator levels
need.
"""

from __future__ import annotations

from anka import ast_nodes as ast
from anka.grammar import NODE_KEYWORDS, STATEMENTS, format_expr, format_schema

__all__ = ["format_ast", "format_expr", "format_schema"]


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
        keyword = NODE_KEYWORDS.get(type(stmt))
        if keyword is None:
            raise TypeError(f"cannot format statement {type(stmt).__name__}")
        words = [keyword]
        for part in STATEMENTS[keyword][1]:
            if isinstance(part, str):
                words.append(part)
                continue
            field, slot = part
            value = getattr(stmt, field)
            if slot.write is not None:
                text = slot.write(value)
                if text is not None:
                    words.append(text)
                continue
            # a block ends the line; an absent one writes nothing
            if words:
                lines.append(pad + " ".join(words))
                words = []
            if value:
                if slot.header:
                    lines.append(pad + slot.header)
                _emit_block(lines, value, indent + 1)
        if words:
            lines.append(pad + " ".join(words))
