"""Recursive-descent parser producing a fully located AST.

The grammar admits exactly one statement production per statement
keyword. Every statement, control flow included, is read by its form in
``grammar.STATEMENTS``, the same table the formatter writes it back by;
a block slot reads the nested statements. Expressions are read
by precedence climbing over ``grammar.BINARY_OPERATORS`` and
``grammar.PREFIX_OPERATORS``, loosest first: OR, AND, NOT, the
comparisons (which do not chain), ``+ -``, ``* /``, unary minus. A
literal is read by the form its first token has in
``grammar.LITERAL_TOKENS`` (by the token's kind) or
``grammar.LITERAL_KEYWORDS``, the form the formatter writes it back by.
Statements are self-delimiting (every data statement ends in its INTO
target or a trailing literal clause, every control-flow statement in
its ``END_*`` keyword), so no separators are needed and newlines carry
no meaning.

The parser reads the token texts of the source's ``lexer.TokenStream``
by index. A keyword or an operator is matched by its text alone; a
token's kind is worked out only where a slot needs one (an identifier,
a literal) or an error message names it. Every node's location is the
index of its first token, which the stream resolves only when a
diagnostic reads it.
"""

from __future__ import annotations

from typing import Callable

from anka import ast_nodes as ast
from anka import lexer
from anka.errors import ParseError
from anka.grammar import (
    BINARY_OPERATORS,
    LITERAL_KEYWORDS,
    LITERAL_TOKENS,
    PREFIX_OPERATORS,
    PRIMARY_LEVEL,
    STATEMENTS,
)
from anka.lexer import KEYWORDS, describe, token_kind, unquote
from anka.location import SourceLocation
from anka.values import NUMERIC_TYPES, Field, Schema, ValueType

MAX_NESTING_DEPTH = 200

# Each type's keyword is its name.
TYPE_KEYWORDS = {vtype.value: vtype for vtype in ValueType}

# Called through this module global, once per parse: perfbench's tracing
# times the lexer by replacing it.
tokenize = lexer.scan

_deferred = SourceLocation.deferred


def parse(source: str) -> ast.Pipeline:
    """Parse source text into a Pipeline AST.

    Raises ParseError with a location and the expected-token set at the
    first syntax error. Never raises anything else on any text input.
    """
    return _Parser(source).parse_pipeline()


class _Parser:
    def __init__(self, source: str) -> None:
        # "" ends the texts; every advance() follows a check that the
        # current text is not "", so peek() never runs off the end
        self.stream = tokenize(source)
        self.texts = self.stream.texts
        self.pos = 0
        self.depth = 0
        self.height = 0  # of the expression node last built

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> str:
        return self.texts[self.pos]

    def advance(self) -> int:
        """Take the current token; returns its index."""
        pos = self.pos
        self.pos = pos + 1
        return pos

    def location(self, index: int) -> SourceLocation:
        return _deferred(self.stream, index)

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> int:
        """Take a keyword or an operator; returns its index."""
        pos = self.pos
        if self.texts[pos] == text:
            self.pos = pos + 1
            return pos
        raise self.fail(describe(text))

    def fail(self, *expected: str) -> ParseError:
        what = ", ".join(expected)
        return ParseError(
            f"expected {what}, found {describe(self.texts[self.pos])}",
            _deferred(self.stream, self.pos),
            expected=tuple(expected),
        )

    def expect_ident(self, what: str = "identifier") -> str:
        text = self.texts[self.pos]
        # a word, and not a keyword: the stream's texts are ASCII
        if text.isidentifier() and text not in KEYWORDS:
            self.pos += 1
            return text
        raise self.fail(what)

    def expect_string(self, what: str = "string literal") -> str:
        """Take a string literal; returns its value."""
        text = self.texts[self.pos]
        if text.startswith('"'):
            self.pos += 1
            return unquote(text)
        raise self.fail(what)

    def comma_list(self, read: Callable[[], object]) -> tuple:
        items = [read()]
        while self.texts[self.pos] == ",":
            self.pos += 1
            items.append(read())
        return tuple(items)

    def _enter(self, levels: int = 1) -> None:
        # callers take the levels off on return; a ParseError ends the parse
        self.depth += levels
        if self.depth > MAX_NESTING_DEPTH:
            raise ParseError("nesting too deep", _deferred(self.stream, self.pos))

    def _grow(self, height: int, at: int) -> None:
        """Record the height of the node built at token ``at``: walkers
        recurse that deep, so a chain of operators counts as nesting does."""
        if self.depth + height > MAX_NESTING_DEPTH:
            raise ParseError("nesting too deep", _deferred(self.stream, at))
        self.height = height

    # -- pipeline structure --------------------------------------------------

    def parse_pipeline(self) -> ast.Pipeline:
        start = self.expect("PIPELINE")
        name = self.expect_ident("pipeline name")
        self.expect(":")

        inputs = []
        while self.at("INPUT"):
            inputs.append(self.parse_input())

        steps = [self.parse_step()]
        while self.at("STEP"):
            steps.append(self.parse_step())

        out_kw = self.expect("OUTPUT")
        output = self.expect_ident("output dataset name")
        if self.texts[self.pos]:
            raise self.fail("end of input")
        return ast.Pipeline(
            name=name,
            inputs=tuple(inputs),
            steps=tuple(steps),
            output=output,
            output_location=self.location(out_kw),
            location=self.location(start),
        )

    def parse_input(self) -> ast.InputDecl:
        start = self.expect("INPUT")
        name = self.expect_ident("input name")
        self.expect(":")
        schema = self.parse_table_type()
        return ast.InputDecl(name=name, schema=schema, location=self.location(start))

    def parse_table_type(self) -> Schema:
        self.expect("TABLE")
        self.expect("[")
        fields = self.comma_list(self.parse_field)
        close = self.expect("]")
        seen = set()
        for f in fields:
            if f.name in seen:
                raise ParseError(
                    f"duplicate field name '{f.name}' in TABLE declaration",
                    self.location(close),
                )
            seen.add(f.name)
        return Schema(fields)

    def parse_field(self) -> Field:
        name = self.expect_ident("field name")
        self.expect(":")
        vtype = TYPE_KEYWORDS.get(self.texts[self.pos])
        if vtype is not None:
            self.pos += 1
            return Field(name, vtype)
        raise self.fail(*sorted(TYPE_KEYWORDS))

    def parse_step(self) -> ast.Step:
        start = self.expect("STEP")
        name = self.expect_ident("step name")
        self.expect(":")
        body = self.parse_statement_block()
        return ast.Step(name=name, body=body, location=self.location(start))

    def parse_statement_block(self) -> tuple[ast.Statement, ...]:
        """One or more statements; ends before the first non-statement
        keyword (STEP, OUTPUT, ELSE, END_*, ON_ERROR)."""
        statements = []
        while True:
            if self.texts[self.pos] in _FORMS:
                statements.append(self.parse_statement())
            elif statements:
                return tuple(statements)
            else:
                raise self.fail("a statement")

    # -- statements ----------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        """The statement whose keyword is the current token."""
        start = self.pos
        self._enter()
        self.pos = start + 1
        node, parts = _FORMS[self.texts[start]]
        fields = {}
        for field, read, arg in parts:
            value = read(self, arg)
            if field is not None:
                fields[field] = value
        self.depth -= 1
        return node(**fields, location=_deferred(self.stream, start))

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        self._enter()
        expr = self._parse_operators(1)
        self.depth -= 1
        return expr

    def _parse_operators(self, min_level: int) -> ast.Expr:
        """Precedence climbing: an operand, then each operator of at least
        ``min_level`` that may take the tree built so far as its left
        operand; its right operand is parsed one level up."""
        at = self.pos
        prefix = PREFIX_OPERATORS.get(self.texts[at])
        if prefix is not None and prefix.level >= min_level:
            self.pos = at + 1
            self._enter()
            operand = self._parse_operators(prefix.level)
            self.depth -= 1
            self._grow(self.height + 1, at)
            left = prefix.node(operand=operand, location=_deferred(self.stream, at))
            level = prefix.level
        else:
            left = self._parse_primary()
            level = PRIMARY_LEVEL
        while True:
            at = self.pos
            text = self.texts[at]
            op = BINARY_OPERATORS.get(text)
            if op is None or op.level < min_level or level < op.left:
                return left
            self.pos = at + 1
            height = self.height
            right = self._parse_operators(op.level + 1)
            self._grow(max(height, self.height) + 1, at)
            left = op.node(op=text, left=left, right=right, location=_deferred(self.stream, at))
            level = op.level

    def _parse_primary(self) -> ast.Expr:
        at = self.pos
        text = self.texts[at]
        if text == "(":
            self.pos = at + 1
            self._enter()
            expr = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            return expr
        self.height = 0
        if text.isidentifier() and text not in KEYWORDS:  # as in expect_ident
            self.pos = at + 1
            if self.texts[at + 1] == "(":
                return self._parse_call(text, at)
            return ast.ColumnRef(name=text, location=_deferred(self.stream, at))
        return self.parse_literal()

    def _parse_call(self, name: str, at: int) -> ast.Call:
        self.expect("(")
        args: list[ast.Expr] = []
        height = 0
        # 3 levels with parse_expr's: the parser recurses one frame deeper
        # through a call than through a parenthesis, which costs 2
        self._enter(2)
        if not self.at(")"):
            args.append(self.parse_expr())
            height = self.height
            while self.accept(","):
                args.append(self.parse_expr())
                height = max(height, self.height)
        self.depth -= 2
        self.expect(")")
        self._grow(height + 1, at)
        return ast.Call(name=name, args=tuple(args), location=self.location(at))

    def parse_literal(self) -> ast.Literal:
        start = self.pos
        text = self.texts[start]
        negative = text == "-"
        if negative:
            # a negative number, in literal-only positions
            self.pos += 1
            text = self.texts[self.pos]
        form = LITERAL_KEYWORDS.get(text)
        if form is None:
            form = LITERAL_TOKENS.get(token_kind(text))
        if form is None or negative and form.type not in NUMERIC_TYPES:
            raise self.fail("numeric literal" if negative else "an expression")
        self.pos += 1
        value = form.read(self, text)
        return ast.Literal(
            value=-value if negative else value, type=form.type,
            location=_deferred(self.stream, start),
        )


# Each form part as (field or None, reader, its argument): a keyword or an
# operator is expected as written, a slot is read by its kind.
_FORMS = {
    keyword: (node, tuple(
        (None, _Parser.expect, part) if isinstance(part, str)
        else (part[0], part[1].read, part[1].what)
        for part in form
    ))
    for keyword, (node, form) in STATEMENTS.items()
}
