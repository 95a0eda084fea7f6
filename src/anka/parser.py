"""Recursive-descent parser producing a fully located AST.

The grammar admits exactly one statement production per statement
keyword. Every statement, control flow included, is read by its form in
``grammar.STATEMENTS``, the same table the formatter writes it back by;
a block slot reads the nested statements. Expressions are read
by precedence climbing over ``grammar.BINARY_OPERATORS`` and
``grammar.PREFIX_OPERATORS``, loosest first: OR, AND, NOT, the
comparisons (which do not chain), ``+ -``, ``* /``, unary minus. A
literal is read by the form its first token has in
``grammar.LITERAL_TOKENS`` or ``grammar.LITERAL_KEYWORDS``, the form
the formatter writes it back by.
Statements are self-delimiting (every data statement ends in its INTO
target or a trailing literal clause, every control-flow statement in
its ``END_*`` keyword), so no separators are needed and newlines carry
no meaning.
"""

from __future__ import annotations

from typing import Callable, Optional

from anka import ast_nodes as ast
from anka.errors import ParseError
from anka.grammar import (
    BINARY_OPERATORS,
    LITERAL_KEYWORDS,
    LITERAL_TOKENS,
    PREFIX_OPERATORS,
    PRIMARY_LEVEL,
    STATEMENTS,
)
from anka.lexer import (
    KEYWORDS,
    KIND_EOF,
    KIND_IDENT,
    KIND_KEYWORD,
    KIND_OP,
    KIND_STRING,
    Token,
    end_of_input,
    tokenize,
)
from anka.values import NUMERIC_TYPES, Field, Schema, ValueType

MAX_NESTING_DEPTH = 200

# Each type's keyword is its name.
TYPE_KEYWORDS = {vtype.value: vtype for vtype in ValueType}

# A string token's text is its value, so only these kinds spell operators.
_OPERATOR_KINDS = (KIND_KEYWORD, KIND_OP)


def parse(source: str) -> ast.Pipeline:
    """Parse source text into a Pipeline AST.

    Raises ParseError with a location and the expected-token set at the
    first syntax error. Never raises anything else on any text input.
    """
    return _Parser(source).parse_pipeline()


class _Parser:
    def __init__(self, source: str) -> None:
        # EOF ends the list; every advance() follows a check that the
        # current token is not EOF, so peek() never runs off the end
        self.tokens = tokenize(source)
        self.tokens.append(end_of_input(source, self.tokens))
        self.pos = 0
        self.depth = 0
        self.height = 0  # of the expression node last built

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == KIND_KEYWORD and tok.text in words

    def accept_keyword(self, word: str) -> Optional[Token]:
        if self.at_keyword(word):
            return self.advance()
        return None

    def fail(self, *expected: str) -> ParseError:
        tok = self.peek()
        what = ", ".join(expected)
        return ParseError(
            f"expected {what}, found {tok.describe()}",
            tok.location,
            expected=tuple(expected),
        )

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind == KIND_KEYWORD and tok.text == word:
            return self.advance()
        raise self.fail(word)

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind == KIND_OP and tok.text == op:
            return self.advance()
        raise self.fail(f"'{op}'")

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == KIND_OP and tok.text in ops

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind == KIND_IDENT:
            return self.advance()
        raise self.fail(what)

    def expect_string(self, what: str = "string literal") -> Token:
        tok = self.peek()
        if tok.kind == KIND_STRING:
            return self.advance()
        raise self.fail(what)

    def comma_list(self, read: Callable[[], object]) -> tuple:
        items = [read()]
        while self.at_op(","):
            self.advance()
            items.append(read())
        return tuple(items)

    def _enter(self, levels: int = 1) -> None:
        # callers take the levels off on return; a ParseError ends the parse
        self.depth += levels
        if self.depth > MAX_NESTING_DEPTH:
            raise ParseError("nesting too deep", self.peek().location)

    def _grow(self, height: int, tok: Token) -> None:
        """Record the height of the node built at ``tok``: walkers recurse
        that deep, so a chain of operators counts as nesting does."""
        if self.depth + height > MAX_NESTING_DEPTH:
            raise ParseError("nesting too deep", tok.location)
        self.height = height

    # -- pipeline structure --------------------------------------------------

    def parse_pipeline(self) -> ast.Pipeline:
        start = self.expect_keyword("PIPELINE")
        name = self.expect_ident("pipeline name")
        self.expect_op(":")

        inputs = []
        while self.at_keyword("INPUT"):
            inputs.append(self.parse_input())

        steps = [self.parse_step()]
        while self.at_keyword("STEP"):
            steps.append(self.parse_step())

        out_kw = self.expect_keyword("OUTPUT")
        output = self.expect_ident("output dataset name")
        tok = self.peek()
        if tok.kind != KIND_EOF:
            raise self.fail("end of input")
        return ast.Pipeline(
            name=name.text,
            inputs=tuple(inputs),
            steps=tuple(steps),
            output=output.text,
            output_location=out_kw.location,
            location=start.location,
        )

    def parse_input(self) -> ast.InputDecl:
        start = self.expect_keyword("INPUT")
        name = self.expect_ident("input name")
        self.expect_op(":")
        schema = self.parse_table_type()
        return ast.InputDecl(name=name.text, schema=schema, location=start.location)

    def parse_table_type(self) -> Schema:
        self.expect_keyword("TABLE")
        self.expect_op("[")
        fields = self.comma_list(self.parse_field)
        close = self.expect_op("]")
        seen = set()
        for f in fields:
            if f.name in seen:
                raise ParseError(
                    f"duplicate field name '{f.name}' in TABLE declaration",
                    close.location,
                )
            seen.add(f.name)
        return Schema(fields)

    def parse_field(self) -> Field:
        name = self.expect_ident("field name")
        self.expect_op(":")
        tok = self.peek()
        if tok.kind == KIND_KEYWORD and tok.text in TYPE_KEYWORDS:
            self.advance()
            return Field(name.text, TYPE_KEYWORDS[tok.text])
        raise self.fail(*sorted(TYPE_KEYWORDS))

    def parse_step(self) -> ast.Step:
        start = self.expect_keyword("STEP")
        name = self.expect_ident("step name")
        self.expect_op(":")
        body = self.parse_statement_block()
        return ast.Step(name=name.text, body=body, location=start.location)

    def parse_statement_block(self) -> tuple[ast.Statement, ...]:
        """One or more statements; ends before the first non-statement
        keyword (STEP, OUTPUT, ELSE, END_*, ON_ERROR)."""
        statements = []
        while True:
            tok = self.peek()
            if tok.kind == KIND_KEYWORD and tok.text in _FORMS:
                statements.append(self.parse_statement())
            elif statements:
                return tuple(statements)
            else:
                raise self.fail("a statement")

    # -- statements ----------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        """The statement whose keyword is the current token."""
        start = self.peek()
        self._enter()
        self.advance()
        node, parts = _FORMS[start.text]
        fields = {}
        for field, read, arg in parts:
            value = read(self, arg)
            if field is not None:
                fields[field] = value
        self.depth -= 1
        return node(**fields, location=start.location)

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
        tok = self.peek()
        prefix = PREFIX_OPERATORS.get(tok.text) if tok.kind in _OPERATOR_KINDS else None
        if prefix is not None and prefix.level >= min_level:
            self.advance()
            self._enter()
            operand = self._parse_operators(prefix.level)
            self.depth -= 1
            self._grow(self.height + 1, tok)
            left = prefix.node(operand=operand, location=tok.location)
            level = prefix.level
        else:
            left = self._parse_primary()
            level = PRIMARY_LEVEL
        while True:
            tok = self.peek()
            op = BINARY_OPERATORS.get(tok.text) if tok.kind in _OPERATOR_KINDS else None
            if op is None or op.level < min_level or level < op.left:
                return left
            self.advance()
            height = self.height
            right = self._parse_operators(op.level + 1)
            self._grow(max(height, self.height) + 1, tok)
            left = op.node(op=tok.text, left=left, right=right, location=tok.location)
            level = op.level

    def _parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == KIND_OP and tok.text == "(":
            self.advance()
            self._enter()
            expr = self.parse_expr()
            self.depth -= 1
            self.expect_op(")")
            return expr
        self.height = 0
        if tok.kind == KIND_IDENT:
            self.advance()
            if self.at_op("("):
                return self._parse_call(tok)
            return ast.ColumnRef(name=tok.text, location=tok.location)
        return self.parse_literal()

    def _parse_call(self, name: Token) -> ast.Call:
        self.expect_op("(")
        args: list[ast.Expr] = []
        height = 0
        # 3 levels with parse_expr's: the parser recurses one frame deeper
        # through a call than through a parenthesis, which costs 2
        self._enter(2)
        if not self.at_op(")"):
            args.append(self.parse_expr())
            height = self.height
            while self.at_op(","):
                self.advance()
                args.append(self.parse_expr())
                height = max(height, self.height)
        self.depth -= 2
        self.expect_op(")")
        self._grow(height + 1, name)
        return ast.Call(name=name.text, args=tuple(args), location=name.location)

    def parse_literal(self) -> ast.Literal:
        start = tok = self.peek()
        negative = tok.kind == KIND_OP and tok.text == "-"
        if negative:
            # a negative number, in literal-only positions
            self.advance()
            tok = self.peek()
        if tok.kind == KIND_KEYWORD:
            form = LITERAL_KEYWORDS.get(tok.text)
        else:
            form = LITERAL_TOKENS.get(tok.kind)
        if form is None or negative and form.type not in NUMERIC_TYPES:
            raise self.fail("numeric literal" if negative else "an expression")
        self.advance()
        value = form.read(self, tok)
        return ast.Literal(
            value=-value if negative else value, type=form.type, location=start.location
        )


# Each form part as (field or None, reader, its argument): a keyword or an
# operator is expected as written, a slot is read by its kind.
_FORMS = {
    keyword: (node, tuple(
        (None, _Parser.expect_keyword if part in KEYWORDS else _Parser.expect_op, part)
        if isinstance(part, str) else (part[0], part[1].read, part[1].what)
        for part in form
    ))
    for keyword, (node, form) in STATEMENTS.items()
}
