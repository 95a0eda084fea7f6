"""Recursive-descent parser producing a fully located AST.

The grammar admits exactly one statement production per operation
keyword. Statements are self-delimiting (every data statement ends in
its INTO target or a trailing literal clause), so no separators are
needed and newlines carry no meaning.
"""

from __future__ import annotations

from typing import Optional

from anka import ast_nodes as ast
from anka.errors import ConversionError, ParseError
from anka.lexer import (
    KIND_DECIMAL,
    KIND_EOF,
    KIND_IDENT,
    KIND_INT,
    KIND_KEYWORD,
    KIND_OP,
    KIND_STRING,
    Token,
    end_of_input,
    tokenize,
)
from anka.values import Field, Schema, ValueType, parse_date, parse_datetime

MAX_NESTING_DEPTH = 200

STATEMENT_KEYWORDS = (
    "FILTER", "SELECT", "DISTINCT", "MAP", "RENAME", "DROP", "ADD_COLUMN",
    "AGGREGATE", "SORT", "LIMIT", "SKIP", "SLICE", "JOIN", "LEFT_JOIN",
    "UNION", "READ", "WRITE", "FETCH", "POST",
    "IF", "FOR_EACH", "WHILE", "TRY",
)

TYPE_KEYWORDS = {
    "INT": ValueType.INT,
    "STRING": ValueType.STRING,
    "DECIMAL": ValueType.DECIMAL,
    "BOOL": ValueType.BOOL,
    "DATE": ValueType.DATE,
    "DATETIME": ValueType.DATETIME,
}

COMPARISON_OPS = ("==", "!=", ">=", "<=", ">", "<")
AGGREGATE_FNS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


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
        tok = self.accept_keyword(word)
        if tok is None:
            raise self.fail(word)
        return tok

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

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise ParseError("nesting too deep", self.peek().location)

    def _exit(self) -> None:
        self.depth -= 1

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
        fields = [self.parse_field()]
        while self.at_op(","):
            self.advance()
            fields.append(self.parse_field())
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
            if tok.kind == KIND_KEYWORD and tok.text in STATEMENT_KEYWORDS:
                statements.append(self.parse_statement())
            elif statements:
                return tuple(statements)
            else:
                raise self.fail("a statement")

    # -- statements ----------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        tok = self.peek()
        if tok.kind != KIND_KEYWORD or tok.text not in STATEMENT_KEYWORDS:
            raise self.fail("a statement")
        handler = getattr(self, f"_parse_{tok.text.lower()}")
        self._enter()
        try:
            return handler()
        finally:
            self._exit()

    def _into(self) -> str:
        self.expect_keyword("INTO")
        return self.expect_ident("target name").text

    def _parse_filter(self) -> ast.Filter:
        start = self.advance()
        source = self.expect_ident("dataset name")
        self.expect_keyword("WHERE")
        predicate = self.parse_expr()
        return ast.Filter(
            source=source.text,
            predicate=predicate,
            target=self._into(),
            location=start.location,
        )

    def _parse_select(self) -> ast.Select:
        start = self.advance()
        source = self.expect_ident("dataset name")
        self.expect_keyword("COLUMNS")
        columns = self.parse_ident_list("column name")
        return ast.Select(
            source=source.text,
            columns=columns,
            target=self._into(),
            location=start.location,
        )

    def _parse_distinct(self) -> ast.Distinct:
        start = self.advance()
        source = self.expect_ident("dataset name")
        return ast.Distinct(
            source=source.text, target=self._into(), location=start.location
        )

    def _parse_map(self) -> ast.Map:
        start = self.advance()
        source = self.expect_ident("dataset name")
        self.expect_keyword("WITH")
        column = self.expect_ident("new column name")
        self.expect_op("=>")
        expr = self.parse_expr()
        return ast.Map(
            source=source.text,
            column=column.text,
            expr=expr,
            target=self._into(),
            location=start.location,
        )

    def _parse_rename(self) -> ast.Rename:
        start = self.advance()
        source = self.expect_ident("dataset name")
        self.expect_keyword("COLUMN")
        old = self.expect_ident("column name")
        self.expect_keyword("TO")
        new = self.expect_ident("new column name")
        return ast.Rename(
            source=source.text,
            old_name=old.text,
            new_name=new.text,
            target=self._into(),
            location=start.location,
        )

    def _parse_drop(self) -> ast.Drop:
        start = self.advance()
        source = self.expect_ident("dataset name")
        self.expect_keyword("COLUMN")
        column = self.expect_ident("column name")
        return ast.Drop(
            source=source.text,
            column=column.text,
            target=self._into(),
            location=start.location,
        )

    def _parse_add_column(self) -> ast.AddColumn:
        start = self.advance()
        source = self.expect_ident("dataset name")
        self.expect_keyword("WITH")
        column = self.expect_ident("new column name")
        self.expect_op("=")
        value = self.parse_literal()
        return ast.AddColumn(
            source=source.text,
            column=column.text,
            value=value,
            target=self._into(),
            location=start.location,
        )

    def _parse_aggregate(self) -> ast.Aggregate:
        start = self.advance()
        source = self.expect_ident("dataset name")
        group_by: tuple[str, ...] = ()
        if self.accept_keyword("GROUP_BY"):
            group_by = self.parse_ident_list("column name")
        self.expect_keyword("COMPUTE")
        computes = [self.parse_aggregate_spec()]
        while self.at_op(","):
            self.advance()
            computes.append(self.parse_aggregate_spec())
        return ast.Aggregate(
            source=source.text,
            group_by=group_by,
            computes=tuple(computes),
            target=self._into(),
            location=start.location,
        )

    def parse_aggregate_spec(self) -> ast.AggregateSpec:
        tok = self.peek()
        if tok.kind != KIND_KEYWORD or tok.text not in AGGREGATE_FNS:
            raise self.fail(*AGGREGATE_FNS)
        self.advance()
        self.expect_op("(")
        arg: Optional[str] = None
        if tok.text != "COUNT":
            arg = self.expect_ident("column name").text
        self.expect_op(")")
        self.expect_keyword("AS")
        alias = self.expect_ident("alias")
        return ast.AggregateSpec(
            fn=tok.text, arg=arg, alias=alias.text, location=tok.location
        )

    def _parse_sort(self) -> ast.Sort:
        start = self.advance()
        source = self.expect_ident("dataset name")
        self.expect_keyword("BY")
        column = self.expect_ident("column name")
        if self.accept_keyword("ASC"):
            descending = False
        elif self.accept_keyword("DESC"):
            descending = True
        else:
            raise self.fail("ASC", "DESC")
        return ast.Sort(
            source=source.text,
            column=column.text,
            descending=descending,
            target=self._into(),
            location=start.location,
        )

    def _parse_limit(self) -> ast.Limit:
        start = self.advance()
        source = self.expect_ident("dataset name")
        self.expect_keyword("TO")
        count = self.parse_int_literal()
        return ast.Limit(
            source=source.text,
            count=count,
            target=self._into(),
            location=start.location,
        )

    def _parse_skip(self) -> ast.Skip:
        start = self.advance()
        source = self.expect_ident("dataset name")
        self.expect_keyword("FIRST")
        count = self.parse_int_literal()
        return ast.Skip(
            source=source.text,
            count=count,
            target=self._into(),
            location=start.location,
        )

    def _parse_slice(self) -> ast.Slice:
        start = self.advance()
        source = self.expect_ident("dataset name")
        self.expect_keyword("FROM")
        lo = self.parse_int_literal()
        self.expect_keyword("TO")
        hi = self.parse_int_literal()
        return ast.Slice(
            source=source.text,
            start=lo,
            stop=hi,
            target=self._into(),
            location=start.location,
        )

    def _parse_join(self) -> ast.Join:
        return self._parse_join_like(ast.Join)

    def _parse_left_join(self) -> ast.LeftJoin:
        return self._parse_join_like(ast.LeftJoin)

    def _parse_join_like(self, node_type):
        start = self.advance()
        left = self.expect_ident("dataset name")
        self.expect_keyword("WITH")
        right = self.expect_ident("dataset name")
        self.expect_keyword("ON")
        left_key = self.expect_ident("column name")
        self.expect_op("==")
        right_key = self.expect_ident("column name")
        return node_type(
            left=left.text,
            right=right.text,
            left_key=left_key.text,
            right_key=right_key.text,
            target=self._into(),
            location=start.location,
        )

    def _parse_union(self) -> ast.Union:
        start = self.advance()
        left = self.expect_ident("dataset name")
        self.expect_keyword("WITH")
        right = self.expect_ident("dataset name")
        return ast.Union(
            left=left.text,
            right=right.text,
            target=self._into(),
            location=start.location,
        )

    def _parse_format(self) -> str:
        if self.accept_keyword("JSON"):
            return "json"
        if self.accept_keyword("CSV"):
            return "csv"
        raise self.fail("JSON", "CSV")

    def _parse_read(self) -> ast.Read:
        start = self.advance()
        path = self.expect_string("file path string")
        self.expect_keyword("AS")
        fmt = self._parse_format()
        schema = self.parse_table_type()
        return ast.Read(
            path=path.value,
            format=fmt,
            schema=schema,
            target=self._into(),
            location=start.location,
        )

    def _parse_write(self) -> ast.Write:
        start = self.advance()
        source = self.expect_ident("dataset name")
        self.expect_keyword("TO")
        path = self.expect_string("file path string")
        self.expect_keyword("AS")
        fmt = self._parse_format()
        return ast.Write(
            source=source.text, path=path.value, format=fmt, location=start.location
        )

    def _parse_fetch(self) -> ast.Fetch:
        start = self.advance()
        url = self.expect_string("URL string")
        schema = self.parse_table_type()
        return ast.Fetch(
            url=url.value,
            schema=schema,
            target=self._into(),
            location=start.location,
        )

    def _parse_post(self) -> ast.Post:
        start = self.advance()
        source = self.expect_ident("dataset name")
        self.expect_keyword("TO")
        url = self.expect_string("URL string")
        return ast.Post(source=source.text, url=url.value, location=start.location)

    def _parse_if(self) -> ast.If:
        start = self.advance()
        condition = self.parse_expr()
        self.expect_keyword("THEN")
        then_body = self.parse_statement_block()
        else_body: tuple[ast.Statement, ...] = ()
        if self.accept_keyword("ELSE"):
            else_body = self.parse_statement_block()
        self.expect_keyword("END_IF")
        return ast.If(
            condition=condition,
            then_body=then_body,
            else_body=else_body,
            location=start.location,
        )

    def _parse_for_each(self) -> ast.ForEach:
        start = self.advance()
        var = self.expect_ident("row variable")
        self.expect_keyword("IN")
        source = self.expect_ident("dataset name")
        self.expect_keyword("DO")
        body = self.parse_statement_block()
        self.expect_keyword("END_FOR")
        return ast.ForEach(
            var=var.text, source=source.text, body=body, location=start.location
        )

    def _parse_while(self) -> ast.While:
        start = self.advance()
        condition = self.parse_expr()
        self.expect_keyword("DO")
        body = self.parse_statement_block()
        self.expect_keyword("END_WHILE")
        return ast.While(condition=condition, body=body, location=start.location)

    def _parse_try(self) -> ast.Try:
        start = self.advance()
        body = self.parse_statement_block()
        self.expect_keyword("ON_ERROR")
        handler = self.parse_statement_block()
        self.expect_keyword("END_TRY")
        return ast.Try(body=body, handler=handler, location=start.location)

    def parse_ident_list(self, what: str) -> tuple[str, ...]:
        names = [self.expect_ident(what).text]
        while self.at_op(","):
            self.advance()
            names.append(self.expect_ident(what).text)
        return tuple(names)

    def parse_int_literal(self) -> int:
        negative = False
        if self.at_op("-"):
            self.advance()
            negative = True
        tok = self.peek()
        if tok.kind != KIND_INT:
            raise self.fail("integer literal")
        self.advance()
        return -tok.value if negative else tok.value

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        self._enter()
        try:
            return self._parse_or()
        finally:
            self._exit()

    def _parse_or(self) -> ast.Expr:
        expr = self._parse_and()
        while self.at_keyword("OR"):
            tok = self.advance()
            right = self._parse_and()
            expr = ast.BoolOp(op="OR", left=expr, right=right, location=tok.location)
        return expr

    def _parse_and(self) -> ast.Expr:
        expr = self._parse_not()
        while self.at_keyword("AND"):
            tok = self.advance()
            right = self._parse_not()
            expr = ast.BoolOp(op="AND", left=expr, right=right, location=tok.location)
        return expr

    def _parse_not(self) -> ast.Expr:
        if self.at_keyword("NOT"):
            tok = self.advance()
            self._enter()
            try:
                operand = self._parse_not()
            finally:
                self._exit()
            return ast.Not(operand=operand, location=tok.location)
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        if self.at_op(*COMPARISON_OPS):
            tok = self.advance()
            right = self._parse_additive()
            return ast.Comparison(
                op=tok.text, left=left, right=right, location=tok.location
            )
        return left

    def _parse_additive(self) -> ast.Expr:
        expr = self._parse_multiplicative()
        while self.at_op("+", "-"):
            tok = self.advance()
            right = self._parse_multiplicative()
            expr = ast.BinaryOp(
                op=tok.text, left=expr, right=right, location=tok.location
            )
        return expr

    def _parse_multiplicative(self) -> ast.Expr:
        expr = self._parse_unary()
        while self.at_op("*", "/"):
            tok = self.advance()
            right = self._parse_unary()
            expr = ast.BinaryOp(
                op=tok.text, left=expr, right=right, location=tok.location
            )
        return expr

    def _parse_unary(self) -> ast.Expr:
        if self.at_op("-"):
            tok = self.advance()
            self._enter()
            try:
                operand = self._parse_unary()
            finally:
                self._exit()
            return ast.Neg(operand=operand, location=tok.location)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == KIND_OP and tok.text == "(":
            self.advance()
            self._enter()
            try:
                expr = self.parse_expr()
            finally:
                self._exit()
            self.expect_op(")")
            return expr
        if tok.kind == KIND_IDENT:
            self.advance()
            if self.at_op("("):
                return self._parse_call(tok)
            return ast.ColumnRef(name=tok.text, location=tok.location)
        return self.parse_literal()

    def _parse_call(self, name: Token) -> ast.Call:
        self.expect_op("(")
        args: list[ast.Expr] = []
        if not self.at_op(")"):
            args.append(self.parse_expr())
            while self.at_op(","):
                self.advance()
                args.append(self.parse_expr())
        self.expect_op(")")
        return ast.Call(name=name.text, args=tuple(args), location=name.location)

    def parse_literal(self) -> ast.Literal:
        tok = self.peek()
        if tok.kind == KIND_INT:
            self.advance()
            return ast.Literal(value=tok.value, type=ValueType.INT, location=tok.location)
        if tok.kind == KIND_DECIMAL:
            self.advance()
            return ast.Literal(
                value=tok.value, type=ValueType.DECIMAL, location=tok.location
            )
        if tok.kind == KIND_STRING:
            self.advance()
            return ast.Literal(
                value=tok.value, type=ValueType.STRING, location=tok.location
            )
        if tok.kind == KIND_OP and tok.text == "-":
            # negative numeric literal in literal-only positions
            self.advance()
            inner = self.peek()
            if inner.kind == KIND_INT:
                self.advance()
                return ast.Literal(
                    value=-inner.value, type=ValueType.INT, location=tok.location
                )
            if inner.kind == KIND_DECIMAL:
                self.advance()
                return ast.Literal(
                    value=-inner.value, type=ValueType.DECIMAL, location=tok.location
                )
            raise self.fail("numeric literal")
        if tok.kind == KIND_KEYWORD:
            if tok.text == "TRUE":
                self.advance()
                return ast.Literal(value=True, type=ValueType.BOOL, location=tok.location)
            if tok.text == "FALSE":
                self.advance()
                return ast.Literal(
                    value=False, type=ValueType.BOOL, location=tok.location
                )
            if tok.text == "DATE":
                self.advance()
                text = self.expect_string("date string")
                return ast.Literal(
                    value=self._parse_temporal(parse_date, text),
                    type=ValueType.DATE,
                    location=tok.location,
                )
            if tok.text == "DATETIME":
                self.advance()
                text = self.expect_string("datetime string")
                return ast.Literal(
                    value=self._parse_temporal(parse_datetime, text),
                    type=ValueType.DATETIME,
                    location=tok.location,
                )
        raise self.fail("an expression")

    def _parse_temporal(self, parser, tok: Token):
        try:
            return parser(tok.value)
        except ConversionError as exc:
            raise ParseError(str(exc), tok.location) from None
