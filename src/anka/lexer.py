"""Tokenizer for pipeline source text.

Keywords are case-sensitive upper-case. Whitespace (including newlines)
and ``#`` comments are skipped; block structure comes entirely from
keywords and colons, never from indentation.

Scanning costs one regex match per token, skipped text included. Tokens
keep their character index, and so do the locations they hand out; line,
column and byte offset are worked out only when a location is read.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from decimal import Decimal
from itertools import accumulate
from typing import Optional, Union

from anka.errors import ConversionError, ParseError
from anka.location import SourceLocation
from anka.values import clip_text, parse_decimal, parse_int

KEYWORDS = frozenset(
    {
        # structure
        "PIPELINE", "INPUT", "STEP", "OUTPUT", "TABLE",
        # types
        "INT", "STRING", "DECIMAL", "BOOL", "DATE", "DATETIME",
        # data statements
        "FILTER", "WHERE", "INTO", "SELECT", "COLUMNS", "DISTINCT",
        "MAP", "WITH", "RENAME", "COLUMN", "TO", "DROP", "ADD_COLUMN",
        "AGGREGATE", "GROUP_BY", "COMPUTE", "AS",
        "COUNT", "SUM", "AVG", "MIN", "MAX",
        "SORT", "BY", "ASC", "DESC", "LIMIT", "SKIP", "FIRST",
        "SLICE", "FROM", "JOIN", "LEFT_JOIN", "ON", "UNION",
        "READ", "WRITE", "FETCH", "POST", "JSON", "CSV",
        # control flow
        "IF", "THEN", "ELSE", "END_IF",
        "FOR_EACH", "IN", "DO", "END_FOR",
        "WHILE", "END_WHILE",
        "TRY", "ON_ERROR", "END_TRY",
        # boolean operators and literals
        "AND", "OR", "NOT", "TRUE", "FALSE",
    }
)

# Longest first so `==` wins over `=`, `=>` over `=`.
OPERATORS = ("=>", "==", "!=", ">=", "<=", ">", "<", "+", "-", "*", "/",
             "(", ")", "[", "]", ":", ",", "=")

KIND_KEYWORD = "KEYWORD"
KIND_IDENT = "IDENT"
KIND_INT = "INT"
KIND_DECIMAL = "DECIMAL"
KIND_STRING = "STRING"
KIND_OP = "OP"
KIND_EOF = "EOF"

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}
_STRING_BODY = r'[^"\\\n]*(?:\\["\\nt][^"\\\n]*)*'

# After the skipped prefix the next character is never whitespace or `#`,
# so some alternative always matches and the engine never backtracks into
# a comment: `bad` takes any other character, the empty one takes the end.
# Classes are spelled out because \d and \w admit non-ASCII digits and letters.
_TOKEN = re.compile(
    rf"""[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    (?:
        (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>{"|".join(map(re.escape, OPERATORS))})
      | (?P<decimal>[0-9]+\.[0-9]+)
      | (?P<int>[0-9]+)
      | (?P<string>"{_STRING_BODY}")
      | (?P<bad>.)
      |
    )""",
    re.VERBOSE,
)
_STRING_PREFIX = re.compile(_STRING_BODY)
_ESCAPE = re.compile(r"\\(.)")


class _Lines:
    """The line table of one source text: works out line, column and byte
    offset of a character index, for a location the first time it is read,
    bisecting a table of line starts built on first use."""

    __slots__ = ("source", "starts", "byte_starts")

    def __init__(self, source: str) -> None:
        self.source = source
        self.starts: Optional[list[int]] = None
        self.byte_starts: Optional[list[int]] = None

    def position(self, index: int) -> tuple[int, int, int]:
        if self.starts is None:
            lines = self.source.split("\n")[:-1]
            if not self.source.isascii():
                self.byte_starts = list(
                    accumulate((_utf8_len(ln) + 1 for ln in lines), initial=0)
                )
            self.starts = list(accumulate((len(ln) + 1 for ln in lines), initial=0))
        line = bisect_right(self.starts, index)
        start = self.starts[line - 1]
        if self.byte_starts is None:
            offset = index
        else:
            offset = self.byte_starts[line - 1] + _utf8_len(self.source[start:index])
        return line, index - start + 1, offset


_deferred = SourceLocation.deferred


def _utf8_len(text: str) -> int:
    # surrogatepass: a lone surrogate is an unexpected character, not a
    # reason for locating it to fail
    return len(text.encode("utf-8", "surrogatepass"))


class Token:
    """One token; ``start`` is its character index in the source."""

    __slots__ = ("kind", "text", "value", "start", "_lines")

    def __init__(self, kind: str, text: str, start: int, lines: _Lines,
                 value: Union[int, str, Decimal, None] = None) -> None:
        self.kind = kind
        self.text = text
        self.value = value
        self.start = start
        self._lines = lines

    @property
    def location(self) -> SourceLocation:
        return _deferred(self._lines, self.start)

    def describe(self) -> str:
        if self.kind == KIND_KEYWORD:
            return self.text
        if self.kind == KIND_OP:
            return f"'{self.text}'"
        if self.kind == KIND_EOF:
            return "end of input"
        return self.kind.lower() if self.kind != KIND_IDENT else "identifier"


def tokenize(source: str) -> list[Token]:
    """Scan source text into tokens. Raises ParseError on an illegal
    character, a malformed string literal or an out-of-range number."""
    lines = _Lines(source)
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "word":
            word = m["word"]
            if word in KEYWORDS:
                append(Token(KIND_KEYWORD, word, m.start(kind), lines))
            else:
                append(Token(KIND_IDENT, word, m.start(kind), lines, word))
        elif kind == "op":
            append(Token(KIND_OP, m["op"], m.start(kind), lines))
        elif kind is None:
            break
        else:
            append(_literal(kind, m[kind], m.start(kind), lines))
    return tokens


def end_of_input(source: str, tokens: list[Token]) -> Token:
    """The EOF token of ``source``, located through the same line table
    as ``tokens``, the result of ``tokenize(source)``."""
    lines = tokens[-1]._lines if tokens else _Lines(source)
    return Token(KIND_EOF, "", len(source), lines)


def _literal(kind: str, text: str, start: int, lines: _Lines) -> Token:
    if kind == "string":
        value = text[1:-1]
        if "\\" in value:
            value = _ESCAPE.sub(lambda esc: _ESCAPES[esc[1]], value)
        return Token(KIND_STRING, value, start, lines, value)
    if kind == "int":
        try:
            value = parse_int(text)
        except ConversionError:  # digits only, so the one failure is range
            raise ParseError(
                f"integer literal {clip_text(text)} out of 64-bit range",
                _deferred(lines, start),
            ) from None
        return Token(KIND_INT, text, start, lines, value)
    if kind == "decimal":
        try:
            value = parse_decimal(text)
        except ConversionError as exc:
            raise ParseError(str(exc), _deferred(lines, start)) from None
        return Token(KIND_DECIMAL, text, start, lines, value)
    if text == '"':
        raise _string_error(lines, start)
    raise ParseError(f"unexpected character {text!r}", _deferred(lines, start))


def _string_error(lines: _Lines, start: int) -> ParseError:
    """The error for the string literal at ``start``, which the token
    pattern rejected: it stops at a bad escape, a newline or the end."""
    source = lines.source
    end = _STRING_PREFIX.match(source, start + 1).end()
    if source.startswith("\\", end) and end + 1 < len(source):
        return ParseError(
            f"invalid escape sequence '\\{source[end + 1]}'", _deferred(lines, end + 1)
        )
    return ParseError("unterminated string literal", _deferred(lines, start))
