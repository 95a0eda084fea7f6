"""Tokenizer for pipeline source text.

Keywords are case-sensitive upper-case. Whitespace (including newlines)
and ``#`` comments are skipped; block structure comes entirely from
keywords and colons, never from indentation.

``scan`` reads a source with one ``findall`` into a ``TokenStream``: the
token texts, in order, ending in one ``""``, the end of input. A token is
its text and nothing more: a string literal keeps its quotes and escapes,
so no literal's text equals a keyword or an operator, and the parser
compares keywords and operators by text. A token's kind is worked out
from its text (``token_kind``) only where a reader needs it: an
identifier, a literal, or a token named in an error message.

A location is a token index into its stream. The stream turns it into
line, column and byte offset only when the location is read (only
diagnostics read one, and most read one at most), from the character
index ``TokenStream.start`` finds: a token starts where the token match
before it ends, so a read matches the tokens again from the last one
located. The first read matches only up to the token it locates, a later
one on to the end of input, so no token is matched more than once after
the scan. A run that reads no location scans the source once.
"""

from __future__ import annotations

import re
import string
from itertools import islice

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
_STRING_BODY = r'[^"\\\n]*+(?:\\["\\nt][^"\\\n]*+)*+'
_GAP = r"[ \t\r\n]*+(?:\#[^\n]*+[ \t\r\n]*+)*+"

# A token, or nothing where no token starts (the end of input, a character
# no token starts with, a malformed string), then the gap after it. Each
# match starts after a gap, so its next character is never whitespace or
# `#`. Classes are spelled out because \d and \w admit non-ASCII digits
# and letters. The classes are disjoint, so every quantifier is
# possessive: no match ever gives a character back.
_ALTERNATIVES = rf"""
        [A-Za-z_][A-Za-z0-9_]*+
      | {"|".join(map(re.escape, OPERATORS))}
      | [0-9]++(?:\.[0-9]++)?+
      | "{_STRING_BODY}"
      |
"""
_TOKEN = re.compile(rf"({_ALTERNATIVES})(?:{_GAP})", re.VERBOSE)
_LEADING_GAP = re.compile(_GAP, re.VERBOSE)
# A number literal out of range has 11 digits in a row or more: 19
# significant ones for an INT, 11 after the point or 29 before it for a
# DECIMAL. A source without such a run holds none to check. With every
# digit of its UTF-8 bytes made a 0, a run is a substring test; a byte of
# a non-ASCII character is never a digit.
_ZEROS = bytes.maketrans(b"123456789", b"0" * 9)
_DIGIT_RUN = b"0" * 11
_STRING_PREFIX = re.compile(_STRING_BODY)
_ESCAPE = re.compile(r"\\(.)")

# A token's kind by its first character; a word is a keyword if it is one.
_FIRST_KINDS = {
    "": KIND_EOF,
    '"': KIND_STRING,
    **dict.fromkeys(string.digits, KIND_INT),
    **dict.fromkeys(string.ascii_letters + "_", KIND_IDENT),
}


def token_kind(text: str) -> str:
    """The kind of a token text of a ``TokenStream``."""
    if text in KEYWORDS:
        return KIND_KEYWORD
    kind = _FIRST_KINDS.get(text[:1], KIND_OP)
    if kind is KIND_INT and "." in text:
        return KIND_DECIMAL
    return kind


def describe(text: str) -> str:
    """A token text as an error message names what it found."""
    kind = token_kind(text)
    if kind == KIND_KEYWORD:
        return text
    if kind == KIND_OP:
        return f"'{text}'"
    if kind == KIND_EOF:
        return "end of input"
    return kind.lower() if kind != KIND_IDENT else "identifier"


def unquote(text: str) -> str:
    """The value of a string literal's token text."""
    value = text[1:-1]
    if "\\" in value:
        value = _ESCAPE.sub(lambda esc: _ESCAPES[esc[1]], value)
    return value


# Literal kind -> the value of a token text of that kind. A stream's
# number texts are all in range: ``scan`` has checked them.
LITERAL_VALUES = {KIND_INT: parse_int, KIND_DECIMAL: parse_decimal, KIND_STRING: unquote}


class TokenStream:
    """The tokens of one source, the first at character index ``first``:
    ``texts`` ends in ``""``. ``len`` counts the tokens, not the end."""

    __slots__ = ("source", "texts", "_starts")

    def __init__(self, source: str, texts: list[str], first: int) -> None:
        self.source = source
        self.texts = texts
        # the character index of each token located so far, from the first
        self._starts = [first]

    def __len__(self) -> int:
        return len(self.texts) - 1

    def start(self, index: int) -> int:
        """Character index of token ``index``. A token not yet located is
        found by matching the tokens on from the last one located: up to
        it while only the first token is located, else to the end."""
        starts = self._starts
        if index < len(starts):
            return starts[index]
        matches = _TOKEN.finditer(self.source, starts[-1])
        if len(starts) == 1:
            matches = islice(matches, index)
        # a new list, never extended in place, so that a read racing
        # another in the same stream sees a whole one
        self._starts = starts = starts + [match.end() for match in matches]
        return starts[index]

    def position(self, index: int) -> tuple[int, int, int]:
        """Line, column and byte offset of token ``index``."""
        return _locate(self.source, self.start(index))


def scan(source: str) -> TokenStream:
    """Scan source text into a token stream. Raises ParseError on an
    illegal character, a malformed string literal or an out-of-range
    number, the first one in the source."""
    first = _LEADING_GAP.match(source).end()
    stream = TokenStream(source, _TOKEN.findall(source, first), first)
    end = stream.texts.index("")
    if end + 1 < len(stream.texts) or _has_digit_run(source):
        _check(stream, end)
    return stream


def _has_digit_run(source: str) -> bool:
    return _DIGIT_RUN in source.encode("utf-8", "surrogatepass").translate(_ZEROS)


def _check(stream: TokenStream, end: int) -> None:
    """Raise the first lexical error: a number text out of range among
    the ``end`` texts before the first ``""``, then, if the scan stopped
    there, short of the end of input, the character it stopped at."""
    source = stream.source
    for index, text in enumerate(stream.texts[:end]):
        kind = token_kind(text)
        if kind == KIND_INT or kind == KIND_DECIMAL:
            try:
                LITERAL_VALUES[kind](text)
            except ConversionError as exc:
                # digits only, so an INT's one failure is range
                message = (str(exc) if kind == KIND_DECIMAL
                           else f"integer literal {clip_text(text)} out of 64-bit range")
                raise ParseError(message, _location(source, stream.start(index))) from None
    if end + 1 < len(stream.texts):
        start = stream.start(end)
        if source.startswith('"', start):
            raise _string_error(source, start)
        raise ParseError(f"unexpected character {source[start]!r}", _location(source, start))


def _string_error(source: str, start: int) -> ParseError:
    """The error for the string literal at ``start``, which the token
    pattern rejected: it stops at a bad escape, a newline or the end."""
    end = _STRING_PREFIX.match(source, start + 1).end()
    if source.startswith("\\", end) and end + 1 < len(source):
        return ParseError(
            f"invalid escape sequence '\\{source[end + 1]}'", _location(source, end + 1)
        )
    return ParseError("unterminated string literal", _location(source, start))


def _locate(source: str, index: int) -> tuple[int, int, int]:
    """Line, column and byte offset of character ``index`` of ``source``."""
    line = source.count("\n", 0, index) + 1
    column = index - source.rfind("\n", 0, index)
    if source.isascii():
        return line, column, index
    # surrogatepass: a lone surrogate is an unexpected character, not a
    # reason for locating it to fail
    return line, column, len(source[:index].encode("utf-8", "surrogatepass"))


def _location(source: str, index: int) -> SourceLocation:
    return SourceLocation(*_locate(source, index))

