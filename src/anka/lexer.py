"""Tokenizer for pipeline source text.

Keywords are case-sensitive upper-case. Whitespace (including newlines)
and ``#`` comments are skipped; block structure comes entirely from
keywords and colons, never from indentation.

``scan`` reads a source with one ``findall`` into a ``TokenStream``: the
token texts, in order, and beside them the gaps, the whitespace and
comments after each token. The texts end in one ``""``, the end of
input. A token is its text and nothing more: a string literal keeps its
quotes and escapes, so no literal's text equals a keyword or an operator,
and the parser compares keywords and operators by text. A token's kind
is worked out from its text (``token_kind``) only where a reader needs
it: an identifier, a literal, or a token named in an error message.

A location is a token index into its stream. The stream turns it into
line, column and byte offset only when the location is read, by summing
the lengths of the texts and gaps between it and the token last located
(the start, at the first read): only diagnostics read one.

``tokenize`` is the public view of the same stream as ``Token`` objects,
each with its kind, value and character index.
"""

from __future__ import annotations

import re
import string
from decimal import Decimal
from itertools import accumulate, chain, islice
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
_GAP = r"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*"

# A token, or nothing where no token starts (the end of input, a character
# no token starts with, a malformed string), then the gap after it. Each
# match starts after a gap, so its next character is never whitespace or
# `#`. Classes are spelled out because \d and \w admit non-ASCII digits
# and letters.
_TOKEN = re.compile(
    rf"""(
        [A-Za-z_][A-Za-z0-9_]*
      | {"|".join(map(re.escape, OPERATORS))}
      | [0-9]+(?:\.[0-9]+)?
      | "{_STRING_BODY}"
      |
    )({_GAP})""",
    re.VERBOSE,
)
_LEADING_GAP = re.compile(_GAP, re.VERBOSE)
# A number literal out of range has 11 digits in a row or more: 19
# significant ones for an INT, 11 after the point or 29 before it for a
# DECIMAL. A source without such a run holds none to check. The first
# digit is spelled apart so that the search skips to a digit in C.
_DIGIT_RUN = re.compile(r"[0-9][0-9]{10}")
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
    """The tokens of one source: ``texts`` ends in ``""``, ``gaps[i]`` is
    the skipped text after ``texts[i]``, and ``first`` is the character
    index of the first token. ``len`` counts the tokens, not the end."""

    __slots__ = ("source", "texts", "gaps", "first", "_last")

    def __init__(self, source: str, texts: list[str], gaps: list[str], first: int) -> None:
        self.source = source
        self.texts = texts
        self.gaps = gaps
        self.first = first
        # (token index, character index) of the token last located, if
        # any; one attribute, so that threads reading locations see a
        # matching pair
        self._last: Optional[tuple[int, int]] = None

    def __len__(self) -> int:
        return len(self.texts) - 1

    def position(self, index: int) -> tuple[int, int, int]:
        """Line, column and byte offset of token ``index``. Its character
        index is that of the token last located, moved by the lengths of
        the texts and gaps between the two, so a dump that reads every
        node's location in tree order sums each length a few times, not
        once per read."""
        at, start = self._last or (0, self.first)
        if index >= at:
            start += sum(map(len, self.texts[at:index])) + sum(map(len, self.gaps[at:index]))
        else:
            start -= sum(map(len, self.texts[index:at])) + sum(map(len, self.gaps[index:at]))
        self._last = (index, start)
        return _locate(self.source, start)


def scan(source: str) -> TokenStream:
    """Scan source text into a token stream. Raises ParseError on an
    illegal character, a malformed string literal or an out-of-range
    number, the first one in the source."""
    first = _LEADING_GAP.match(source).end()
    # split at once into two lists of strings, so that the (text, gap)
    # pairs, which the garbage collector tracks, are freed before the parse
    pairs = _TOKEN.findall(source, first)
    texts = [text for text, _ in pairs]
    gaps = [gap for _, gap in pairs]
    end = texts.index("")
    stopped = end + 1 < len(texts)
    if stopped or _DIGIT_RUN.search(source, first):
        _check(source, texts[:end], gaps, first, stopped)
    return TokenStream(source, texts, gaps, first)


def _check(source: str, texts: list[str], gaps: list[str], start: int, stopped: bool) -> None:
    """Raise the first lexical error: a number text out of range, then,
    if the scan ``stopped`` after ``texts``, the character it stopped at.
    ``start`` is the character index of ``texts[0]``."""
    for text, gap in zip(texts, gaps):
        kind = token_kind(text)
        if kind == KIND_INT or kind == KIND_DECIMAL:
            try:
                LITERAL_VALUES[kind](text)
            except ConversionError as exc:
                # digits only, so an INT's one failure is range
                message = (str(exc) if kind == KIND_DECIMAL
                           else f"integer literal {clip_text(text)} out of 64-bit range")
                raise ParseError(message, _location(source, start)) from None
        start += len(text) + len(gap)
    if stopped:
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


class Token:
    """One token of ``tokenize``'s view; ``start`` is its character index
    in the source. A string token's text is its value."""

    __slots__ = ("kind", "text", "value", "start", "_source")

    def __init__(self, kind: str, text: str, start: int, source: str,
                 value: Union[int, str, Decimal, None] = None) -> None:
        self.kind = kind
        self.text = text
        self.value = value
        self.start = start
        self._source = source

    @property
    def location(self) -> SourceLocation:
        return _location(self._source, self.start)


def tokenize(source: str) -> list[Token]:
    """Scan source text into tokens, without the end of input. Raises
    ParseError as ``scan`` does."""
    stream = scan(source)
    lengths = map(len, chain.from_iterable(zip(stream.texts, stream.gaps)))
    starts = islice(accumulate(lengths, initial=stream.first), 0, None, 2)
    tokens = []
    for text, start in zip(stream.texts[:-1], starts):
        kind = token_kind(text)
        if kind == KIND_IDENT:
            tokens.append(Token(kind, text, start, source, text))
        elif kind in LITERAL_VALUES:
            value = LITERAL_VALUES[kind](text)
            shown = value if kind == KIND_STRING else text
            tokens.append(Token(kind, shown, start, source, value))
        else:
            tokens.append(Token(kind, text, start, source))
    return tokens
