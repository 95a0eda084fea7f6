"""Tokenizer behavior: token shapes, locations, lexical errors."""

import hashlib
from decimal import Decimal

import pytest

from anka.bench import fixture_dir
from anka.errors import ParseError
from anka.lexer import tokenize
from anka.location import SourceLocation
from anka.parser import parse

import fuzzing


def kinds(tokens):
    return [(t.kind, t.text) for t in tokens]


class TestTokenStream:
    def test_filter_statement_tokens(self):
        tokens = tokenize("FILTER orders WHERE amount > 1000 INTO big")
        assert kinds(tokens) == [
            ("KEYWORD", "FILTER"),
            ("IDENT", "orders"),
            ("KEYWORD", "WHERE"),
            ("IDENT", "amount"),
            ("OP", ">"),
            ("INT", "1000"),
            ("KEYWORD", "INTO"),
            ("IDENT", "big"),
        ]
        assert len(tokens) == 8

    def test_empty_input(self):
        assert tokenize("") == []

    def test_comments_and_whitespace_skipped(self):
        tokens = tokenize("# leading comment\nFILTER t # trailing\n\t WHERE")
        assert kinds(tokens) == [
            ("KEYWORD", "FILTER"),
            ("IDENT", "t"),
            ("KEYWORD", "WHERE"),
        ]

    def test_keywords_are_case_sensitive(self):
        tokens = tokenize("filter FILTER Filter")
        assert [t.kind for t in tokens] == ["IDENT", "KEYWORD", "IDENT"]

    def test_locations_track_lines_and_columns(self):
        tokens = tokenize("FILTER t\n  WHERE x")
        where = tokens[2]
        assert (where.location.line, where.location.column) == (2, 3)
        assert where.location.offset == 11

    def test_decimal_vs_int_literals(self):
        tokens = tokenize("1000 0.08 7")
        assert tokens[0].kind == "INT" and tokens[0].value == 1000
        assert tokens[1].kind == "DECIMAL" and tokens[1].value == Decimal("0.08")
        assert tokens[2].kind == "INT"

    def test_multi_char_operators(self):
        tokens = tokenize("== != >= <= => =")
        assert [t.text for t in tokens] == ["==", "!=", ">=", "<=", "=>", "="]

    def test_string_escapes(self):
        tokens = tokenize(r'"a\"b\\c\nd\te"')
        assert tokens[0].value == 'a"b\\c\nd\te'


class TestLexicalErrors:
    def test_illegal_character_position(self):
        with pytest.raises(ParseError) as err:
            tokenize("FILTER @")
        assert err.value.location.line == 1
        assert err.value.location.column == 8

    def test_unterminated_string(self):
        with pytest.raises(ParseError, match="unterminated string"):
            tokenize('WRITE t TO "oops')

    def test_string_may_not_span_lines(self):
        with pytest.raises(ParseError, match="unterminated string"):
            tokenize('"line one\nline two"')

    def test_invalid_escape(self):
        with pytest.raises(ParseError, match="invalid escape"):
            tokenize(r'"\q"')

    def test_int_literal_out_of_range(self):
        with pytest.raises(ParseError, match="64-bit range"):
            tokenize("9223372036854775808")
        tokenize("9223372036854775807")

    def test_decimal_literal_scale_cap(self):
        with pytest.raises(ParseError, match="scale"):
            tokenize("0.00000000001")

    def test_long_int_literal_is_a_parse_error(self):
        for digits in ("1" * 20, "1" * 4300, "1" * 5000, "0" * 5000 + "1" * 20):
            with pytest.raises(ParseError, match="64-bit range"):
                tokenize(digits)
        assert tokenize("0" * 5000 + "7")[0].value == 7

    def test_long_int_literal_in_program_is_a_parse_error(self):
        source = (
            "PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n"
            f"  FILTER t WHERE a > {'9' * 5000} INTO r\n OUTPUT r"
        )
        with pytest.raises(ParseError, match="64-bit range") as err:
            parse(source)
        assert (err.value.location.line, err.value.location.column) == (4, 22)


class TestLocations:
    def test_byte_offset_after_non_ascii_string(self):
        tokens = tokenize('"é∆" x')
        assert tokens[1].location == SourceLocation(1, 6, 8)

    def test_byte_offset_after_non_ascii_comment(self):
        tokens = tokenize("# naïve ∆\nx")
        assert tokens[0].location == SourceLocation(2, 1, 13)

    def test_line_and_column_after_crlf(self):
        tokens = tokenize("FILTER\r\n  t\r\nWHERE")
        assert tokens[1].location == SourceLocation(2, 3, 10)
        assert tokens[2].location == SourceLocation(3, 1, 13)

    def test_comment_at_end_of_input(self):
        tokens = tokenize("x # trailing comment, no newline")
        assert kinds(tokens) == [("IDENT", "x")]

    def test_invalid_escape_location(self):
        with pytest.raises(ParseError) as err:
            tokenize('x\n  "ab\\q"')
        assert err.value.message == "invalid escape sequence '\\q'"
        assert err.value.location == SourceLocation(2, 7, 8)

    def test_backslash_newline_in_string(self):
        with pytest.raises(ParseError) as err:
            tokenize('"a\\\nb"')
        assert err.value.message == "invalid escape sequence '\\\n'"
        assert err.value.location == SourceLocation(1, 4, 3)

    def test_backslash_at_end_of_input(self):
        with pytest.raises(ParseError) as err:
            tokenize('x "\\')
        assert err.value.message == "unterminated string literal"
        assert err.value.location == SourceLocation(1, 3, 2)

    def test_lone_surrogate_is_a_parse_error(self):
        with pytest.raises(ParseError, match="unexpected character") as err:
            tokenize('"\ud800" \ud800')
        assert err.value.location == SourceLocation(1, 5, 6)

    def test_eof_location_of_truncated_program(self):
        with pytest.raises(ParseError, match="end of input") as err:
            parse("PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:  # ∆\n  ")
        assert err.value.location == SourceLocation(4, 3, 54)


def _lexer_digest(texts) -> str:
    """SHA-256 over every token's kind, text, value and location, or over
    the ParseError message and location, for each text in turn."""
    digest = hashlib.sha256()
    for text in texts:
        try:
            records = [
                (t.kind, t.text, repr(t.value), t.location.line,
                 t.location.column, t.location.offset)
                for t in tokenize(text)
            ]
        except ParseError as err:
            loc = err.location
            records = [("error", err.message, loc.line, loc.column, loc.offset)]
        digest.update(repr(records).encode("utf-8") + b"\0")
    return digest.hexdigest()


def _fixture_sources() -> list[str]:
    root = fixture_dir()
    paths = sorted(root.glob("candidates/*/*.anka")) + sorted(root.glob("broken/*/*.anka"))
    return [p.read_text(encoding="utf-8") for p in paths]


# Recorded from the character-at-a-time scanner this lexer replaced; the
# token streams and lexical errors must not change.
LEXER_DIGESTS = {
    "corpus": "7b170601855b531ffb584b0876d689e47602ae892d20ab2bde6510b887c7f97c",
    "fixture": "e1cd99249f72d210b4738e0bdb1142064e8787aad00dcb981a2394977c04c98e",
    "fuzz": "c1641d77535ce21abc8aaa00d2550058ba7e16bd3aff8ebb1e2b538d0a887f8b",
}


@pytest.mark.parametrize("name", sorted(LEXER_DIGESTS))
def test_token_stream_digest_unchanged(name):
    texts = {
        "corpus": fuzzing.corpus_sources,
        "fixture": _fixture_sources,
        "fuzz": lambda: fuzzing.fuzz_inputs(10_000),
    }[name]()
    assert _lexer_digest(texts) == LEXER_DIGESTS[name]
