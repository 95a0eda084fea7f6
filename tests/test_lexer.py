"""Tokenizer behavior: token shapes, locations, lexical errors."""

import ast as pyast
import hashlib
import inspect
import random
from dataclasses import fields
from decimal import Decimal
from functools import partial

import pytest

import anka.parser
from anka import grammar
from anka.ast_nodes import STATEMENT_FORMS, Node
from anka.errors import ExecutionError, ParseError
from anka.interpreter import run_pipeline
from anka.lexer import KEYWORDS, OPERATORS, TokenStream, scan, tokenize
from anka.location import SourceLocation
from anka.parser import parse
from anka.validator import validate
from anka.values import ValueType, make_table, schema_of

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

    def test_long_literals_are_clipped_in_messages(self):
        with pytest.raises(ParseError) as err:
            tokenize("9" * 5000)
        assert err.value.message == f"integer literal {'9' * 40}… out of 64-bit range"
        with pytest.raises(ParseError) as err:
            tokenize("1" * 5000 + ".5")
        assert err.value.message == f"DECIMAL value '{'1' * 40}…' exceeds precision"
        with pytest.raises(ParseError) as err:
            tokenize("9" * 20)
        assert err.value.message == f"integer literal {'9' * 20} out of 64-bit range"


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

    @pytest.mark.parametrize(
        "source",
        [
            "FILTER t WHERE a > 1\nINTO big  # done\n x",
            '# naïve ∆\nMAP t WITH s => "日本😀" INTO u\n  x',
            "FILTER\r\n  t\r\nWHERE a\r\n\r\n x",
        ],
        ids=["ascii", "non_ascii", "crlf"],
    )
    def test_deferred_location_equals_eager(self, source):
        # the parser's locations are token indices into the stream; every
        # call of deferred() is a fresh location, not yet resolved
        stream = scan(source)
        for i, token in enumerate(tokenize(source)):
            index = token.start
            eager = SourceLocation(
                source.count("\n", 0, index) + 1,
                index - source.rfind("\n", 0, index),
                len(source[:index].encode("utf-8")),
            )
            deferred = partial(SourceLocation.deferred, stream, i)
            assert token.location == eager
            assert deferred() == eager
            assert eager == deferred()
            assert deferred() == deferred()
            assert hash(deferred()) == hash(eager)
            assert repr(deferred()) == repr(eager)
            assert str(deferred()) == str(eager)
            assert (deferred().line, deferred().column, deferred().offset) == (
                eager.line, eager.column, eager.offset)
        # the stream walks from the token it located last, in either direction
        tokens = tokenize(source)
        order = [*reversed(range(len(tokens))), *random.Random(7).sample(range(len(tokens)), 5)]
        for i in order:
            assert SourceLocation.deferred(stream, i) == tokens[i].location

    def test_runtime_error_location_equals_eager(self):
        source = (
            "# naïve ∆\r\nPIPELINE p:\r\n INPUT t: TABLE[a: INT]\r\n STEP s:\r\n"
            "  MAP t WITH b => a / 0 INTO u\r\n OUTPUT u\r\n"
        )
        table = make_table(schema_of(("a", ValueType.INT)), [(1,)])
        with pytest.raises(ExecutionError, match="division by zero") as err:
            run_pipeline(parse(source), {"t": table})
        index = source.index("/")
        assert err.value.location == SourceLocation(
            source.count("\n", 0, index) + 1,
            index - source.rfind("\n", 0, index),
            len(source[:index].encode("utf-8")),
        )

    def test_location_repr_and_immutability(self):
        assert repr(SourceLocation(2, 3, 10)) == "SourceLocation(line=2, column=3, offset=10)"
        assert SourceLocation(2, 3) == SourceLocation(2, 3, 0)
        assert SourceLocation(2, 3, 10) != (2, 3, 10)
        for location in (SourceLocation(1, 1, 0), tokenize("x")[0].location,
                         SourceLocation.deferred(scan("x"), 0)):
            for name in ("line", "column", "offset"):
                with pytest.raises(AttributeError):
                    setattr(location, name, 2)

    def test_compile_resolves_no_location(self, monkeypatch):
        # only diagnostics read a location, so a valid program never asks
        # its token stream for a position
        calls = []
        position = TokenStream.position
        monkeypatch.setattr(
            TokenStream, "position", lambda stream, i: calls.append(i) or position(stream, i)
        )
        for source in fuzzing.corpus_sources():
            pipeline = parse(source)
            assert validate(pipeline).ok
            stream = pipeline.location._table
            assert isinstance(stream, TokenStream)
            assert all(loc._table is stream for loc in _node_locations(pipeline))
        assert calls == []
        assert pipeline.location.line >= 1 and calls == [0]


class TestStreamEdges:
    def test_parse_calls_tokenize_once(self, monkeypatch):
        calls = []
        scan = anka.parser.tokenize
        monkeypatch.setattr(anka.parser, "tokenize", lambda s: calls.append(s) or scan(s))
        source = fuzzing.corpus_sources()[0]
        parse(source)
        assert calls == [source]
        with pytest.raises(ParseError):
            parse("PIPELINE")
        assert calls == [source, "PIPELINE"]

    def test_stream_length_is_token_count(self):
        for source in (*fuzzing.corpus_sources(), *fuzzing.fixture_sources()):
            assert len(anka.parser.tokenize(source)) == len(tokenize(source))

    # Messages and locations as the per-token scanner gave them: a lexical
    # error anywhere wins over a syntax error, and the first one wins.
    @pytest.mark.parametrize(
        "source, message, position",
        [
            ("", "expected PIPELINE, found end of input", (1, 1, 0)),
            ("   \n\t ", "expected PIPELINE, found end of input", (2, 3, 6)),
            ("# only a comment", "expected PIPELINE, found end of input", (1, 17, 16)),
            ("# one\r\n# two\n", "expected PIPELINE, found end of input", (3, 1, 13)),
            ("PIPELINE p:\n STEP s:\n  DISTINCT t INTO u\n OUTPUT \n\n  ",
             "expected output dataset name, found end of input", (6, 3, 53)),
            ("PIPELINE p:\n STEP s:\n  DISTINCT t INTO u\n OUTPUT u @",
             "unexpected character '@'", (4, 11, 51)),
            ("PIPELINE p:\n STEP s:\n  DISTINCT t INTO u\n OUTPUT u é",
             "unexpected character 'é'", (4, 11, 51)),
            ('PIPELINE p: "oops', "unterminated string literal", (1, 13, 12)),
            ("PIPELINE PIPELINE 99999999999999999999",
             "integer literal 99999999999999999999 out of 64-bit range", (1, 19, 18)),
            ("PIPELINE p: STEP 0.00000000001 @",
             "DECIMAL value '0.00000000001' exceeds maximum scale of 10", (1, 18, 17)),
            ("x @ 99999999999999999999", "unexpected character '@'", (1, 3, 2)),
            ("99999999999999999999 @",
             "integer literal 99999999999999999999 out of 64-bit range", (1, 1, 0)),
            ('"\\q" 0.00000000001', "invalid escape sequence '\\q'", (1, 3, 2)),
            ('0.00000000001 "\\q"',
             "DECIMAL value '0.00000000001' exceeds maximum scale of 10", (1, 1, 0)),
        ],
    )
    def test_edge_messages_and_locations(self, source, message, position):
        with pytest.raises(ParseError) as err:
            parse(source)
        loc = err.value.location
        assert (err.value.message, (loc.line, loc.column, loc.offset)) == (message, position)


def _node_locations(node):
    if isinstance(node, SourceLocation):
        yield node
    elif isinstance(node, Node):
        for f in fields(node):
            yield from _node_locations(getattr(node, f.name))
    elif isinstance(node, tuple):
        for item in node:
            yield from _node_locations(item)


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
        "fixture": fuzzing.fixture_sources,
        "fuzz": lambda: fuzzing.fuzz_inputs(10_000),
    }[name]()
    assert _lexer_digest(texts) == LEXER_DIGESTS[name]


def _grammar_vocabulary() -> set[str]:
    """Every keyword and symbol the parser reads: the statement forms, the
    grammar's operator, literal and slot tables, the type names, and each
    text the parser and the grammar's readers take by ``expect``,
    ``accept`` or ``at``."""
    vocabulary = set(anka.parser.TYPE_KEYWORDS)
    for keyword, (_, parts) in STATEMENT_FORMS.items():
        vocabulary.add(keyword)
        vocabulary.update(part for part in parts if isinstance(part, str))
    vocabulary.update(grammar.BINARY_OPERATORS, grammar.PREFIX_OPERATORS,
                      grammar.LITERAL_KEYWORDS, grammar.AGGREGATE_FNS)
    for slot in grammar.SLOTS.values():
        if slot.header:
            vocabulary.add(slot.header)
        words = getattr(slot.write, "__self__", None)  # a choice slot's
        if isinstance(words, dict):
            vocabulary.update(words.values())
    for module in (anka.parser, grammar):
        for node in pyast.walk(pyast.parse(inspect.getsource(module))):
            if (isinstance(node, pyast.Call) and isinstance(node.func, pyast.Attribute)
                    and node.func.attr in ("expect", "accept", "at") and node.args
                    and isinstance(node.args[0], pyast.Constant)):
                vocabulary.add(node.args[0].value)
    return vocabulary


def test_lexer_vocabulary_is_the_grammars():
    # a keyword missing from KEYWORDS would lex as an identifier, and a
    # symbol missing from OPERATORS would not lex at all
    vocabulary = _grammar_vocabulary()
    assert {w for w in vocabulary if w.isidentifier()} == KEYWORDS
    assert {w for w in vocabulary if not w.isidentifier()} == set(OPERATORS)
