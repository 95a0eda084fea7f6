"""The language reference against the tables it documents: a function
the code declares cannot go unnamed in ``docs/language.md``."""

import re
from pathlib import Path

from anka.builtins import AGGREGATES
from anka.lexer import KEYWORDS

LANGUAGE = Path(__file__).resolve().parent.parent / "docs" / "language.md"


def _aggregate_bullet() -> str:
    """The AGGREGATE bullet of the data statements' semantics."""
    text = LANGUAGE.read_text(encoding="utf-8")
    match = re.search(r"^\* `AGGREGATE`.*?(?=^\* )", text, re.M | re.S)
    assert match, "docs/language.md has no AGGREGATE bullet"
    return match.group()


def test_docs_name_every_aggregate_function():
    named = {word for span in re.findall(r"`([^`]*)`", _aggregate_bullet())
             for word in re.findall(r"[A-Z_]+", span)}
    assert [fn for fn in AGGREGATES if fn not in named] == []


def test_every_aggregate_function_is_a_keyword():
    # the parser reads a function's name as a keyword
    assert [fn for fn in AGGREGATES if fn not in KEYWORDS] == []
