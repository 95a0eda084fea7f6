"""The docs against what they document: a function the code declares
cannot go unnamed in ``docs/language.md``, nor an exported name in
README's "Library use"."""

import re
from pathlib import Path

import anka
import anka.bench
from anka.builtins import AGGREGATES
from anka.lexer import KEYWORDS

ROOT = Path(__file__).resolve().parent.parent
LANGUAGE = ROOT / "docs" / "language.md"


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


def test_readme_gives_each_exported_name_a_line():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n(.*?)(?=^## )", text, re.M | re.S)
    assert match, "README.md has no Library use section"
    listed = re.findall(r"^\* `(\w+)`: ", match.group(1), re.M)
    assert sorted(listed) == sorted([*anka.__all__, *anka.bench.__all__])
