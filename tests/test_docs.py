"""The docs against what they document: a function the code declares
cannot go unnamed in ``docs/language.md``, nor an exported name in
README's "Library use", nor a command-line option in README or
``docs/benchmark.md``."""

import argparse
import inspect
import re
from pathlib import Path

import anka
import anka.bench
from anka.bench import CandidateSet, run_suite
from anka.builtins import AGGREGATES
from anka.cli import _build_arg_parser
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


def _long_options() -> list[tuple[str, str]]:
    """Each subcommand's long options but ``--help``, as (command, option)."""
    root = _build_arg_parser()
    commands, = (action for action in root._actions
                 if isinstance(action, argparse._SubParsersAction))
    return [(name, option)
            for name, parser in commands.choices.items()
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"]


def test_docs_name_every_command_line_option():
    text = "".join((ROOT / name).read_text(encoding="utf-8")
                   for name in ("README.md", "docs/benchmark.md"))
    options = _long_options()
    assert ("run", "--sandbox") in options
    assert [(command, option) for command, option in options
            if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text)] == []


def test_report_config_records_every_scoring_option():
    # a keyword of run_suite that the report left out would change
    # scores without leaving a trace in the report
    keywords = [name for name, param in inspect.signature(run_suite).parameters.items()
                if param.kind is inspect.Parameter.KEYWORD_ONLY]
    assert sorted(run_suite([], CandidateSet({})).config) == sorted(keywords)
