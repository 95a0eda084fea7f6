"""Every AST class and every record type keeps the behaviour it had as a
frozen dataclass: it cannot be assigned or deleted, a copy through
``_replace`` equals it, its fields keep their order, and its repr and
dict forms are unchanged over the corpus, the fixture and its report."""

import dataclasses
import hashlib
import json
import typing

import pytest

from anka import ast_nodes as ast
from anka.bench import fixture_dir
from anka.bench.harness import (CandidateSet, MetricBlock, RunReport, SampleResult, TaskReport,
                                run_suite)
from anka.bench.suite import TaskSpec, TestCase, load_suite
from anka.builtins import AGGREGATES, BUILTINS, Aggregate, Builtin
from anka.errors import ParseError, ValidationError
from anka.grammar import NODE_KEYWORDS
from anka.location import SourceLocation
from anka.parser import parse
from anka.validator import ValidationResult, validate
from anka.values import Field

import fuzzing

EXTRA_SOURCES = [
    # FETCH, POST, WHILE and unary minus on a column, which neither the
    # corpus nor the fixture spell
    "PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n"
    '  FETCH "http://example.test/rows" TABLE[a: INT] INTO u\n'
    '  POST u TO "http://example.test/sink"\n'
    "  MAP t WITH n => -a INTO r\n"
    "  WHILE FALSE DO\n   DISTINCT t INTO w\n  END_WHILE\n"
    " OUTPUT r",
    # diagnostics, which every source above validates without
    "PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n"
    "  FILTER t WHERE a INTO r\n  SORT x BY a ASC INTO r\n OUTPUT q",
]


def _sources() -> list[str]:
    return [*fuzzing.corpus_sources(), *fuzzing.fixture_sources(), *EXTRA_SOURCES]


def _walk(node):
    if isinstance(node, ast.Node):
        yield node
        for name in node._field_names:
            yield from _walk(getattr(node, name))
    elif isinstance(node, tuple):
        for item in node:
            yield from _walk(item)


def _instances() -> dict[type, list]:
    """Instances of each class, from the trees and validation of every
    source that parses, the fixture suite and its report, and the
    builtin tables."""
    found: dict[type, list] = {}

    def add(item):
        found.setdefault(type(item), []).append(item)

    for source in _sources():
        try:
            pipeline = parse(source)
        except ParseError:
            continue
        for node in _walk(pipeline):
            add(node)
        for decl in pipeline.inputs:
            for f in decl.schema:
                add(f)
        result = validate(pipeline)
        add(result)
        for error in result.errors:
            add(error)
    for cls in (ast.Node, ast.Expr, ast.Statement):
        add(cls(location=SourceLocation(1, 1)))
    for row in (*BUILTINS.values(), *AGGREGATES.values()):
        add(row)
    tasks = load_suite(fixture_dir() / "suite.json")
    report = run_suite(tasks, CandidateSet.from_directory(fixture_dir() / "candidates"))
    for task in tasks:
        add(task)
        for test in task.tests:
            add(test)
    add(report)
    add(report.overall)
    for task in report.tasks:
        add(task)
        for sample in task.samples:
            add(sample)
    return found


INSTANCES = _instances()
AST_CLASSES = sorted(
    (cls for cls in vars(ast).values() if isinstance(cls, type) and issubclass(cls, ast.Node)),
    key=lambda cls: cls.__name__,
)
# Each record's fields, in the order the frozen dataclasses declared them.
RECORD_FIELDS = {
    Field: ("name", "type"),
    ValidationError: ("kind", "message", "location"),
    Builtin: ("params", "result", "fn"),
    Aggregate: ("params", "result", "fold"),
    ValidationResult: ("environment", "errors", "output_schema", "sources", "outputs",
                       "types", "dies"),
    TestCase: ("inputs", "expected"),
    TaskSpec: ("id", "category", "description", "input_schemas", "tests",
               "order_insensitive"),
    SampleResult: ("sample", "parse", "execute", "correct", "detail"),
    TaskReport: ("task_id", "category", "samples", "accurate"),
    MetricBlock: ("num_tasks", "num_samples", "parse_rate", "execution_rate",
                  "correctness_rate", "task_accuracy"),
    RunReport: ("tasks", "categories", "overall", "config"),
}


def _field_names(cls) -> tuple[str, ...]:
    if issubclass(cls, ast.Node):
        return cls._field_names
    return RECORD_FIELDS[cls]


def _expected_fields(cls) -> tuple[str, ...]:
    if cls in RECORD_FIELDS:
        return RECORD_FIELDS[cls]
    if cls in NODE_KEYWORDS:
        form = ast.STATEMENT_FORMS[NODE_KEYWORDS[cls]][1]
        return ("location", *(part[0] for part in form if isinstance(part, tuple)))
    own = [name for name in typing.get_type_hints(cls) if name != "location"]
    return ("location", *own)


@pytest.mark.parametrize("cls", [*AST_CLASSES, *RECORD_FIELDS],
                         ids=lambda cls: f"{cls.__module__.rpartition('.')[2]}.{cls.__name__}")
def test_each_class_is_frozen_copyable_ordered_and_shown_as_before(cls):
    items = INSTANCES[cls]
    names = _field_names(cls)
    assert names == _expected_fields(cls)
    for item in items:
        shown = ", ".join(f"{name}={getattr(item, name)!r}" for name in names)
        assert repr(item) == f"{cls.__qualname__}({shown})"
    item = items[0]
    assert item._replace() == item
    if issubclass(cls, ast.Node):
        refused = dataclasses.FrozenInstanceError
    else:
        assert item._asdict() == {name: getattr(item, name) for name in names}
        refused = AttributeError
    for name in (names[0], "not_a_field"):
        with pytest.raises(refused):
            setattr(item, name, None)
        with pytest.raises(refused):
            delattr(item, name)


def _digest(texts) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8") + b"\0")
    return digest.hexdigest()


def test_reprs_and_dicts_are_unchanged():
    # recorded with the frozen dataclasses these classes were
    pipelines = _digest(
        repr(item) + json.dumps(ast.ast_to_dict(item))
        for item in INSTANCES[ast.Pipeline]
    )
    errors = _digest(
        repr(item) + json.dumps(item.to_dict()) for item in INSTANCES[ValidationError]
    )
    fields = _digest(repr(item) for item in INSTANCES[Field])
    report, = INSTANCES[RunReport]
    suite = _digest(repr(item) for item in (*INSTANCES[TaskSpec], *INSTANCES[TestCase]))
    assert (pipelines, errors, fields, suite, _digest([report.to_json(), repr(report)])) == (
        "d6fa864eb0cf745be22cb7d6e38201f482809c55c0539b8c5c39c8fb674d34f2",
        "2a8cd88fd9261ee1913d0d02e69a591e21054b2eb47e1b59c5f0796c3267d001",
        "54b6dac4f157027891fb36e56526f655c97afb98558ba461dc4b3d29131bb28b",
        "428081eee43f60e8885c2090f8e70b8e5fd6f23379a0bc519aa46e1581442a32",
        "168d98d2d8af7e7425a8812584e47197abcd5c3ef4277a55af530a4f9ac52b30",
    )
