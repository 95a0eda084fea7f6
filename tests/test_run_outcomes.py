"""Run outcomes pinned by digest.

Every pipeline below is run on fixed inputs, and its outcome is written
as one line: the output schema and rows, or the error class, message and
source location. The SHA-256 of those lines was recorded before the
interpreter ran validator-resolved plans instead of walking the AST, so
any change to an output table or to an error's text or location shows.
"""

import datetime
import hashlib
import random
import zlib
from decimal import Decimal

from anka.bench import fixture_dir, load_suite
from anka.errors import AnkaError, ParseError
from anka.formatter import format_ast
from anka.grammar import format_schema
from anka.interpreter import run_pipeline
from anka.io_adapters import IoAdapter
from anka.parser import parse
from anka.validator import validate
from anka.values import Table, ValueType

import fuzzing
from builders import schema_of
from generators import rand_table
from pipelinegen import rand_pipeline

OUTCOME_DIGESTS = {
    "corpus": "9bf0b7a46cba53f34848d1cbfd7a6aeb5915c4b3565bbe27d4b2f2575189d46e",
    "errors": "17a1810039f2817142e74bdaf7fc850eb60c0fd8c38e1843710c5e7ff8206a67",
    "fixture": "b45977dbf5f4fea43151f38c559cdc17b8d40e316b2d7c6d19e4127208b7c89a",
    "generated": "ed2f2f5bab3019963d242fb1a1ca84e4858be96e3657071e8ab432db4e8617e6",
}


def _outcome(pipeline, inputs) -> str:
    result = validate(pipeline)
    if not result.ok:
        return "invalid|" + "|".join(str(e) for e in result.errors)
    try:
        table = run_pipeline(pipeline, inputs, IoAdapter(sandbox=True))
    except AnkaError as exc:
        location = getattr(exc, "location", None)
        where = "-" if location is None else f"{location.line}:{location.column}:{location.offset}"
        return f"{type(exc).__name__}|{getattr(exc, 'message', exc)}|{where}"
    return f"{table.schema!r}|{table.rows!r}"


_ZERO = {
    ValueType.INT: 0,
    ValueType.DECIMAL: Decimal("0"),
    ValueType.STRING: "",
    ValueType.BOOL: False,
    ValueType.DATE: datetime.date(2000, 1, 1),
    ValueType.DATETIME: datetime.datetime(2000, 1, 1),
}


def _zero_inputs(pipeline) -> dict[str, Table]:
    """Inputs of zeros, empty strings and nulls, which drive divisions,
    conversions and comparisons into their error paths."""
    inputs = {}
    for decl in pipeline.inputs:
        zero = tuple(_ZERO[f.type] for f in decl.schema.fields)
        inputs[decl.name] = Table(decl.schema, [zero, (None,) * len(zero), zero])
    return inputs


def _corpus_outcomes() -> list[str]:
    lines = []
    for index, source in enumerate(fuzzing.corpus_sources()):
        pipeline = parse(source)
        rng = random.Random(zlib.crc32(f"outcomes-corpus-{index}".encode()))
        for _ in range(5):
            inputs = {decl.name: rand_table(rng, decl.schema) for decl in pipeline.inputs}
            lines.append(_outcome(pipeline, inputs))
        lines.append(_outcome(pipeline, _zero_inputs(pipeline)))
    return lines


def _fixture_outcomes() -> list[str]:
    root = fixture_dir()
    lines = []
    for task in load_suite(root / "suite.json"):
        paths = sorted((root / "candidates" / task.id).glob("*.anka"))
        paths += sorted((root / "broken" / task.id).glob("*.anka"))
        for path in paths:
            try:
                pipeline = parse(path.read_text(encoding="utf-8"))
            except ParseError as exc:
                lines.append(f"parse|{exc}")
                continue
            for test in task.tests:
                lines.append(_outcome(pipeline, test.inputs))
    return lines


# Statements whose expressions fail at run time, at different depths, so
# that each error's location is the innermost failing node's.
ERROR_STATEMENTS = (
    "MAP t WITH r => (a + 1) / (a - a) INTO out",
    "MAP t WITH r => -(a * 4611686018427387904) INTO out",
    "FILTER t WHERE TO_INT(s) > 0 OR b INTO out",
    "FILTER t WHERE b AND LENGTH(SUBSTRING(s, a - 5, 2)) * 2 > 1 INTO out",
    "MAP t WITH r => d / TO_DECIMAL(CONCAT(s, s)) INTO out",
    "MAP t WITH r => a + TO_INT(CONCAT(REPLACE(s, \"x\", \"7\"), \"1\")) INTO out",
    "AGGREGATE t GROUP_BY b COMPUTE SUM(big) AS total INTO out",
    "AGGREGATE t GROUP_BY s COMPUTE AVG(d) AS mean, MAX(a) AS top INTO out",
    "FOR_EACH row IN t DO\n    IF a / (a - 1) > 0 THEN DISTINCT t INTO x END_IF\n  END_FOR\n"
    "  DISTINCT t INTO out",
    "WHILE 1 / 0 > 0 DO DISTINCT t INTO x END_WHILE DISTINCT t INTO out",
    "TRY\n    MAP t WITH r => a / 0 INTO out\n  ON_ERROR\n"
    "    MAP t WITH r => big / 0 INTO out\n  END_TRY",
)


def _error_outcomes() -> list[str]:
    schema = schema_of(
        ("a", ValueType.INT),
        ("s", ValueType.STRING),
        ("d", ValueType.DECIMAL),
        ("b", ValueType.BOOL),
        ("big", ValueType.INT),
    )
    table = Table(
        schema,
        [
            (1, "abc", Decimal("2.5"), True, 9223372036854775807),
            (2, "x", Decimal("0"), True, 1),
            (None, None, None, None, None),
        ],
    )
    lines = []
    for statement in ERROR_STATEMENTS:
        source = (
            f"PIPELINE p:\n INPUT t: {format_schema(schema)}\n"
            f" STEP s:\n  {statement}\n OUTPUT out\n"
        )
        lines.append(_outcome(parse(source), {"t": table}))
    return lines


def _generated_outcomes() -> list[str]:
    """The criterion-05 pipelines as built, then formatted and reparsed
    so that their errors carry real source locations."""
    rng = random.Random(0xA11CE)
    lines = []
    for _ in range(1_000):
        pipeline, tables = rand_pipeline(rng)
        lines.append(_outcome(pipeline, tables))
        reparsed = parse(format_ast(pipeline))
        lines.append(_outcome(reparsed, tables))
        lines.append(_outcome(reparsed, _zero_inputs(reparsed)))
    return lines


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_corpus_outcomes_unchanged():
    assert _digest(_corpus_outcomes()) == OUTCOME_DIGESTS["corpus"]


def test_error_outcomes_unchanged():
    assert _digest(_error_outcomes()) == OUTCOME_DIGESTS["errors"]


def test_fixture_outcomes_unchanged():
    assert _digest(_fixture_outcomes()) == OUTCOME_DIGESTS["fixture"]


def test_generated_outcomes_unchanged():
    assert _digest(_generated_outcomes()) == OUTCOME_DIGESTS["generated"]
