"""Acceptance suite: ten criteria, each printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete. Every tolerance is exact unless stated otherwise.
"""

import json
import random
import time
import zlib
from collections import Counter
from contextlib import contextmanager
from decimal import Decimal

import pytest

from anka import ast_nodes as ast
from anka.bench import CandidateSet, evaluate_sample, fixture_dir, load_suite, run_suite
from anka.cli import main as cli_main
from anka.errors import ExecutionError, ParseError
from anka.formatter import format_ast
from anka.interpreter import run_pipeline
from anka.io_adapters import (
    IoAdapter,
    table_from_csv,
    table_from_json,
    table_to_csv,
    table_to_json,
)
from anka.parser import parse
from anka.validator import validate
from anka.values import (
    ARITHMETIC_KERNELS,
    ValueType as VT,
    make_table,
    schema_of,
    table_equal,
)

import equivalence
import fuzzing
from generators import rand_schema, rand_table
from pipelinegen import rand_pipeline
from test_io import RecordingFileOps, RecordingHttpOps


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} FAIL - {description}")
        raise
    print(f"\nACCEPTANCE {number:02d} PASS - {description}")


REFERENCE_SOURCE = """\
PIPELINE transform_sales:
    INPUT orders: TABLE[order_id: INT, customer: STRING,
        amount: DECIMAL, date: DATE]

    STEP filter_large:
        FILTER orders WHERE amount > 1000 INTO large_orders

    STEP add_tax:
        MAP large_orders WITH tax => amount * 0.08 INTO with_tax

    STEP summarize:
        AGGREGATE with_tax
        GROUP_BY customer
        COMPUTE SUM(amount) AS total, COUNT() AS num_orders
        INTO summary

    OUTPUT summary
"""


def test_criterion_01_reference_pipeline_end_to_end():
    import datetime

    with criterion(1, "reference pipeline produces the hand-computed table"):
        orders = make_table(
            schema_of(
                ("order_id", VT.INT),
                ("customer", VT.STRING),
                ("amount", VT.DECIMAL),
                ("date", VT.DATE),
            ),
            [
                (1, "alice", Decimal("1500.00"), datetime.date(2024, 1, 1)),
                (2, "bob", Decimal("800.00"), datetime.date(2024, 1, 2)),
                (3, "alice", Decimal("2000.00"), datetime.date(2024, 1, 3)),
            ],
        )
        started = time.monotonic()
        pipeline = parse(REFERENCE_SOURCE)
        assert validate(pipeline).ok
        output = run_pipeline(pipeline, {"orders": orders})
        elapsed = time.monotonic() - started
        expected = make_table(
            schema_of(
                ("customer", VT.STRING),
                ("total", VT.DECIMAL),
                ("num_orders", VT.INT),
            ),
            [("alice", Decimal("3500.00"), 2)],
        )
        assert table_equal(output, expected)
        assert str(output.rows[0][1]) == "3500.00"
        assert elapsed < 1.0


def test_criterion_02_grammar_round_trip_over_corpus():
    with criterion(2, "corpus of 40+ pipelines round-trips through format/parse"):
        paths = sorted(fuzzing.CORPUS_DIR.glob("*.anka"))
        assert len(paths) >= 40
        statement_counts: Counter = Counter()
        for path in paths:
            tree = parse(path.read_text(encoding="utf-8"))
            assert parse(format_ast(tree)) == tree, path.name

            def count(statements):
                for stmt in statements:
                    statement_counts[type(stmt).__name__] += 1
                    for attr in ("body", "then_body", "else_body", "handler"):
                        count(getattr(stmt, attr, ()))

            for step in tree.steps:
                count(step.body)
        required = [
            "Filter", "Select", "Distinct", "Map", "Rename", "Drop", "AddColumn",
            "Aggregate", "Sort", "Limit", "Skip", "Slice", "Join", "LeftJoin",
            "Union", "Read", "Write", "Fetch", "Post",
            "If", "ForEach", "While", "Try",
        ]
        for name in required:
            assert statement_counts[name] >= 2, (name, statement_counts[name])


def test_criterion_03_parser_totality_under_fuzzing():
    with criterion(
        3,
        "10,000 fuzzed inputs and the lexer edge cases parse or fail cleanly, "
        "and what parses validates and formats, each under 1s",
    ):
        inputs = fuzzing.fuzz_inputs(10_000)
        assert len(inputs) == 10_000
        for text in (*inputs, *fuzzing.lexer_edge_inputs()):
            started = time.monotonic()
            try:
                tree = parse(text)
                assert isinstance(tree, ast.Pipeline)
                validate(tree)
                assert isinstance(format_ast(tree), str)
            except ParseError as err:
                assert err.location.line >= 1
                assert err.location.column >= 1
                assert 0 <= err.location.offset <= len(text.encode("utf-8"))
            elapsed = time.monotonic() - started
            assert elapsed < 1.0, f"slow parse ({elapsed:.2f}s) on {text[:80]!r}"


# Criteria 04 and 05 re-check every cell an operator produces, which is
# how they catch an operator or a validator rule that yields ill-typed cells.
@pytest.mark.usefixtures("checked_tables")
def test_criterion_04_interpreter_matches_bruteforce_oracle():
    with criterion(4, "500 randomized cases per operation match the oracle"):
        started = time.monotonic()
        for operation in equivalence.OPERATIONS:
            seed = zlib.crc32(f"acceptance-{operation}".encode())
            equivalence.run_cases(operation, seed=seed, count=500)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"


@pytest.mark.usefixtures("checked_tables")
def test_criterion_05_validator_soundness_on_random_pipelines():
    with criterion(5, "1,000 random valid pipelines run without name/type errors"):
        rng = random.Random(0xA11CE)
        executed = 0
        tolerated = 0
        for _ in range(1_000):
            pipeline, tables = rand_pipeline(rng)
            result = validate(pipeline)
            assert result.ok, result.errors
            try:
                output = run_pipeline(pipeline, tables)
            except ExecutionError:
                # arithmetic failures are legal runtime outcomes; name and
                # type errors cannot take this path (they would surface as
                # non-ExecutionError crashes and fail the test)
                tolerated += 1
                continue
            executed += 1
            assert output.schema == result.output_schema
        assert executed + tolerated == 1_000
        assert executed >= 950, (executed, tolerated)


def test_criterion_06_decimal_exactness():
    with criterion(6, "decimal add/subtract identity and exact 8% products"):
        rng = random.Random(0xDEC)
        rate = Decimal("0.08")
        add, subtract, multiply = (ARITHMETIC_KERNELS[op, VT.DECIMAL] for op in "+-*")
        for _ in range(1_000):
            a = Decimal(rng.randint(-10**9, 10**9)).scaleb(-rng.randint(0, 4))
            b = Decimal(rng.randint(-10**9, 10**9)).scaleb(-rng.randint(0, 4))
            assert subtract(add(a, b), b) == a
            product = multiply(a, rate)
            text = str(product)
            assert Decimal(text) == product
            assert str(Decimal(text)) == text
            assert -product.as_tuple().exponent == -a.as_tuple().exponent + 2


def test_criterion_07_io_round_trips_and_hermetic_sandbox():
    with criterion(7, "JSON/CSV round-trip 500 random tables; sandbox is hermetic"):
        rng = random.Random(0x10)
        for _ in range(500):
            schema = rand_schema(rng)
            table = rand_table(rng, schema)
            assert table_equal(table_from_json(table_to_json(table), schema), table)
        for _ in range(500):
            schema = rand_schema(rng)
            # CSV cannot distinguish a null string from an empty one, so
            # string-bearing tables are generated without nulls
            has_string = any(f.type is VT.STRING for f in schema.fields)
            table = rand_table(rng, schema, null_rate=0.0 if has_string else 0.2)
            assert table_equal(table_from_csv(table_to_csv(table), schema), table)

        files, http = RecordingFileOps(), RecordingHttpOps()
        sandboxed = IoAdapter(sandbox=True, file_ops=files, http_ops=http)
        source = (
            'PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n'
            '  TRY\n    READ "x.json" AS JSON TABLE[a: INT] INTO r1\n'
            '  ON_ERROR\n    DISTINCT t INTO r1\n  END_TRY\n'
            '  TRY\n    FETCH "http://x.test/" TABLE[a: INT] INTO r2\n'
            '  ON_ERROR\n    DISTINCT t INTO r2\n  END_TRY\n'
            '  TRY\n    WRITE t TO "y.json" AS JSON\n    DISTINCT t INTO r3\n'
            '  ON_ERROR\n    DISTINCT t INTO r3\n  END_TRY\n'
            '  TRY\n    POST t TO "http://x.test/"\n    DISTINCT t INTO r4\n'
            '  ON_ERROR\n    DISTINCT t INTO r4\n  END_TRY\n'
            ' OUTPUT r4'
        )
        pipeline = parse(source)
        assert validate(pipeline).ok
        table = make_table(schema_of(("a", VT.INT)), [(1,)])
        run_pipeline(pipeline, {"t": table}, sandboxed)
        assert files.calls == []
        assert http.calls == []


CORRECT = """\
PIPELINE keep_big:
  INPUT rows: TABLE[v: INT]
  STEP s:
    FILTER rows WHERE v > 2 INTO result
  OUTPUT result
"""

SYNTAX_ERROR = "PIPELINE keep_big:\n  STEP s:\n    FILTER rows WHERE v > 2\n  OUTPUT r"

RUNTIME_ERROR = """\
PIPELINE keep_big:
  INPUT rows: TABLE[v: INT]
  STEP s:
    MAP rows WITH bad => v / 0 INTO result
  OUTPUT result
"""

WRONG_OUTPUT = """\
PIPELINE keep_big:
  INPUT rows: TABLE[v: INT]
  STEP s:
    FILTER rows WHERE v > 4 INTO result
  OUTPUT result
"""


def _metric_task(task_id: str):
    from anka.bench.suite import TaskSpec, TestCase

    schema = schema_of(("v", VT.INT))
    return TaskSpec(
        id=task_id,
        category="filter",
        description="Keep rows with v above 2.",
        input_schemas={"rows": schema},
        tests=(
            TestCase(
                inputs={"rows": make_table(schema, [(1,), (5,), (3,)])},
                expected=make_table(schema, [(5,), (3,)]),
            ),
        ),
    )


def test_criterion_08_metric_definitions_reproduce_hand_computation():
    with criterion(8, "harness reproduces hand-computed metrics and the 50% boundary"):
        task_a = _metric_task("task_a")  # 5 correct, 2 wrong, 2 runtime, 1 syntax
        task_b = _metric_task("task_b")  # 4 correct, 6 wrong
        sources = {
            "task_a": (
                [(f"c{i}", CORRECT) for i in range(5)]
                + [(f"w{i}", WRONG_OUTPUT) for i in range(2)]
                + [(f"r{i}", RUNTIME_ERROR) for i in range(2)]
                + [("s0", SYNTAX_ERROR)]
            ),
            "task_b": (
                [(f"c{i}", CORRECT) for i in range(4)]
                + [(f"w{i}", WRONG_OUTPUT) for i in range(6)]
            ),
        }
        report = run_suite([task_a, task_b], CandidateSet(sources))

        for task_report in report.tasks:
            for sample in task_report.samples:
                assert sample.correct <= sample.execute <= sample.parse

        by_id = {t.task_id: t for t in report.tasks}
        assert by_id["task_a"].accurate is True  # exactly 5/10
        assert by_id["task_b"].accurate is False  # exactly 4/10
        assert report.overall.parse_rate == 19 / 20
        assert report.overall.execution_rate == 17 / 20
        assert report.overall.correctness_rate == 9 / 20
        assert report.overall.task_accuracy == 1 / 2
        block = dict(report.categories)["filter"]
        assert block.parse_rate == 19 / 20
        assert block.task_accuracy == 1 / 2


def test_criterion_09_deterministic_reports(tmp_path):
    with criterion(9, "bench reports are byte-identical and job-count invariant"):
        suite_path = str(fixture_dir() / "suite.json")
        candidates = str(fixture_dir() / "candidates")
        reports = []
        for name in ("one.json", "two.json"):
            path = tmp_path / name
            assert cli_main(["bench", suite_path, candidates, "--report", str(path)]) == 0
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

        jobs8 = tmp_path / "eight.json"
        code = cli_main(
            ["bench", suite_path, candidates, "--report", str(jobs8), "--jobs", "8"]
        )
        assert code == 0
        serial = json.loads(reports[0])
        parallel = json.loads(jobs8.read_bytes())
        assert parallel["overall"] == serial["overall"]
        assert parallel["categories"] == serial["categories"]
        assert parallel["tasks"] == serial["tasks"]


def test_criterion_10_fixture_suite_sanity():
    with criterion(10, "fixture suite: correct candidates score 100%, broken as predicted"):
        suite = load_suite(fixture_dir() / "suite.json")
        assert len(suite) == 16
        correct_set = CandidateSet.from_directory(fixture_dir() / "candidates")
        report = run_suite(suite, correct_set)
        assert report.overall.parse_rate == 1.0
        assert report.overall.execution_rate == 1.0
        assert report.overall.correctness_rate == 1.0
        assert report.overall.task_accuracy == 1.0

        broken_root = fixture_dir() / "broken"
        covered_categories = set()
        for task in suite:
            broken_dir = broken_root / task.id
            if not broken_dir.is_dir():
                continue
            covered_categories.add(task.category)
            expectations = {
                "syntax_error": (False, False, False),
                "runtime_error": (True, False, False),
                "wrong_output": (True, True, False),
            }
            for stem, expected_flags in expectations.items():
                source = (broken_dir / f"{stem}.anka").read_text(encoding="utf-8")
                result = evaluate_sample(task, source, sample_name=stem)
                flags = (result.parse, result.execute, result.correct)
                assert flags == expected_flags, (task.id, stem, flags)
        assert len(covered_categories) == 8
