"""Metric definitions, flag monotonicity, aggregation, determinism."""

import json

import pytest

from anka import interpreter
from anka.bench import (
    CandidateSet,
    SuiteError,
    evaluate_sample,
    fixture_dir,
    load_suite,
    run_suite,
    task_accuracy,
)
from anka.bench import harness
from anka.bench.harness import SampleResult, tables_match
from anka.bench.suite import TaskSpec, TestCase
from anka.values import ValueType as VT, make_table, schema_of


@pytest.fixture(scope="module")
def fixture_suite():
    return load_suite(fixture_dir() / "suite.json")


@pytest.fixture(scope="module")
def fixture_candidates():
    return CandidateSet.from_directory(fixture_dir() / "candidates")


def simple_task(order_insensitive=False) -> TaskSpec:
    schema = schema_of(("v", VT.INT))
    inputs = {"rows": make_table(schema, [(1,), (5,), (3,)])}
    expected = make_table(schema, [(5,), (3,)])
    return TaskSpec(
        id="keep_big",
        category="filter",
        description="Keep rows with v above 2.",
        input_schemas={"rows": schema},
        tests=(TestCase(inputs=inputs, expected=expected),),
        order_insensitive=order_insensitive,
    )


CORRECT = """\
PIPELINE keep_big:
  INPUT rows: TABLE[v: INT]
  STEP s:
    FILTER rows WHERE v > 2 INTO result
  OUTPUT result
"""

SYNTAX_ERROR = "PIPELINE keep_big:\n  STEP s:\n    FILTER rows WHERE v > 2\n  OUTPUT r"

VALIDATION_ERROR = """\
PIPELINE keep_big:
  INPUT rows: TABLE[v: INT]
  STEP s:
    FILTER rows WHERE missing > 2 INTO result
  OUTPUT result
"""

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

WRONG_ORDER = """\
PIPELINE keep_big:
  INPUT rows: TABLE[v: INT]
  STEP s:
    FILTER rows WHERE v > 2 INTO kept
  STEP reorder:
    SORT kept BY v ASC INTO result
  OUTPUT result
"""

USES_IO = """\
PIPELINE keep_big:
  INPUT rows: TABLE[v: INT]
  STEP s:
    READ "somewhere.json" AS JSON TABLE[v: INT] INTO result
  OUTPUT result
"""

NONTERMINATING = """\
PIPELINE keep_big:
  INPUT rows: TABLE[v: INT]
  STEP s:
    WHILE TRUE DO
      DISTINCT rows INTO spin
    END_WHILE
    FILTER rows WHERE v > 2 INTO result
  OUTPUT result
"""


class TestEvaluateSample:
    def test_correct_program(self):
        result = evaluate_sample(simple_task(), CORRECT)
        assert (result.parse, result.execute, result.correct) == (True, True, True)
        assert result.detail is None

    def test_syntax_error_fails_all_flags(self):
        result = evaluate_sample(simple_task(), SYNTAX_ERROR)
        assert (result.parse, result.execute, result.correct) == (False, False, False)
        assert "parse" in result.detail

    def test_validation_failure_counts_as_parse_failure(self):
        result = evaluate_sample(simple_task(), VALIDATION_ERROR)
        assert (result.parse, result.execute, result.correct) == (False, False, False)
        assert "validate" in result.detail

    def test_runtime_error(self):
        result = evaluate_sample(simple_task(), RUNTIME_ERROR)
        assert (result.parse, result.execute, result.correct) == (True, False, False)
        assert "DivisionByZero" in result.detail or "division" in result.detail

    def test_wrong_output(self):
        result = evaluate_sample(simple_task(), WRONG_OUTPUT)
        assert (result.parse, result.execute, result.correct) == (True, True, False)
        assert "mismatch" in result.detail

    def test_order_sensitivity_default(self):
        result = evaluate_sample(simple_task(), WRONG_ORDER)
        assert (result.parse, result.execute, result.correct) == (True, True, False)

    def test_order_insensitive_task_flag(self):
        result = evaluate_sample(simple_task(order_insensitive=True), WRONG_ORDER)
        assert result.correct

    def test_order_insensitive_global_flag(self):
        result = evaluate_sample(simple_task(), WRONG_ORDER, order_insensitive=True)
        assert result.correct

    def test_sandbox_blocks_io(self):
        result = evaluate_sample(simple_task(), USES_IO)
        assert (result.parse, result.execute, result.correct) == (True, False, False)
        assert "sandboxed" in result.detail

    def test_while_cap_stops_spinning_program(self):
        result = evaluate_sample(simple_task(), NONTERMINATING, while_cap=100)
        assert (result.parse, result.execute, result.correct) == (True, False, False)
        assert "iteration cap" in result.detail

    def test_conversion_failure_is_a_runtime_error(self):
        source = CORRECT.replace(
            "FILTER rows WHERE v > 2",
            f'FILTER rows WHERE v > TO_INT("{"9" * 5000}")',
        )
        result = evaluate_sample(simple_task(), source)
        assert (result.parse, result.execute, result.correct) == (True, False, False)
        assert "out of 64-bit range" in result.detail
        assert len(result.detail) < 200

    def test_string_past_the_length_cap_is_a_runtime_error(self):
        # each REPLACE doubles the text: 40 would build 2**40 characters
        expr = "TO_STRING(v)"
        for _ in range(40):
            expr = f'REPLACE({expr}, "1", "11")'
        source = CORRECT.replace("WHERE v > 2", f"WHERE LENGTH({expr}) > 2")
        result = evaluate_sample(simple_task(), source)
        assert (result.parse, result.execute, result.correct) == (True, False, False)
        assert "STRING length limit" in result.detail

    def test_long_operator_chain_is_a_parse_failure(self):
        for chain in (" OR ".join(["v > 2"] * 1000), " + ".join(["v"] * 1000) + " > 2"):
            source = CORRECT.replace("v > 2", chain)
            result = evaluate_sample(simple_task(), source)
            assert (result.parse, result.execute) == (False, False)
            assert "nesting too deep" in result.detail

    def test_sample_timeout_covers_all_tests_of_a_sample(self, monkeypatch):
        class SteppingClock:
            """Stands in for the time module: each reading is 1 s later."""

            now = 0.0

            def monotonic(self):
                self.now += 1.0
                return self.now

        # the FILTER reads the clock once as a statement and once for each
        # of its 3 rows: each test takes 4 s, four take longer than 12 s
        base = simple_task()
        task = TaskSpec(
            id=base.id,
            category=base.category,
            description=base.description,
            input_schemas=base.input_schemas,
            tests=base.tests * 4,
        )
        for timeout, executes in ((12.0, False), (16.0, True)):
            clock = SteppingClock()
            monkeypatch.setattr(harness, "time", clock)
            monkeypatch.setattr(interpreter, "time", clock)
            result = evaluate_sample(task, CORRECT, sample_timeout=timeout)
            assert result.execute is executes
            if not executes:
                assert "test 3" in result.detail and "time limit" in result.detail

    def test_monotone_flags(self):
        for source in (CORRECT, SYNTAX_ERROR, VALIDATION_ERROR, RUNTIME_ERROR, WRONG_OUTPUT):
            r = evaluate_sample(simple_task(), source)
            assert r.correct <= r.execute <= r.parse


class TestTaskAccuracy:
    def _results(self, correct: int, total: int):
        return [
            SampleResult(f"s{i}", True, True, i < correct) for i in range(total)
        ]

    def test_half_is_accurate(self):
        assert task_accuracy(self._results(5, 10)) is True

    def test_just_below_half_is_not(self):
        assert task_accuracy(self._results(4, 10)) is False

    def test_single_correct_sample(self):
        assert task_accuracy(self._results(1, 1)) is True

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            task_accuracy([])


class TestTablesMatch:
    def test_multiset_comparison(self):
        schema = schema_of(("v", VT.INT))
        a = make_table(schema, [(1,), (2,), (2,)])
        b = make_table(schema, [(2,), (1,), (2,)])
        c = make_table(schema, [(1,), (2,)])
        assert not tables_match(a, b, order_insensitive=False)
        assert tables_match(a, b, order_insensitive=True)
        assert not tables_match(a, c, order_insensitive=True)

    def test_multiset_still_requires_schema(self):
        a = make_table(schema_of(("v", VT.INT)), [(1,)])
        b = make_table(schema_of(("w", VT.INT)), [(1,)])
        assert not tables_match(a, b, order_insensitive=True)


class TestRunSuite:
    def test_fixture_suite_all_correct(self, fixture_suite, fixture_candidates):
        report = run_suite(fixture_suite, fixture_candidates)
        assert report.overall.parse_rate == 1.0
        assert report.overall.execution_rate == 1.0
        assert report.overall.correctness_rate == 1.0
        assert report.overall.task_accuracy == 1.0
        assert report.overall.num_tasks == 16
        assert len(report.categories) == 8

    def test_empty_candidate_dir_scores_zero(self, fixture_suite, tmp_path):
        report = run_suite(fixture_suite, CandidateSet.from_directory(tmp_path))
        assert report.overall.task_accuracy == 0.0
        assert report.overall.parse_rate == 0.0
        assert all(t.no_samples for t in report.tasks)

    def test_mixed_candidates_hit_threshold_exactly(self):
        task = simple_task()
        sources = {
            "keep_big": [
                ("s1", CORRECT),
                ("s2", CORRECT),
                ("s3", SYNTAX_ERROR),
                ("s4", RUNTIME_ERROR),
            ]
        }
        report = run_suite([task], CandidateSet(sources))
        assert report.overall.parse_rate == 0.75
        assert report.overall.execution_rate == 0.5
        assert report.overall.correctness_rate == 0.5
        assert report.overall.task_accuracy == 1.0  # 2/4 correct meets 0.5

    def test_below_threshold(self):
        task = simple_task()
        sources = {
            "keep_big": [
                ("s1", CORRECT),
                ("s2", WRONG_OUTPUT),
                ("s3", SYNTAX_ERROR),
            ]
        }
        report = run_suite([task], CandidateSet(sources))
        assert report.overall.task_accuracy == 0.0  # 1/3 < 0.5

    def test_category_accuracy_is_mean_of_task_flags(self, fixture_suite, fixture_candidates):
        report = run_suite(fixture_suite, fixture_candidates)
        for category, block in report.categories:
            members = [t for t in report.tasks if t.category == category]
            assert block.task_accuracy == sum(t.accurate for t in members) / len(members)
        assert report.overall.task_accuracy == (
            sum(t.accurate for t in report.tasks) / len(report.tasks)
        )

    def test_reports_deterministic_and_job_invariant(self, fixture_suite, fixture_candidates):
        one = run_suite(fixture_suite, fixture_candidates, jobs=1)
        two = run_suite(fixture_suite, fixture_candidates, jobs=1)
        assert one.to_json() == two.to_json()
        eight = run_suite(fixture_suite, fixture_candidates, jobs=8)
        assert eight.overall.to_dict() == one.overall.to_dict()
        assert [t.to_dict() for t in eight.tasks] == [t.to_dict() for t in one.tasks]

    def test_broken_variants_score_as_predicted(self, fixture_suite):
        # per category: correct + syntax + runtime + wrong output on the
        # first task, correct alone on the second
        merged: dict[str, list[tuple[str, str]]] = {}
        candidates_root = fixture_dir() / "candidates"
        broken_root = fixture_dir() / "broken"
        for task in fixture_suite:
            samples = [
                ("sample_1", (candidates_root / task.id / "sample_1.anka").read_text())
            ]
            broken = broken_root / task.id
            if broken.is_dir():
                for path in sorted(broken.glob("*.anka")):
                    samples.append((path.stem, path.read_text()))
            merged[task.id] = samples
        report = run_suite(fixture_suite, CandidateSet(merged))

        with_broken = [t for t in report.tasks if len(t.samples) == 4]
        assert len(with_broken) == 8  # first task of each category
        for task_report in with_broken:
            flags = {s.sample: (s.parse, s.execute, s.correct) for s in task_report.samples}
            assert flags["sample_1"] == (True, True, True)
            assert flags["syntax_error"] == (False, False, False)
            assert flags["runtime_error"] == (True, False, False)
            assert flags["wrong_output"] == (True, True, False)
            assert task_report.accurate is False  # 1/4 < 0.5

        # overall: 8 tasks at 1/4 correct (not accurate), 8 at 1/1
        assert report.overall.task_accuracy == 0.5
        assert report.overall.num_samples == 40
        assert report.overall.parse_rate == (40 - 8) / 40
        assert report.overall.execution_rate == (40 - 16) / 40
        assert report.overall.correctness_rate == 16 / 40

    def test_missing_candidates_flagged_not_fatal(self, fixture_suite, fixture_candidates):
        partial = {
            t.id: fixture_candidates.samples_for(t.id) for t in fixture_suite[:10]
        }
        report = run_suite(fixture_suite, CandidateSet(partial))
        flagged = [t for t in report.tasks if t.no_samples]
        assert len(flagged) == 6
        assert all(not t.accurate for t in flagged)


class TestSuiteLoading:
    def test_fixture_suite_shape(self, fixture_suite):
        assert len(fixture_suite) == 16
        by_category: dict[str, int] = {}
        for task in fixture_suite:
            by_category[task.category] = by_category.get(task.category, 0) + 1
        assert set(by_category.values()) == {2}

    def test_empty_task_list_rejected(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text('{"tasks": []}')
        with pytest.raises(SuiteError, match="at least one task"):
            load_suite(path)

    def test_input_violating_schema_names_task_and_test(self, tmp_path):
        doc = {
            "tasks": [
                {
                    "id": "bad",
                    "category": "filter",
                    "description": "x",
                    "inputs": {"rows": [{"name": "v", "type": "INT"}]},
                    "tests": [
                        {
                            "inputs": {"rows": [{"v": "oops"}]},
                            "expected": {
                                "schema": [{"name": "v", "type": "INT"}],
                                "rows": [],
                            },
                        }
                    ],
                }
            ]
        }
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SuiteError, match="task 'bad', test #0"):
            load_suite(path)

    def test_unknown_category_rejected(self, tmp_path):
        doc = {
            "tasks": [
                {
                    "id": "bad",
                    "category": "mystery",
                    "description": "x",
                    "inputs": {"rows": [{"name": "v", "type": "INT"}]},
                    "tests": [],
                }
            ]
        }
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SuiteError, match="category"):
            load_suite(path)
