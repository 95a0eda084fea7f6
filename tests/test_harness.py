"""Metric definitions, flag monotonicity, aggregation, determinism."""

import copy
import importlib.util
import json
import threading
from pathlib import Path

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
from anka.values import ValueType as VT, make_table

from builders import schema_of


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

    def test_sandbox_blocks_io(self):
        result = evaluate_sample(simple_task(), USES_IO)
        assert (result.parse, result.execute, result.correct) == (True, False, False)
        assert "sandboxed" in result.detail

    def test_while_cap_stops_spinning_program(self):
        result = evaluate_sample(simple_task(), NONTERMINATING)
        assert (result.parse, result.execute, result.correct) == (True, False, False)
        assert "iteration cap of 100000" in result.detail

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

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0, -1.0])
    def test_unusable_sample_timeout_is_rejected(self, timeout):
        # NaN would switch the deadline off and land in the report as NaN
        with pytest.raises(ValueError, match="sample_timeout"):
            evaluate_sample(simple_task(), CORRECT, sample_timeout=timeout)
        with pytest.raises(ValueError, match="sample_timeout"):
            run_suite([simple_task()], CandidateSet({}), sample_timeout=timeout)

    def test_cell_cap_stops_a_runaway_sample(self, monkeypatch):
        widening = CORRECT.replace(
            "FILTER rows WHERE v > 2 INTO result",
            "UNION rows WITH rows INTO twice\n"
            "    ADD_COLUMN twice WITH w = 1 INTO wide\n"
            "    FILTER rows WHERE v > 2 INTO result",
        )
        assert evaluate_sample(simple_task(), widening).correct
        monkeypatch.setattr(harness, "MAX_RESULT_CELLS", 11)
        result = evaluate_sample(simple_task(), widening)
        assert (result.parse, result.execute) == (True, False)
        assert "cell limit of 11" in result.detail

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

    def test_fixture_expected_tables_are_the_refresh(self):
        # tables compare by value, so only the text catches an expected
        # cell edited to an equal value, such as "150.0" for "150.00"
        path = Path(__file__).resolve().parent.parent / "tools" / "refresh_fixture.py"
        spec = importlib.util.spec_from_file_location("refresh_fixture", path)
        refresh = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(refresh)
        committed = (fixture_dir() / "suite.json").read_text(encoding="utf-8")
        assert refresh.refreshed(fixture_dir()) == committed

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

    def test_jobs_start_no_thread(self, fixture_suite, fixture_candidates, monkeypatch):
        one = run_suite(fixture_suite, fixture_candidates, jobs=1)

        def refuse(self):
            raise AssertionError("run_suite started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        report = run_suite(fixture_suite, fixture_candidates, jobs=100_000)
        assert report.config["jobs"] == 100_000
        assert [t.to_dict() for t in report.tasks] == [t.to_dict() for t in one.tasks]

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


def _valid_suite_doc() -> dict:
    return {
        "tasks": [
            {
                "id": "t1",
                "category": "filter",
                "description": "keep every row",
                "order_insensitive": False,
                "inputs": {"rows": [{"name": "v", "type": "INT"}]},
                "tests": [
                    {
                        "inputs": {"rows": [{"v": 1}]},
                        "expected": {"schema": [{"name": "v", "type": "INT"}], "rows": [{"v": 1}]},
                    }
                ],
            }
        ]
    }


def _parent(doc, path: str):
    """The container and the key that a dotted path of keys and indices names."""
    *keys, last = [int(key) if key.isdigit() else key for key in path.split(".")]
    for key in keys:
        doc = doc[key]
    return doc, last


def _set(path: str, value):
    def edit(doc):
        parent, key = _parent(doc, path)
        parent[key] = value

    return edit


def _delete(path: str):
    def edit(doc):
        parent, key = _parent(doc, path)
        del parent[key]

    return edit


_TEST = "task 't1', test #0"

# Each case changes one part of a valid suite document and names the
# SuiteError it must raise; "{path}" stands for the suite file.
_SUITE_ERRORS = {
    "document not an object": (
        lambda doc: [doc], "suite {path}: expected an object with a 'tasks' array"),
    "no tasks array": (
        _delete("tasks"), "suite {path}: expected an object with a 'tasks' array"),
    "task not an object": (_set("tasks.0", "t1"), "task #0: expected an object"),
    "no id": (_delete("tasks.0.id"), "task #0: missing or invalid 'id'"),
    "no description": (_delete("tasks.0.description"), "task 't1': missing 'description'"),
    "order_insensitive not a boolean": (
        _set("tasks.0.order_insensitive", "yes"),
        "task 't1': 'order_insensitive' must be a boolean"),
    "inputs empty": (
        _set("tasks.0.inputs", {}), "task 't1': 'inputs' must map names to schemas"),
    "inputs not a mapping": (
        _set("tasks.0.inputs", [{"name": "v", "type": "INT"}]),
        "task 't1': 'inputs' must map names to schemas"),
    "schema not a list": (
        _set("tasks.0.inputs.rows", "INT"),
        "task 't1': input 'rows': schema must be a non-empty field list"),
    "schema empty": (
        _set("tasks.0.inputs.rows", []),
        "task 't1': input 'rows': schema must be a non-empty field list"),
    "field without name": (
        _set("tasks.0.inputs.rows", [{"type": "INT"}]),
        "task 't1': input 'rows': each field needs 'name' and 'type'"),
    "field without type": (
        _set("tasks.0.inputs.rows", [{"name": "v"}]),
        "task 't1': input 'rows': each field needs 'name' and 'type'"),
    "unknown type": (
        _set("tasks.0.inputs.rows", [{"name": "v", "type": "NUMBER"}]),
        "task 't1': input 'rows': unknown type 'NUMBER' for field 'v'"),
    "repeated field": (
        _set("tasks.0.inputs.rows", [{"name": "v", "type": "INT"}] * 2),
        "task 't1': input 'rows': duplicate field name 'v' in schema"),
    "no tests": (_delete("tasks.0.tests"), "task 't1': at least one test is required"),
    "tests empty": (_set("tasks.0.tests", []), "task 't1': at least one test is required"),
    "test not an object": (_set("tasks.0.tests.0", []), f"{_TEST}: expected an object"),
    "test inputs not a mapping": (
        _set("tasks.0.tests.0.inputs", [[{"v": 1}]]),
        f"{_TEST}: 'inputs' must map names to row arrays"),
    "test input names differ": (
        _set("tasks.0.tests.0.inputs", {"other": [{"v": 1}]}),
        f"{_TEST}: test inputs ['other'] do not match declared inputs ['rows']"),
    "test input rows not an array": (
        _set("tasks.0.tests.0.inputs.rows", {"v": 1}),
        f"{_TEST}: input 'rows' must be an array of objects"),
    "expected not an object": (
        _set("tasks.0.tests.0.expected", [{"v": 1}]),
        f"{_TEST}: 'expected' must carry 'schema' and 'rows'"),
    "expected rows not an array": (
        _set("tasks.0.tests.0.expected.rows", {"v": 1}),
        f"{_TEST}: expected 'rows' must be an array of objects"),
    "expected table fails to convert": (
        _set("tasks.0.tests.0.expected.rows", [{"v": "x"}]),
        f"{_TEST}: expected table: row 0, field 'v': expected INT, got string"),
    "duplicate task id": (
        lambda doc: doc["tasks"].append(copy.deepcopy(doc["tasks"][0])),
        "duplicate task id 't1'"),
}


def test_valid_suite_document_loads(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(_valid_suite_doc()))
    (task,) = load_suite(path)
    assert task.id == "t1" and len(task.tests) == 1


def test_undecodable_suite_names_the_file(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text('{"tasks": [')
    with pytest.raises(SuiteError) as info:
        load_suite(path)
    assert str(info.value).startswith(f"suite {path}: malformed JSON")


@pytest.mark.parametrize("case", list(_SUITE_ERRORS))
def test_malformed_suite_document_names_the_fault(tmp_path, case):
    edit, message = _SUITE_ERRORS[case]
    doc = _valid_suite_doc()
    replaced = edit(doc)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc if replaced is None else replaced))
    with pytest.raises(SuiteError) as info:
        load_suite(path)
    assert str(info.value) == message.format(path=path)
