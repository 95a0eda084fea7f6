"""The names ``anka`` and ``anka.bench`` export, pinned: adding or
removing one is a change of the public API, made here on purpose and
listed in README's "Library use"."""

import pytest

import anka
import anka.bench

SURFACES = {
    anka: [
        "AnkaError", "AssertionFailed", "ConversionError", "DivisionByZero", "ExecutionError",
        "Field", "HttpError", "InputError", "IoAdapter", "IoError", "ParseError", "Schema",
        "Table", "TableError", "ValidationError", "ValidationKind", "ValueType", "format_ast",
        "make_table", "parse", "run_pipeline", "table_equal", "table_from_csv",
        "table_from_json", "table_to_csv", "table_to_json", "validate",
    ],
    anka.bench: [
        "CATEGORIES", "CandidateSet", "MetricBlock", "RunReport", "SampleResult", "SuiteError",
        "TaskReport", "TaskSpec", "TestCase", "evaluate_sample", "fixture_dir", "load_suite",
        "run_suite", "task_accuracy",
    ],
}


@pytest.mark.parametrize("module", SURFACES, ids=lambda module: module.__name__)
def test_exports_are_pinned_and_resolve(module):
    assert module.__all__ == SURFACES[module]
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert [name for name in module.__all__ if name not in namespace] == []
