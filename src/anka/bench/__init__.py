"""Benchmark harness: task suites, candidate evaluation, metrics."""

from pathlib import Path

from anka.bench.harness import (
    CandidateSet,
    MetricBlock,
    RunReport,
    SampleResult,
    TaskReport,
    evaluate_sample,
    run_suite,
    task_accuracy,
)
from anka.bench.suite import CATEGORIES, SuiteError, TaskSpec, TestCase, load_suite


def fixture_dir() -> Path:
    """Location of the shipped fixture suite and its candidates."""
    return Path(__file__).resolve().parent / "fixture"


__all__ = [
    "CATEGORIES",
    "CandidateSet",
    "MetricBlock",
    "RunReport",
    "SampleResult",
    "SuiteError",
    "TaskReport",
    "TaskSpec",
    "TestCase",
    "evaluate_sample",
    "fixture_dir",
    "load_suite",
    "run_suite",
    "task_accuracy",
]
