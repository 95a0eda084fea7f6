"""Candidate evaluation and metric aggregation.

Per sample, three monotone flags: ``parse`` (parses and validates),
``execute`` (every test case runs without a runtime error under the
sandbox and wall-clock cap), ``correct`` (every test case's output
equals the expected table). A task is accurate when at least half of
its samples are correct.

Rates aggregate over samples; task accuracy aggregates over tasks.
Reports are deterministic: tasks keep suite order, samples sort by file
name, and no timing data is embedded.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional, Union

from anka.bench.suite import CATEGORIES, TaskSpec
from anka.errors import ExecutionError, InputError, ParseError
from anka.interpreter import run_pipeline
from anka.io_adapters import IoAdapter
from anka.parser import parse
from anka.validator import validate
from anka.values import Table, table_equal

DEFAULT_SAMPLE_TIMEOUT = 5.0

# Bound the damage a runaway candidate can do before the wall clock
# catches it: the rows of any one table, and the cells (rows times
# columns) of all tables bound at once.
MAX_RESULT_ROWS = 1_000_000
MAX_RESULT_CELLS = 10_000_000


def check_sample_timeout(seconds: float) -> None:
    """Raise ``ValueError`` unless ``seconds`` is a usable per-sample wall
    clock: finite and above 0. NaN would switch the deadline off, since
    no clock reading compares greater than it."""
    if not (math.isfinite(seconds) and seconds > 0):
        raise ValueError(f"sample_timeout must be finite and above 0, got {seconds!r}")


class SampleResult(NamedTuple):
    sample: str
    parse: bool
    execute: bool
    correct: bool
    detail: Optional[str] = None

    def to_dict(self) -> dict:
        return self._asdict()


class CandidateSet:
    """Candidate program sources per task id.

    The on-disk convention is ``<root>/<task_id>/<sample>.anka``;
    samples are ordered by file name.
    """

    def __init__(self, sources: dict[str, list[tuple[str, str]]]) -> None:
        self._sources = sources

    @classmethod
    def from_directory(cls, root: Union[str, Path]) -> "CandidateSet":
        root = Path(root)
        sources: dict[str, list[tuple[str, str]]] = {}
        for task_dir in sorted(p for p in root.iterdir() if p.is_dir()):
            samples = []
            for path in sorted(task_dir.glob("*.anka")):
                samples.append(
                    (path.stem, path.read_text(encoding="utf-8", errors="replace"))
                )
            sources[task_dir.name] = samples
        return cls(sources)

    def samples_for(self, task_id: str) -> list[tuple[str, str]]:
        return list(self._sources.get(task_id, []))


def tables_match(actual: Table, expected: Table, order_insensitive: bool) -> bool:
    """Expected-output comparison: exact table equality, or schema
    equality plus row-multiset equality when order does not matter."""
    if not order_insensitive:
        return table_equal(actual, expected)
    if actual.schema != expected.schema:
        return False
    return Counter(actual.rows) == Counter(expected.rows)


def evaluate_sample(
    task: TaskSpec,
    source: str,
    *,
    sample_name: str = "sample",
    sample_timeout: float = DEFAULT_SAMPLE_TIMEOUT,
) -> SampleResult:
    """Run one candidate program against every test case of a task.
    Raises ``ValueError`` on a ``sample_timeout`` that is not finite and
    above 0."""
    check_sample_timeout(sample_timeout)
    try:
        pipeline = parse(source)
    except ParseError as exc:
        return SampleResult(sample_name, False, False, False, f"parse: {exc}")
    result = validate(pipeline)
    if not result.ok:
        first = result.errors[0]
        return SampleResult(
            sample_name, False, False, False, f"validate: {first}"
        )

    io = IoAdapter()
    outputs = []
    deadline = time.monotonic() + sample_timeout
    for index, test in enumerate(task.tests):
        try:
            outputs.append(
                run_pipeline(
                    pipeline,
                    test.inputs,
                    io,
                    deadline=deadline,
                    max_rows=MAX_RESULT_ROWS,
                    max_cells=MAX_RESULT_CELLS,
                )
            )
        except (ExecutionError, InputError) as exc:
            return SampleResult(
                sample_name, True, False, False, f"test {index}: {exc}"
            )

    for index, (test, actual) in enumerate(zip(task.tests, outputs)):
        if not tables_match(actual, test.expected, task.order_insensitive):
            return SampleResult(
                sample_name, True, True, False, f"test {index}: output mismatch"
            )
    return SampleResult(sample_name, True, True, True, None)


def task_accuracy(results: list[SampleResult]) -> bool:
    """True when at least half of the samples produced correct output."""
    if not results:
        raise ValueError("task_accuracy requires at least one sample result")
    correct = sum(1 for r in results if r.correct)
    return correct / len(results) >= 0.5


class TaskReport(NamedTuple):
    task_id: str
    category: str
    samples: tuple[SampleResult, ...]
    accurate: bool

    @property
    def no_samples(self) -> bool:
        return not self.samples

    def to_dict(self) -> dict:
        return {
            "id": self.task_id,
            "category": self.category,
            "num_samples": len(self.samples),
            "num_correct": sum(1 for s in self.samples if s.correct),
            "accurate": self.accurate,
            "no_samples": self.no_samples,
            "samples": [s.to_dict() for s in self.samples],
        }


class MetricBlock(NamedTuple):
    """Aggregate metrics over a set of tasks and their samples."""

    num_tasks: int
    num_samples: int
    parse_rate: float
    execution_rate: float
    correctness_rate: float
    task_accuracy: float

    @classmethod
    def over(cls, tasks: list[TaskReport]) -> "MetricBlock":
        samples = [s for t in tasks for s in t.samples]
        n = len(samples)
        return cls(
            num_tasks=len(tasks),
            num_samples=n,
            parse_rate=sum(1 for s in samples if s.parse) / n if n else 0.0,
            execution_rate=sum(1 for s in samples if s.execute) / n if n else 0.0,
            correctness_rate=sum(1 for s in samples if s.correct) / n if n else 0.0,
            task_accuracy=(
                sum(1 for t in tasks if t.accurate) / len(tasks) if tasks else 0.0
            ),
        )

    def to_dict(self) -> dict:
        return {
            "tasks": self.num_tasks,
            "samples": self.num_samples,
            "parse_rate": self.parse_rate,
            "execution_rate": self.execution_rate,
            "correctness_rate": self.correctness_rate,
            "task_accuracy": self.task_accuracy,
        }


class RunReport(NamedTuple):
    tasks: tuple[TaskReport, ...]
    categories: tuple[tuple[str, MetricBlock], ...]
    overall: MetricBlock
    config: dict

    def to_json(self) -> str:
        doc = {
            "config": self.config,
            "overall": self.overall.to_dict(),
            "categories": [
                {"category": name, **block.to_dict()}
                for name, block in self.categories
            ],
            "tasks": [t.to_dict() for t in self.tasks],
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_markdown(self) -> str:
        lines = [
            "| Category | Tasks | Parse | Execution | Correctness | Task Accuracy |",
            "|---|---|---|---|---|---|",
        ]
        for name, block in self.categories:
            lines.append(_markdown_row(name, block))
        lines.append(_markdown_row("**Overall**", self.overall))
        return "\n".join(lines) + "\n"


def _markdown_row(name: str, block: MetricBlock) -> str:
    return (
        f"| {name} | {block.num_tasks} | {block.parse_rate:.1%} "
        f"| {block.execution_rate:.1%} | {block.correctness_rate:.1%} "
        f"| {block.task_accuracy:.1%} |"
    )


def run_suite(
    suite: list[TaskSpec],
    candidates: CandidateSet,
    *,
    jobs: int = 1,
    sample_timeout: float = DEFAULT_SAMPLE_TIMEOUT,
) -> RunReport:
    """Evaluate every candidate sample of every task and aggregate the
    four metrics per category and overall.

    Samples are scored in order in the calling thread. ``jobs`` is only
    recorded in the report's ``config``.

    Tasks with no candidate files score zero samples and count as not
    accurate; they are flagged rather than fatal. Raises ``ValueError`` on
    a ``sample_timeout`` that is not finite and above 0.
    """
    check_sample_timeout(sample_timeout)
    task_reports = []
    for task in suite:
        results = sorted(
            (
                evaluate_sample(
                    task,
                    source,
                    sample_name=name,
                    sample_timeout=sample_timeout,
                )
                for name, source in candidates.samples_for(task.id)
            ),
            key=lambda r: r.sample,
        )
        task_reports.append(
            TaskReport(
                task_id=task.id,
                category=task.category,
                samples=tuple(results),
                accurate=bool(results) and task_accuracy(results),
            )
        )

    present = []
    for category in CATEGORIES:
        members = [t for t in task_reports if t.category == category]
        if members:
            present.append((category, MetricBlock.over(members)))
    overall = MetricBlock.over(task_reports)
    config = {
        "jobs": jobs,
        "sample_timeout": sample_timeout,
    }
    return RunReport(
        tasks=tuple(task_reports),
        categories=tuple(present),
        overall=overall,
        config=config,
    )
