"""``bench_fixture`` and ``bench_parallel``: the paper's scoring loop.

The sample set is the shipped fixture suite's 16 correct candidates plus
its 24 ``broken/`` variants, each replicated into seeded copies whose text
differs: comment lines, blank lines, indentation, and the names of the
pipeline, its steps and its intermediates. None of these edits can change
a sample's outcome, so every copy keeps the flags its name predicts, and
no two copies share a source text (a parse cache cannot turn repeats into
a fake gain). Every copy gets the same amount of added text, so the cost
of a set does not depend on the seed.
"""

from __future__ import annotations

import os
import random
import re
import string
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from anka import interpreter, io_adapters, parser, validator
from anka.bench import fixture_dir, harness, suite as suite_mod
from anka.errors import ExecutionError, InputError, ParseError

from perfbench.calibrate import Clock
from perfbench.measure import Round

COPIES = 12
CHUNK = 48  # samples timed between two host-speed probes
COMMENT_LINES = 2
BLANK_LINES = 2
TAG_LETTERS = 5

# (parse, execute, correct) by sample name, as the fixture documents them.
PREDICTED = {
    "sample": (True, True, True),
    "syntax_error": (False, False, False),
    "runtime_error": (True, False, False),
    "wrong_output": (True, True, False),
}

# A dataset name may follow these keywords; a column name never does.
_DATASET_AFTER = {
    "INTO", "OUTPUT", "FILTER", "SELECT", "DISTINCT", "MAP", "RENAME", "DROP",
    "ADD_COLUMN", "AGGREGATE", "SORT", "LIMIT", "SKIP", "SLICE", "JOIN",
    "LEFT_JOIN", "UNION", "WRITE", "POST", "IN",
}
_TOKEN = re.compile(r'"(?:[^"\\\n]|\\.)*"|#[^\n]*|[A-Za-z_][A-Za-z0-9_]*|\S')


def predicted_flags(sample_name: str) -> tuple[bool, bool, bool]:
    base = sample_name.split("__", 1)[0]
    return PREDICTED["sample" if base.startswith("sample") else base]


def job_count() -> int:
    """Worker count for the parallel workload: the CPUs this process may
    run on, never more than ``nproc``."""
    return min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))


def _renamable(source: str) -> set[str]:
    """Names of the pipeline, its steps, and intermediates that appear only
    where a dataset is expected, so renaming them cannot change a result."""
    tokens = [m.group() for m in _TOKEN.finditer(source)
              if not m.group().startswith(("#", '"'))]
    uses: dict = {}
    for i, tok in enumerate(tokens):
        if re.fullmatch(r"[A-Za-z_]\w*", tok):
            prev = tokens[i - 1] if i else ""
            nxt = tokens[i + 1] if i + 1 < len(tokens) else ""
            label = prev in ("PIPELINE", "STEP") and nxt == ":"
            dataset = prev in _DATASET_AFTER or (prev == "WITH" and nxt in ("ON", "INTO"))
            uses.setdefault(tok, []).append((label, dataset, prev == "INTO"))
    return {
        word for word, seen in uses.items()
        if all(label for label, _, _ in seen)
        or (all(dataset for _, dataset, _ in seen) and any(into for _, _, into in seen))
    }


def _word(rng: random.Random, letters: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(letters))


def make_variant(source: str, rng: random.Random) -> str:
    """A copy of ``source`` with the same outcome and different text."""
    tag = _word(rng, TAG_LETTERS)
    names = _renamable(source)

    def rename(m: re.Match) -> str:
        tok = m.group()
        return f"{tok}_{tag}" if tok in names else tok

    text = _TOKEN.sub(rename, source)
    indent = rng.choice(("  ", "    ", "\t"))
    lines = [re.sub(r"^(\s+)", lambda m: m.group(1).replace("  ", indent), line)
             for line in text.rstrip("\n").split("\n")]
    for _ in range(COMMENT_LINES):
        lines.insert(rng.randint(0, len(lines)), f"# note {_word(rng, 8)} {_word(rng, 8)}")
    for _ in range(BLANK_LINES):
        lines.insert(rng.randint(0, len(lines)), "")
    return "\n".join(lines) + "\n"


@dataclass
class Sample:
    task: object
    name: str
    source: str
    flags: tuple[bool, bool, bool]
    input_rows: int


@dataclass
class State:
    tasks: list
    candidates: object
    samples: list
    jobs: int

    def sizes(self) -> dict:
        return {
            "samples": len(self.samples),
            "tasks": len(self.tasks),
            "rows": sum(s.input_rows for s in self.samples),
            "source_bytes": sum(len(s.source.encode()) for s in self.samples),
            "jobs": self.jobs,
        }


def setup(seed: int, parallel: bool, copies: int = COPIES) -> State:
    root = fixture_dir()
    tasks = suite_mod.load_suite(root / "suite.json")
    rng = random.Random(seed)
    sources: dict = {}
    samples = []
    for task in tasks:
        originals = []
        for folder in ("candidates", "broken"):
            task_dir = Path(root, folder, task.id)
            if task_dir.is_dir():
                originals += sorted((p.stem, p.read_text(encoding="utf-8"))
                                    for p in task_dir.glob("*.anka"))
        rows = sum(len(t) for test in task.tests for t in test.inputs.values())
        entries = []
        for stem, text in originals:
            for copy in range(copies):
                name = f"{stem}__{copy:02d}"
                variant = make_variant(text, rng)
                entries.append((name, variant))
                samples.append(Sample(task, name, variant, predicted_flags(name), rows))
        sources[task.id] = entries
    return State(tasks, harness.CandidateSet(sources), samples, job_count() if parallel else 1)


def _flags(result) -> tuple[bool, bool, bool]:
    return (result.parse, result.execute, result.correct)


def score_round(state: State, clock: Clock | None = None) -> Round:
    """Score the set once with ``run_suite``, timed by ``clock`` (plain
    wall time without one); every sample's flags must equal its
    prediction."""
    clock = clock or Clock(probing=False)
    units, rows = len(state.samples), sum(s.input_rows for s in state.samples)
    try:
        clock.lap(then=state.jobs)
        report = harness.run_suite(state.tasks, state.candidates, jobs=state.jobs)
        wall = clock.lap()
    except Exception as exc:  # a failed operation is counted, the run goes on
        clock.lap()
        return Round(0.0, units, rows, units, units, [],
                     [f"run_suite: {type(exc).__name__}: {exc}"])
    scored = {(t.task_id, r.sample): _flags(r) for t in report.tasks for r in t.samples}
    wrong = [f"{s.task.id}/{s.name}" for s in state.samples
             if scored.get((s.task.id, s.name)) != s.flags]
    errors = [f"run_suite: {len(wrong)} samples off their prediction, first {wrong[0]}"] if wrong else []
    return Round(wall, units, rows, units, len(wrong), [report.to_json().encode()], errors,
                 report=report)


def run_round(state: State, clock: Clock | None = None) -> Round:
    """``score_round`` for throughput, then each sample's phases called
    directly for per-sample latencies, in chunks that ``clock`` scales."""
    clock = clock or Clock(probing=False)
    done = score_round(state, clock)
    done.attempted += len(state.samples)
    for first in range(0, len(state.samples), CHUNK):
        latencies, compiles, runs = [], [], []
        for s in state.samples[first:first + CHUNK]:
            try:
                t0 = perf_counter()
                result = harness.evaluate_sample(s.task, s.source, sample_name=s.name)
                latencies.append(perf_counter() - t0)
                compile_s, run_s = _phases(s)
            except Exception as exc:  # a failed operation is counted, the run goes on
                done.failed += 1
                done.errors.append(f"{s.task.id}/{s.name}: {type(exc).__name__}: {exc}")
                continue
            compiles.append(compile_s)
            if run_s is not None:
                runs.append(run_s)
            if _flags(result) != s.flags:
                done.failed += 1
                done.errors.append(f"{s.task.id}/{s.name}: flags {_flags(result)}, predicted {s.flags}")
        clock.lap()
        for into, taken in ((done.latencies, latencies), (done.compiles, compiles), (done.runs, runs)):
            into.extend(x * clock.factor for x in taken)
    return done


def _phases(s: Sample):
    """Parse+validate time, and run time over the task's tests (None when
    the sample does not validate). Expected failures are not errors."""
    t0 = perf_counter()
    try:
        program = parser.parse(s.source)
    except ParseError:
        return perf_counter() - t0, None
    ok = validator.validate(program).ok
    t1 = perf_counter()
    if not ok:
        return t1 - t0, None
    adapter = io_adapters.IoAdapter(sandbox=True)
    try:
        for test in s.task.tests:
            interpreter.run_pipeline(program, test.inputs, adapter)
    except (ExecutionError, InputError):
        pass
    return t1 - t0, perf_counter() - t1
