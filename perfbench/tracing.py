"""Spans around the public functions of each layer, and the per-layer
metrics computed from them.

A hook replaces a function under the name its caller looks it up by
(``anka.parser.tokenize`` for the parser's call, a class attribute for a
method) with a wrapper that records a span: name, start, end and parent.
Spans stay in memory; a layer's self time is its span's duration minus the
time of its direct child spans. Hooks are installed only for traced
rounds and removed after them, so untraced rounds run the program as is.
"""

from __future__ import annotations

import functools
import importlib
import threading
from contextlib import contextmanager
from time import perf_counter

OPS = (
    "filter", "select", "distinct", "map", "rename", "drop", "add_column",
    "aggregate", "sort", "limit", "skip", "slice", "join", "left_join", "union",
    "read", "write", "fetch", "post",
)
CODECS = ("json_decode", "json_encode", "csv_decode", "csv_encode")
PHASES = ("parse", "validate", "run", "compare")


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "count")

    def __init__(self, name: str, parent: "Span | None") -> None:
        self.name = name
        self.parent = parent
        self.start = self.end = self.child_s = 0.0
        self.count = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def count_statements(pipeline) -> int:
    """Statements in a parsed pipeline, nested bodies included."""

    def walk(body) -> int:
        total = 0
        for stmt in body:
            total += 1
            for attr in ("then_body", "else_body", "body", "handler"):
                total += walk(getattr(stmt, attr, ()))
        return total

    return sum(walk(step.body) for step in pipeline.steps)


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _join_name(args, kwargs) -> str:
    return "interpreter.left_join" if kwargs.get("left_outer") else "interpreter.join"


# (module, attribute, span name or function of the call's arguments, count).
HOOKS = [
    ("anka.parser", "tokenize", "lexer", _result_len),
    ("anka.parser", "parse", "parser", lambda a, k, r: count_statements(r)),
    ("anka.bench.harness", "parse", "parser", lambda a, k, r: count_statements(r)),
    ("anka.validator", "validate", "validator", lambda a, k, r: count_statements(a[0])),
    ("anka.bench.harness", "validate", "validator", lambda a, k, r: count_statements(a[0])),
    ("anka.interpreter", "run_pipeline", "interpreter.run", None),
    ("anka.bench.harness", "run_pipeline", "interpreter.run", None),
    ("anka.interpreter", "call_builtin", "builtins", None),
    ("anka.values", "Table.__init__", "values.table",
     lambda a, k, r: len(a[0].rows) * len(a[0].schema)),
    ("anka.interpreter", "Interpreter.eval_join", _join_name, _result_len),
    ("anka.io_adapters", "IoAdapter.read_table", "interpreter.read", _result_len),
    ("anka.io_adapters", "IoAdapter.write_table", "interpreter.write", lambda a, k, r: len(a[1])),
    ("anka.io_adapters", "IoAdapter.fetch_table", "interpreter.fetch", _result_len),
    ("anka.io_adapters", "IoAdapter.post_table", "interpreter.post", lambda a, k, r: len(a[2])),
    ("anka.io_adapters", "table_from_json", "io.json_decode", lambda a, k, r: len(a[0])),
    ("anka.io_adapters", "table_to_json", "io.json_encode", lambda a, k, r: len(r)),
    ("anka.io_adapters", "table_from_csv", "io.csv_decode", lambda a, k, r: len(a[0])),
    ("anka.io_adapters", "table_to_csv", "io.csv_encode", lambda a, k, r: len(r)),
    ("anka.bench.suite", "load_suite", "bench.suite.load", None),
    ("anka.bench.harness", "evaluate_sample", "bench.harness.evaluate", None),
    ("anka.bench.harness", "tables_match", "bench.harness.compare", None),
] + [
    ("anka.interpreter", f"Interpreter.eval_{op}", f"interpreter.{op}", _result_len)
    for op in OPS if op not in ("join", "left_join", "read", "write", "fetch", "post")
]


class Tracer:
    """Collects spans from every thread; each thread keeps its own stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name(args, kwargs) if callable(name) else name,
                        stack[-1] if stack else None)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                tracer.spans.append(span)
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Install every hook whose target exists; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, count in HOOKS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                try:
                    for part in path:
                        owner = getattr(owner, part)
                    original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
                except (AttributeError, KeyError):
                    if f"{module_name}.{attr}" not in self.missing:
                        self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(original, name, count))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, summed count."""
    out: dict = {}
    for s in spans:
        entry = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
        entry["calls"] += 1
        entry["s"] += s.duration
        entry["self_s"] += s.duration - s.child_s
        entry["count"] += s.count
    return out


def layer_metrics(summary: dict, report=None, wall_s: float = 0.0, jobs: int = 1) -> dict:
    """Per-layer metrics of one traced round. ``report`` and ``jobs`` are
    the bench workloads' ``run_suite`` report and job count."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0}

    def get(name):
        return summary.get(name, empty)

    lexer = get("lexer")
    m = {
        "lexer.s": lexer["s"],
        "lexer.tokens": lexer["count"],
        "lexer.tokens_per_s": lexer["count"] / lexer["s"] if lexer["s"] else 0.0,
        "parser.self_s": get("parser")["self_s"],
        "parser.statements": get("parser")["count"],
        "validator.s": get("validator")["s"],
        "validator.statements": get("validator")["count"],
        "interpreter.run_s": get("interpreter.run")["s"],
    }
    for op in OPS:
        entry = get(f"interpreter.{op}")
        m[f"interpreter.{op}.s"] = entry["s"]
        m[f"interpreter.{op}.calls"] = entry["calls"]
        m[f"interpreter.{op}.rows"] = entry["count"]
    table = get("values.table")
    m["values.tables_built"] = table["calls"]
    m["values.cells_checked"] = table["count"]
    m["values.table_s"] = table["s"]
    m["builtins.calls"] = get("builtins")["calls"]
    m["builtins.s"] = get("builtins")["s"]
    for codec in CODECS:
        m[f"io_adapters.{codec}_s"] = get(f"io.{codec}")["s"]
        m[f"io_adapters.{codec}_bytes"] = get(f"io.{codec}")["count"]
    evaluate = get("bench.harness.evaluate")["s"]
    m["bench.harness.evaluate_s"] = evaluate
    m["bench.harness.compare_s"] = get("bench.harness.compare")["s"]
    m["bench.harness.dispatch_s"] = wall_s - evaluate / jobs if report is not None else 0.0
    failures = dict.fromkeys(PHASES, 0)
    if report is not None:
        for task in report.tasks:
            for sample in task.samples:
                phase = failure_phase(sample.detail)
                if phase:
                    failures[phase] += 1
    for phase in PHASES:
        m[f"bench.harness.failures.{phase}"] = failures[phase]
    return m


def failure_phase(detail) -> str | None:
    """Phase a sample failed in, from its report detail."""
    if not detail:
        return None
    if detail.startswith(("parse:", "validate:")):
        return detail.split(":", 1)[0]
    return "compare" if detail.endswith("output mismatch") else "run"
