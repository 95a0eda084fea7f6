"""Command-line entry point.

Subcommands: parse, check, run, bench.

Exit codes for ``run``: 0 success, 1 parse or validation failure,
2 input or configuration problem, 3 runtime error. ``parse`` and
``check`` use 0/1 plus 2 for unreadable files; ``bench`` uses 0 with 2
for a malformed suite or configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Union

from anka.ast_nodes import Pipeline, ast_to_dict
from anka.bench.harness import (
    DEFAULT_SAMPLE_TIMEOUT,
    CandidateSet,
    check_sample_timeout,
    run_suite,
)
from anka.bench.suite import SuiteError, load_suite
from anka.errors import AnkaError, ExecutionError, InputError, ParseError
from anka.formatter import format_schema
from anka.interpreter import run_pipeline
from anka.io_adapters import TABLE_CODECS, IoAdapter, decode_table, encode_table
from anka.parser import parse
from anka.validator import validate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:  # pragma: no cover - terminal plumbing
        return EXIT_CONFIG


def _build_arg_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="anka", description="Anka pipeline toolchain"
    )
    sub = root.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="parse a pipeline file")
    p_parse.add_argument("file")
    p_parse.add_argument("--ast", action="store_true", help="print the AST as JSON")
    p_parse.add_argument(
        "--json-diagnostics",
        action="store_true",
        help="print diagnostics as a JSON list",
    )
    p_parse.set_defaults(handler=cmd_parse)

    p_check = sub.add_parser("check", help="parse and validate a pipeline file")
    p_check.add_argument("file")
    p_check.add_argument("--json-diagnostics", action="store_true")
    p_check.set_defaults(handler=cmd_check)

    p_run = sub.add_parser("run", help="execute a pipeline")
    p_run.add_argument("file")
    p_run.add_argument(
        "--input",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="bind an input table to a .json or .csv file (repeatable)",
    )
    p_run.add_argument("--output", help="write the output table here (.json or .csv)")
    p_run.add_argument(
        "--sandbox",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="deny READ/WRITE/FETCH/POST inside the pipeline",
    )
    p_run.set_defaults(handler=cmd_run)

    p_bench = sub.add_parser("bench", help="evaluate candidate programs on a suite")
    p_bench.add_argument("suite", help="task suite JSON file")
    p_bench.add_argument("candidates", help="directory of <task_id>/<sample>.anka files")
    p_bench.add_argument("--report", help="write the JSON report here")
    p_bench.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="at least 1; recorded in the report's config, samples are "
        "scored serially in the calling thread",
    )
    p_bench.add_argument(
        "--order-insensitive",
        action="store_true",
        help="compare expected outputs as row multisets for every task",
    )
    p_bench.add_argument(
        "--sandbox",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="deny candidate I/O (default on)",
    )
    p_bench.add_argument(
        "--sample-timeout",
        type=float,
        default=DEFAULT_SAMPLE_TIMEOUT,
        metavar="SECONDS",
        help="wall-clock cap per candidate sample; finite and above 0",
    )
    p_bench.set_defaults(handler=cmd_bench)
    return root


def _parse_file(path: str, json_diagnostics: bool) -> Union[Pipeline, int]:
    """The pipeline in the file at ``path``, or the exit code once the
    reason there is none has been reported."""
    try:
        source = Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        print(f"error: cannot read {path!r}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return parse(source)
    except ParseError as err:
        if json_diagnostics:
            print(json.dumps([err.to_dict()], indent=2))
        else:
            print(f"error: {err.location}: {err.message}", file=sys.stderr)
        return EXIT_INVALID


def cmd_parse(args) -> int:
    pipeline = _parse_file(args.file, args.json_diagnostics)
    if isinstance(pipeline, int):
        return pipeline
    if args.ast:
        print(json.dumps(ast_to_dict(pipeline), indent=2))
    elif args.json_diagnostics:
        print(json.dumps([], indent=2))
    else:
        print(f"ok: {pipeline.name}")
    return EXIT_OK


def cmd_check(args) -> int:
    pipeline = _parse_file(args.file, args.json_diagnostics)
    if isinstance(pipeline, int):
        return pipeline
    result = validate(pipeline)
    if args.json_diagnostics:
        print(json.dumps([e.to_dict() for e in result.errors], indent=2))
    else:
        for error in result.errors:
            print(f"error: {error}", file=sys.stderr)
    if not result.ok:
        return EXIT_INVALID
    if not args.json_diagnostics:
        print(f"ok: OUTPUT {pipeline.output}: {format_schema(result.output_schema)}")
    return EXIT_OK


def _table_format(path: str) -> str:
    """The format of an ``--input`` or ``--output`` file, by its suffix
    in any case; JSON when the suffix names no format."""
    return next((name for name in TABLE_CODECS if path.lower().endswith(f".{name}")), "json")


def cmd_run(args) -> int:
    pipeline = _parse_file(args.file, False)
    if isinstance(pipeline, int):
        return pipeline
    result = validate(pipeline)
    if not result.ok:
        for error in result.errors:
            print(f"error: {error}", file=sys.stderr)
        return EXIT_INVALID

    bindings: dict[str, str] = {}
    for item in args.input:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            print(f"error: --input expects NAME=PATH, got {item!r}", file=sys.stderr)
            return EXIT_CONFIG
        if name in bindings:
            print(f"error: --input '{name}' is given more than once", file=sys.stderr)
            return EXIT_CONFIG
        bindings[name] = path

    declared = {decl.name: decl.schema for decl in pipeline.inputs}
    inputs = {}
    for name, schema in declared.items():
        if name not in bindings:
            print(f"error: no --input binding for '{name}'", file=sys.stderr)
            return EXIT_CONFIG
        try:
            path = bindings[name]
            inputs[name] = decode_table(Path(path).read_bytes(), _table_format(path), schema)
        except (OSError, AnkaError) as exc:
            print(f"error: input '{name}': {exc}", file=sys.stderr)
            return EXIT_CONFIG
    for name in bindings:
        if name not in declared:
            print(f"error: pipeline declares no input '{name}'", file=sys.stderr)
            return EXIT_CONFIG

    io = IoAdapter(sandbox=args.sandbox)
    fmt = _table_format(args.output) if args.output else "json"
    try:
        # an output cell the format cannot encode fails like the run
        data = encode_table(run_pipeline(pipeline, inputs, io), fmt)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ExecutionError as exc:
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    if args.output:
        try:
            Path(args.output).write_bytes(data)
        except OSError as exc:
            print(f"error: cannot write {args.output!r}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        # the same UTF-8 bytes as an --output file, whatever the locale
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        check_sample_timeout(args.sample_timeout)
    except ValueError:
        print("error: --sample-timeout must be finite and above 0", file=sys.stderr)
        return EXIT_CONFIG
    try:
        suite = load_suite(args.suite)
    except (OSError, SuiteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    candidates_dir = Path(args.candidates)
    if not candidates_dir.is_dir():
        print(f"error: candidate directory {args.candidates!r} not found", file=sys.stderr)
        return EXIT_CONFIG
    candidates = CandidateSet.from_directory(candidates_dir)
    report = run_suite(
        suite,
        candidates,
        jobs=args.jobs,
        order_insensitive=args.order_insensitive,
        sandbox=args.sandbox,
        sample_timeout=args.sample_timeout,
    )
    if args.report:
        try:
            Path(args.report).write_text(report.to_json(), encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.report!r}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    print(report.to_markdown(), end="")
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
