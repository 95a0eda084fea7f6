"""The runtime imports nothing but itself and the standard library, and
leaves process-global state alone: callers, and any threads they run,
share the garbage collector, the signal handlers, the recursion limit
and the csv module's field size limit."""

import ast
import sys
from pathlib import Path

import pytest

import anka

SOURCE_ROOT = Path(anka.__file__).parent


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_is_anka_or_the_standard_library():
    modules = sorted(SOURCE_ROOT.rglob("*.py"))
    assert SOURCE_ROOT / "bench" / "suite.py" in modules
    foreign = [
        f"{path.relative_to(SOURCE_ROOT)}:{line}: {root}"
        for path in modules
        for line, root in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))
        if root != "anka" and root not in sys.stdlib_module_names
    ]
    assert foreign == []


# Modules whose every use changes process-global state, and the functions
# of other modules that do.
GLOBAL_STATE_MODULES = {"gc", "signal"}
GLOBAL_STATE_FUNCTIONS = {("sys", "setrecursionlimit"), ("csv", "field_size_limit")}


def _global_state_uses(tree: ast.AST):
    for line, root in _imported_roots(tree):
        if root in GLOBAL_STATE_MODULES:
            yield line, f"import {root}"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                if (node.module, alias.name) in GLOBAL_STATE_FUNCTIONS:
                    yield node.lineno, f"{node.module}.{alias.name}"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) in GLOBAL_STATE_FUNCTIONS
        ):
            yield node.lineno, f"{node.value.id}.{node.attr}"


def test_no_module_touches_process_global_state():
    found = [
        f"{path.relative_to(SOURCE_ROOT)}:{line}: {use}"
        for path in sorted(SOURCE_ROOT.rglob("*.py"))
        for line, use in _global_state_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        "import gc",
        "import signal as s",
        "from gc import disable",
        "import sys\nsys.setrecursionlimit(10_000)",
        "from sys import setrecursionlimit",
        "import csv\ncsv.field_size_limit(1 << 30)",
        "from csv import field_size_limit",
    ],
)
def test_the_global_state_check_sees_each_form(source):
    assert list(_global_state_uses(ast.parse(source)))
