"""The runtime imports nothing but itself and the standard library."""

import ast
import sys
from pathlib import Path

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
