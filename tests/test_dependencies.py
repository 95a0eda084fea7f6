"""The runtime imports nothing but itself and the standard library,
and no name it never uses; binds no private name it never reads; loads
the HTTP stack only when a request is made or fails, has no class
that ``dataclass`` made, and leaves process-global state alone: callers,
and any threads they run, share the garbage collector, the signal
handlers, the recursion limit and the csv module's field size limit.

Nothing reads dataclass metadata any more, so ``dataclasses`` loads only
when a frozen node is assigned to, for the exception that refuses it."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import textwrap
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



def _unused_imports(tree: ast.Module):
    """(line, name) of each name the module imports and never reads. A
    name in its ``__all__`` counts as read, and so does one in a string
    annotation."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation, or the text of an ``__all__`` entry
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    unused = [
        f"{path.relative_to(SOURCE_ROOT)}:{line}: {name}"
        for path in sorted(SOURCE_ROOT.rglob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("from decimal import Decimal\nfrom typing import Optional, Union\nx: Optional[int]",
         [(1, "Decimal"), (2, "Union")]),
        ("import os.path\nimport json as j\n", [(1, "os"), (2, "j")]),
        ("from anka.errors import IncomparableError, TableError\nraise TableError()",
         [(1, "IncomparableError")]),
        ("from __future__ import annotations\nimport os\ndef f() -> 'os.PathLike': ...", []),
        ("from anka.values import Table\n__all__ = ['Table']", []),
    ],
)
def test_the_unused_import_check_sees_each_form(source, unused):
    assert _unused_imports(ast.parse(source)) == unused


def _unread_private_names(tree: ast.Module):
    """(line, name) of each private name the module binds at its top level
    and never reads. A word in a string counts as a read, as generated
    code reads such a name (``interpreter._kernel``) by the text it
    compiles; a docstring or other bare string statement does not."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append((node.lineno, node.name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                bound += [(node.lineno, name.id) for name in ast.walk(target)
                          if isinstance(name, ast.Name)]
    bare = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in bare:
            read.update(re.findall(r"\w+", node.value))
    return [(line, name) for line, name in bound
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_every_private_module_name_is_read_in_its_module():
    unread = [
        f"{path.relative_to(SOURCE_ROOT)}:{line}: {name}"
        for path in sorted(SOURCE_ROOT.rglob("*.py"))
        for line, name in _unread_private_names(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unread == []


@pytest.mark.parametrize(
    "source, unread",
    [
        ("_A = 1\n_B: int = 2\n_C, (_D, e) = 3, (4, 5)\nprint(_B, _D)", [(1, "_A"), (3, "_C")]),
        ("def _f(): pass\nclass _K: pass\nimport os as _os\n_K()", [(1, "_f"), (3, "_os")]),
        ('"""_A is documented."""\n_A = 1\n"_A"', [(2, "_A")]),
        ("_kernel = 1\nCODE = 'interpreter._kernel(x)'", []),
        ("__all__ = []\n_A = 1\ndef f():\n    return _A", []),
    ],
)
def test_the_unread_private_name_check_sees_each_form(source, unread):
    assert _unread_private_names(ast.parse(source)) == unread


# Modules that only an unsandboxed FETCH or POST needs, that only an
# assignment to a frozen node needs, or that nothing in the runtime
# needs; importing anka must not load them.
DEFERRED_MODULES = (
    "http.client", "urllib.request", "urllib.error", "email", "ssl", "importlib.resources",
    "dataclasses", "inspect",
)


def _newly_loaded(script: str) -> list[str]:
    """The deferred modules that running ``script`` in a fresh interpreter
    loads. The loaded modules are compared before and after the script,
    because ``site`` may load some of them at start-up."""
    code = "\n".join([
        "import json, sys",
        "before = set(sys.modules)",
        textwrap.dedent(script),
        "print(json.dumps(sorted(set(sys.modules) - before)))",
    ])
    env = dict(os.environ, PYTHONPATH=str(SOURCE_ROOT.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    loaded = json.loads(done.stdout)
    return [name for name in DEFERRED_MODULES if name in loaded]


def test_importing_anka_loads_no_http_stack():
    assert _newly_loaded("import anka, anka.bench") == []


FETCH_AND_POST = (
    "PIPELINE p:\n STEP s:\n"
    '  FETCH "http://example.test/rows" TABLE[a: INT] INTO t\n'
    '  POST t TO "http://example.test/sink"\n'
    " OUTPUT t"
)


def test_a_fetch_and_post_that_succeed_load_no_http_stack():
    script = f"""
        from anka import parse, run_pipeline
        from anka.io_adapters import HttpOps, IoAdapter

        class Succeeding(HttpOps):
            def get(self, url, timeout):
                return 200, b'[{{"a": 1}}]'

            def post(self, url, body, timeout):
                return 201, b""

        adapter = IoAdapter(sandbox=False, http_ops=Succeeding())
        assert run_pipeline(parse({FETCH_AND_POST!r}), {{}}, adapter).rows == ((1,),)
    """
    assert _newly_loaded(script) == []


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


def _anka_modules():
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        parts = path.relative_to(SOURCE_ROOT.parent).with_suffix("").parts
        yield importlib.import_module(".".join(parts[:-1] if parts[-1] == "__init__" else parts))


def test_no_class_has_generated_dataclass_methods():
    # ``dataclass`` compiles an ``__init__``, ``__eq__`` or frozen
    # ``__setattr__``/``__delattr__`` for each class by ``exec`` at import,
    # which made up the largest share of ``import anka``; the AST nodes take
    # theirs from ``Node`` and one shared ``exec`` instead, and no class
    # goes through ``dataclass`` at all
    classes = [
        cls for module in _anka_modules() for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
    ]
    assert len(classes) >= 38
    assert [cls.__qualname__ for cls in classes if hasattr(cls, "__dataclass_params__")] == []
