"""The library's import footprint, and the names it takes but never reads."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_library_loads_no_scipy():
    # A fresh interpreter: this test process has scipy loaded by the oracles.
    code = (
        "import json, sys\n"
        "import acrkit, acrkit.cli, acrkit.simulator\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert json.loads(out.stdout) == []


def _unused_imports(path: Path) -> list:
    """Names that the module at ``path`` imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_library_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, so it is the one exception.
    unused = {
        path.name: names
        for path in sorted((SRC / "acrkit").glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path))
    }
    assert unused == {}


# The chooser protocol passes (candidates, inliers) to every chooser; these
# two decide from the candidates alone.
CHOOSER_PROTOCOL = {("_pure_translation_chooser", "inliers"), ("_select_consistent", "inliers")}


def _is_stub(body: list) -> bool:
    """A body of only a docstring and ``...``, as in a ``Protocol``."""
    return all(
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) for stmt in body
    ) and any(stmt.value.value is Ellipsis for stmt in body)


def _unread_parameters(path: Path) -> list:
    """Parameters of the functions and lambdas at ``path`` that their body
    never reads, outside stubs and the chooser protocol."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        if _is_stub(body):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        found += [
            f"{name}({param}) line {node.lineno}"
            for param in params
            if param not in read and (name, param) not in CHOOSER_PROTOCOL
        ]
    return found


def test_no_library_function_takes_a_parameter_it_never_reads():
    unread = {
        path.name: names
        for path in sorted((SRC / "acrkit").glob("*.py"))
        if (names := _unread_parameters(path))
    }
    assert unread == {}
