"""The library's import footprint, and the names it takes or assigns but never reads."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_library_loads_no_third_party_module_but_numpy():
    # A fresh interpreter: this test process has scipy loaded by the oracles.
    # numpy is the one runtime dependency, and the import is part of every
    # command's start-up; what the interpreter loaded before does not count.
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import acrkit, acrkit.cli, acrkit.simulator\n"
        "top = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(json.dumps(sorted(top - set(sys.stdlib_module_names) - {'acrkit', 'numpy'})))\n"
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


def _unread_locals(path: Path) -> list:
    """Names that a function at ``path`` assigns and never reads, in its
    body or in a function nested in it; ``_`` is the discard name."""
    found = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, ast.FunctionDef):
            continue
        names = [n for stmt in func.body for n in ast.walk(stmt) if isinstance(n, ast.Name)]
        read = {n.id for n in names if not isinstance(n.ctx, ast.Store)}
        stored = {n.id: n.lineno for n in reversed(names) if isinstance(n.ctx, ast.Store)}
        found += [
            f"{func.name}({name}) line {line}"
            for name, line in stored.items()
            if name not in read and name != "_"
        ]
    return found


def test_no_library_function_assigns_a_name_it_never_reads():
    unread = {
        path.name: names
        for path in sorted((SRC / "acrkit").glob("*.py"))
        if (names := _unread_locals(path))
    }
    assert unread == {}


# Defaults that serve callers outside the library: the CLI calls the two
# loops through a variable, and the console script calls ``main()``.
ENTRY_POINTS = {("run_acr", "cfg"), ("run_bisection_baseline", "cfg"), ("main", "argv")}


def _is_method(func: ast.FunctionDef, parents: dict) -> bool:
    """A function defined in a class body that is not a static method, so
    that a call through an instance or the class name passes its first
    parameter implicitly."""
    return isinstance(parents.get(func), ast.ClassDef) and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list
    )


def _defaulted_parameters(trees: list) -> list:
    """(function name, parameter, call position or None, where) of every
    parameter with a default; the call position counts the positional
    arguments a caller writes, so a method's first parameter is not one.
    A class's ``__init__`` goes by the class's name, by which it is called."""
    found = []
    for path, tree in trees:
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            name = func.name
            if name == "__init__" and isinstance(parents.get(func), ast.ClassDef):
                name = parents[func].name
            args = func.args
            positional = args.posonlyargs + args.args
            shift = 1 if _is_method(func, parents) else 0
            where = f"{path.name}:{func.lineno}"
            first = len(positional) - len(args.defaults)
            found += [
                (name, a.arg, i - shift, where)
                for i, a in enumerate(positional)
                if i >= first
            ]
            found += [
                (name, a.arg, None, where)
                for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            ]
    return found


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in cls.decorator_list
    )


def _field_defaults(trees: list) -> list:
    """(class name, field, call position, where) of every dataclass field
    with a default; the call position counts the fields before it."""
    found = []
    for path, tree in trees:
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            fields = [stmt for stmt in cls.body if isinstance(stmt, ast.AnnAssign)]
            found += [
                (cls.name, stmt.target.id, i, f"{path.name}:{stmt.lineno}")
                for i, stmt in enumerate(fields)
                if stmt.value is not None
            ]
    return found


def _calls(trees: list) -> dict:
    """Callee name -> [(positional count, keyword names, starred)] for
    every call in ``trees``, where a starred call may pass any parameter;
    a class is called by its name."""
    calls = {}
    for _, tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            )
            calls.setdefault(name, []).append(
                (len(call.args), {k.arg for k in call.keywords}, starred)
            )
    return calls


# Field defaults that every library construction sets, each with the
# caller outside the library that relies on it.
KEPT_FIELD_DEFAULTS = {
    ("Observation", "truth"): "the hardware seam: an executor on a real rig has no ground truth",
    ("CorrespondenceSet", "track_id"): "pixel pairs from a script or a matcher without tracks,"
    " numbered from 0",
}


def _always_set(calls: list, field: str, position: int) -> bool:
    """Whether every one of ``calls``, and there is one, surely sets the
    field: a starred call may leave it to its default."""
    return bool(calls) and all(
        not starred and (field in keywords or count > position)
        for count, keywords, starred in calls
    )


def test_no_library_default_goes_unset():
    # A parameter default that no library call overrides is a constant in
    # disguise; a field default that every library construction overrides
    # is one that nothing in the library uses.
    trees = [(p, ast.parse(p.read_text())) for p in sorted((SRC / "acrkit").glob("*.py"))]
    calls = _calls(trees)
    unset = [
        f"{name}({param}) {where}"
        for name, param, position, where in _defaulted_parameters(trees)
        if (name, param) not in ENTRY_POINTS
        and not any(
            starred or param in keywords or (position is not None and count > position)
            for count, keywords, starred in calls.get(name, [])
        )
    ]
    overridden = [
        f"{cls}.{field} {where}"
        for cls, field, position, where in _field_defaults(trees)
        if (cls, field) not in KEPT_FIELD_DEFAULTS
        and _always_set(calls.get(cls, []), field, position)
    ]
    assert (unset, overridden) == ([], [])


# Public names that no library code calls or reads, each with its reason.
NO_LIBRARY_CALLER = {
    "final": "AcrTrace.final, the record a caller of either loop reads first",
    "about_x": "Rotation.about_x, an axis rotation for scripts and tests",
    "about_y": "Rotation.about_y, an axis rotation for scripts and tests",
    "about_z": "Rotation.about_z, an axis rotation for scripts and tests",
    "save": "PlaneSegmentMap.save and CorrespondenceSet.save, the writers of the files"
    " that their load methods and the CLI read",
    "MURAL_IMAGE_SIZE": "the mural rig's image size, with which tests render the mural",
    "MURAL_INTRINSICS": "the mural rig's intrinsics, with which tests render the mural",
}


def _identifiers(node: ast.AST) -> list:
    """The names that ``node`` and its children read: variables,
    attributes, and string constants, by which ``getattr`` and the tracer
    find a function.  Imports do not count: a re-export calls nothing."""
    found = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.append(n.id)
        elif isinstance(n, ast.Attribute):
            found.append(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.append(n.value)
    return found


def _definitions(tree: ast.Module) -> list:
    """(name, node) of every function and class in ``tree`` and of every
    name that a module-level statement assigns, a constant."""
    found = [
        (node.name, node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(n.id, node) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return found


# Definitions that only the benchmark harness under perfbench/ names, each
# with its reason.  A harness is not a library caller: each such name is
# listed here, and an entry that library code names, or the harness no
# longer does, is stale.
BENCHMARK_ONLY = {
    "PlaneGraph": "the class of perfbench's from_mask patch target, which no library code builds",
    "from_mask": "PlaneGraph.from_mask, which perfbench's tracer patches and counts",
    "true_residual": "SimulatedExecutor.true_residual, perfbench's converged-residual check",
}


def _named(root: Path) -> tuple:
    """The parsed modules under ``root``, and how often they name each identifier."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(root.rglob("*.py"))}
    return trees, Counter(name for tree in trees.values() for name in _identifiers(tree))


def test_every_library_definition_has_a_library_caller():
    # A helper or a constant needs a library reader; tests are not one.
    trees, named = _named(SRC)
    _, benchmark = _named(SRC.parent / "perfbench")
    uncalled = [
        (name, f"{path.name}:{node.lineno} {name}")
        for path, tree in trees.items()
        for name, node in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in NO_LIBRARY_CALLER
        and named[name] == _identifiers(node).count(name)
    ]
    assert [where for name, where in uncalled if not benchmark[name]] == []
    assert sorted({name for name, _ in uncalled if benchmark[name]}) == sorted(BENCHMARK_ONLY)


def test_the_cli_parses_json_only_in_load_json():
    # _load_json refuses non-finite numbers, so every JSON input must pass
    # through it: no other line of cli.py may read JSON text.
    tree = ast.parse((SRC / "acrkit" / "cli.py").read_text())
    [boundary] = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_load_json"
    ]
    inside = {id(node) for node in ast.walk(boundary)}
    readers = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "json"
        and node.attr not in ("dumps", "dump")
    ]
    assert [node.attr for node in readers if id(node) in inside] == ["loads"]
    assert [f"{n.attr} (line {n.lineno})" for n in readers if id(n) not in inside] == []
    assert not any(
        isinstance(node, ast.ImportFrom) and node.module == "json" for node in ast.walk(tree)
    )


def _catches_acr_errors(handler: ast.ExceptHandler) -> bool:
    """Whether ``handler`` catches an ``AcrError``: it names that class, or
    ``Exception``, ``BaseException``, or nothing at all."""
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(getattr(t, "id", None) in ("AcrError", "Exception", "BaseException") for t in types)


def _reads_a_file(call: ast.Call) -> bool:
    """Whether ``call`` reads a file: ``read_text``, ``read_bytes``, a
    ``load`` method, or ``open`` or ``Path.open`` in a read mode (the
    default one included)."""
    function = isinstance(call.func, ast.Name)
    name = call.func.id if function else getattr(call.func, "attr", None)
    if name in ("read_text", "read_bytes"):
        return True
    if name == "load":
        return not function
    if name != "open":
        return False
    given = call.args[1:2] if function else call.args[:1]  # a method's path is its receiver
    mode = next((k.value for k in call.keywords if k.arg == "mode"), given[0] if given else None)
    if mode is None:
        return True
    return not isinstance(mode, ast.Constant) or any(c in mode.value for c in "r+")


def _writes_a_file(call: ast.Call) -> bool:
    """Whether ``call`` writes a file: ``write_text``, ``write_bytes``, a
    ``save`` method of any name, or ``open`` or ``Path.open`` in a mode that
    writes."""
    function = isinstance(call.func, ast.Name)
    name = call.func.id if function else getattr(call.func, "attr", None)
    if name in ("write_text", "write_bytes") or (name or "").startswith("save"):
        return True
    if name != "open":
        return False
    given = call.args[1:2] if function else call.args[:1]
    mode = next((k.value for k in call.keywords if k.arg == "mode"), given[0] if given else None)
    return mode is not None and (
        not isinstance(mode, ast.Constant) or any(c in mode.value for c in "wax+")
    )


def test_the_cli_has_one_boundary():
    # main alone turns an AcrError into an exit code and a JSON line; the
    # one other handler is estimate-pose's advisory planar-degeneracy
    # screen.  _input alone reads an input file, and _write alone writes an
    # output file.
    tree = ast.parse((SRC / "acrkit" / "cli.py").read_text())
    handlers, fails, reads, writes = [], [], [], []
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, ast.FunctionDef) else f"line {stmt.lineno}"
        for node in ast.walk(stmt):
            if isinstance(node, ast.Try):
                called = {getattr(n.func, "id", getattr(n.func, "attr", None))
                          for s in node.body for n in ast.walk(s) if isinstance(n, ast.Call)}
                handlers += [(owner, called) for h in node.handlers if _catches_acr_errors(h)]
            elif isinstance(node, ast.Call):
                if getattr(node.func, "id", None) == "_fail":
                    fails.append(owner)
                if _reads_a_file(node):
                    reads.append(owner)
                if _writes_a_file(node):
                    writes.append(owner)
    assert sorted(owner for owner, _ in handlers) == ["main", "main", "run_estimate_pose"]
    assert all("estimate_homography_ransac" in called for owner, called in handlers if owner != "main")
    assert fails == ["main", "main"]
    assert reads == ["_input", "_input"]
    assert writes == ["_write"]
