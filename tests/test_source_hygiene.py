"""Static checks on the package source.

Runtime checks must raise documented errors, so `assert` (stripped by
`python -O`) is banned from `src/lpatrace`.  The package has no runtime
dependencies, so it imports only itself and the standard library, and it
imports at the top of each module, never inside a function.  No function
calls itself: recursion depth would grow with the input, and a
`RecursionError` would break `lpa`'s exit-code contract.  Every
top-level function and class must be used somewhere in `src` or `tests`
besides its own definition and its re-export from `lpatrace/__init__.py`;
otherwise it is dead code.  Importing the `lpa` front end loads neither
`dataclasses` (with `inspect`) nor `pathlib`, which would add to the
start-up time of every `lpa` process.  `from lpatrace import *` binds
every public name of the package and none of its submodules.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import lpatrace

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lpatrace"
TESTS = ROOT / "tests"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package_modules():
    return sorted(PACKAGE.glob("*.py"))


def _used_names(tree: ast.AST, skip=()) -> Counter:
    """Names and attributes referenced in `tree`, outside the nodes in `skip`."""
    found = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_no_assert_statements_in_package():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in _package_modules()
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == [], f"use explicit raises instead of assert: {offenders}"


def test_package_imports_only_the_standard_library():
    outside = []
    for path in _package_modules():
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno}: {name}" for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == [], f"imports outside the standard library: {outside}"


def test_no_imports_inside_functions():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in _package_modules()
        for func in ast.walk(_parse(path))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert offenders == [], f"move these imports to the top of the module: {offenders}"


def test_no_recursive_functions():
    offenders = []
    for path in _package_modules():
        for func in ast.walk(_parse(path)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                if (isinstance(callee, ast.Name) and callee.id == func.name) or (
                    isinstance(callee, ast.Attribute)
                    and callee.attr == func.name
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == "self"
                ):
                    offenders.append(f"{path.name}:{node.lineno}: {func.name}")
    assert offenders == [], f"walk with an explicit stack instead: {offenders}"


def test_every_top_level_definition_is_used():
    init = PACKAGE / "__init__.py"
    definitions = {}  # (module, name) -> def/class node
    uses = Counter()
    for path in _package_modules():
        tree = _parse(path)
        own = [
            node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
        for node in own:
            definitions[(path.name, node.name)] = node
        # __init__ re-exports do not count as uses
        if path != init:
            uses.update(_used_names(tree, skip=set(own)))
            for node in own:
                inner = _used_names(node)
                inner[node.name] = 0  # a self-reference is not a use
                uses.update(inner)
    for path in sorted(TESTS.glob("*.py")):
        if path.name != Path(__file__).name:
            uses.update(_used_names(_parse(path)))
    unused = sorted(
        f"{module}:{name}" for (module, name) in definitions if not uses[name]
    )
    assert unused == [], f"top-level definitions nothing uses: {unused}"


def test_star_import_binds_every_public_name_and_no_module():
    public = {
        name: getattr(lpatrace, name) for name in dir(lpatrace) if not name.startswith("_")
    }
    modules = sorted(n for n, v in public.items() if isinstance(v, types.ModuleType))
    assert "graphs" in modules and not set(modules) & set(lpatrace.__all__)
    assert sorted(lpatrace.__all__) == sorted(public.keys() - set(modules))


def test_only_the_sparse_core_and_scalars_define_addition():
    # every sparse sum goes through `scalars.SparseTerms`
    adders = sorted(
        node.name
        for path in _package_modules()
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "__add__"
            for item in node.body
        )
    )
    assert adders == ["FieldElem", "SparseTerms"]


def test_only_graphs_names_the_memo_cap():
    # every per-context memo stores through `graphs._remember`
    naming = sorted(
        path.name for path in _package_modules() if _used_names(_parse(path))["_MEMO_CAP"]
    )
    assert naming == ["graphs.py"]


def test_traces_imports_nothing_from_semigroups():
    # the group-ring traces and `FreeVector` live outside `traces`
    imported = {
        name
        for node in ast.walk(_parse(PACKAGE / "traces.py"))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in (getattr(node, "module", None), *(alias.name for alias in node.names))
    }
    assert "scalars" in imported and not {"semigroups", "lpatrace.semigroups"} & imported


def test_cli_import_loads_no_dataclasses_inspect_or_pathlib():
    # -S: without `site`, whose own imports could hide the package's
    check = (
        "import sys, lpatrace.cli; "
        "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", check],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"
