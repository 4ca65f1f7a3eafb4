"""Static checks on the package source.

Runtime checks must raise documented errors, so `assert` (stripped by
`python -O`) is banned from `src/lpatrace`.  The package has no runtime
dependencies, so it imports only itself and the standard library, and it
imports at the top of each module, never inside a function.  Every
top-level function and class must be used somewhere in `src` or `tests`
besides its own definition and its re-export from `lpatrace/__init__.py`;
otherwise it is dead code.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

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
