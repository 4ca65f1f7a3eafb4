"""List the statement lines of `src/lpatrace` that the test suite never runs.

Run from anywhere, with pytest importable:

    python tools/uncovered.py [extra pytest arguments]

It runs `pytest.main` on `tests/` in this process with a line hook
(`sys.settrace` and `threading.settrace`) on the frames of files under
`src/lpatrace`, then prints, for each module, the statement lines that never
ran, with their text.  Docstrings, `def` and `class` headers and imports are
left out.  Code run only in a child process (`subprocess` tests) is not
seen.  The report is printed whatever the tests' outcome: tracing slows the
suite several times over, so its wall-clock bounds may fail.  Each module's
text is read before the run; if any module differs after it, its line
numbers would not match what ran, so the tool names the changed files,
prints no lines and exits 1.  This is a survey tool, not a test and not a
CI gate; it uses only the standard library and pytest.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "lpatrace")

_SKIPPED = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef,
            ast.ClassDef, ast.Global, ast.Nonlocal, ast.Try)


def statement_spans(source: str):
    """{first line: lines whose line event counts as running it}, for each
    statement but docstrings, `def` and `class` headers, imports and `try`
    headers (which run no code of their own).  A compound statement's span
    is its header, up to its first inner statement."""
    spans = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        inner = [child.lineno for child in ast.iter_child_nodes(node)
                 if isinstance(child, ast.stmt)]
        last = min(inner) - 1 if inner else node.end_lineno
        spans[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return spans


def trace_tests(pytest_args):
    """Run pytest with the line hook; ({file: lines run}, pytest's status)."""
    hits, local_of = {}, {}

    def local_for(filename):
        tracer = local_of.get(filename, False)
        if tracer is False:
            tracer = None
            if os.path.abspath(filename).startswith(PACKAGE + os.sep):
                lines = hits.setdefault(os.path.abspath(filename), set())

                def tracer(frame, event, arg):
                    if event == "line":
                        lines.add(frame.f_lineno)
                    return tracer
            local_of[filename] = tracer
        return tracer

    def hook(frame, event, arg):  # called on each new frame
        return local_for(frame.f_code.co_filename)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main([os.path.join(ROOT, "tests"), "-q",
                              "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits, status


def read_sources() -> dict:
    """{path: text} of each module of the package."""
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as f:
                sources[path] = f.read()
    return sources


def report(hits, sources) -> list[str]:
    """One block per module with lines never run: its path, then each line
    number and text."""
    out = []
    for path, source in sources.items():
        ran = hits.get(path, set())
        missed = sorted(first for first, span in statement_spans(source).items()
                        if ran.isdisjoint(span))
        if missed:
            text = source.splitlines()
            out.append(os.path.relpath(path, ROOT))
            out += [f"  {n:5d}  {text[n - 1].strip()}" for n in missed]
    return out


def main(argv=None) -> int:
    sources = read_sources()
    hits, status = trace_tests(sys.argv[1:] if argv is None else argv)
    after = read_sources()
    changed = sorted(os.path.relpath(path, ROOT) for path in sources.keys() | after.keys()
                     if sources.get(path) != after.get(path))
    if changed:
        print(f"\npytest exit status {int(status)}; modules changed during the run, "
              "so no line numbers are printed:")
        print("\n".join(f"  {path}" for path in changed))
        return 1
    lines = report(hits, sources)
    print(f"\npytest exit status {int(status)}; statement lines never run:")
    print("\n".join(lines) if lines else "  none")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
