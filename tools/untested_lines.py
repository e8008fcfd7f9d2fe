#!/usr/bin/env python3
"""List the statements of ``src/pie`` that no tier-1 test executes.

    python3 tools/untested_lines.py [pytest arguments]

Runs the test suite in this process under a line tracer, set with both
``sys.settrace`` and ``threading.settrace`` so that threads the package
starts are traced too, and then prints one ``path:line: source`` line per
statement of ``src/pie`` that never ran, in file order.  Docstrings and
declarations that compile to no code (``global``, ``nonlocal``) are not
statements here.  Code that tests run only in a subprocess counts as
untested.  Hypothesis draws from a fixed seed, so two runs on the same tree
list the same lines.

A test whose function names ``tracemalloc`` runs with the tracer off, on
both ``sys`` and ``threading``, so the tracer's own allocations stay out of
the peak it measures; lines only such a test runs count as untested.
pytest's own output and its exit status go to stderr.  The tracer slows
the suite about threefold; a failing suite still lists its lines.
Exits 0 when every statement ran, 1 otherwise.
"""

from __future__ import annotations

import ast
import contextlib
import sys
import threading
from pathlib import Path

import pytest
from count_lines import docstring_lines

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pie"
DECLARATIONS = (ast.Global, ast.Nonlocal)


def statement_lines(tree: ast.AST) -> set:
    """First line of every statement in ``tree`` that is not a docstring or
    a declaration."""
    docstrings = docstring_lines(tree)
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, DECLARATIONS)
            and node.lineno not in docstrings}


class Untraced:
    """pytest plugin: runs each test whose function names ``tracemalloc``
    with ``trace`` removed from ``sys`` and ``threading``."""

    def __init__(self, trace):
        self.trace = trace

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        code = getattr(getattr(item, "function", None), "__code__", None)
        measures = code is not None and "tracemalloc" in code.co_names
        if measures:
            sys.settrace(None)
            threading.settrace(None)
        yield
        if measures:
            threading.settrace(self.trace)
            sys.settrace(self.trace)


def run_traced(pytest_args: list) -> tuple[int, dict]:
    """Run pytest under the tracer; return its exit status and the set of
    executed line numbers of each package file."""
    prefix = str(PACKAGE) + "/"
    executed: dict = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = executed.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                                  *pytest_args], plugins=[Untraced(trace)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), executed


def main(argv: list) -> int:
    status, executed = run_traced(argv[1:] or [str(ROOT / "tests")])
    print(f"pytest exit status: {status}", file=sys.stderr)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        ran = executed.get(str(path), set())
        for line in sorted(statement_lines(ast.parse(source)) - ran):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} statements never ran", file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
