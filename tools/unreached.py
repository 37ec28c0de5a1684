"""Statements inside src/ functions that no in-process Tier-1 test runs.

    python3 tools/unreached.py
    python3 tools/unreached.py tests/test_spectral.py -k read

Runs pytest in this process under sys.settrace (and threading.settrace),
records every line that runs in src/svshrink, and prints each statement
inside a function there that never ran, as `path:line: source`, in file
and line order.  With no arguments pytest collects what pyproject.toml's
testpaths name, which is Tier-1; any arguments go to pytest in their
place.  Tests that run the package in a subprocess (the CLI runs, the
fresh-interpreter import checks, the demos, perfbench's runs) are not
traced, so a statement that only they reach is printed too.  Tracing
slows every call, so a wall-clock check of the suite (criterion 10, the
timing report's repeat-run medians) can fail in this run; what it ran is
still recorded.

A simple statement has run when a line event named any of its lines.  A
compound statement (if, for, while, with, try, a nested def) has run when
one named its header or the first line of its first body statement, since
Python 3.11 may give a header such as `try:` no event of its own.  A
function's docstring compiles to no code and is not a statement here.
Module and class bodies run at import and are left out.

Exit status: 1 when a statement is printed, 0 when none is.  Standard
library and pytest only.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "svshrink"


def statements(path: Path) -> list[tuple[int, range]]:
    """(line, lines whose event shows it ran) of each statement inside a
    function of the module at path."""
    found = []

    def visit(body: list) -> None:
        for node in body:
            children = [getattr(node, field) for field in ("body", "orelse", "finalbody") if getattr(node, field, None)]
            children += [handler.body for handler in getattr(node, "handlers", [])]
            if not children or isinstance(node, ast.ClassDef):
                found.append((node.lineno, range(node.lineno, node.end_lineno + 1)))
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            found.append((node.lineno, range(first, node.body[0].lineno + 1)))
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in children:
                    visit(child)

    for func in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = func.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            visit(body)
    return found


def traced_lines(args: list[str]) -> dict[str, set[int]]:
    """The lines that ran in src/svshrink, per real path, while pytest ran args."""
    prefix = str(SRC) + os.sep
    inside: dict[str, str | None] = {}
    ran: dict[str, set[int]] = {}

    def local(frame, event, _):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, _event, _arg):
        name = frame.f_code.co_filename
        if name not in inside:
            real = os.path.realpath(name)
            inside[name] = real if real.startswith(prefix) else None
            ran[name] = set()
        return local if inside[name] else None

    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines: dict[str, set[int]] = {}
    for name, real in inside.items():
        if real:
            lines.setdefault(real, set()).update(ran[name])
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    ran = traced_lines(args)
    missed = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        hit = ran.get(str(path), set())
        missed += [
            f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}"
            for line, lines in sorted(statements(path))
            if hit.isdisjoint(lines)
        ]
    print(f"\n{len(missed)} statement(s) inside src/ functions never ran in process"
          " (subprocess tests are not traced)" + "".join(f"\n{line}" for line in missed))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
