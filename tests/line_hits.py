"""Opt-in pytest plugin: list each statement line of ``src/macrohom`` that
no in-process test executes.

    PYTHONPATH=src:tests python3 -m pytest -p line_hits -m "not slow"

Lines run only in a subprocess (the CLI tests that spawn ``macrohom``)
count as not executed.  A line counts as a statement when the compiled
module has bytecode on it and an AST statement starts there; docstrings
and the ``if __name__ == "__main__":`` block are left out.  The recorder
is ``sys.settrace`` (and ``threading.settrace`` for worker threads), so
the suite runs slower under it; it needs nothing beyond the standard
library.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PACKAGE = os.path.join(_ROOT, "src", "macrohom")
_PREFIX = _PACKAGE + os.sep

# executed lines per code-object file name (absolute or not, as the import
# gave it), and whether that name lies in the package
_hits: dict[str, set[int]] = {}
_watched: dict[str, bool] = {}


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    watched = _watched.get(name)
    if watched is None:
        watched = _watched[name] = os.path.abspath(name).startswith(_PREFIX)
        if watched:
            _hits[name] = set()
    return _local if watched else None


def pytest_configure(config):
    # before collection imports the package, so module-level lines count
    sys.settrace(_global)
    threading.settrace(_global)


def _bytecode_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _bytecode_lines(const)
    return lines


def _is_docstring(node) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _missed(path: str, hit: set[int]) -> list[int]:
    """First lines of the statements in ``path`` that compile to bytecode
    and that no line event reached."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    code_lines = _bytecode_lines(compile(source, path, "exec"))
    missed = set()
    skipped = set()
    for node in ast.walk(ast.parse(source, path)):
        if not isinstance(node, ast.stmt) or _is_docstring(node):
            continue
        if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test):
            skipped.update(range(node.lineno + 1, node.end_lineno + 1))
        # a definition's line event fires on its first decorator or on the def
        span = {node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))}
        if span & code_lines and not span & hit:
            missed.add(min(span))
    return sorted(missed - skipped)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    rel = os.path.relpath(_PACKAGE)
    missed = []
    for name in sorted(os.listdir(_PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(_PACKAGE, name)
            hit = set()
            for code_name, lines in _hits.items():
                if os.path.abspath(code_name) == path:
                    hit |= lines
            missed += [f"{os.path.join(rel, name)}:{line}" for line in _missed(path, hit)]
    terminalreporter.section("statement lines no in-process test executed")
    for entry in missed:
        terminalreporter.write_line(entry)
    terminalreporter.write_line(f"{len(missed)} line(s)")
