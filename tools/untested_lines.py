"""List the statements of ``src/mdiw`` that the test suite never executes.

The suite runs in this process under ``sys.settrace``, which records every
line executed in a ``src/mdiw`` frame.  A statement counts as executed when
one of its own lines ran: the lines it spans, less those of the statements
nested in its body.  Docstrings, ``def``, ``class`` and imports are left
out, and so is a statement none of whose lines compiles to code.

    python tools/untested_lines.py              # the whole suite
    python tools/untested_lines.py tests/test_cli.py -k scan

Arguments go to pytest (default: ``tests``).  Each never-run statement is
printed as ``path:line: source``, then their count.  Exit status: pytest's,
so nonzero when the suite fails and the listing is incomplete.  The traced
suite runs slower than the plain one; it is not part of the suite, which
only checks :func:`statements` (``tests/test_untested_lines.py``).
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mdiw"

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def _code_lines(code) -> set[int]:
    """Every line that ``code`` or a code object nested in it has instructions for."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(source: str, filename: str = "<source>") -> dict[int, frozenset[int]]:
    """Each counted statement of ``source``, keyed by its first line, with its own lines.

    A statement's own lines are those it spans less the spans of the statements in
    its bodies; only lines with compiled instructions are kept.
    """
    tree = ast.parse(source, filename)
    compiled = _code_lines(compile(tree, filename, "exec"))
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED) or _is_docstring(node):
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                own -= set(range(child.lineno, child.end_lineno + 1))
        own &= compiled
        if own:
            out[node.lineno] = frozenset(own)
    return out


def _trace(hits: set):
    """A ``sys.settrace`` function recording (filename, line) for frames of the package."""
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return global_


class _Rearm:
    """A pytest plugin that sets the tracer again after each test.

    CPython unsets a trace function that raises, and a call to it at the
    recursion limit raises: a test that recurses that deep (a fuzzed config
    nested past the limit) would leave every later test untraced.
    """

    def __init__(self, tracer):
        self.tracer = tracer

    def pytest_runtest_teardown(self, item):
        if sys.gettrace() is not self.tracer:
            sys.settrace(self.tracer)


def main(argv=None) -> int:
    import pytest

    args = list(argv if argv is not None else sys.argv[1:]) or [str(ROOT / "tests")]
    sys.path.insert(0, str(ROOT / "src"))
    hits: set = set()
    tracer = _trace(hits)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), *args], plugins=[_Rearm(tracer)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = {line for name, line in hits if name == str(path)}
        missed += [f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}"
                   for first, own in sorted(statements(source, str(path)).items()) if not own & ran]
    print("\n".join(missed + [f"{len(missed)} statements never executed"]))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
