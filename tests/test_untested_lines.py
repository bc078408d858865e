"""The statement finder of ``tools/untested_lines.py`` on a small source."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("untested_lines", ROOT / "tools" / "untested_lines.py")
untested = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(untested)

SOURCE = '''"""Module docstring."""
import os
from math import pi


def f(x):
    """Function docstring."""
    if x:
        return (x,
                pi)
    try:
        y = 1
    except ValueError:
        y = 2
    return y


class C:
    """Class docstring."""
    z = 1
'''


def test_statements_skip_docstrings_definitions_and_imports():
    found = untested.statements(SOURCE)
    # if, return, try, y = 1, y = 2, return y, z = 1
    assert sorted(found) == [8, 9, 11, 12, 14, 15, 20]
    # a statement owns the lines it spans less its body's: the if its test, the return both of its lines
    assert found[8] == {8} and found[9] <= {9, 10} and 13 in found[11]
