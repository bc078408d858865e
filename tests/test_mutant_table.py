"""Each row of ``tools/replay_mutants.py`` still applies to the code and names existing tests."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("replay_mutants", ROOT / "tools" / "replay_mutants.py")
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)


@pytest.mark.parametrize("name", list(replay.MUTANTS))
def test_row_applies_once_and_names_existing_tests(name):
    path, old, new, tests = replay.MUTANTS[name]
    assert (ROOT / "src" / "mdiw" / path).read_text().count(old) == 1
    assert old != new and tests
    for test in tests:
        file, *scopes = test.split("[")[0].split("::")  # a parametrized test by its function
        source = (ROOT / file).read_text()
        assert all(f"class {s}" in source or f"def {s}(" in source for s in scopes), test
