"""End-to-end acceptance suite.

Every criterion runs at its full budget and prints one pass/fail line; run
with ``pytest tests/test_acceptance.py -v -s`` to watch the lines appear.
"""

import pytest

from mdiw import verify

CRITERIA = list(verify.BUDGETS.items())

IDS = [f"{i + 1:02d}_{check.__name__.removeprefix('check_')}" for i, (check, _) in enumerate(CRITERIA)]


@pytest.mark.parametrize("check,budget", CRITERIA, ids=IDS)
def test_criterion(check, budget):
    verdict = check(verify.DEFAULT_SEED)
    status = "PASS" if verdict.passed else "FAIL"
    detail = ", ".join(f"{k}={v}" for k, v in verdict.details.items())
    print(f"{status} {verdict.criterion} [{verdict.seconds:.2f}s / budget {budget:.0f}s] {detail}")
    assert verdict.seconds < budget, f"{verdict.criterion} exceeded its runtime budget"
    assert verdict.passed, f"{verdict.criterion} failed: {verdict.details}"


def test_verify_command_all_green(tmp_path, capsys):
    """The CLI verify entry point reports every criterion as passing."""
    import json

    from mdiw.cli import main

    out = tmp_path / "verdicts.json"
    assert main(["verify", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == verify.DEFAULT_SEED
    names = [v["criterion"] for v in doc["verdicts"]]
    assert names == [check.__name__.removeprefix("check_") for check, _ in CRITERIA]
    assert all(v["passed"] for v in doc["verdicts"])
