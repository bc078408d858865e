"""End-to-end acceptance suite.

Every criterion runs at its full budget and prints one pass/fail line; run
with ``pytest tests/test_acceptance.py -v -s`` to watch the lines appear.
"""

import operator

import numpy as np
import pytest

from mdiw import game, states, verify, witness

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


def _offset_singlet_beta():
    """W_singlet - 1e-4 * 1 solved over tetrahedron inputs: a product strategy reaches I = -1e-4."""
    w = witness.singlet_witness()
    shifted = witness.Witness(w.matrix - 1e-4 * np.eye(4), w.dims)
    return witness.decompose(shifted, tuple(map(states.tetrahedron_ensemble, "AB")))


def _untransposed_trace_inputs(element, taus, trace_inputs=game.trace_inputs):
    """trace_inputs with each input state entering untransposed, tr_in[E (tau^T (x) 1)]."""
    return trace_inputs(element, taus.swapaxes(-1, -2))


# criterion: (module, attribute replaced by the defect, the defect, detail, side of its gate it must reach)
NEGATIVE_CONTROLS = {
    "werner_closed_form": (verify, "tetrahedron_beta", _offset_singlet_beta, "max_abs_err", operator.gt),
    "separable_bound": (verify, "tetrahedron_beta", _offset_singlet_beta, "min_I_tetrahedron", operator.lt),
    "oracle_equivalence": (game, "trace_inputs", _untransposed_trace_inputs, "max_abs_diff", operator.gt),
}


@pytest.mark.parametrize("name", list(NEGATIVE_CONTROLS))
def test_negative_control_crosses_gate(monkeypatch, name):
    module, attribute, defect, detail, crosses = NEGATIVE_CONTROLS[name]
    monkeypatch.setattr(module, attribute, defect)
    verdict = getattr(verify, f"check_{name}")(verify.DEFAULT_SEED)
    assert not verdict.passed
    assert crosses(verdict.details[detail], verdict.details["tolerance"]), verdict.details
