"""End-to-end acceptance suite.

Every criterion runs at its full budget and prints one pass/fail line; run
with ``pytest tests/test_acceptance.py -v -s`` to watch the lines appear.
"""

import functools
import importlib
import json
import math
import operator

import numpy as np
import pytest

from mdiw import cli, game, states, verify, witness
from mdiw.attack import BOUND_TOL
from oracles import mapped_separable_samples, partial_transpose

# ``mdiw.attack`` is also the name of the package's attack function.
attack_module = importlib.import_module("mdiw.attack")

CRITERIA = list(verify.BUDGETS.items())

IDS = [f"{i + 1:02d}_{check.__name__.removeprefix('check_')}" for i, (check, _) in enumerate(CRITERIA)]


@functools.cache
def _verdict(check):
    """The check's verdict at the default seed, run once per test session."""
    return check(verify.DEFAULT_SEED)


@pytest.mark.parametrize("check,budget", CRITERIA, ids=IDS)
def test_criterion(check, budget):
    verdict = _verdict(check)
    status = "PASS" if verdict.passed else "FAIL"
    detail = ", ".join(f"{k}={v}" for k, v in verdict.details.items())
    print(f"{status} {verdict.criterion} [{verdict.seconds:.2f}s / budget {budget:.0f}s] {detail}")
    assert verdict.seconds < budget, f"{verdict.criterion} exceeded its runtime budget"
    assert verdict.passed, f"{verdict.criterion} failed: {verdict.details}"


def test_verify_command_all_green(tmp_path, monkeypatch):
    """The CLI verify entry point reports every criterion as passing, on the verdicts test_criterion gates."""

    def cached_run_all(seed):
        assert seed == verify.DEFAULT_SEED
        return [_verdict(check) for check, _ in CRITERIA]

    monkeypatch.setattr(cli, "run_all", cached_run_all)
    out = tmp_path / "verdicts.json"
    assert cli.main(["verify", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == verify.DEFAULT_SEED
    names = [v["criterion"] for v in doc["verdicts"]]
    assert names == [check.__name__.removeprefix("check_") for check, _ in CRITERIA]
    assert all(v["passed"] for v in doc["verdicts"])


# the one-sample route's minimum over all 10,000 samples, per seed
LOSS_MINIMA = {verify.DEFAULT_SEED: 0.000373121667403028, 1: 0.0004514635449526573,
               2: 0.0004820009941501693, 8: 0.00035615756883761087}


@pytest.mark.parametrize("seed", list(LOSS_MINIMA))
def test_loss_invariance_batch_matches_one_sample_route(monkeypatch, seed):
    # the batch values every sample bit for bit as the public route does, one-term samples included
    values, mixture_values = [], attack_module._mixture_values

    def recording(*args):
        out = mixture_values(*args)
        values.extend(out)
        return out

    monkeypatch.setattr(verify, "_mixture_values", recording)
    verdict = verify.check_loss_invariance(seed)
    assert len(values) == verdict.details["samples"] == 10_000
    assert verdict.details["min_I_with_pre_measurement_maps"] == LOSS_MINIMA[seed] == min(values)
    one_by_one = mapped_separable_samples(witness.tetrahedron_beta(), seed, 400)
    assert values[:400] == [want for _, want in one_by_one]


def _offset_singlet_beta():
    """W_singlet - 1e-4 * 1 solved over tetrahedron inputs: a product strategy reaches I = -1e-4."""
    return verify.offset_singlet_decomposition(1e-4)


def _offset_ghz_beta():
    """W_GHZ - 1e-4 * 1 solved over three tetrahedron inputs: not certified, floor -8e-4."""
    w = witness.ghz_witness()
    shifted = witness.Witness(w.matrix - 1e-4 * np.eye(8), w.dims, w.kind)
    return witness.decompose(shifted, tuple(map(states.tetrahedron_ensemble, "ABC")))


def _untransposed_trace_inputs(element, taus, trace_inputs=game.trace_inputs):
    """trace_inputs with each input state entering untransposed, tr_in[E (tau^T (x) 1)]."""
    return trace_inputs(element, taus.swapaxes(-1, -2))


def _conjugated_state_table(rho, ensembles, table=game.fast_entangled_table):
    """fast_entangled_table scoring the complex conjugate of rho, which is its transpose."""
    return table(states.DensityMatrix(rho.matrix.conj(), rho.dims), ensembles)


def _conjugated_contraction(rho, dims, stacks, contract=game._contract_grid):
    """_contract_grid with rho entering conjugated, which is its transpose: the honest table scores rho^T."""
    return contract(rho.conj(), dims, stacks)


def _all_click(x):
    """Every success element the identity: every party always clicks."""
    return np.broadcast_to(np.eye(x.shape[-1], dtype=complex), x.shape).copy()


def _overstated_floor(dec, kind):
    """The floor with each cut's largest eigenvalue in place of min(0, its lowest)."""
    r, dims = witness.reconstruct(dec), tuple(e.dim for e in dec.ensembles)
    tops = [np.linalg.eigvalsh(partial_transpose(r, dims, p))[-1] for p in range(len(dims))]
    return (max(tops) if kind == "separable" else min(tops)) * math.prod(dims)


def _shifted_plans(beta, *rest, plans=attack_module._plans):
    """The search's contractions, which value its starts and sweeps, with every coefficient lowered by 1e-6."""
    return plans(beta - 1e-6, *rest)


SHIFTED_SEARCH = ((attack_module, "_plans", _shifted_plans),)


def _at(key):
    return lambda details: details[key]


def _floor_gate(suffix):
    """The second gate of a bound check: the minimum may lie BOUND_TOL below the floor."""
    return lambda details: details[f"floor{suffix}"] - BOUND_TOL


# name: (criterion, the (module, attribute, defect) patches, and each gate the defect must cross
# as (detail, side of the gate it must reach, the gate's value from the details))
NEGATIVE_CONTROLS = {
    "werner_closed_form": ("werner_closed_form", ((verify, "tetrahedron_beta", _offset_singlet_beta),),
                           (("max_abs_err", operator.gt, _at("tolerance")),)),
    "witness_trace_identity": ("witness_trace_identity",
                               ((verify, "fast_entangled_table", _conjugated_state_table),),
                               (("max_quantum_value_err", operator.gt, _at("quantum_value_tolerance")),)),
    # W_eps is not certified (floor -4e-4): it fails the first gate alone
    "separable_bound": ("separable_bound", ((verify, "tetrahedron_beta", _offset_singlet_beta),),
                        (("min_I_tetrahedron", operator.lt, _at("tolerance")),)),
    "separable_bound_overstated_floor": (
        "separable_bound", ((attack_module, "certified_lower_bound", _overstated_floor),),
        (("min_I_tetrahedron", operator.lt, _floor_gate("_tetrahedron")),
         ("min_I_pauli6", operator.lt, _floor_gate("_pauli6")))),
    "separable_bound_shifted_search": (
        "separable_bound", SHIFTED_SEARCH,
        (("min_I_tetrahedron", operator.lt, _at("tolerance")),
         ("min_I_tetrahedron", operator.lt, _floor_gate("_tetrahedron")),
         ("min_I_pauli6", operator.lt, _at("tolerance")), ("min_I_pauli6", operator.lt, _floor_gate("_pauli6")))),
    "ghz_threshold": ("ghz_threshold", ((verify, "ghz_beta", _offset_ghz_beta),),
                      (("abs_err", operator.gt, _at("tolerance")),)),
    # W_GHZ - eps is not certified (floor -8e-4) either: it fails the first gate alone
    "biseparable_bound": ("biseparable_bound", ((verify, "ghz_beta", _offset_ghz_beta),),
                          (("min_I", operator.lt, _at("tolerance")),)),
    "biseparable_bound_overstated_floor": (
        "biseparable_bound", ((attack_module, "certified_lower_bound", _overstated_floor),),
        (("min_I", operator.lt, _floor_gate("")),)),
    "optimizer_power": ("optimizer_power", ((attack_module, "_negative_projectors", _all_click),),
                        (("offset_attack_minimum", operator.gt, _at("offset_required_at_most")),)),
    "oracle_equivalence": ("oracle_equivalence", ((game, "trace_inputs", _untransposed_trace_inputs),),
                           (("max_abs_diff", operator.gt, _at("tolerance")),)),
    # the honest table's own contraction spoiled: the full table shares none of it, so the check sees it
    "oracle_equivalence_conjugated_contraction": (
        "oracle_equivalence", ((game, "_contract_grid", _conjugated_contraction),),
        (("max_abs_diff", operator.gt, _at("tolerance")),)),
}


@pytest.mark.parametrize("name", list(NEGATIVE_CONTROLS))
def test_negative_control_crosses_gate(monkeypatch, name):
    criterion, patches, gates = NEGATIVE_CONTROLS[name]
    for module, attribute, defect in patches:
        monkeypatch.setattr(module, attribute, defect)
    verdict = getattr(verify, f"check_{criterion}")(verify.DEFAULT_SEED)
    assert not verdict.passed
    for detail, crosses, gate in gates:
        assert crosses(verdict.details[detail], gate(verdict.details)), (detail, verdict.details)


def test_offset_witness_is_uncertified_and_keeps_the_floor_gate(monkeypatch):
    monkeypatch.setattr(verify, "tetrahedron_beta", _offset_singlet_beta)
    details = verify.check_separable_bound(verify.DEFAULT_SEED).details
    assert details["certificate_tetrahedron"] == "uncertified"
    assert details["floor_tetrahedron"] == pytest.approx(-4e-4)
    assert details["min_I_tetrahedron"] >= details["floor_tetrahedron"] - BOUND_TOL


def test_bounded_games_read_certified():
    separable = _verdict(verify.check_separable_bound).details
    biseparable = _verdict(verify.check_biseparable_bound).details
    assert separable["certificate_tetrahedron"] == separable["certificate_pauli6"] == "certified"
    assert biseparable["certificate"] == "certified"
    # each restart stops at its first sweep, on its floor
    assert separable["evaluations"] == 2 * (200 + 200)
    assert biseparable["evaluations"] == 2 * 100
