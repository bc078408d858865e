"""Every input guard of the library raises its exception type with its exact message.

Each row builds valid objects up to the one input the guard rejects, so the
guard is reached through the public constructors and functions.  The CLI's
config guards are rows of ``MALFORMED`` and ``BAD_FILES`` in ``test_cli.py``.
"""

import types

import numpy as np
import pytest

from mdiw import serialize
from mdiw.attack import AttackConfig, attack, random_biseparable_strategy, random_separable_strategy
from mdiw.game import (BiseparableStrategy, BiseparableTerm, EntangledStrategy, SeparableStrategy, bell_outcome_povm,
                       bell_strategy, fast_entangled_table, mdi_value, simulate_entangled, simulate_separable)
from mdiw.linalg import as_matrix, check_dims, partial_trace
from mdiw.states import (DensityMatrix, InputEnsemble, _unchecked, bloch_state, ket, noisy_ghz,
                         random_density_matrix, tetrahedron_ensemble, werner_state)
from mdiw.witness import Witness, decompose, named_witness, singlet_witness, tetrahedron_beta, witness_value


def _separable():
    return random_separable_strategy((2, 2), 2, 2, np.random.default_rng(5))


def _biseparable_measurements():
    return random_biseparable_strategy((2, 2, 2), 2, 2, np.random.default_rng(6)).measurements


def _pair():
    return random_density_matrix((2, 2), np.random.default_rng(7))


def _qubit():
    return bloch_state([0.0, 0.0, 1.0])


def _qutrit():
    return DensityMatrix(np.eye(3) / 3, (3,))


def _skew_state_value():
    """tr[1 rho] for an unchecked rho whose anti-Hermitian part, 2e-10 i on the diagonal, exceeds TOL_HERM = 1e-10.

    The residue 8 x 2e-10 exceeds TOL_HERM sum |W_ij| = 8e-10, which no checked state reaches.
    """
    rho = _unchecked(DensityMatrix, matrix=np.ones((8, 8)) / 8 + 2e-10j * np.eye(8), dims=(2, 2, 2))
    return witness_value(Witness(np.eye(8), (2, 2, 2)), rho)


# name: (a call that reaches the guard, the exception type, its exact message)
GUARDS = {
    # game
    "entangled_measurement_count": (
        lambda: EntangledStrategy(werner_state(0.5), (bell_outcome_povm(2),)),
        ValueError, "one measurement per shared-state factor required"),
    "negative_weight": (
        lambda: SeparableStrategy((1.5, -0.5), _separable().share_states, _separable().measurements),
        ValueError, "mixture weights must be nonnegative"),
    "separable_term_count": (
        lambda: SeparableStrategy((1.0,), _separable().share_states, _separable().measurements),
        ValueError, "one share-state tuple per mixture term required"),
    "separable_term_party_count": (
        lambda: SeparableStrategy((1.0,), ((_qubit(),),), _separable().measurements),
        ValueError, "each mixture term needs one share state per party"),
    "separable_share_dim": (
        lambda: SeparableStrategy((1.0,), ((_qutrit(), _qubit()),), _separable().measurements),
        ValueError, "party 0: share state dim 3 vs POVM (2, 2)"),
    "biseparable_unknown_bipartition": (
        lambda: BiseparableTerm("AB|D", 1.0, _pair(), _qubit()),
        ValueError, "unknown bipartition 'AB|D'"),
    "biseparable_group_factors": (
        lambda: BiseparableTerm("AB|C", 1.0, DensityMatrix(np.eye(4) / 4, (4,)), _qubit()),
        ValueError, "group state must have two factors"),
    "biseparable_singleton_factors": (
        lambda: BiseparableTerm("AB|C", 1.0, _pair(), _pair()),
        ValueError, "singleton state must have one factor"),
    "biseparable_not_tripartite": (
        lambda: BiseparableStrategy((BiseparableTerm("AB|C", 1.0, _pair(), _qubit()),),
                                    _biseparable_measurements()[:2]),
        ValueError, "biseparable strategies are tripartite"),
    "biseparable_singleton_dim": (
        lambda: BiseparableStrategy((BiseparableTerm("AB|C", 1.0, _pair(), _qutrit()),), _biseparable_measurements()),
        ValueError, "singleton state dim inconsistent with its bipartition"),
    "unsupported_strategy_type": (
        lambda: simulate_separable(types.SimpleNamespace(measurements=_separable().measurements),
                                   tuple(map(tetrahedron_ensemble, "AB"))),
        TypeError, "unsupported strategy type SimpleNamespace"),
    "simulate_party_count": (
        lambda: simulate_entangled(bell_strategy(werner_state(0.5)), (tetrahedron_ensemble("A"),)),
        ValueError, "strategy has 2 parties, got 1 ensembles"),
    "mdi_value_party_count": (
        lambda: mdi_value(tetrahedron_beta(),
                          fast_entangled_table(noisy_ghz(0.5), tuple(map(tetrahedron_ensemble, "ABC")))),
        ValueError, "decomposition has 2 parties, table has 3"),
    # attack
    "one_party_attack": (
        lambda: attack(decompose(Witness(np.diag([1.0, -0.5]), (2,)), (tetrahedron_ensemble("A"),)), None,
                       AttackConfig(restarts=1)),
        ValueError, "separable attacks need at least two parties"),
    # linalg
    "as_matrix_ndim": (lambda: as_matrix([1.0, 2.0]), ValueError, "expected a matrix, got array of shape (2,)"),
    "dims_non_positive": (
        lambda: check_dims((0, 2), 0), ValueError, "subsystem dimensions must be positive, got (0, 2)"),
    "partial_trace_non_square": (
        lambda: partial_trace(np.ones((2, 3)), (2,), [0]), ValueError, "partial trace needs a square matrix"),
    "partial_trace_keep_range": (
        lambda: partial_trace(np.eye(4), (2, 2), [2]), ValueError, "keep indices [2] out of range for 2 subsystems"),
    # states
    "label_count": (
        lambda: InputEnsemble("A", ("0", "1"), (_qubit(),)), ValueError, "one label per state required"),
    "empty_ensemble": (lambda: InputEnsemble("A", (), ()), ValueError, "ensemble must contain at least one state"),
    "bloch_shape": (lambda: bloch_state([1.0, 0.0]), ValueError, "Bloch vector must have three real components"),
    "ket_digit": (lambda: ket("02"), ValueError, "digit 2 out of range for local dimension 2"),
    # witness
    "witness_kind": (lambda: Witness(np.eye(4), (2, 2), kind="bound"), ValueError, "unknown witness kind 'bound'"),
    "imaginary_residue": (_skew_state_value, ValueError, "trace has imaginary residue 1.600e-09"),
    "ensemble_dim": (
        lambda: decompose(singlet_witness(), (tetrahedron_ensemble("A"), InputEnsemble("B", ("0",), (_qutrit(),)))),
        ValueError, "ensemble for party B has dim 3, witness needs 2"),
    "witness_name": (lambda: named_witness("bell"), ValueError, "unknown witness 'bell'; known: ['ghz', 'singlet']"),
    # serialize
    "cannot_serialize": (lambda: serialize.dumps({"x": object()}), TypeError, "cannot serialize object"),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_raises_its_message(name):
    call, kind, message = GUARDS[name]
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind and str(exc.value) == message
