"""Entanglement witnesses evaluated through games with quantum inputs.

The package decomposes witness operators over product bases of input
states, simulates the resulting games for entangled and unentangled
strategies, and stress-tests the nonnegativity bound that makes the game
value trustworthy without trusting the measurement devices.
"""

from .linalg import (
    TOL_HERM,
    TOL_PSD,
    TOL_RECON,
    frobenius_distance,
    hermitian_eigenvalues,
    kron,
    partial_trace,
    transpose,
)
from .states import (
    DensityMatrix,
    InputEnsemble,
    bloch_state,
    bloch_vector,
    max_entangled,
    named_ensemble,
    noisy_ghz,
    pauli6_ensemble,
    tetrahedron_ensemble,
    werner_state,
)
from .witness import (
    Decomposition,
    Witness,
    decompose,
    decomposition_to_dict,
    ghz_beta,
    ghz_witness,
    named_witness,
    pauli6_beta,
    reconstruct,
    singlet_witness,
    tetrahedron_beta,
    witness_value,
)
from .game import (
    BiseparableStrategy,
    BiseparableTerm,
    CorrelationTable,
    EntangledStrategy,
    POVM,
    SeparableStrategy,
    apply_pre_measurement_map,
    apply_uniform_loss,
    bell_outcome_povm,
    bell_strategy,
    fast_entangled_table,
    mdi_value,
    simulate_entangled,
    simulate_separable,
    table_to_csv,
    violation_scan,
)
from .attack import (
    AttackConfig,
    AttackReport,
    BOUND_TOL,
    attack,
    biseparable_attack,
    certified_lower_bound,
    expected_game_value,
    random_biseparable_strategy,
    random_kraus_set,
    random_separable_strategy,
    report_to_dict,
    zero_crossing,
)
from .verify import Verdict, run_all

__version__ = "0.3.1"
