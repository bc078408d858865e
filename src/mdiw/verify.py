"""Self-contained acceptance checks for the whole package.

Each check returns a :class:`Verdict` with the measured numbers, so the
same code backs both the ``mdiw verify`` command and the test suite.  All
randomness is derived deterministically from one master seed; running
twice with the same seed produces identical verdicts.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import (
    bloch_vector,
    pauli6_ensemble,
    projector,
    random_density_matrix,
    singlet_ket,
    tetrahedron_ensemble,
    werner_state,
)
from .witness import (
    Witness,
    decompose,
    ghz_beta,
    pauli6_beta,
    singlet_witness,
    tetrahedron_beta,
    witness_value,
)
from .game import (
    _checked_clicks,
    _mapped_clicks,
    apply_uniform_loss,
    bell_strategy,
    fast_entangled_table,
    mdi_value,
    simulate_entangled,
    violation_scan,
)
from .attack import (
    AttackConfig,
    BOUND_TOL,
    _block,
    _draw,
    _draw_kraus,
    _kraus_ops,
    _mixture_values,
    attack,
    biseparable_attack,
    expected_game_value,
    zero_crossing,
)

DEFAULT_SEED = 101


@dataclass(frozen=True)
class Verdict:
    criterion: str
    passed: bool
    details: dict
    seconds: float


def verdict_to_dict(v: Verdict) -> dict:
    """JSON form; wall time is excluded to keep repeated runs byte-identical."""
    return {"criterion": v.criterion, "passed": v.passed, "details": v.details}


# Each registered check and its runtime budget in seconds at full size, in run order.
BUDGETS = {}


def _criterion(budget: float):
    """Register a check ``(seed) -> (passed, details)`` in :data:`BUDGETS`.

    The registered check takes the seed (default :data:`DEFAULT_SEED`),
    times the run and names its :class:`Verdict` after the function.
    """

    def register(run):
        name = run.__name__.removeprefix("check_")

        @functools.wraps(run)
        def check(seed: int = DEFAULT_SEED) -> Verdict:
            t0 = time.perf_counter()
            passed, details = run(seed)
            return Verdict(name, bool(passed), details, time.perf_counter() - t0)

        BUDGETS[check] = budget
        return check

    return register


def _werner_grid():
    return [i * 0.05 for i in range(21)]


@_criterion(1.0)
def check_werner_closed_form(seed: int) -> tuple[bool, dict]:
    """Honest-strategy value on Werner states equals (1 - 3v)/16 pointwise."""
    dec = tetrahedron_beta()
    curve = violation_scan("werner", dec, _werner_grid())
    err = max(abs(i - expected_game_value("werner", v)) for v, i in curve)
    return err <= 1e-12, {"max_abs_err": err, "tolerance": 1e-12}


@_criterion(5.0)
def check_witness_trace_identity(seed: int) -> tuple[bool, dict]:
    """tr[W rho_v] = (1 - 3v)/4, and game value = tr[W rho]/4 for random rho.

    The game value is checked for the singlet witness's two closed-form
    tables and for random complex Hermitian operators solved over both
    ensembles: the singlet witness is real symmetric, so only a complex one
    tells rho from its transpose.
    """
    w = singlet_witness()
    trace_err = max(
        abs(witness_value(w, werner_state(v)) - (1.0 - 3.0 * v) / 4.0)
        for v in _werner_grid()
    )
    rng = np.random.default_rng((seed, 2))
    games = [(w, tetrahedron_beta()), (w, pauli6_beta())]
    operators = np.random.default_rng((seed, 2, 1))
    for ensembles in (tuple(map(tetrahedron_ensemble, "AB")), tuple(map(pauli6_ensemble, "AB"))):
        for _ in range(2):
            h = Witness(_random_hermitian(operators, 4), (2, 2))
            games.append((h, decompose(h, ensembles)))
    identity_err = 0.0
    for _ in range(50):
        rho = random_density_matrix((2, 2), rng)
        for h, dec in games:
            table = fast_entangled_table(rho, dec.ensembles)
            identity_err = max(identity_err, abs(mdi_value(dec, table) - witness_value(h, rho) / 4.0))
    passed = trace_err <= 1e-12 and identity_err <= 1e-10
    return passed, {
        "max_trace_err": trace_err,
        "trace_tolerance": 1e-12,
        "max_quantum_value_err": identity_err,
        "quantum_value_tolerance": 1e-10,
    }


@_criterion(1.0)
def check_closed_form_reconstructions(seed: int) -> tuple[bool, dict]:
    """Both tabulated singlet-witness expansions reconstruct the witness."""
    r1 = tetrahedron_beta().residual
    r2 = pauli6_beta().residual
    return max(r1, r2) < 1e-10, {
        "tetrahedron_residual": r1,
        "pauli6_residual": r2,
        "tolerance": 1e-10,
    }


@_criterion(10.0)
def check_ghz_threshold(seed: int) -> tuple[bool, dict]:
    """The noisy-GHZ violation curve changes sign at v = 3/7."""
    dec = ghz_beta()
    grid = [i / 14.0 for i in range(15)]
    curve = violation_scan("noisy_ghz", dec, grid)
    crossing = zero_crossing(curve)
    err = abs(crossing - 3.0 / 7.0)
    return err <= 1e-10, {
        "crossing": crossing,
        "abs_err": err,
        "tolerance": 1e-10,
        "coefficients_residual": dec.residual,
    }


def _bound_gates(rep, suffix: str) -> tuple[bool, dict]:
    """The two gates of one bounded search, and its details named with ``suffix``.

    The minimum must stay at or above ``-BOUND_TOL`` and at or above its
    certified floor less ``BOUND_TOL``.  ``certified_lower_bound`` clamps the
    floor with ``min(0, .)``, so the first gate implies the second: the floor
    gate fails on its own only when a floor above 0 is reported, the defect
    the ``*_overstated_floor`` negative controls inject.  A floor at or above
    ``-BOUND_TOL`` certifies the bound in closed form and reads "certified";
    a lower one reads "uncertified" and fails nothing on its own.
    """
    certified = rep.floor >= -BOUND_TOL
    passed = rep.min_value >= -BOUND_TOL and rep.min_value >= rep.floor - BOUND_TOL
    return passed, {
        f"min_I{suffix}": rep.min_value,
        f"floor{suffix}": rep.floor,
        f"certificate{suffix}": "certified" if certified else "uncertified",
    }


@_criterion(300.0)
def check_separable_bound(seed: int) -> tuple[bool, dict]:
    """See-saw attacks from random separable starts never push either singlet game below 0 or its floor."""
    jobs = (
        (tetrahedron_beta(), AttackConfig(restarts=200, iterations=500, mixture_size=8,
                                          share_dim=4, seed=seed)),
        (pauli6_beta(), AttackConfig(restarts=200, iterations=500, mixture_size=4,
                                     share_dim=2, seed=seed + 1)),
    )
    details = {}
    passed = True
    evals = 0
    for dec, cfg in jobs:
        rep = attack(dec, dec.ensembles, cfg)
        ok, game = _bound_gates(rep, f"_{dec.ensembles[0].name}")
        passed = passed and ok
        details.update(game)
        evals += rep.evaluations
    details["evaluations"] = evals
    details["tolerance"] = -BOUND_TOL
    return passed, details


@_criterion(600.0)
def check_biseparable_bound(seed: int) -> tuple[bool, dict]:
    """See-saw attacks from random biseparable starts never push the GHZ game below 0 or its floor."""
    dec = ghz_beta()
    cfg = AttackConfig(restarts=100, iterations=500, mixture_size=6, share_dim=2, seed=seed)
    rep = biseparable_attack(dec, dec.ensembles, cfg)
    passed, details = _bound_gates(rep, "")
    return passed, details | {"evaluations": rep.evaluations, "tolerance": -BOUND_TOL}


def _bloch_grid(n_theta: int, n_phi: int) -> np.ndarray:
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    return np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    ).reshape(-1, 3)


def negated_projector_decomposition():
    """The standard non-witness target for optimizer power checks."""
    ensembles = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
    op = Witness(-projector(singlet_ket()), (2, 2))
    return decompose(op, ensembles)


def offset_singlet_decomposition(eps: float):
    """W_singlet - eps * 1 solved over tetrahedron inputs: a product strategy reaches I = -eps.

    The product state |01> scores exactly -eps, while the all-click and
    no-click strategies score 1 - 4 eps and 0, so only a search that finds
    the violating product reaches it.
    """
    w = singlet_witness()
    shifted = Witness(w.matrix - eps * np.eye(4), w.dims)
    return decompose(shifted, tuple(map(tetrahedron_ensemble, "AB")))


# Rows of the product-strategy value table reduced at a time.
_GRID_BLOCK = 64


def product_strategy_grid_minimum(dec, n_theta: int = 61, n_phi: int = 120) -> float:
    """Brute-force minimum over pure product-projector strategies.

    Both parties respond with a fixed rank-1 projector; the grid sweeps
    each projector's Bloch vector.  This restricted class lower-bounds
    the depth a competent optimizer must reach on a non-witness.  The
    value table is reduced in blocks of rows, so memory stays at one
    block instead of the whole (grid x grid) matrix.
    """
    grid = _bloch_grid(n_theta, n_phi)
    vertices = np.stack([bloch_vector(s) for s in dec.ensembles[0].states])
    # tr[P_a tau_s] = (1 + a . n_s)/2
    resp_a = 0.5 * (1.0 + grid @ vertices.T)
    vertices_b = np.stack([bloch_vector(s) for s in dec.ensembles[1].states])
    resp_b = 0.5 * (1.0 + grid @ vertices_b.T)
    beta = np.asarray(dec.beta)
    return float(
        min(
            (resp_a[i : i + _GRID_BLOCK] @ beta @ resp_b.T).min()
            for i in range(0, len(grid), _GRID_BLOCK)
        )
    )


@_criterion(120.0)
def check_optimizer_power(seed: int) -> tuple[bool, dict]:
    """On a non-witness the attack must dig at least as deep as the grid oracle,
    and on a slightly offset witness it must find the violation -eps exactly."""
    dec = negated_projector_decomposition()
    oracle = product_strategy_grid_minimum(dec)
    cfg = AttackConfig(restarts=200, iterations=500, mixture_size=4, share_dim=2, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the non-witness flag is expected here
        rep = attack(dec, dec.ensembles, cfg)
    # The grid class (pure product projectors, no share) is a subset of
    # the searched class, so the attack may legitimately go deeper; the
    # sum of all coefficients (-1) bounds how deep anything can go.
    reached = rep.min_value <= 0.95 * oracle
    sane = rep.min_value >= -1.0 - BOUND_TOL
    strong = rep.min_value <= -0.2
    # Every party clicking reaches the non-witness's -1; on the offset
    # witness it scores 1 - 4 eps, so only a real search reaches -eps.  Its
    # floor, -4 eps, lies below that depth, so the floor stop never ends it.
    eps = 1e-4
    offset = offset_singlet_decomposition(eps)
    at_least, at_most = -eps - BOUND_TOL, -0.99 * eps
    offset_min = attack(offset, offset.ensembles, cfg).min_value
    return reached and sane and strong and at_least <= offset_min <= at_most, {
        "grid_minimum": oracle,
        "attack_minimum": rep.min_value,
        "required_at_most": 0.95 * oracle,
        "offset_attack_minimum": offset_min,
        "offset_required_at_least": at_least,
        "offset_required_at_most": at_most,
    }


@_criterion(30.0)
def check_oracle_equivalence(seed: int) -> tuple[bool, dict]:
    """Fast all-ones probabilities equal the full tensor contraction."""
    rng = np.random.default_rng((seed, 8))
    worst = 0.0
    for n_parties in (2, 3):
        ensembles = tuple(
            tetrahedron_ensemble(p) for p in ("A", "B", "C")[:n_parties]
        )
        for _ in range(20):
            rho = random_density_matrix((2,) * n_parties, rng)
            fast = fast_entangled_table(rho, ensembles)
            full = simulate_entangled(bell_strategy(rho), ensembles)
            worst = max(worst, float(np.abs(fast.p_all_ones - full.p_all_ones).max()))
    return worst <= 1e-12, {"max_abs_diff": worst, "tolerance": 1e-12}


@_criterion(120.0)
def check_loss_invariance(seed: int) -> tuple[bool, dict]:
    """Uniform losses scale the game value multiplicatively and keep its sign;
    pre-measurement operations cannot break the separable bound.

    The 10,000 Kraus-mapped samples are drawn one by one and valued as one
    block-form batch, padded with exact zeros to four terms and three Kraus
    operators: one check per stack, one sum K^dagger E K, one grid.  Each
    value is bit for bit the one its sample scores alone, one-term ones too.
    """
    dec = tetrahedron_beta()
    table = fast_entangled_table(werner_state(1.0), dec.ensembles)
    base = mdi_value(dec, table)
    scale_err = 0.0
    signs_ok = True
    for eta_a in (0.1, 0.5, 0.9):
        for eta_b in (0.1, 0.5, 0.9):
            lossy = mdi_value(dec, apply_uniform_loss(table, (eta_a, eta_b)))
            scale_err = max(scale_err, abs(lossy - eta_a * eta_b * base))
            signs_ok = signs_ok and (lossy < 0.0) == (base < 0.0)
    rng = np.random.default_rng((seed, 9))
    samples, draws, kraus, partitions = 10_000, [], [], (((0,), (1,)),)  # the all-singleton partition
    for _ in range(samples):
        k = int(rng.integers(1, 5))
        weights, _, kets, success = _draw(rng, partitions, (2, 2), 2, k)
        # a padded term has zero weight and a valid share
        draws.append((np.concatenate([weights, np.zeros(4 - k)]), np.zeros(4, int),
                      np.concatenate([kets, np.ones((4 - k, 8))]), success))
        kraus += [_draw_kraus(rng, 4, int(rng.integers(1, 4))) for _ in range(2)]
    weights, groups, elements = _block(draws, partitions, (2, 2), 2)
    kraus = kraus[::2] + kraus[1::2]  # party-major, as the success elements
    normals = np.zeros((len(kraus), 3, 2, 4, 4))  # zero operators pad each set to three
    for i, (g, _) in enumerate(kraus):
        normals[i, : len(g)] = g
    ks = _kraus_ops(normals, np.array([u for _, u in kraus]))
    mapped, _ = _checked_clicks(_mapped_clicks(np.concatenate(elements), ks), (2, 2))
    values = _mixture_values(dec.beta, [e.matrices for e in dec.ensembles], weights, groups, np.split(mapped, 2))
    min_i = float(values.min())
    passed = scale_err <= 1e-13 and signs_ok and min_i >= -BOUND_TOL
    return passed, {
        "max_scaling_err": scale_err,
        "signs_preserved": signs_ok,
        "min_I_with_pre_measurement_maps": min_i,
        "samples": samples,
    }


def _random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2.0


# Largest error each identity of check_linalg_invariants may show.
_LINALG_TOLERANCES = {
    "kron_associativity": 1e-12,
    "trace_multiplicativity": 1e-12,
    "partial_trace_factorization": 1e-12,
    "transpose_involution": 0.0,
    "transpose_spectrum": 1e-10,
    "eigenvalue_trace_sum": 1e-10,
}


@_criterion(10.0)
def check_linalg_invariants(seed: int) -> tuple[bool, dict]:
    """Tensor/trace/transpose/eigenvalue identities on random instances."""
    rng = np.random.default_rng((seed, 10))
    rounds = 200
    worst = dict.fromkeys(_LINALG_TOLERANCES, 0.0)

    def note(identity: str, err: float) -> None:
        worst[identity] = float(np.maximum(worst[identity], err))  # a NaN error sticks

    for _ in range(rounds):
        da, db, dc = rng.integers(2, 4, size=3)
        a = _random_hermitian(rng, da)
        b = _random_hermitian(rng, db)
        c = _random_hermitian(rng, dc)
        left = linalg.kron(linalg.kron(a, b), c)
        right = linalg.kron(a, linalg.kron(b, c))
        note("kron_associativity", float(np.abs(left - right).max()))
        note("trace_multiplicativity", float(abs(np.trace(linalg.kron(a, b)) - np.trace(a) * np.trace(b))))
    for _ in range(rounds):
        da, db = rng.integers(2, 5, size=2)
        a = _random_hermitian(rng, da)
        b = _random_hermitian(rng, db)
        pt = linalg.partial_trace(linalg.kron(a, b), (da, db), keep={0})
        note("partial_trace_factorization", float(np.abs(pt - np.trace(b) * a).max()))
    for _ in range(rounds):
        d = int(rng.integers(2, 9))
        m = _random_hermitian(rng, d)
        note("transpose_involution", float(np.abs(linalg.transpose(linalg.transpose(m)) - m).max()))
        ev_m = linalg.hermitian_eigenvalues(m)
        ev_t = linalg.hermitian_eigenvalues(linalg.transpose(m))
        note("transpose_spectrum", float(np.abs(ev_m - ev_t).max()))
    for _ in range(2 * rounds):
        d = int(rng.integers(2, 17))
        m = _random_hermitian(rng, d)
        eig_sum = float(linalg.hermitian_eigenvalues(m).sum())
        note("eigenvalue_trace_sum", abs(eig_sum - float(np.trace(m).real)))
    return all(worst[k] <= tol for k, tol in _LINALG_TOLERANCES.items()), worst


def run_all(seed: int = DEFAULT_SEED) -> list[Verdict]:
    """Run every acceptance check in order."""
    return [check(seed) for check in BUDGETS]
