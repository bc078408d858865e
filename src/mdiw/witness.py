"""Witness operators and their expansions over product bases of quantum inputs.

A witness W with tr[W rho] < 0 for some entangled rho and tr[W sigma] >= 0
for all unentangled sigma can be expanded as

    W = sum over labels  beta[s, t, ...] *
        transpose(tau_s) (x) transpose(omega_t) (x) ...

where tau_s, omega_t, ... are the states of per-party input ensembles.  The
coefficient tensor beta is exactly what the game functional in
:mod:`mdiw.game` contracts against measured correlations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    TOL_HERM,
    TOL_RECON,
    as_matrix,
    check_dims,
    frobenius_distance,
    hermiticity_defect,
)
from .states import (
    DensityMatrix,
    InputEnsemble,
    ghz_ket,
    projector,
    singlet_ket,
    tetrahedron_ensemble,
    pauli6_ensemble,
)

WITNESS_KINDS = ("bipartite-separability", "genuine-multipartite")


@dataclass(frozen=True)
class Witness:
    """Hermitian operator with entanglement-witness semantics.

    ``kind`` is metadata describing which notion of entanglement the operator
    is meant to detect; nothing beyond the party structure is enforced.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    kind: str = "bipartite-separability"

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError("witness must be square")
        dims = check_dims(self.dims, m.shape[0])
        defect = hermiticity_defect(m)
        if defect > TOL_HERM:
            raise ValueError(f"witness not Hermitian (defect {defect:.3e})")
        if self.kind not in WITNESS_KINDS:
            raise ValueError(f"unknown witness kind {self.kind!r}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)

    @property
    def n_parties(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class Decomposition:
    """Coefficient tensor over per-party input ensembles, plus its residual.

    ``beta[s, t, ...]`` multiplies the product of the transposed ensemble
    states with those indices.  ``residual`` is the Frobenius distance
    between the target operator and :func:`reconstruct` of this tensor;
    a decomposition is exact when it does not exceed ``TOL_RECON``.
    """

    beta: np.ndarray
    ensembles: tuple[InputEnsemble, ...]
    residual: float

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        ensembles = tuple(self.ensembles)
        expected = tuple(len(e) for e in ensembles)
        if beta.shape != expected:
            raise ValueError(f"beta shape {beta.shape} does not match ensemble sizes {expected}")
        beta = beta.copy()
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "ensembles", ensembles)
        object.__setattr__(self, "residual", float(self.residual))

    @property
    def exact(self) -> bool:
        return self.residual <= TOL_RECON

    @property
    def n_parties(self) -> int:
        return len(self.ensembles)


def singlet_witness() -> Witness:
    """W = 1/2 - |psi-><psi-|, detecting two-qubit states near the singlet."""
    m = 0.5 * np.eye(4, dtype=complex) - projector(singlet_ket())
    return Witness(m, (2, 2), kind="bipartite-separability")


def ghz_witness() -> Witness:
    """W = 1/2 - |GHZ><GHZ|, detecting genuine tripartite entanglement."""
    m = 0.5 * np.eye(8, dtype=complex) - projector(ghz_ket())
    return Witness(m, (2, 2, 2), kind="genuine-multipartite")


def witness_value(w: Witness, rho: DensityMatrix) -> float:
    """tr[W rho]; negative values certify the entanglement W detects."""
    if w.dims != rho.dims:
        raise ValueError(f"dimension mismatch: witness {w.dims} vs state {rho.dims}")
    val = complex(np.trace(w.matrix @ rho.matrix))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"trace has imaginary residue {val.imag:.3e}")
    return float(val.real)


def _hermitian_coordinates(m: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of Hermitian matrices, stacked on the last axes.

    Maps each d x d Hermitian matrix onto R^(d^2) so that the Euclidean
    norm equals the Frobenius norm; solving the expansion in these
    coordinates keeps the coefficients real by construction.
    """
    d = m.shape[-1]
    rows, cols = np.triu_indices(d, k=1)
    off = math.sqrt(2.0) * m[..., rows, cols]
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    return np.concatenate([diag.real, off.real, off.imag], axis=-1)


def _product_basis(ensembles: tuple[InputEnsemble, ...]) -> np.ndarray:
    """Transposed-state product operators stacked as (N, D, D), row-major over labels.

    Built one party at a time as an outer product, which is the Kronecker
    product of every pair of stacked factors at once.
    """
    ops = np.ones((1, 1, 1), dtype=complex)
    for e in ensembles:
        taus_t = np.stack([s.matrix.T for s in e.states])
        n, d = len(ops) * len(taus_t), ops.shape[1] * taus_t.shape[1]
        ops = (ops[:, None, :, None, :, None] * taus_t[None, :, None, :, None, :]).reshape(n, d, d)
    return ops


def reconstruct(dec: Decomposition) -> np.ndarray:
    """Sum beta[s, t, ...] * transpose(tau_s) (x) transpose(omega_t) (x) ..."""
    return np.tensordot(dec.beta.ravel(), _product_basis(dec.ensembles), axes=1)


def decompose(w: Witness, ensembles) -> Decomposition:
    """Expand a witness over products of transposed ensemble states.

    Solves the linear system in the real vector space of Hermitian
    operators by minimum-norm least squares, so among all coefficient
    tensors with minimal reconstruction error the one with the smallest
    Euclidean norm is returned.  If the ensembles span too small a space
    the recorded residual exceeds ``TOL_RECON`` and the decomposition is
    flagged inexact rather than rejected.
    """
    ensembles = tuple(ensembles)
    if len(ensembles) != w.n_parties:
        raise ValueError(f"witness has {w.n_parties} parties, got {len(ensembles)} ensembles")
    for e, d in zip(ensembles, w.dims):
        if e.dim != d:
            raise ValueError(f"ensemble for party {e.party} has dim {e.dim}, witness needs {d}")
    basis = _product_basis(ensembles)
    a = _hermitian_coordinates(basis).T
    target = _hermitian_coordinates(w.matrix)
    coeffs = np.linalg.lstsq(a, target, rcond=None)[0]
    # One step of iterative refinement: the correction also lies in the row
    # space of ``a``, so the solution stays the minimum-norm one.
    coeffs += np.linalg.lstsq(a, target - a @ coeffs, rcond=None)[0]
    beta = coeffs.reshape(tuple(len(e) for e in ensembles))
    residual = frobenius_distance(w.matrix, np.tensordot(coeffs, basis, axes=1))
    return Decomposition(beta, ensembles, residual)


def _finished(beta: np.ndarray, ensembles, target: np.ndarray) -> Decomposition:
    """Attach the measured reconstruction residual to a fixed coefficient table."""
    dec = Decomposition(beta, ensembles, 0.0)
    residual = frobenius_distance(target, reconstruct(dec))
    return Decomposition(beta, ensembles, residual)


def tetrahedron_beta() -> Decomposition:
    """Closed-form expansion of the singlet witness over tetrahedron inputs.

    beta[s, t] = 5/8 on the diagonal and -1/8 off it.
    """
    beta = np.full((4, 4), -1.0 / 8.0)
    np.fill_diagonal(beta, 5.0 / 8.0)
    ensembles = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
    return _finished(beta, ensembles, singlet_witness().matrix)


def pauli6_beta() -> Decomposition:
    """Closed-form expansion of the singlet witness over Pauli eigenstates.

    With s = (s1, s2) indexing sign and axis, beta is zero unless the axes
    agree, 1/3 when the signs also agree and -1/6 otherwise.
    """
    from .states import _PAULI6_INDEX  # label order shared with the ensemble

    beta = np.zeros((6, 6))
    for i, (s1, s2) in enumerate(_PAULI6_INDEX):
        for j, (t1, t2) in enumerate(_PAULI6_INDEX):
            if s2 == t2:
                beta[i, j] = (3.0 * (1 if s1 == t1 else 0) - 1.0) / 6.0
    ensembles = (pauli6_ensemble("A"), pauli6_ensemble("B"))
    return _finished(beta, ensembles, singlet_witness().matrix)


def ghz_coefficient(s: int, t: int, u: int) -> float:
    """Closed-form GHZ-witness coefficient for tetrahedron labels 0..3.

    Signs depend only on parities; the floor is toward negative infinity,
    so label 0 contributes an odd floor(-1/2) = -1.
    """
    g = [math.floor((k - 1) / 2) for k in (s, t, u)]
    pair_sign = -1.0 if (g[0] * g[1] + g[0] * g[2] + g[1] * g[2] + 1) % 2 else 1.0
    sum_sign = -1.0 if sum(g) % 2 else 1.0
    label_sign = -1.0 if (s + t + u) % 2 else 1.0
    return (3.0 / 32.0) * pair_sign * (sum_sign + label_sign * math.sqrt(3.0))


def ghz_beta(source: str = "auto") -> Decomposition:
    """Expansion of the GHZ witness over three tetrahedron ensembles.

    ``source`` selects how the coefficients are produced:

    * ``"formula"``: the closed-form table from :func:`ghz_coefficient`,
      whatever its measured residual;
    * ``"solve"``: minimum-norm least squares via :func:`decompose`;
    * ``"auto"``: the formula if it reconstructs the witness exactly,
      otherwise the solver result (keeping the formula reachable for
      comparison).
    """
    if source not in ("auto", "formula", "solve"):
        raise ValueError(f"unknown source {source!r}")
    ensembles = tuple(tetrahedron_ensemble(p) for p in ("A", "B", "C"))
    w = ghz_witness()
    if source == "solve":
        return decompose(w, ensembles)
    beta = np.empty((4, 4, 4))
    for s, t, u in itertools.product(range(4), repeat=3):
        beta[s, t, u] = ghz_coefficient(s, t, u)
    dec = _finished(beta, ensembles, w.matrix)
    if source == "formula" or dec.exact:
        return dec
    return decompose(w, ensembles)


WITNESS_BUILDERS = {
    "singlet": singlet_witness,
    "ghz": ghz_witness,
}


def named_witness(name: str) -> Witness:
    """Look up one of the built-in witnesses by name."""
    try:
        return WITNESS_BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown witness {name!r}; known: {sorted(WITNESS_BUILDERS)}") from None


def decomposition_to_dict(dec: Decomposition) -> dict:
    """JSON-ready form: ensemble names, nested coefficient arrays, residual."""
    return {
        "ensembles": [e.name for e in dec.ensembles],
        "beta": dec.beta.tolist(),
        "residual": dec.residual,
    }
