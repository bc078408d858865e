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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import TOL_RECON, _trace_product, check_operators, frobenius_distance
from .states import (
    _PAULI6_INDEX,
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

    ``matrix`` is stored as the checked input's Hermitian part (m + m^dagger)/2,
    which is m itself when m is exactly Hermitian.  ``kind`` is metadata
    describing which notion of entanglement the operator is meant to detect;
    nothing beyond the party structure is enforced.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    kind: str = "bipartite-separability"

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        dims = check_operators(m[None], self.dims)
        if self.kind not in WITNESS_KINDS:
            raise ValueError(f"unknown witness kind {self.kind!r}")
        m = (m + m.conj().T) / 2
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

    @functools.cached_property
    def partial_transpose_minima(self) -> tuple[float, ...]:
        """Per party r, the lowest eigenvalue of :func:`reconstruct` transposed on party r alone.

        Computed on first use, in one stacked ``eigvalsh``, and kept: the
        decomposition is immutable.
        """
        dims = tuple(e.dim for e in self.ensembles)
        n, t = len(dims), reconstruct(self).reshape(dims * 2)
        cuts = [t.swapaxes(r, n + r).reshape(math.prod(dims), -1) for r in range(n)]
        return tuple(float(v) for v in np.linalg.eigvalsh(np.array(cuts))[:, 0])


@functools.cache
def singlet_witness() -> Witness:
    """W = 1/2 - |psi-><psi-|, detecting two-qubit states near the singlet."""
    m = 0.5 * np.eye(4, dtype=complex) - projector(singlet_ket())
    return Witness(m, (2, 2), kind="bipartite-separability")


@functools.cache
def ghz_witness() -> Witness:
    """W = 1/2 - |GHZ><GHZ|, detecting genuine tripartite entanglement."""
    m = 0.5 * np.eye(8, dtype=complex) - projector(ghz_ket())
    return Witness(m, (2, 2, 2), kind="genuine-multipartite")


def witness_value(w: Witness, rho: DensityMatrix) -> float:
    """tr[W rho]; negative values certify the entanglement W detects (see :func:`mdiw.linalg._trace_product`)."""
    if w.dims != rho.dims:
        raise ValueError(f"dimension mismatch: witness {w.dims} vs state {rho.dims}")
    return _trace_product(w.matrix, rho.matrix)


def _expand(beta: np.ndarray, ensembles) -> np.ndarray:
    """Sum of beta over the products of transposed states, contracted one party at a time."""
    for e in reversed(ensembles):  # each step contracts the last label axis and prepends (row, column)
        # of transpose(tau): matrices views a C-ordered stack of transposes, so this flattening is a view
        beta = e.matrices.swapaxes(1, 2).reshape(len(e), -1).T @ beta.reshape(-1, len(e)).T
    t = beta.reshape([e.dim for e in ensembles for _ in "rc"])
    return t.transpose([*range(0, t.ndim, 2), *range(1, t.ndim, 2)]).reshape(math.prod(t.shape[::2]), -1)


def _solve(m: np.ndarray, ensembles) -> np.ndarray:
    """((x) V_p) diag(1/s) ((x) U_p)^T m, s the products of s_p, zero at most lstsq's cutoff on (D^2, N)."""
    n = len(ensembles)
    t = m.reshape(tuple(e.dim for e in ensembles) * 2).transpose([i for p in range(n) for i in (p, n + p)])
    for e in ensembles:  # <U_j, m> on the leading (row, column) pair, appended as the last axis
        t = t.reshape(e.dim ** 2, -1).T @ e.transposed_svd[0].reshape(-1, e.dim ** 2).conj().T
    s = functools.reduce(np.multiply.outer, [e.transposed_svd[1] for e in ensembles])
    keep = s > np.finfo(float).eps * max(m.size, math.prod(map(len, ensembles))) * s.flat[0]
    t = np.divide(t.real.reshape(s.shape), s, out=np.zeros(s.shape), where=keep)
    for e in ensembles:
        t = t.reshape(len(e.transposed_svd[2]), -1).T @ e.transposed_svd[2]
    return t.reshape(tuple(map(len, ensembles)))


def reconstruct(dec: Decomposition) -> np.ndarray:
    """Sum beta[s, t, ...] * transpose(tau_s) (x) transpose(omega_t) (x) ..., one party at a time."""
    return _expand(dec.beta, dec.ensembles)


def decompose(w: Witness, ensembles) -> Decomposition:
    """Expand a witness over products of transposed ensemble states, by minimum-norm least squares.

    The product basis is a Kronecker product, so its SVD and pseudo-inverse factor
    into the ensembles' ``transposed_svd``; rank is decided on the products of
    singular values with ``lstsq``'s cutoff, so this is ``lstsq``'s solution on
    the full basis, up to rounding, for W's Hermitian part.  One refinement step
    solves for the matrix W - reconstruct, in the same row space.  A residual
    above ``TOL_RECON`` flags the decomposition inexact; it is not rejected.
    """
    ensembles = tuple(ensembles)
    if len(ensembles) != w.n_parties:
        raise ValueError(f"witness has {w.n_parties} parties, got {len(ensembles)} ensembles")
    for e, d in zip(ensembles, w.dims):
        if e.dim != d:
            raise ValueError(f"ensemble for party {e.party} has dim {e.dim}, witness needs {d}")
    beta = _solve(w.matrix, ensembles)
    beta += _solve(w.matrix - _expand(beta, ensembles), ensembles)
    return Decomposition(beta, ensembles, frobenius_distance(w.matrix, _expand(beta, ensembles)))


# Each table is built on first use and shared; it is read-only, so no caller can change it.
@functools.cache
def _tetrahedron_table() -> np.ndarray:
    """Singlet witness over tetrahedron inputs: 5/8 on the diagonal and -1/8 off it."""
    beta = np.full((4, 4), -1.0 / 8.0)
    np.fill_diagonal(beta, 5.0 / 8.0)
    beta.setflags(write=False)
    return beta


@functools.cache
def _pauli6_table() -> np.ndarray:
    """Singlet witness over Pauli eigenstates: 0 unless the axes agree, then 1/3 or -1/6 by sign."""
    beta = np.array([[(3.0 * (s1 == t1) - 1.0) / 6.0 if s2 == t2 else 0.0 for t1, t2 in _PAULI6_INDEX]
                     for s1, s2 in _PAULI6_INDEX])
    beta.setflags(write=False)
    return beta


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


@functools.cache
def _ghz_table() -> np.ndarray:
    """GHZ witness over three tetrahedron ensembles: :func:`ghz_coefficient` at every label."""
    beta = np.array([ghz_coefficient(*k) for k in itertools.product(range(4), repeat=3)]).reshape(4, 4, 4)
    beta.setflags(write=False)
    return beta


# Closed-form coefficient tables, keyed by (witness name, ensemble names).
_TABULATED = {
    ("singlet", ("tetrahedron", "tetrahedron")): _tetrahedron_table,
    ("singlet", ("pauli6", "pauli6")): _pauli6_table,
    ("ghz", ("tetrahedron", "tetrahedron", "tetrahedron")): _ghz_table,
}


def tabulated_beta(name: str | None, w: Witness, ensembles) -> Decomposition:
    """The closed-form table of witness ``name`` over the ensembles' names, attached to those ensembles.

    The residual is measured against ``w`` over the states they hold, so an
    ensemble that takes a built-in name but holds other states is inexact.
    """
    ensembles = tuple(ensembles)
    table = _TABULATED.get((name, tuple(e.name for e in ensembles)))
    if table is None:
        raise ValueError("no tabulated coefficients for this witness/ensemble combination; "
                         "use decomposition source 'solve'")
    dec = Decomposition(table(), ensembles, 0.0)
    return Decomposition(dec.beta, ensembles, frobenius_distance(w.matrix, reconstruct(dec)))


def tetrahedron_beta() -> Decomposition:
    """Closed-form expansion of the singlet witness over tetrahedron inputs."""
    return tabulated_beta("singlet", singlet_witness(), tuple(map(tetrahedron_ensemble, "AB")))


def pauli6_beta() -> Decomposition:
    """Closed-form expansion of the singlet witness over Pauli eigenstates."""
    return tabulated_beta("singlet", singlet_witness(), tuple(map(pauli6_ensemble, "AB")))


def ghz_beta() -> Decomposition:
    """Closed-form expansion of the GHZ witness over three tetrahedron ensembles."""
    return tabulated_beta("ghz", ghz_witness(), tuple(map(tetrahedron_ensemble, "ABC")))


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
