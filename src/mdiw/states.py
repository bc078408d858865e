"""Catalog of concrete states and input ensembles used by the games.

Qubit basis ordering is |0> = (1, 0), |1> = (0, 1); multi-party operators
are ordered A (x) B (x) C.  Transposes are always taken in the computational
basis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, check_operators

_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _check_densities(ms: np.ndarray, dims) -> tuple[int, ...]:
    """The density rule for a complex (K, d, d) stack: unit trace, eigenvalues >= 0 (see check_operators)."""
    return check_operators(ms, dims, spectrum=(0.0, math.inf), unit_trace=True)


def _unchecked(cls, **fields):
    """A ``cls`` instance holding ``fields`` as given, with ``__post_init__`` skipped.

    For views of a stack whose checks already ran once for the whole stack.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state: Hermitian, PSD, unit trace.

    ``dims`` records the subsystem structure (one entry per tensor factor);
    a trivial dimension-1 factor is allowed so that strategies with no
    shared system fit the same interfaces.  Construction checks the matrix
    as a stack of one; :meth:`stack` checks many states with one call per
    predicate, and both raise the same messages.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex, order="C")
        dims = _check_densities(m[None], self.dims)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def stack(cls, ms, dims) -> tuple["DensityMatrix", ...]:
        """States from a (K, d, d) stack of matrices, all with subsystem ``dims``.

        The whole stack passes the same checks as one state, in one call per
        predicate; each state's matrix is a read-only view of one checked copy.
        """
        ms = np.asarray(ms, dtype=complex)
        if ms.ndim != 3:
            raise ValueError(f"expected a stack of matrices, got array of shape {ms.shape}")
        return cls._views(ms, _check_densities(ms, dims))

    @classmethod
    def _views(cls, ms, dims) -> tuple["DensityMatrix", ...]:
        """States viewing a read-only copy of a stack that passed :func:`_check_densities`."""
        ms = np.array(ms, dtype=complex, order="C")
        ms.setflags(write=False)
        dims = tuple(map(int, dims))
        return tuple(_unchecked(cls, matrix=m, dims=dims) for m in ms)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class InputEnsemble:
    """Labelled quantum inputs handed to one party of the game.

    ``matrices`` is the read-only (S, d, d) stack of the checked states, in label order,
    built once on construction as the view of a C-ordered stack of their transposes, so
    flattening its transpose needs no copy; :attr:`transposed_svd`, which
    :func:`mdiw.witness.decompose` solves through, is built on first use.
    """

    party: str
    labels: tuple[str, ...]
    states: tuple[DensityMatrix, ...]
    name: str = field(default="custom")
    matrices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(str(l) for l in self.labels)
        states = tuple(self.states)
        if len(labels) != len(states):
            raise ValueError("one label per state required")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate input labels: {labels}")
        if any(c in l for l in labels for c in ',"\r\n'):
            raise ValueError(f"input labels must not hold a comma, quote or line break: {labels}")
        if not states:
            raise ValueError("ensemble must contain at least one state")
        d = states[0].dim
        if any(s.dim != d for s in states):
            raise ValueError("all ensemble states must share one dimension")
        transposes = np.stack([s.matrix for s in states]).swapaxes(1, 2).copy()
        transposes.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "matrices", transposes.swapaxes(1, 2))

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    def __len__(self) -> int:
        return len(self.states)

    @functools.cached_property
    def transposed_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only thin SVD (U, s, Vt) of the real (2 d^2, S) matrix of transposed states, built once.

        Column s stacks transpose(state s)'s real and imaginary parts, an isometry.  U
        comes as its (k, d, d) columns as matrices, orthonormal and Hermitian where s_j > 0.
        """
        flat = self.matrices.swapaxes(1, 2).reshape(len(self), -1)
        u, s, vt = np.linalg.svd(np.concatenate([flat.real, flat.imag], axis=1).T, full_matrices=False)
        u = (u[:flat.shape[1]] + 1j * u[flat.shape[1]:]).T.reshape(-1, self.dim, self.dim)
        for a in (u, s, vt):
            a.setflags(write=False)
        return u, s, vt


def bloch_state(n) -> DensityMatrix:
    """Qubit state (1 + n.sigma)/2 for a Bloch vector with |n| <= 1."""
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError("Bloch vector must have three real components")
    norm = float(np.linalg.norm(n))
    if norm > 1.0 + 1e-12:
        raise ValueError(f"|n| = {norm} > 1 is not a state")
    m = 0.5 * (_PAULIS[0] + n[0] * _PAULIS[1] + n[1] * _PAULIS[2] + n[2] * _PAULIS[3])
    return DensityMatrix(m, (2,))


def bloch_vector(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Bloch vector of a qubit state, n_k = tr(rho sigma_k)."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else as_matrix(rho)
    return np.array([float(np.trace(m @ _PAULIS[k]).real) for k in (1, 2, 3)])


# Unit vectors to the four vertices of a regular tetrahedron on the Bloch
# sphere; vertex s is the conjugation of vertex 0 by sigma_s.
TETRAHEDRON_VERTICES = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
) / math.sqrt(3.0)


@functools.cache
def tetrahedron_ensemble(party: str = "A") -> InputEnsemble:
    """Four pure qubit inputs whose Bloch vectors form a regular tetrahedron, built once per party."""
    states = tuple(map(bloch_state, TETRAHEDRON_VERTICES))
    return InputEnsemble(party, ("0", "1", "2", "3"), states, name="tetrahedron")


# (sign_bit, axis) pairs defining the six Pauli eigenstates, in label order.
_PAULI6_INDEX = ((0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3))
_PAULI6_LABELS = ("+x", "+y", "+z", "-x", "-y", "-z")


@functools.cache
def pauli6_ensemble(party: str = "A") -> InputEnsemble:
    """The six Pauli eigenstates (1 + (-1)^s1 sigma_s2)/2 as inputs, built once per party."""
    ms = [0.5 * (_PAULIS[0] + (-1.0) ** s1 * _PAULIS[s2]) for s1, s2 in _PAULI6_INDEX]
    return InputEnsemble(party, _PAULI6_LABELS, DensityMatrix.stack(ms, (2,)), name="pauli6")


def ket(bits: str, d: int = 2) -> np.ndarray:
    """Computational basis ket for a digit string, e.g. ket('01')."""
    idx = 0
    for c in bits:
        v = int(c)
        if not 0 <= v < d:
            raise ValueError(f"digit {c} out of range for local dimension {d}")
        idx = idx * d + v
    out = np.zeros(d ** len(bits), dtype=complex)
    out[idx] = 1.0
    return out


def singlet_ket() -> np.ndarray:
    """(|01> - |10>)/sqrt(2)."""
    return (ket("01") - ket("10")) / math.sqrt(2.0)


def ghz_ket() -> np.ndarray:
    """(|000> + |111>)/sqrt(2)."""
    return (ket("000") + ket("111")) / math.sqrt(2.0)


def max_entangled(d: int) -> np.ndarray:
    """The maximally entangled ket (1/sqrt(d)) sum_i |ii>, defined for every d >= 1."""
    if d < 1:
        raise ValueError(f"local dimension must be >= 1, got {d}")
    return np.eye(d, dtype=complex).ravel() / math.sqrt(d)


def projector(vec) -> np.ndarray:
    """|v><v| for a (not necessarily normalized) ket."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


# Linear families v P + (1 - v) 1/D of a pure state P in white noise: name -> (P, dims).
FAMILIES = {
    "werner": (projector(singlet_ket()), (2, 2)),
    "noisy_ghz": (projector(ghz_ket()), (2, 2, 2)),
}


def _mixing_parameters(vs) -> np.ndarray:
    """Family parameters as a float array; each must lie in [0, 1], which NaN does not."""
    vs = np.asarray(vs, dtype=float)
    outside = ~((vs >= 0.0) & (vs <= 1.0))
    if outside.any():
        raise ValueError(f"mixing parameter must lie in [0, 1], got {vs[outside][0]}")
    return vs


def family_state(name: str, v: float) -> DensityMatrix:
    """The state of family ``name`` at parameter ``v`` in [0, 1]."""
    target, dims = FAMILIES[name]
    v = _mixing_parameters(v)
    return DensityMatrix(v * target + (1.0 - v) * np.eye(len(target), dtype=complex) / len(target), dims)


def werner_state(v: float) -> DensityMatrix:
    """Two-qubit mixture v |psi-><psi-| + (1-v) 1/4, entangled iff v > 1/3."""
    return family_state("werner", v)


def noisy_ghz(v: float) -> DensityMatrix:
    """Three-qubit mixture v |GHZ><GHZ| + (1-v) 1/8, genuinely tripartite entangled iff v > 3/7."""
    return family_state("noisy_ghz", v)


def random_density_matrix(dims, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank state from a square Ginibre factor."""
    dims = tuple(int(d) for d in dims)
    d = math.prod(dims)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(m, dims)


ENSEMBLE_BUILDERS = {
    "tetrahedron": tetrahedron_ensemble,
    "pauli6": pauli6_ensemble,
}


def named_ensemble(name: str, party: str) -> InputEnsemble:
    """Look up one of the built-in input ensembles by name."""
    try:
        builder = ENSEMBLE_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown ensemble {name!r}; known: {sorted(ENSEMBLE_BUILDERS)}") from None
    return builder(party)
