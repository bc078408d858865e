"""Dense complex linear algebra for small multi-qubit/qudit systems.

All matrices are plain ``numpy`` arrays of complex doubles.  Tensor factors
follow the standard Kronecker convention: the leftmost factor is the
slowest-varying index, so ``kron(a, b)`` has block structure ``a[i, j] * b``.
That single convention is used everywhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Max |m - m^dagger| entry allowed before a matrix stops counting as Hermitian.
TOL_HERM = 1e-10
# Allowed negative eigenvalue excursion for positive-semidefinite checks.
TOL_PSD = 1e-10
# Frobenius residual below which a coefficient decomposition counts as exact.
TOL_RECON = 1e-10
# Allowed |trace - 1| for density matrices.
TOL_TRACE = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array and reject non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has NaN or Inf entries")
    return a


def check_dims(dims, size: int) -> tuple[int, ...]:
    """Validate a subsystem dimension profile against a matrix size."""
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    if math.prod(dims) != size:
        raise ValueError(f"dims {dims} do not multiply to matrix size {size}")
    return dims


def kron(a, b) -> np.ndarray:
    """Kronecker product; the left factor varies slowest."""
    return np.kron(as_matrix(a), as_matrix(b))


def kron_all(factors) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    out = as_matrix(factors[0])
    for f in factors[1:]:
        out = np.kron(out, as_matrix(f))
    return out


def transpose(m) -> np.ndarray:
    """Entrywise transpose (i,j) -> (j,i), without conjugation."""
    return as_matrix(m).T.copy()


def frobenius_distance(a, b) -> float:
    """sqrt(sum |a - b|^2); zero iff the matrices are equal."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def hermiticity_defect(m) -> float:
    """Largest entrywise deviation |m - m^dagger|."""
    m = as_matrix(m)
    return float(np.abs(m - m.conj().T).max())


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix.

    Uses the dedicated LAPACK Hermitian solver; raises if the input is not
    Hermitian within ``TOL_HERM``.
    """
    m = as_matrix(m)
    defect = hermiticity_defect(m)
    if defect > TOL_HERM:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {TOL_HERM})")
    return np.linalg.eigvalsh(m)


def permute_subsystems(m, dims, perm) -> np.ndarray:
    """Reorder the tensor factors of a square matrix.

    ``perm[i]`` names the current position of the factor that ends up at
    position ``i``, so ``permute_subsystems(kron(a, b), (da, db), (1, 0))``
    equals ``kron(b, a)``.  Every reordering of a matrix's factors in the
    package goes through this one function.
    """
    m = as_matrix(m)
    dims = check_dims(dims, m.shape[0])
    n = len(dims)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
    t = m.reshape(dims + dims)
    t = t.transpose(tuple(perm) + tuple(n + p for p in perm))
    d = math.prod(dims)
    return t.reshape(d, d).copy()


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    The kept subsystems stay in ascending original order.  The full trace
    is preserved: ``tr(result) == tr(m)``.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("partial trace needs a square matrix")
    dims = check_dims(dims, m.shape[0])
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    t = m.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    remaining = n
    for ax in sorted(traced, reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + remaining)
        remaining -= 1
    d_keep = math.prod(dims[k] for k in keep) if keep else 1
    return t.reshape(d_keep, d_keep)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: which predicates failed and by how much."""

    kind: str
    ok: bool
    violations: tuple[tuple[str, float], ...]

    def __str__(self) -> str:
        if self.ok:
            return f"{self.kind}: pass"
        parts = ", ".join(f"{name}={mag:.3e}" for name, mag in self.violations)
        return f"{self.kind}: FAIL ({parts})"


_VALIDATION_KINDS = ("hermitian", "psd", "density", "povm_element")


def validate(m, kind: str) -> ValidationReport:
    """Check a matrix against one of the standard operator predicates.

    Kinds: ``hermitian``, ``psd`` (Hermitian and eigenvalues >= -TOL_PSD),
    ``density`` (psd and unit trace), ``povm_element`` (psd and eigenvalues
    <= 1 + TOL_PSD).  Never raises; failures are reported with magnitudes.
    """
    if kind not in _VALIDATION_KINDS:
        raise ValueError(f"unknown validation kind {kind!r}")
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return ValidationReport(kind, False, (("square", float(abs(m.shape[0] - m.shape[1]))),))
    violations: list[tuple[str, float]] = []
    defect = hermiticity_defect(m)
    if defect > TOL_HERM:
        violations.append(("hermitian", defect))
    if kind != "hermitian" and not violations:
        eigs = np.linalg.eigvalsh(m)
        if eigs[0] < -TOL_PSD:
            violations.append(("min_eigenvalue", float(eigs[0])))
        if kind == "density":
            tr_err = abs(float(np.trace(m).real) - 1.0)
            if tr_err > TOL_TRACE:
                violations.append(("unit_trace", tr_err))
        elif kind == "povm_element":
            if eigs[-1] > 1.0 + TOL_PSD:
                violations.append(("max_eigenvalue", float(eigs[-1])))
    return ValidationReport(kind, not violations, tuple(violations))
