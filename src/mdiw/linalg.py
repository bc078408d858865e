"""Dense complex linear algebra for small multi-qubit/qudit systems.

All matrices are plain ``numpy`` arrays of complex doubles.  Tensor factors
follow the standard Kronecker convention: the leftmost factor is the
slowest-varying index, so ``kron(a, b)`` has block structure ``a[i, j] * b``.
That single convention is used everywhere in this package.
"""

from __future__ import annotations

import contextlib
import functools
import math

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
    dims = tuple(map(int, dims))
    if min(dims, default=1) < 1:
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    if math.prod(dims) != size:
        raise ValueError(f"dims {dims} do not multiply to matrix size {size}")
    return dims


def kron(a, b) -> np.ndarray:
    """Kronecker product; the left factor varies slowest."""
    return np.kron(as_matrix(a), as_matrix(b))


def transpose(m) -> np.ndarray:
    """Entrywise transpose (i,j) -> (j,i), without conjugation."""
    return as_matrix(m).T.copy()


def frobenius_distance(a, b) -> float:
    """sqrt(sum |a - b|^2); zero iff the matrices are equal."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def check_operators(ms: np.ndarray, dims, spectrum=None, unit_trace: bool = False) -> tuple[int, ...]:
    """Check a complex (N, d, d) stack of Hermitian operators; return the checked ``dims``.

    Every entry finite, each matrix square and Hermitian within
    ``TOL_HERM``, ``dims`` fitting d; with ``unit_trace`` each trace is 1
    within ``TOL_TRACE``, and with ``spectrum=(lo, hi)`` each eigenvalue
    lies in [lo, hi] within ``TOL_PSD``.  This is the one place validity is
    decided: one numpy call per predicate for the whole stack.  The density rule
    ``spectrum=(0, inf)`` is one stacked Cholesky factorization of ms + TOL_PSD 1,
    which agrees with the eigenvalue rule except within rounding (about d eps |ms|)
    of the edge; eigenvalues (one ``eigvalsh``) are read only where it fails or for
    an upper edge (or :func:`_check_spectrum` on the caller's spectrum).  Entries
    are scanned for NaN or Inf only when the Hermitian defect is not finite.  A failure names the
    worst matrix's figure, so a stack of one gives the single matrix's message.
    """
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2]:
        raise ValueError(f"expected square matrices, got array of shape {ms.shape[1:]}")
    defect = _hermitian_defect(ms)
    if not math.isfinite(defect) and not np.isfinite(ms).all():
        raise ValueError("matrix has NaN or Inf entries")
    dims = check_dims(dims, ms.shape[1])
    if not len(ms):
        return dims
    if defect > TOL_HERM:
        raise ValueError(f"not Hermitian (defect {defect:.3e})")
    if unit_trace:
        traces = ms.trace(axis1=1, axis2=2).real
        off = np.abs(traces - 1.0)
        if off.max() > TOL_TRACE:
            raise ValueError(f"trace {float(traces[off.argmax()])} is not 1")
    if spectrum == (0.0, math.inf):  # ms + TOL_PSD 1 factors iff no eigenvalue is below -TOL_PSD, up to rounding
        with contextlib.suppress(np.linalg.LinAlgError):
            np.linalg.cholesky(ms + _psd_shift(ms.shape[1]))
            return dims
    if spectrum is not None:
        _check_spectrum(np.linalg.eigvalsh(ms), spectrum)
    return dims


@functools.cache
def _psd_shift(d: int) -> np.ndarray:
    """TOL_PSD 1 as a read-only (d, d) array (``broadcast_to`` returns a read-only view), built once per d:
    rebuilding it costs about 1.8 us a call, a tenth of a small stack's check."""
    return np.broadcast_to(TOL_PSD * np.eye(d), (d, d))


@np.errstate(invalid="ignore")  # inf - inf is NaN, reported as a non-finite entry
def _hermitian_defect(ms: np.ndarray) -> float:
    """The largest |m - m^dagger| entry of a (N, d, d) stack, 0 for an empty one."""
    return np.abs(ms - ms.conj().transpose(0, 2, 1)).max(initial=0.0)


def _check_spectrum(eigs: np.ndarray, spectrum) -> None:
    """The spectrum rule of :func:`check_operators` on a stack's (N, d) eigenvalues, each row ascending.

    Rows ascend, so the stack's least is its first column's least; an infinite ``hi`` needs no maximum.
    """
    lo, hi = spectrum
    low = eigs.min()
    if low < lo - TOL_PSD:
        raise ValueError(f"not positive semidefinite (min eigenvalue {low:.3e}, below {lo:g})")
    if hi < math.inf and (high := eigs.max()) > hi + TOL_PSD:
        raise ValueError(f"{hi:g} - E not positive semidefinite (max eigenvalue {high:.3e}, above {hi:g})")


def _trace_product(w: np.ndarray, rho: np.ndarray) -> float:
    """tr[W rho] of a Hermitian W and a checked state rho: only rho's anti-Hermitian part, its entries within
    ``TOL_HERM``, makes it complex, so a residue above ``TOL_HERM`` sum |W_ij| (the most that gives) raises."""
    val = complex(np.trace(w @ rho))
    if abs(val.imag) > TOL_HERM * np.abs(w).sum():
        raise ValueError(f"trace has imaginary residue {val.imag:.3e}")
    return float(val.real)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix.

    Uses the dedicated LAPACK Hermitian solver; raises if the input is not
    Hermitian within ``TOL_HERM``.
    """
    m = np.asarray(m, dtype=complex)
    check_operators(m[None], m.shape[-1:])
    return np.linalg.eigvalsh(m)


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
