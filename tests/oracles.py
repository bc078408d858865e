"""Reference routes kept beside the tests, independent of the code under test.

:func:`effective_povm_element` absorbs a share state into a POVM element by
explicit embedding and partial trace, and :func:`mixture_as_shared_state`
materializes an unentangled mixture as one shared state, so that
:func:`mdiw.game.simulate_entangled` can cross-check the block contractions
of :func:`mdiw.game.simulate_separable` and the see-saw.
"""

import math

import numpy as np

from mdiw.game import BiseparableStrategy, SeparableStrategy
from mdiw.linalg import as_matrix, check_dims, kron, kron_all, partial_trace, permute_subsystems
from mdiw.states import DensityMatrix


def effective_povm_element(element, dims, share: DensityMatrix, share_axes=(1,)) -> np.ndarray:
    """Absorb a share state into a POVM element.

    Returns the partial trace over the share factors of
    ``element @ (identity (x) share)``, an operator on the remaining
    (input) factors that lies between 0 and the identity whenever the
    element does.  ``share_axes`` lists which factors of ``element`` the
    share state occupies, in ascending order.
    """
    element = as_matrix(element)
    dims = check_dims(dims, element.shape[0])
    n = len(dims)
    share_axes = tuple(sorted(int(a) for a in share_axes))
    if any(a < 0 or a >= n for a in share_axes):
        raise ValueError(f"share axes {share_axes} out of range")
    if tuple(dims[a] for a in share_axes) != share.dims:
        raise ValueError(
            f"share state dims {share.dims} do not match element factors {share_axes}"
        )
    kept = tuple(i for i in range(n) if i not in share_axes)
    # Embed the share on its axes: build (kept factors) (x) share, then
    # permute back to the element's factor order.
    ident = np.eye(math.prod(dims[i] for i in kept) if kept else 1, dtype=complex)
    embedded = kron(ident, share.matrix)
    order = kept + share_axes  # current factor order of `embedded`
    perm = tuple(order.index(i) for i in range(n))
    embedded = permute_subsystems(embedded, tuple(dims[i] for i in order), perm)
    return partial_trace(element @ embedded, dims, keep=kept)



def mixture_as_shared_state(strategy) -> DensityMatrix:
    """Explicit shared state of a separable or biseparable strategy.

    Materializing the mixture lets :func:`simulate_entangled` serve as an
    independent cross-check of :func:`simulate_separable`.
    """
    if isinstance(strategy, SeparableStrategy):
        dims = tuple(p.dims[1] for p in strategy.measurements)
        d = math.prod(dims)
        m = np.zeros((d, d), dtype=complex)
        for w, term in zip(strategy.weights, strategy.share_states):
            m += w * kron_all([s.matrix for s in term])
        return DensityMatrix(m, dims)
    if isinstance(strategy, BiseparableStrategy):
        dims = tuple(p.dims[1] for p in strategy.measurements)
        d = math.prod(dims)
        m = np.zeros((d, d), dtype=complex)
        for term in strategy.terms:
            p, q = term.group
            raw = kron(term.group_state.matrix, term.singleton_state.matrix)
            order = (p, q, term.singleton)  # current factor order of `raw`
            perm = tuple(order.index(i) for i in range(3))
            aligned = permute_subsystems(
                raw, tuple(dims[i] for i in order), perm
            )
            m += term.weight * aligned
        return DensityMatrix(m, dims)
    raise TypeError(f"unsupported strategy type {type(strategy).__name__}")
