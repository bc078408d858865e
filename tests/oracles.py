"""Reference routes kept beside the tests, independent of the code under test.

:func:`effective_povm_element` absorbs a share state into a POVM element by
explicit embedding and partial trace, and :func:`mixture_as_shared_state`
materializes an unentangled mixture as one shared state, so that
:func:`mdiw.game.simulate_entangled` (the block form's one-block case) can
cross-check the per-block contractions of
:func:`mdiw.game.simulate_separable` and the search's realized strategies, and
:func:`per_bitstring_table` and :func:`grid_value` can check them outside
the block form.
:func:`per_bitstring_table` contracts a shared-state strategy once per
outcome bitstring, as the reference for the one outcome-extended
contraction of :func:`mdiw.game.simulate_entangled`: through the block
form's one-block case, the route under test, or through
:func:`mdiw.game._contract_grid`, the honest table's contraction, which
shares no code with it past the traced inputs.
:func:`restart_start` draws one restart's start one operator at a time, as
the reference for the search's stacked start, and :func:`sequential_search`
runs the see-saw's restarts one after another, each from that start, as the
reference for the batched search, with :func:`certified_floor` as the
reference for its floor and :func:`unshared_plans`, one plan per searched
partition, as the reference for the search's plans shared between
partitions; :func:`terms_state` merges one restart's terms into search
state.  :func:`strategy_state` converts a given strategy's terms to
search terms by :func:`absorb`, for tests that search from a strategy, and
:func:`pointwise_scan` scores a violation curve one state at a time, as the
reference for the stacked scan.
:func:`lstsq_decompose` expands a witness by dense least squares over the
stacked :func:`product_basis`, in :func:`hermitian_coordinates`, as the
reference for the factored :func:`mdiw.witness.decompose`, and
:func:`basis_reconstruct` sums that basis, as the reference for
:func:`mdiw.witness.reconstruct`.
:func:`product_grid_minimum` values rank-1 product projectors on a Bloch
grid, an upper bound on a two-qubit game's separable minimum.
:func:`mapped_separable_samples` scores the Kraus-mapped samples of
:func:`mdiw.verify.check_loss_invariance` one public strategy at a time, as
the reference for its block-form batch.
:func:`render_json`, :func:`table_csv` and :func:`scan_csv` render
artifacts one float at a time, each value through ``format(x, ".17g")``,
as the references for the row-at-a-time renderers
:func:`mdiw.serialize.dumps`, :func:`mdiw.game.table_to_csv` and the
``mdiw scan`` CSV.
:func:`einsum_trace_inputs` writes F through an ``order="C"`` einsum,
:func:`dense_block_contraction` traces each block state against a dense
Kronecker product, and :func:`rank_rule_negative_projectors` keeps each
operator's lowest ``max(1, #negative)`` eigenvectors by rank, as the
references for the one-copy layout of :func:`mdiw.game.trace_inputs`, the
block contraction :func:`mdiw.game._contract` and the kept-column mask of
the see-saw's step.
:func:`pauli`, :func:`permute_subsystems` and :func:`partial_transpose`
are small operator helpers that only the tests use.
"""

import functools
import itertools
import math

import numpy as np

from mdiw.attack import (
    _FAMILIES,
    _STOP,
    BOUND_TOL,
    AttackReport,
    _plan,
    _readout,
    _strategy,
    _sweep,
    _term,
    _values,
    expected_game_value,
    random_kraus_set,
    random_separable_strategy,
)
from mdiw.cli import _FAMILY_WITNESS
from mdiw.game import (
    BiseparableStrategy,
    SeparableStrategy,
    _contract,
    _contract_grid,
    _grid,
    _groups,
    _responses,
    apply_pre_measurement_map,
    apply_uniform_loss,
    fast_entangled_table,
    mdi_value,
    simulate_separable,
    trace_inputs,
    violation_scan,
)
from mdiw.linalg import as_matrix, check_dims, kron, partial_trace
from mdiw.states import DensityMatrix, bloch_vector
from mdiw.witness import reconstruct

_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def pauli(k: int) -> np.ndarray:
    """The 2x2 Pauli matrix sigma_k, with sigma_0 the identity."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be 0..3, got {k}")
    return _PAULIS[k].copy()


def permute_subsystems(m, dims, perm) -> np.ndarray:
    """Reorder the tensor factors of a square matrix.

    ``perm[i]`` names the current position of the factor that ends up at
    position ``i``, so ``permute_subsystems(kron(a, b), (da, db), (1, 0))``
    equals ``kron(b, a)``.
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

    Materializing the mixture lets a shared-state table cross-check
    :func:`simulate_separable`: :func:`simulate_entangled` contracts it as
    one block of every party, :func:`per_bitstring_table` with ``route="grid"``
    outside the block form.
    """
    if isinstance(strategy, SeparableStrategy):
        dims = tuple(p.dims[1] for p in strategy.measurements)
        d = math.prod(dims)
        m = np.zeros((d, d), dtype=complex)
        for w, term in zip(strategy.weights, strategy.share_states):
            m += w * functools.reduce(kron, [s.matrix for s in term])
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



def einsum_trace_inputs(element, taus) -> np.ndarray:
    """F[..., s] = tr_in[E (tau_s (x) 1)], the einsum writing F C-ordered itself.

    The reference for :func:`mdiw.game.trace_inputs`: the same values and the same memory layout.
    """
    d, lead = taus.shape[1], element.ndim - 2
    share = element.shape[-1] // d
    e = element.reshape(element.shape[:-2] + (d, share, d, share))
    e = e.transpose(*range(lead), lead + 1, lead + 3, lead, lead + 2).reshape(e.shape[:lead] + (share, share, -1))
    taus = taus.swapaxes(-1, -2).reshape(len(taus), -1)
    return np.einsum("...abk,sk->...sab", e, taus, order="C")


def dense_block_contraction(stacks, sigma) -> np.ndarray:
    """x[k, x_1, x_2, ...] = tr[(G_1[k, x_1] (x) G_2[k, x_2] (x) ...) sigma_k], each product a dense Kronecker matrix.

    The reference for :func:`mdiw.game._contract` on (K or 1, X_p, m_p, m_p) stacks: a stack of one
    serves every state.
    """
    out = np.empty((len(sigma),) + tuple(g.shape[1] for g in stacks), dtype=complex)
    for idx in np.ndindex(out.shape):
        product = functools.reduce(np.kron, [g[idx[0] % len(g), x] for g, x in zip(stacks, idx[1:])])
        out[idx] = np.einsum("ab,ba->", product, sigma[idx[0]])
    return out


def rank_rule_negative_projectors(x) -> np.ndarray:
    """Per operator of a (R, D, D) stack, the projector onto its lowest max(1, #negative) eigenvectors."""
    vals, vecs = np.linalg.eigh(x)
    rank = np.maximum(1, np.count_nonzero(vals < 0.0, axis=-1))
    v = vecs * (np.arange(x.shape[-1]) < rank[:, None])[:, None, :]
    return v @ v.conj().swapaxes(-1, -2)


def per_bitstring_table(strategy, ensembles, include_full, route="block"):
    """``(p_all_ones, full)`` of a shared-state strategy, one contraction per outcome bitstring.

    Each party's inputs are traced into both outcome elements, F_p^b.
    ``route`` "block" contracts each bitstring's F_p^b as the one-term,
    one-block case of the block form (``_groups``, ``_responses``,
    ``_grid``); "grid" contracts them with the shared state by
    ``_contract_grid``.  The grids of the bitstrings are stacked in
    lexicographic order, and ``full`` is None without ``include_full``.
    """
    n = strategy.n_parties
    f = [np.stack([trace_inputs(m.element(b), e.matrices) for b in (0, 1)])
         for m, e in zip(strategy.measurements, ensembles)]
    rho = strategy.shared

    def contract(fs):
        if route == "grid":  # F's column index meets rho's row index
            return _contract_grid(rho.matrix, rho.dims, [x.transpose(0, 2, 1) for x in fs])
        weights, groups = _groups(strategy)
        return _grid(weights, groups, _responses(groups, [x[None] for x in fs], weights.shape))[0]

    outcomes = itertools.product((0, 1), repeat=n) if include_full else [(1,) * n]
    p = np.stack([contract([fp[b] for fp, b in zip(f, bits)]) for bits in outcomes])
    return p[-1], p.reshape((2,) * n + p.shape[1:]) if include_full else None


def grid_value(dec, strategy) -> float:
    """Game value of a shared-state strategy by :func:`per_bitstring_table`'s ``_contract_grid`` route."""
    p_all_ones, _ = per_bitstring_table(strategy, dec.ensembles, False, route="grid")
    return float(np.dot(np.asarray(dec.beta).ravel(), p_all_ones.ravel()))



def partial_transpose(m, dims, party: int) -> np.ndarray:
    """``m`` transposed on factor ``party`` alone.

    The factor is moved last with :func:`permute_subsystems`, where it
    indexes within each block, every block is transposed, and the factor is
    moved back.
    """
    m = as_matrix(m)
    dims = check_dims(dims, m.shape[0])
    order = [p for p in range(len(dims)) if p != party] + [party]
    moved = permute_subsystems(m, dims, order)
    rest, d = m.shape[0] // dims[party], dims[party]
    flipped = moved.reshape(rest, d, rest, d).transpose(0, 3, 2, 1).reshape(m.shape)
    return permute_subsystems(flipped, [dims[p] for p in order], [order.index(p) for p in range(len(dims))])


def hermitian_coordinates(m: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of Hermitian matrices, stacked on the last axes.

    The diagonal, then sqrt(2) times the real and the imaginary parts of the
    strict upper triangle: the Euclidean norm equals the Frobenius norm.
    """
    d = m.shape[-1]
    rows, cols = np.triu_indices(d, k=1)
    off = math.sqrt(2.0) * m[..., rows, cols]
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    return np.concatenate([diag.real, off.real, off.imag], axis=-1)


def product_basis(ensembles) -> np.ndarray:
    """Transposed-state product operators stacked as (N, D, D), row-major over labels."""
    ops = np.ones((1, 1, 1), dtype=complex)
    for e in ensembles:
        taus_t = e.matrices.swapaxes(-1, -2)
        n, d = len(ops) * len(taus_t), ops.shape[1] * taus_t.shape[1]
        ops = (ops[:, None, :, None, :, None] * taus_t[None, :, None, :, None, :]).reshape(n, d, d)
    return ops


def basis_reconstruct(beta, ensembles) -> np.ndarray:
    """Sum of beta against the stacked :func:`product_basis`."""
    return np.tensordot(np.ravel(beta), product_basis(ensembles), axes=1)


def lstsq_decompose(w, ensembles) -> tuple[np.ndarray, float]:
    """``(beta, residual)`` by dense minimum-norm least squares on the whole product basis.

    ``lstsq`` with its default cutoff on the (D^2, N) matrix of
    :func:`hermitian_coordinates`, one refinement step in those coordinates,
    and the Frobenius residual of :func:`basis_reconstruct`.
    """
    basis = product_basis(ensembles)
    a = hermitian_coordinates(basis).T
    target = hermitian_coordinates(w.matrix)
    coeffs = np.linalg.lstsq(a, target, rcond=None)[0]
    coeffs += np.linalg.lstsq(a, target - a @ coeffs, rcond=None)[0]
    residual = float(np.linalg.norm(w.matrix - np.tensordot(coeffs, basis, axes=1)))
    return coeffs.reshape(tuple(len(e) for e in ensembles)), residual


def certified_floor(dec, kind: str) -> float:
    """min(0, lambda_min of the reconstruction transposed on one party) * prod(d).

    One eigenvalue problem per party: the highest cut for ``"separable"``,
    the lowest for ``"biseparable"``.
    """
    dims = tuple(e.dim for e in dec.ensembles)
    r = reconstruct(dec)
    lows = [np.linalg.eigvalsh(partial_transpose(r, dims, p))[0] for p in range(len(dims))]
    return min(0.0, max(lows) if kind == "separable" else min(lows)) * math.prod(dims)


def unshared_plans(beta, inputs, partitions, m) -> dict:
    """Each partition's searched plans, a pair's whole plan built for that partition alone by ``_plan``.

    Every partition searches its terms as a product, and a pair (i, j) also whole where ``m`` >= d_i.  No
    two partitions share a whole plan, so each term is searched and realized on its own partition's.
    """
    single = _plan(beta, inputs, tuple((p,) for p in range(len(inputs))))
    return {part: (single,) + ((_plan(beta, inputs, part, inputs[part[0][0]].shape[-1] ** -2.0),)
                               if len(part) < len(inputs) and m >= inputs[part[0][0]].shape[-1] else ())
            for part in partitions}


def absorb(elements, sigma, m) -> np.ndarray:
    """A_k = tr_share[(E_p,k (x) ...)(1 (x) sigma_k)]^T for a block's (N, d m, d m) success elements, one per party,
    and its (N, M, M) states: the block contraction of each E_p as its (i, j) pairs' share operators."""
    dims, k = [e.shape[-1] // m for e in elements], len(elements)
    # x[k, (i, j) of each party] = tr_share[...][i..., j...]
    x = _contract([e.reshape(len(e), d, m, d, m).transpose(0, 1, 3, 2, 4).reshape(len(e), d * d, m, m)
                   for e, d in zip(elements, dims)], sigma).reshape([len(sigma)] + [d for d in dims for _ in "ij"])
    return x.transpose([0] + list(range(2, 2 * k + 1, 2)) + list(range(1, 2 * k, 2))).reshape(
        len(sigma), math.prod(dims), -1)


def terms_state(terms) -> list:
    """The search state, one restart (row 0), of (plan, column, per-block operators) terms, those of a plan merged."""
    merged = {}
    for plan, col, ops in terms:
        merged.setdefault(id(plan), (plan, []))[1].append((col, ops))
    state = []
    for plan, got in merged.values():
        ops = [np.array(a) for a in zip(*(ops for _, ops in got))]
        state.append((plan, np.zeros(len(got), int), np.array([c for c, _ in got]), ops,
                      [_readout(a, t) for a, t in zip(ops, plan.inputs)]))
    return state


def strategy_state(strategy, plans, m) -> tuple[np.ndarray, list]:
    """(1, K) partition picks and the search state of a strategy's K terms, each block absorbed once.

    Term t of partition ``part`` is column f K + t in ``plans[part]``'s f-th plan: searched as drawn, or
    where the plan splits its pair, as a product of the pair's marginals over their top eigenvalues.
    """
    weights, groups = _groups(strategy)
    k, partitions = weights.shape[1], list(plans)
    elements = [p.element(1)[None] for p in strategy.measurements]
    picks, terms = np.zeros((1, k), int), []
    for idx, blocks, states in groups:
        picks[0, idx] = partitions.index(blocks)
        ops = [absorb([elements[p][idx // k] for p in b], s, m) for b, s in zip(blocks, states)]
        for f, plan in enumerate(plans[blocks]):
            part = ops
            if len(plan.blocks) > len(blocks):  # one operator per party of the pair
                d = elements[blocks[0][0]].shape[-1] // m
                q = ops[0].reshape(len(idx), d, -1, d, ops[0].shape[-1] // d)
                pair = [a / np.linalg.eigvalsh(a)[:, -1:, None]
                        for a in (q.trace(axis1=2, axis2=4), q.trace(axis1=1, axis2=3))]
                by_party = dict(zip(sum(blocks, ()), pair + ops[1:]))
                part = [by_party[p] for p in range(len(by_party))]
            terms += [(plan, f * k + t, [a[i] for a in part]) for i, t in enumerate(idx.tolist())]
    return picks, terms_state(terms)


def restart_start(seed, r, plans, input_dims, k) -> tuple[np.ndarray, list, np.random.Generator]:
    """Restart r's (k,) partition picks, its start as (plan, column, per-block operators) terms, and its generator.

    One generator call at a time, in the documented order: the picks where ``plans`` holds several
    partitions, then per searched form f, where its terms are any, every term's blocks' Gram factors in
    one ``normal`` call and their scales in one ``random`` call.  Each operator is G^dagger G over its
    own top eigenvalue times (1 + u), one 2-D ``eigvalsh`` each.
    """
    partitions, rng = list(plans), np.random.default_rng((seed, r))
    picks = rng.integers(len(partitions), size=k) if len(partitions) > 1 else np.zeros(k, int)
    terms = []
    for f in range(max(map(len, plans.values()))):
        on = [(t, plans[partitions[j]][f]) for t, j in enumerate(picks) if len(plans[partitions[j]]) > f]
        if not on:
            continue
        sizes = [[math.prod(input_dims[p] for p in b) for b in plan.blocks] for _, plan in on]
        x, at = rng.normal(size=sum(2 * d * d for s in sizes for d in s)), 0
        for (t, plan), s, u in zip(on, sizes, rng.random((len(on), len(sizes[0])))):
            ops = []
            for d, scale in zip(s, u):
                g = x[at : at + d * d].reshape(d, d) + 1j * x[at + d * d : at + 2 * d * d].reshape(d, d)
                e, at = g.conj().T @ g, at + 2 * d * d
                ops.append(e / (np.linalg.eigvalsh(e)[-1] * (1.0 + scale)))
            terms.append((plan, f * k + t, ops))
    return picks, terms, rng


def sequential_search(dec, ensembles, config, kind) -> AttackReport:
    """The see-saw search with its restarts run one after another.

    Each restart starts from :func:`restart_start` over :func:`unshared_plans`, and runs the see-saw steps
    of :mod:`mdiw.attack` as a batch of one until a sweep lowers its realized
    value by at most ``_STOP``, its best value lies between ``_STOP`` below
    and ``BOUND_TOL`` above :func:`certified_floor` for ``kind``, or for
    ``config.iterations`` sweeps.  Its path is its start value, then its best value after each
    sweep; the first restart of the lowest minimum gives its best term,
    the first of its lowest, as the strategy.  Wall time is reported as 0.
    """
    input_dims, m, k = tuple(e.dim for e in ensembles), config.share_dim, config.mixture_size
    beta, inputs = np.asarray(dec.beta), [e.matrices for e in dec.ensembles]
    partitions = _FAMILIES[kind](len(input_dims))
    plans = unshared_plans(beta, inputs, partitions, m)
    shape = (1, k * max(len(p) for p in plans.values()))
    floor = certified_floor(dec, kind)

    paths, champion = [], None
    for r in range(config.restarts):
        picks, terms, _ = restart_start(config.seed, r, plans, input_dims, k)
        state = terms_state(terms)
        terms = _values(state, shape)
        value = best = terms.min()
        kept, path = (state, terms), [float(value)]
        for _ in range(config.iterations):
            previous = value
            state = _sweep(state, shape)[0]
            terms = _values(state, shape)  # not the sweep's own values: the search's are checked against these
            value = terms.min()
            if value < best:
                best, kept = value, (state, terms)
            path.append(float(best))
            if previous - value <= _STOP or floor - _STOP <= best <= floor + BOUND_TOL:
                break
        paths.append(tuple(path))
        if champion is None or best < champion[0]:
            champion = (best, _term(kept[0], 0, kept[1][0].argmin(), picks[None], partitions))
    return AttackReport(
        floor=floor,
        best_strategy=_strategy(*champion[1], input_dims, m, kind),
        restart_paths=tuple(paths),
        wall_time=0.0,
        config=config,
    )



def pointwise_scan(family, dec, grid, etas) -> list[tuple[float, float]]:
    """The violation curve one state at a time.

    ``family`` builds one state from its parameter; each state gets its own
    table, which passes through the detector efficiencies ``etas`` and is
    scored against ``dec``.
    """
    out = []
    for v in grid:
        table = apply_uniform_loss(fast_entangled_table(family(float(v)), dec.ensembles), etas)
        out.append((float(v), mdi_value(dec, table)))
    return out


def product_grid_minimum(dec, n_theta: int, n_phi: int) -> float:
    """The least value of two qubit parties each clicking on a rank-1 projector, its Bloch vector on an
    ``n_theta`` x ``n_phi`` polar grid, without shares: an upper bound on the separable class's minimum."""
    thetas = np.linspace(0.0, math.pi, n_theta)[:, None]
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    grid = np.stack(np.broadcast_arrays(np.sin(thetas) * np.cos(phis), np.sin(thetas) * np.sin(phis), np.cos(thetas)),
                    axis=-1).reshape(-1, 3)
    # tr[P_a tau_s] = (1 + a . n_s) / 2
    resp_a, resp_b = (0.5 * (1.0 + grid @ np.stack([bloch_vector(s) for s in e.states]).T) for e in dec.ensembles)
    return float((resp_a @ np.asarray(dec.beta) @ resp_b.T).min())


def mapped_separable_samples(dec, seed: int, samples: int) -> list[tuple[int, float]]:
    """(mixture size, value) of the first Kraus-mapped separable samples of the loss check.

    Each sample is a public strategy: its POVMs pass through their Kraus
    maps one by one, and ``simulate_separable`` scores it alone.
    """
    rng = np.random.default_rng((seed, 9))
    out = []
    for _ in range(samples):
        k = int(rng.integers(1, 5))
        strategy = random_separable_strategy((2, 2), 2, k, rng)
        povms = tuple(apply_pre_measurement_map(povm, random_kraus_set(4, int(rng.integers(1, 4)), rng))
                      for povm in strategy.measurements)
        mapped = SeparableStrategy(strategy.weights, strategy.share_states, povms)
        out.append((k, mdi_value(dec, simulate_separable(mapped, dec.ensembles))))
    return out


def _fmt(x) -> str:
    return format(float(x), ".17g")


def render_json(obj) -> str:
    """The JSON document of :func:`mdiw.serialize.dumps`, one recursive call per value."""
    return _render(obj, 0) + "\n"


def _render(obj, depth: int) -> str:
    pad = "  " * (depth + 1)
    close_pad = "  " * depth
    sep = ",\n" + pad
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj) if np.isfinite(obj) else "null"
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sep.join(f"{_escape(str(k))}: {_render(v, depth + 1)}" for k, v in obj.items())
        return "{\n" + pad + items + "\n" + close_pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = sep.join(_render(v, depth + 1) for v in seq)
        return "[\n" + pad + items + "\n" + close_pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _escape(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def table_csv(table) -> str:
    """The CSV of :func:`mdiw.game.table_to_csv`, built cell by cell from the label tuples."""
    n = table.n_parties
    headers = list(table.parties) + ["p_all_ones"]
    if table.full is not None:
        headers += [f"p_{''.join(bits)}" for bits in itertools.product("01", repeat=n)]
    lines = [",".join(headers)]
    orders = [sorted(range(len(ls)), key=ls.__getitem__) for ls in table.labels]
    for idx in itertools.product(*orders):
        row = [table.p_all_ones[idx]]
        if table.full is not None:
            row += [table.full[bits + idx] for bits in itertools.product((0, 1), repeat=n)]
        lines.append(",".join([ls[i] for ls, i in zip(table.labels, idx)] + [_fmt(x) for x in row]))
    return "\n".join(lines) + "\n"


def scan_csv(scenario, v_from: float, v_to: float, steps: int) -> str:
    """The ``mdiw scan`` CSV, one row at a time, its closed-form columns decided per row."""
    family, config = scenario.family, scenario.config
    grid = [min(v_from + (v_to - v_from) * i / (steps - 1), v_to) for i in range(steps)]
    lines = ["v,I,expected,abs_err"]
    for v, value in violation_scan(family, scenario.decomposition, grid, config.loss):
        expected = None
        if scenario.decomposition.exact and _FAMILY_WITNESS[family] == config.witness:
            expected = expected_game_value(family, v) * math.prod(config.loss)
        row = (v, value) if expected is None else (v, value, expected, abs(value - expected))
        lines.append(",".join(map(_fmt, row)) + ",," * (expected is None))
    return "\n".join(lines) + "\n"
