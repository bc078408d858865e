"""Simulation of games with quantum inputs and binary outcomes.

Each party receives an input state from its ensemble, measures it jointly
with its part of a shared state, and outputs 0 or 1.  The joint system is
always laid out as

    input_1 (x) share_1 (x) input_2 (x) share_2 (x) ...

with each party's input adjacent to its share, though tables never build
that joint space: :func:`trace_inputs` folds each party's inputs into its
outcome elements.  Every strategy mixes terms that are products over
blocks of parties (a shared state is one term in one block); the traced
elements meet each block's states in the block contraction, and one more
over the weighted terms gives the table.  The honest table contracts the
shared state with the inputs on a route of its own.  The game functional
contracts a witness decomposition against the all-ones outcome
probabilities, so a negative value certifies entanglement of the shared
state no matter what the devices actually did.
"""

from __future__ import annotations

import functools
import itertools
import math
import string
from dataclasses import dataclass

import numpy as np

from .linalg import check_operators
from .serialize import fmt_row
from .states import DensityMatrix, _mixing_parameters, family_state, max_entangled, projector
from .witness import Decomposition


@dataclass(frozen=True)
class POVM:
    """A two-outcome measurement on a (possibly multi-factor) space, given by its click element.

    ``click`` is the outcome-1 element E; outcome 0 has ``1 - E``.  E must
    be finite, Hermitian and lie between 0 and the identity; this is
    enforced here, at construction, so the simulation loops can stay
    branch-free.  E is stored as a read-only copy of the input.
    """

    click: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        (e,), dims = _checked_clicks([self.click], self.dims)
        object.__setattr__(self, "click", e)
        object.__setattr__(self, "dims", dims)

    def element(self, outcome: int) -> np.ndarray:
        if outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
        return self.click if outcome else np.eye(len(self.click)) - self.click


def _checked_clicks(clicks, dims) -> tuple[np.ndarray, tuple[int, ...]]:
    """Read-only complex copy of a (N, d, d) stack of click elements, and the checked ``dims``.

    The click rule: eigenvalues in [0, 1] (see :func:`mdiw.linalg.check_operators`).
    """
    es = np.array(clicks, dtype=complex)
    dims = check_operators(es, dims, spectrum=(0.0, 1.0))
    es.setflags(write=False)
    return es, dims


@functools.cache
def bell_outcome_povm(d: int) -> POVM:
    """Projection onto the maximally entangled ket versus its complement, built once per ``d``.

    Outcome 1 flags a successful projection of (input (x) share) onto
    (1/sqrt(d)) sum_i |ii>; at d = 1 that projection is the identity, so the party always clicks.
    """
    return POVM(projector(max_entangled(d)), (d, d))


def apply_pre_measurement_map(povm: POVM, kraus_ops) -> POVM:
    """Compose a quantum operation (given by Kraus operators) before a binary POVM.

    The map may be trace-non-increasing (losses); missing weight lands on
    outcome 0.  In the Heisenberg picture the success element E becomes
    sum_i K_i^dagger E K_i, which stays between 0 and the identity; an
    empty Kraus list gives E = 0.  The operators are contracted as one
    stack, summed in list order like the term-by-term loop.
    """
    e1 = povm.click
    ks = np.asarray(list(kraus_ops), dtype=complex)
    if not len(ks):
        ks = ks.reshape((0,) + e1.shape)
    if ks.shape[1:] != e1.shape:
        raise ValueError(f"Kraus operators must be {e1.shape} matrices, got a stack {ks.shape}")
    return POVM(_mapped_clicks(e1, ks), povm.dims)


def _mapped_clicks(clicks: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """sum_i K_i^dagger E K_i for E of shape (..., D, D) and its Kraus operators (..., n, D, D)."""
    return (kraus.conj().swapaxes(-1, -2) @ clicks[..., None, :, :] @ kraus).sum(axis=-3)


@dataclass(frozen=True)
class EntangledStrategy:
    """A shared n-party state plus one joint measurement per party.

    Party p's POVM acts on input_p (x) share_p, where share_p is the p-th
    factor of the shared state.
    """

    shared: DensityMatrix
    measurements: tuple[POVM, ...]

    def __post_init__(self):
        measurements = tuple(self.measurements)
        if len(measurements) != len(self.shared.dims):
            raise ValueError("one measurement per shared-state factor required")
        for p, (m, d) in enumerate(zip(_share_dims(measurements), self.shared.dims)):
            if m != d:
                raise ValueError(f"party {p}: POVM share dim {m} incompatible with shared factor dim {d}")
        object.__setattr__(self, "measurements", measurements)

    @property
    def n_parties(self) -> int:
        return len(self.measurements)


def _share_dims(measurements) -> tuple[int, ...]:
    """Each party's share dim; every POVM must act on input_p (x) share_p."""
    for p, povm in enumerate(measurements):
        if len(povm.dims) != 2:
            raise ValueError(f"party {p}: POVM dims {povm.dims} are not (input, share)")
    return tuple(povm.dims[1] for povm in measurements)


def bell_strategy(shared: DensityMatrix) -> EntangledStrategy:
    """The honest strategy: every party projects onto a maximally entangled state."""
    return EntangledStrategy(shared, tuple(bell_outcome_povm(d) for d in shared.dims))


def _check_weights(weights) -> None:
    """Mixture weights must be nonnegative and sum to 1, each within 1e-12; a NaN fails the sum."""
    if any(w < -1e-12 for w in weights):
        raise ValueError("mixture weights must be nonnegative")
    total = sum(weights)
    if not abs(total - 1.0) <= 1e-12:
        raise ValueError(f"mixture weights sum to {total}, not 1")


@dataclass(frozen=True)
class SeparableStrategy:
    """A mixture of per-party share states with fixed per-party measurements.

    Term k carries weight[k] and one share state per party; the POVMs act
    on input_p (x) share_p and do not vary with k (shared randomness is
    absorbed into the mixture).
    """

    weights: tuple[float, ...]
    share_states: tuple[tuple[DensityMatrix, ...], ...]
    measurements: tuple[POVM, ...]

    def __post_init__(self):
        weights = tuple(map(float, self.weights))
        share_states = tuple(map(tuple, self.share_states))
        measurements = tuple(self.measurements)
        _check_weights(weights)
        if len(share_states) != len(weights):
            raise ValueError("one share-state tuple per mixture term required")
        shares = _share_dims(measurements)
        for term in share_states:
            if len(term) != len(shares):
                raise ValueError("each mixture term needs one share state per party")
            for p, sigma in enumerate(term):
                if sigma.dim != shares[p]:
                    raise ValueError(f"party {p}: share state dim {sigma.dim} vs POVM {measurements[p].dims}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "share_states", share_states)
        object.__setattr__(self, "measurements", measurements)

    @property
    def n_parties(self) -> int:
        return len(self.measurements)


BIPARTITIONS_3 = {"AB|C": ((0, 1), 2), "AC|B": ((0, 2), 1), "BC|A": ((1, 2), 0)}


@dataclass(frozen=True)
class BiseparableTerm:
    """One mixture term: a two-party group state and a singleton state.

    The group state may be entangled within the group; which pair forms
    the group is the term's bipartition tag.
    """

    bipartition: str
    weight: float
    group_state: DensityMatrix
    singleton_state: DensityMatrix

    def __post_init__(self):
        if self.bipartition not in BIPARTITIONS_3:
            raise ValueError(f"unknown bipartition {self.bipartition!r}")
        if len(self.group_state.dims) != 2:
            raise ValueError("group state must have two factors")
        if len(self.singleton_state.dims) != 1:
            raise ValueError("singleton state must have one factor")
        object.__setattr__(self, "weight", float(self.weight))

    @property
    def group(self) -> tuple[int, int]:
        return BIPARTITIONS_3[self.bipartition][0]

    @property
    def singleton(self) -> int:
        return BIPARTITIONS_3[self.bipartition][1]


@dataclass(frozen=True)
class BiseparableStrategy:
    """Tripartite mixture of bipartition-tagged terms with fixed measurements."""

    terms: tuple[BiseparableTerm, ...]
    measurements: tuple[POVM, POVM, POVM]

    def __post_init__(self):
        terms = tuple(self.terms)
        measurements = tuple(self.measurements)
        if len(measurements) != 3:
            raise ValueError("biseparable strategies are tripartite")
        _check_weights([t.weight for t in terms])
        shares = _share_dims(measurements)
        for t in terms:
            (p, q), r = BIPARTITIONS_3[t.bipartition]
            if t.group_state.dims != (shares[p], shares[q]):
                raise ValueError("group state dims inconsistent with its bipartition")
            if t.singleton_state.dims != (shares[r],):
                raise ValueError("singleton state dim inconsistent with its bipartition")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "measurements", measurements)

    @property
    def n_parties(self) -> int:
        return 3


@dataclass(frozen=True)
class CorrelationTable:
    """P(all outcomes = 1 | inputs) on the input grid, optionally with full distributions.

    ``p_all_ones[s, t, ...]`` is indexed by each party's input position in
    its ``labels`` tuple.  ``full``, when present, puts one outcome axis of
    size 2 per party in front (index 1 = click):
    ``full[a, b, ..., s, t, ...] = P(a, b, ... | s, t, ...)``.  Both are
    checked once, as whole arrays, and stored as read-only copies; labels
    only return when a table is rendered by :func:`table_to_csv`.
    """

    parties: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]
    p_all_ones: np.ndarray
    full: np.ndarray | None = None

    def __post_init__(self):
        if len(self.parties) != len(self.labels):
            raise ValueError(f"{len(self.parties)} party names for {len(self.labels)} label tuples")
        grid = tuple(len(ls) for ls in self.labels)
        p = _checked_probabilities("p_all_ones", self.p_all_ones, grid, self.labels)
        object.__setattr__(self, "p_all_ones", p)
        if self.full is not None:
            full = _checked_probabilities("full", self.full, (2,) * len(grid) + grid, self.labels)
            sums = full.reshape(-1, *grid).sum(axis=0)
            worst = np.unravel_index(np.abs(sums - 1.0).argmax(), grid)
            if abs(sums[worst] - 1.0) > 1e-10:
                raise ValueError(f"distribution at {_key(self.labels, worst)} sums to {sums[worst]}")
            object.__setattr__(self, "full", full)

    @property
    def n_parties(self) -> int:
        return len(self.labels)


def _key(labels, idx) -> tuple[str, ...]:
    """Label tuple of one input-grid cell, for error messages."""
    return tuple(ls[i] for ls, i in zip(labels, idx[-len(labels):]))


def _checked_probabilities(name: str, values, shape, labels) -> np.ndarray:
    """Read-only float copy of ``values``, which must have ``shape`` and lie in [0, 1]."""
    a = np.asarray(values)
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    a = a.astype(float)
    if not (a.min() >= -1e-10 and a.max() <= 1.0 + 1e-10):  # NaN fails both
        worst = np.unravel_index(np.nan_to_num(np.abs(a - 0.5), nan=np.inf).argmax(), shape)
        raise ValueError(f"probability {a[worst]} out of range at {_key(labels, worst)}")
    a.setflags(write=False)
    return a


def trace_inputs(element: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """F[..., s] = tr_in[E (tau_s (x) 1)]: inputs (S, d, d) traced into E on input (x) share.

    ``element`` is one operator or a stack of them; leading axes carry through.
    The trace sums each (i, j) pair as one flattened axis: F has the same bits in a stack of any size.
    F is C-ordered, one copy of einsum's own output (``order="C"`` costs more on a stack).
    """
    d, lead = taus.shape[1], element.ndim - 2
    share = element.shape[-1] // d
    # F[s, a, b] = sum_ij E[i a, j b] tau[s, j, i], the pair (i, j) as k = i d + j
    e = element.reshape(element.shape[:-2] + (d, share, d, share))
    e = e.transpose(*range(lead), lead + 1, lead + 3, lead, lead + 2).reshape(e.shape[:lead] + (share, share, -1))
    taus = taus.swapaxes(-1, -2).reshape(len(taus), -1)
    return np.ascontiguousarray(np.einsum("...abk,sk->...abs", e, taus).swapaxes(-1, -3).swapaxes(-1, -2))


def _contract_grid(rho: np.ndarray, dims, stacks) -> np.ndarray:
    """p[..., s, t, ...] = Re sum rho[..., a, b, ..., A, B, ...] G_1[s, a, A] G_2[t, b, B] ..."""
    n = len(stacks)
    labels, rows, cols = (string.ascii_letters[k * n : (k + 1) * n] for k in range(3))
    spec = ",".join(["..." + rows + cols] + [l + r + c for l, r, c in zip(labels, rows, cols)])
    rho = rho.reshape(rho.shape[:-2] + tuple(dims) * 2)
    return np.einsum(f"{spec}->...{labels}", rho, *stacks).real


def _table(ensembles, p: np.ndarray, include_full: bool) -> CorrelationTable:
    """Table over the ensembles' input grid from ``p``, which with ``include_full`` has the outcome axes in front."""
    full = p if include_full else None
    if include_full:
        p = full[(1,) * len(ensembles)]
    return CorrelationTable(tuple([e.party for e in ensembles]), tuple([e.labels for e in ensembles]), p, full)


def fast_entangled_table(rho: DensityMatrix, ensembles) -> CorrelationTable:
    """Honest-strategy table over full input grids by one contraction.

    tr[(tau_s^T (x) omega_t^T (x) ...) rho] sums rho entrywise against
    tau_s (x) omega_t (x) ..., so rho meets the stacked inputs directly.
    No other table uses :func:`_contract_grid`: it checks :func:`simulate_entangled` independently.
    """
    ensembles = tuple(ensembles)
    if tuple(e.dim for e in ensembles) != rho.dims:
        raise ValueError("input dims must match the shared state's factor dims")
    p = _contract_grid(rho.matrix, rho.dims, [e.matrices for e in ensembles]) / math.prod(rho.dims)
    return _table(ensembles, p, False)


# Strategies in block form: a term is a partition of the parties into blocks
# plus one state per block (a shared state is one block of every party, a
# fully separable term has the all-singleton partition, a biseparable term a
# bipartition), and the terms of one partition form a group (idx, partition,
# states): their indices into the weights, the partition and one (K_g, D_b,
# D_b) state stack per block.  The weights are a dense (R, K) matrix, row r
# the weights of mixture r, so R drawn mixtures (the loss check's samples)
# form one batch; a strategy is the case R = 1.  Term i is
# weights.flat[i], of mixture i // K.
# Only _groups reads the public strategy types; nothing turns a block form back into a strategy.

# each BIPARTITIONS_3 tag's partition (pair, (singleton,)), in sorted order, and each layout's tag
_BIPARTITIONS = {tag: (pair, (single,)) for tag, (pair, single) in sorted(BIPARTITIONS_3.items())}
_TAGS = {layout: tag for tag, layout in BIPARTITIONS_3.items()}


@functools.cache
def _singletons(n: int) -> tuple:
    """The all-singleton partition of n parties, a fully separable term's."""
    return tuple((p,) for p in range(n))


def _groups(strategy) -> tuple[np.ndarray, list]:
    """Weights (1, K) and groups of a strategy: a shared state is one term of weight 1 in one block of
    every party, a separable strategy one group, every term in order, and a biseparable one a group per
    bipartition with terms, in sorted partition order, each group's terms ascending."""
    if isinstance(strategy, EntangledStrategy):
        every = (tuple(range(strategy.n_parties)),)
        return np.ones((1, 1)), [(np.arange(1), every, [strategy.shared.matrix[None]])]
    if isinstance(strategy, SeparableStrategy):
        terms = strategy.share_states
        states = [np.array([t[p].matrix for t in terms]) for p in range(strategy.n_parties)]
        return np.array([strategy.weights]), [(np.arange(len(terms)), _singletons(strategy.n_parties), states)]
    if not isinstance(strategy, BiseparableStrategy):
        raise TypeError(f"unsupported strategy type {type(strategy).__name__}")
    terms, members = strategy.terms, {tag: [] for tag in _BIPARTITIONS}
    for i, t in enumerate(terms):
        members[t.bipartition].append(i)
    groups = [(np.asarray(idx), _BIPARTITIONS[tag], [np.array([terms[i].group_state.matrix for i in idx]),
                                                    np.array([terms[i].singleton_state.matrix for i in idx])])
              for tag, idx in members.items() if idx]
    return np.array([[t.weight for t in terms]]), groups


def _contract(stacks, sigma) -> np.ndarray:
    """The block contraction x[..., k, x_1, x_2, ...] = tr[(G_1[..., k, x_1] (x) G_2[..., k, x_2] (x) ...) sigma_k].

    ``stacks`` holds one (..., K or 1, X_p, m_p, m_p) stack G_p per party of
    a block, ``sigma`` the block's (K, M, M) states, M = prod m_p.  One stacked
    matmul per party sums each (row, column) pair of its share as one
    flattened axis, so a state has the same bits in a stack of any size; a
    stack of one broadcasts over the states, and the leading axes of the
    stacks broadcast against each other.  Tables pass the traced elements
    F_p (X_p = S_p).
    """
    n, ms = len(stacks), [g.shape[-1] for g in stacks]
    # x[k, (b, a) of each party still to contract..., x of each contracted] = sigma[k, a..., b...]
    x = sigma.reshape((len(sigma),) + (*ms, *ms)).transpose([0] + [a for p in range(1, n + 1) for a in (n + p, p)])
    lead = x.shape[:1]
    for g, m in zip(stacks, ms):
        x = (g.reshape(g.shape[:-2] + (m * m,)) @ x.reshape(lead + (m * m, -1))).swapaxes(-1, -2)
        lead = x.shape[:-2]
    return x.reshape(lead + tuple([g.shape[-3] for g in stacks]))


# einsum letters: k runs over a group's terms, party p has the input letter
# _IN[p], and the ellipsis carries a full table's outcome axes.
_IN = "stuvwxyz"


@functools.cache
def _grid_spec(partition: tuple) -> str:
    """einsum spec of w_k prod_B R_B[..., k, s_B], term by term, for a partition's block responses."""
    ins = ["".join(_IN[p] for p in b) for b in partition]
    return ",".join(["k"] + [f"...k{i}" for i in ins]) + f"->k...{_IN[:sum(map(len, partition))]}"


def _rows(idx, shape) -> np.ndarray | slice:
    """Each term ``idx``'s mixture of the (R, K) weights ``shape``, as it indexes a (R, S, m, m) F_p.

    A batch of one reads its F_p whole: the contraction broadcasts it over the terms, with a gathered F_p's bits.
    """
    return idx // shape[1] if shape[0] > 1 else slice(None)


def _responses(groups, fs, shape) -> list[list[np.ndarray]]:
    """Every group's block responses R[..., k, s_B] = tr[(F_p[s_p] (x) ...) sigma_k], block by block, as
    complex arrays, from each party's (..., R, S, m, m) F_p in ``fs``; ``shape`` is that of the (R, K) weights."""
    return [[_contract([fs[p][t] for p in b], s) for b, s in zip(partition, states)]
            for idx, partition, states in groups for t in [_rows(idx, shape)]]


def _grid(weights: np.ndarray, groups, resp) -> np.ndarray:
    """p[r, ..., s, t, ...] = sum of w[r, k] prod_B R_B[..., k, s_B] over mixture r's terms, R_B the responses'
    real parts.

    Each group's terms are scattered to their indices, save a lone group's: it holds every term in order.
    """
    w = weights.ravel()
    parts = [(idx, np.einsum(_grid_spec(partition), w if len(groups) == 1 else w[idx], *[x.real for x in r]))
             for (idx, partition, _), r in zip(groups, resp)]
    z = parts[0][1]
    if len(parts) > 1:
        z = np.empty((len(w),) + z.shape[1:])
        for idx, part in parts:
            z[idx] = part
    return z.reshape(weights.shape + z.shape[1:]).sum(axis=1)


def _simulate(strategy, ensembles, include_full: bool) -> CorrelationTable:
    """Correlation table of any strategy, through its block form.

    The strategy's terms become block products, a batch of one mixture
    (see :func:`_groups`).  Each party's inputs are traced into its click
    element once, ``F_p[s] = tr_in[E_p (tau_s (x) 1)]``; with
    ``include_full`` the outcome-0 element and E_p are traced as one stack
    whose outcome axis is party p's own leading axis, one of n.  The block
    contraction (:func:`_contract`) gives ``R[..., k, s_B] = tr[(F_p[s_p]
    (x) ...) sigma_k]`` for every input and term, the outcome axes
    broadcasting into every outcome tuple, and one more per group contracts
    the weighted terms into every input tuple at once.  The loss check's
    batch of samples is built in this form by :func:`mdiw.attack._block`.
    """
    ensembles, measurements = tuple(ensembles), strategy.measurements
    weights, groups = _groups(strategy)
    if len(ensembles) != len(measurements):
        raise ValueError(f"strategy has {len(measurements)} parties, got {len(ensembles)} ensembles")
    for p, (e, m) in enumerate(zip(ensembles, measurements)):
        if e.dim != m.dims[0]:
            raise ValueError(f"party {p}: ensemble dim {e.dim} vs measurement input dim {m.dims[0]}")
    n = len(ensembles)
    fs = [trace_inputs(np.array([m.element(0), m.click]), e.matrices).reshape(
          (1,) * p + (2,) + (1,) * (n - 1 - p) + (1, len(e)) + (m.dims[1],) * 2) if include_full
          else trace_inputs(m.click, e.matrices)[None] for p, (m, e) in enumerate(zip(measurements, ensembles))]
    return _table(ensembles, _grid(weights, groups, _responses(groups, fs, weights.shape))[0], include_full)


def simulate_entangled(strategy: EntangledStrategy, ensembles, include_full: bool = False) -> CorrelationTable:
    """Correlation table for a shared-state strategy: the one-term, one-block case of the block form."""
    return _simulate(strategy, ensembles, include_full)


def simulate_separable(strategy, ensembles, include_full: bool = False) -> CorrelationTable:
    """Correlation table for a separable or biseparable strategy, through the block form."""
    return _simulate(strategy, ensembles, include_full)


def mdi_value(dec: Decomposition, table: CorrelationTable) -> float:
    """Contract decomposition coefficients against all-ones probabilities.

    This is the game functional: nonnegative for every strategy without
    entanglement when the decomposition reconstructs a valid witness, and
    tr[W rho] / prod(dims) for the honest strategy on rho.
    """
    if dec.n_parties != table.n_parties:
        raise ValueError(f"decomposition has {dec.n_parties} parties, table has {table.n_parties}")
    for p, e in enumerate(dec.ensembles):
        if e.labels != table.labels[p]:
            raise ValueError(f"party {p}: decomposition labels {e.labels} vs table labels {table.labels[p]}")
    return float(np.dot(dec.beta.ravel(), table.p_all_ones.ravel()))


def check_efficiencies(etas, parties: int) -> tuple[float, ...]:
    """Detection efficiencies as floats, one per party; each must lie in (0, 1]."""
    etas = tuple(float(e) for e in etas)
    if len(etas) != parties:
        raise ValueError("one efficiency per party required")
    if any(not 0.0 < e <= 1.0 for e in etas):
        raise ValueError(f"efficiencies must lie in (0, 1], got {etas}")
    return etas


def apply_uniform_loss(table: CorrelationTable, etas) -> CorrelationTable:
    """Model per-party detection efficiency eta as outcome-1 -> 0 leakage.

    All-ones probabilities are multiplied by the product of the
    efficiencies.  Stored full distributions pass, party by party, through
    the column-stochastic map ``[[1, 1 - eta], [0, eta]]`` on that party's
    outcome axis: a click is kept with probability eta and otherwise lands
    on outcome 0, so each distribution stays normalized.
    """
    etas = check_efficiencies(etas, table.n_parties)
    full = table.full
    if full is not None:
        for p, eta in enumerate(etas):
            keep = np.array([[1.0, 1.0 - eta], [0.0, eta]])
            full = np.moveaxis(np.tensordot(keep, full, axes=(1, p)), 0, p)
    return CorrelationTable(table.parties, table.labels, table.p_all_ones * math.prod(etas), full)


def violation_scan(family: str, dec: Decomposition, grid, etas=None) -> list[tuple[float, float]]:
    """Honest-strategy game value along ``grid`` for a family of :data:`mdiw.states.FAMILIES`.

    ``etas`` are the detector efficiencies (lossless when omitted).  The value is
    linear in the state, so only the family's ends v = 1 and v = 0 are built,
    checked and scored, each as one state alone; every point is then
    ``v I_1 + (1 - v) I_0`` on its own, the same bits in any grid.
    """
    etas = (1.0,) * dec.n_parties if etas is None else etas
    i1, i0 = (mdi_value(dec, apply_uniform_loss(fast_entangled_table(family_state(family, v), dec.ensembles), etas))
              for v in (1.0, 0.0))
    vs = _mixing_parameters([float(v) for v in grid])
    return list(zip(vs.tolist(), (vs * i1 + (1.0 - vs) * i0).tolist()))


def table_to_csv(table: CorrelationTable) -> str:
    """CSV rendering: one label column per party, then probabilities.

    Rows are ordered lexicographically by label tuple and end with LF; a row's numbers
    are one ``%.17g`` :func:`~mdiw.serialize.fmt_row` call, its labels joined outside
    it.  This is the one place where input indices turn back into labels.
    """
    n = table.n_parties
    orders = [sorted(range(len(ls)), key=ls.__getitem__) for ls in table.labels]
    grid = np.ix_(*orders)
    columns = [table.p_all_ones[grid].ravel()]
    headers = list(table.parties) + ["p_all_ones"]
    if table.full is not None:
        headers += [f"p_{''.join(bits)}" for bits in itertools.product("01", repeat=n)]
        columns += list(table.full[(...,) + grid].reshape(2**n, -1))
    keys = itertools.product(*([ls[i] for i in o] for ls, o in zip(table.labels, orders)))
    lines = [",".join(headers)]
    for key, row in zip(keys, np.stack(columns, axis=1).tolist()):
        lines.append(",".join([*key, fmt_row(row)]))
    return "\n".join(lines) + "\n"
