"""Simulation of games with quantum inputs and binary outcomes.

Each party receives an input state from its ensemble, measures it jointly
with its part of a shared state, and outputs 0 or 1.  The joint system is
always laid out as

    input_1 (x) share_1 (x) input_2 (x) share_2 (x) ...

with each party's input adjacent to its share, though tables never build
that joint space: :func:`trace_inputs` folds each party's inputs into its
outcome elements, and one contraction with the shared state gives the
whole table.  Unentangled strategies contract the same traced elements
against each mixture term's share states into per-party responses, and
one contraction over the terms gives their table.  The game functional
contracts a witness decomposition against the all-ones outcome
probabilities, so a negative value certifies entanglement of the shared
state no matter what the devices actually did.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    TOL_HERM,
    TOL_PSD,
    as_matrix,
    check_dims,
    hermiticity_defect,
    kron,
    kron_all,
    partial_trace,
    permute_subsystems,
)
from .states import DensityMatrix, InputEnsemble, max_entangled, projector
from .witness import Decomposition


@dataclass(frozen=True)
class POVM:
    """Ordered measurement elements on a (possibly multi-factor) space.

    Elements must be Hermitian, positive semidefinite and sum to the
    identity; this is enforced here, at construction, so the simulation
    loops can stay branch-free.
    """

    elements: tuple[np.ndarray, ...]
    outcomes: tuple[int, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        elements = tuple(as_matrix(e) for e in self.elements)
        if len(elements) != len(self.outcomes):
            raise ValueError("one outcome label per element required")
        d = elements[0].shape[0]
        dims = check_dims(self.dims, d)
        total = np.zeros((d, d), dtype=complex)
        for e in elements:
            if e.shape != (d, d):
                raise ValueError("POVM elements must share one square shape")
            if hermiticity_defect(e) > TOL_HERM:
                raise ValueError("POVM element not Hermitian")
            if float(np.linalg.eigvalsh(e)[0]) < -TOL_PSD:
                raise ValueError("POVM element not positive semidefinite")
            total += e
        if np.abs(total - np.eye(d)).max() > 1e-10:
            raise ValueError("POVM elements do not sum to the identity")
        elements = tuple(e.copy() for e in elements)
        for e in elements:
            e.setflags(write=False)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "outcomes", tuple(int(o) for o in self.outcomes))
        object.__setattr__(self, "dims", dims)

    def element(self, outcome: int) -> np.ndarray:
        return self.elements[self.outcomes.index(outcome)]


def binary_povm(success_element: np.ndarray, dims) -> POVM:
    """POVM {E, 1 - E} with outcomes (1, 0)."""
    e = as_matrix(success_element)
    return POVM((e, np.eye(e.shape[0], dtype=complex) - e), (1, 0), tuple(dims))


def bell_outcome_povm(d: int) -> POVM:
    """Projection onto the maximally entangled ket versus its complement.

    Outcome 1 flags a successful projection of (input (x) share) onto
    (1/sqrt(d)) sum_i |ii>.
    """
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    return binary_povm(projector(max_entangled(d)), (d, d))


def apply_pre_measurement_map(povm: POVM, kraus_ops) -> POVM:
    """Compose a quantum operation (given by Kraus operators) before a binary POVM.

    The map may be trace-non-increasing (losses); missing weight lands on
    outcome 0.  In the Heisenberg picture the success element E becomes
    sum_i K_i^dagger E K_i, which stays between 0 and the identity.
    """
    e1 = povm.element(1)
    transformed = np.zeros_like(e1)
    for k in kraus_ops:
        k = as_matrix(k)
        transformed += k.conj().T @ e1 @ k
    return binary_povm(transformed, povm.dims)


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
        for p, (povm, d_share) in enumerate(zip(measurements, self.shared.dims)):
            if len(povm.dims) != 2 or povm.dims[1] != d_share:
                raise ValueError(
                    f"party {p}: POVM dims {povm.dims} incompatible with share dim {d_share}"
                )
        object.__setattr__(self, "measurements", measurements)

    @property
    def n_parties(self) -> int:
        return len(self.measurements)

    @property
    def input_dims(self) -> tuple[int, ...]:
        return tuple(p.dims[0] for p in self.measurements)


def bell_strategy(shared: DensityMatrix) -> EntangledStrategy:
    """The honest strategy: every party projects onto a maximally entangled state."""
    return EntangledStrategy(shared, tuple(bell_outcome_povm(d) for d in shared.dims))


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
        weights = tuple(float(w) for w in self.weights)
        share_states = tuple(tuple(term) for term in self.share_states)
        measurements = tuple(self.measurements)
        if any(w < -1e-12 for w in weights):
            raise ValueError("mixture weights must be nonnegative")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {sum(weights)}, not 1")
        if len(share_states) != len(weights):
            raise ValueError("one share-state tuple per mixture term required")
        n = len(measurements)
        for term in share_states:
            if len(term) != n:
                raise ValueError("each mixture term needs one share state per party")
            for p, (sigma, povm) in enumerate(zip(term, measurements)):
                if povm.dims[1] != sigma.dim:
                    raise ValueError(f"party {p}: share state dim {sigma.dim} vs POVM {povm.dims}")
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
        total = sum(t.weight for t in terms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"term weights sum to {total}, not 1")
        if any(t.weight < -1e-12 for t in terms):
            raise ValueError("term weights must be nonnegative")
        for t in terms:
            p, q = t.group
            if t.group_state.dims != (measurements[p].dims[1], measurements[q].dims[1]):
                raise ValueError("group state dims inconsistent with its bipartition")
            if t.singleton_state.dims != (measurements[t.singleton].dims[1],):
                raise ValueError("singleton state dim inconsistent with its bipartition")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "measurements", measurements)

    @property
    def n_parties(self) -> int:
        return 3


@dataclass(frozen=True)
class CorrelationTable:
    """P(all outcomes = 1 | input labels), optionally with full distributions.

    ``full``, when present, maps each input-label tuple to a dict from
    outcome bitstrings (party order, '1' = click) to probabilities.
    """

    parties: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]
    p_all_ones: dict[tuple[str, ...], float]
    full: dict[tuple[str, ...], dict[str, float]] | None = field(default=None)

    def __post_init__(self):
        expected = set(itertools.product(*self.labels))
        if set(self.p_all_ones) != expected:
            raise ValueError("table keys do not cover the input label grid")
        for key, p in self.p_all_ones.items():
            if not -1e-10 <= p <= 1.0 + 1e-10:
                raise ValueError(f"probability {p} out of range at {key}")
        if self.full is not None:
            for key, dist in self.full.items():
                s = sum(dist.values())
                if abs(s - 1.0) > 1e-10:
                    raise ValueError(f"distribution at {key} sums to {s}")

    @property
    def n_parties(self) -> int:
        return len(self.labels)


def trace_inputs(element: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """F[s] = tr_in[E (tau_s (x) 1)]: inputs (S, d, d) traced into E on input (x) share."""
    d = taus.shape[1]
    share = element.shape[0] // d
    # F[s, a, b] = sum_ij E[i a, j b] tau[s, j, i]
    return np.einsum("iajb,sji->sab", element.reshape(d, share, d, share), taus)


def _responses(f: np.ndarray, shares: np.ndarray) -> np.ndarray:
    """r[s, k] = tr[F[s] sigma_k] = tr[E (tau_s (x) sigma_k)], with F = trace_inputs(E, tau)."""
    return np.einsum("sab,kba->sk", f, shares).real


def _pair_responses(fp: np.ndarray, fq: np.ndarray, group: np.ndarray) -> np.ndarray:
    """pair[s, t] = tr[(F_p[s] (x) F_q[t]) sigma_group] for a group tensor (m_p, m_q, m_p, m_q)."""
    return np.einsum("sab,tAB,bBaA->st", fp, fq, group).real


def _check_ensembles(measurements, ensembles) -> None:
    """One ensemble per party, each on its measurement's input space."""
    n = len(measurements)
    if len(ensembles) != n:
        raise ValueError(f"strategy has {n} parties, got {len(ensembles)} ensembles")
    for p, (e, m) in enumerate(zip(ensembles, measurements)):
        if e.dim != m.dims[0]:
            raise ValueError(f"party {p}: ensemble dim {e.dim} vs measurement input dim {m.dims[0]}")


def _input_stacks(ensembles) -> list[np.ndarray]:
    return [np.stack([s.matrix for s in e.states]) for e in ensembles]


def _contract_grid(shared: DensityMatrix, stacks) -> np.ndarray:
    """p[s, t, ...] = Re sum rho[a, b, ..., A, B, ...] G_1[s, a, A] G_2[t, b, B] ..."""
    n = len(stacks)
    labels, rows, cols = (string.ascii_letters[k * n : (k + 1) * n] for k in range(3))
    spec = ",".join([rows + cols] + [l + r + c for l, r, c in zip(labels, rows, cols)])
    rho = shared.matrix.reshape(shared.dims + shared.dims)
    return np.einsum(f"{spec}->{labels}", rho, *stacks).real


def _table(ensembles, p_all_ones: np.ndarray, full=None) -> CorrelationTable:
    """Label-keyed table from arrays indexed by the ensembles' label grid."""
    keys = list(itertools.product(*(e.labels for e in ensembles)))
    full_map = None
    if full is not None:
        cells = zip(*(p.ravel().tolist() for p in full.values()))
        full_map = {key: dict(zip(full, cell)) for key, cell in zip(keys, cells)}
    return CorrelationTable(
        parties=tuple(e.party for e in ensembles),
        labels=tuple(e.labels for e in ensembles),
        p_all_ones=dict(zip(keys, p_all_ones.ravel().tolist())),
        full=full_map,
    )


def simulate_entangled(
    strategy: EntangledStrategy,
    ensembles,
    include_full: bool = False,
) -> CorrelationTable:
    """Full-tensor correlation table for a shared-state strategy.

    Each party's inputs are traced into its outcome elements once, and one
    contraction per outcome bitstring with the shared state gives every
    input tuple at once.
    """
    ensembles = tuple(ensembles)
    n = strategy.n_parties
    _check_ensembles(strategy.measurements, ensembles)
    # g[p][b][s, a, A] = F_p^b[s, A, a]: F's column index meets rho's row index.
    g = [
        np.stack([trace_inputs(m.element(b), taus) for b in (0, 1)]).transpose(0, 1, 3, 2)
        for m, taus in zip(strategy.measurements, _input_stacks(ensembles))
    ]
    outcomes = itertools.product((0, 1), repeat=n) if include_full else [(1,) * n]
    p = {
        "".join(map(str, bits)): _contract_grid(strategy.shared, [gp[b] for gp, b in zip(g, bits)])
        for bits in outcomes
    }
    return _table(ensembles, p["1" * n], p if include_full else None)


def fast_entangled_prob(rho: DensityMatrix, inputs) -> float:
    """All-ones probability of the honest strategy, without the full tensor.

    For projections onto maximally entangled states the joint contraction
    collapses to tr[(transpose(tau_1) (x) ... ) rho] divided by the product
    of the input dimensions.  Must agree with :func:`simulate_entangled`
    under :func:`bell_strategy` to full precision.
    """
    inputs = tuple(inputs)
    if tuple(s.dim for s in inputs) != rho.dims:
        raise ValueError("input dims must match the shared state's factor dims")
    return _contract_grid(rho, [s.matrix[None] for s in inputs]).item() / math.prod(rho.dims)


def fast_entangled_table(rho: DensityMatrix, ensembles) -> CorrelationTable:
    """Honest-strategy table over full input grids by one contraction.

    tr[(tau_s^T (x) omega_t^T (x) ...) rho] sums rho entrywise against
    tau_s (x) omega_t (x) ..., so rho meets the stacked inputs directly.
    """
    ensembles = tuple(ensembles)
    if tuple(e.dim for e in ensembles) != rho.dims:
        raise ValueError("input dims must match the shared state's factor dims")
    p = _contract_grid(rho, _input_stacks(ensembles)) / math.prod(rho.dims)
    return _table(ensembles, p)


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


def simulate_separable(strategy, ensembles, include_full: bool = False) -> CorrelationTable:
    """Correlation table for strategies without any shared entanglement.

    Each party's inputs are traced into its success element once, and its
    responses ``r[s, k] = tr[E (tau_s (x) sigma_k)]`` to every input and
    mixture term follow from one contraction with the term's share states
    (for a biseparable term, the group's pair responses against its group
    state).  One contraction over the terms then gives every input tuple
    at once; outcome 0 uses ``1 - r``.  The search in
    :mod:`mdiw.attack` scores strategies through the same response
    contraction, and :func:`simulate_entangled` on the explicitly mixed
    shared state agrees with it.
    """
    ensembles = tuple(ensembles)
    if not isinstance(strategy, (SeparableStrategy, BiseparableStrategy)):
        raise TypeError(f"unsupported strategy type {type(strategy).__name__}")
    _check_ensembles(strategy.measurements, ensembles)
    fs = [
        trace_inputs(m.element(1), taus)
        for m, taus in zip(strategy.measurements, _input_stacks(ensembles))
    ]
    if isinstance(strategy, BiseparableStrategy):
        if include_full:
            raise NotImplementedError("full distributions are only kept for all-ones-based checks")
        return _table(ensembles, _biseparable_grid(strategy, fs))
    n = strategy.n_parties
    weights = np.asarray(strategy.weights)
    resp = [
        _responses(f, np.stack([term[p].matrix for term in strategy.share_states]))
        for p, f in enumerate(fs)
    ]
    parties = string.ascii_lowercase[:n]
    spec = ",".join(["K"] + [f"{c}K" for c in parties]) + f"->{parties}"
    outcomes = itertools.product((0, 1), repeat=n) if include_full else [(1,) * n]
    p = {
        "".join(map(str, bits)): np.einsum(
            spec, weights, *(r if b else 1.0 - r for r, b in zip(resp, bits))
        )
        for bits in outcomes
    }
    return _table(ensembles, p["1" * n], p if include_full else None)


def _biseparable_grid(strategy: BiseparableStrategy, fs) -> np.ndarray:
    """p[s, t, u] = sum_k w_k pair_k[group inputs] * single_k[singleton input]."""
    p = 0.0
    for term in strategy.terms:
        (a, b), c = term.group, term.singleton
        pair = _pair_responses(
            fs[a], fs[b], term.group_state.matrix.reshape(term.group_state.dims * 2)
        )
        single = _responses(fs[c], term.singleton_state.matrix[None])[:, 0]
        # axes come out in (a, b, c) order; argsort puts them in party order
        p = p + term.weight * np.einsum("st,u->stu", pair, single).transpose(np.argsort((a, b, c)))
    return p


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


def mdi_value(dec: Decomposition, table: CorrelationTable) -> float:
    """Contract decomposition coefficients against all-ones probabilities.

    This is the game functional: nonnegative for every strategy without
    entanglement when the decomposition reconstructs a valid witness, and
    tr[W rho] / prod(dims) for the honest strategy on rho.
    """
    if dec.n_parties != table.n_parties:
        raise ValueError(
            f"decomposition has {dec.n_parties} parties, table has {table.n_parties}"
        )
    for p, e in enumerate(dec.ensembles):
        if e.labels != table.labels[p]:
            raise ValueError(
                f"party {p}: decomposition labels {e.labels} vs table labels {table.labels[p]}"
            )
    p = np.array([table.p_all_ones[key] for key in itertools.product(*table.labels)])
    return float(np.dot(dec.beta.ravel(), p))


def apply_uniform_loss(table: CorrelationTable, etas) -> CorrelationTable:
    """Model per-party detection efficiency eta as outcome-1 -> 0 leakage.

    All-ones probabilities are multiplied by the product of the
    efficiencies; stored full distributions are re-routed so lost weight
    lands on outcome 0 and each distribution stays normalized.
    """
    etas = tuple(float(e) for e in etas)
    if len(etas) != table.n_parties:
        raise ValueError("one efficiency per party required")
    if any(not 0.0 < e <= 1.0 for e in etas):
        raise ValueError(f"efficiencies must lie in (0, 1], got {etas}")
    factor = math.prod(etas)
    new_p = {key: p * factor for key, p in table.p_all_ones.items()}
    new_full = None
    if table.full is not None:
        new_full = {}
        for key, dist in table.full.items():
            out: dict[str, float] = {bits: 0.0 for bits in dist}
            for bits, p in dist.items():
                outcomes = [int(b) for b in bits]
                # Each clicked party keeps its click with prob eta, loses it otherwise.
                for kept in itertools.product(*[(0, 1) if b else (0,) for b in outcomes]):
                    w = 1.0
                    for b, k, eta in zip(outcomes, kept, etas):
                        if b == 1:
                            w *= eta if k == 1 else 1.0 - eta
                    out["".join(map(str, kept))] += p * w
            new_full[key] = out
    return CorrelationTable(table.parties, table.labels, new_p, new_full)


def table_to_csv(table: CorrelationTable) -> str:
    """CSV rendering: one label column per party, then probabilities.

    Rows are ordered lexicographically by label tuple; numbers carry 17
    significant digits, lines end with LF.
    """
    headers = list(table.parties) + ["p_all_ones"]
    bitstrings: list[str] = []
    if table.full is not None:
        bitstrings = sorted(next(iter(table.full.values())))
        headers += [f"p_{b}" for b in bitstrings]
    lines = [",".join(headers)]
    for key in sorted(table.p_all_ones):
        row = list(key) + [format(table.p_all_ones[key], ".17g")]
        if table.full is not None:
            row += [format(table.full[key][b], ".17g") for b in bitstrings]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
