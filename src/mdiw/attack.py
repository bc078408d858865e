"""Adversarial search over unentangled strategies, and violation curves.

The bound "game value >= 0 without shared entanglement" holds for any
measurement devices, any shared randomness and any share dimension; this
module stress-tests an implementation of the game by actively trying to
break the bound.  Each restart samples a random strategy and refines it by
see-saw (Werner & Wolf, QIC 1, 1 (2001); Liang & Doherty, PRA 75, 042103
(2007)): the value is linear in each success element, share state and
weight vector on its own, so each step sets one of them to its exact
minimizer, an eigenprojector or a vertex of the simplex.  It also sweeps
entangled state families to reproduce their violation curves.

Randomness contract: restart ``r`` of a search with master seed ``m`` draws
from ``numpy.random.default_rng((m, r))``, i.e. a PCG64 generator seeded
with ``SeedSequence(entropy=(m, r))``.  Identical configurations therefore
reproduce identical reports, independent of scheduling.
"""

from __future__ import annotations

import numbers
import time
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from .linalg import TOL_RECON
from .states import DensityMatrix
from .witness import Decomposition
from .game import (
    BIPARTITIONS_3,
    BiseparableStrategy,
    BiseparableTerm,
    SeparableStrategy,
    _input_stacks,
    _pair_responses,
    _responses,
    binary_povm,
    fast_entangled_table,
    mdi_value,
    trace_inputs,
)

# No strategy without shared entanglement may push the game value below
# -BOUND_TOL when the decomposition reconstructs a valid witness.
BOUND_TOL = 1e-9

# A sweep that lowers the value by no more than this ends its restart.
_STOP = 1e-15


@dataclass(frozen=True)
class AttackConfig:
    """Knobs for the see-saw strategy search.

    ``mixture_size`` and ``share_dim`` shape each restart's random start and
    so the class searched: that many mixture terms, and shares of that
    dimension.  The bound holds for any dimension, so the cap is a
    validation budget, not an assumption.  ``iterations`` caps the sweeps
    per restart; a restart also ends at the first sweep that lowers the
    value by at most ``1e-15``.
    """

    restarts: int = 200
    iterations: int = 500
    mixture_size: int = 4
    share_dim: int = 2
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{f.name} must be int, got {value!r}")
        if self.restarts < 1 or self.iterations < 1 or self.mixture_size < 1:
            raise ValueError("restarts, iterations and mixture size must be >= 1")
        if self.share_dim < 1:
            raise ValueError("share dimension must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class AttackReport:
    """Search outcome: the global minimum and per-restart bookkeeping.

    ``evaluations`` counts the values computed: one per restart for its
    start plus one per sweep run.
    """

    min_value: float
    best_strategy: SeparableStrategy | BiseparableStrategy
    restart_minima: tuple[float, ...]
    evaluations: int
    wall_time: float
    config: AttackConfig

    def __post_init__(self):
        if self.min_value != min(self.restart_minima):
            raise ValueError("reported minimum must equal the best restart minimum")

    @property
    def bound_respected(self) -> bool:
        return self.min_value >= -BOUND_TOL


def report_to_dict(report: AttackReport) -> dict:
    """JSON-ready form (wall time is intentionally excluded for determinism)."""
    cfg = asdict(report.config)
    seed = cfg.pop("seed")
    return {
        "min_I": report.min_value,
        "restart_minima": list(report.restart_minima),
        "evals": report.evaluations,
        "seed": seed,
        "config": cfg,
    }


def restart_rng(master_seed: int, restart: int) -> np.random.Generator:
    """The documented per-restart stream: default_rng((master_seed, restart))."""
    return np.random.default_rng((master_seed, restart))


def _random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _random_success_element(rng: np.random.Generator, d: int) -> np.ndarray:
    """E = G^dagger G scaled into the operator interval [0, 1]."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    e = g.conj().T @ g
    top = float(np.linalg.eigvalsh(e)[-1])
    return e / (top * (1.0 + rng.uniform(0.0, 1.0)))


def random_separable_strategy(
    input_dims,
    share_dim: int,
    mixture_size: int,
    rng: np.random.Generator,
    mixedness: float = 0.0,
) -> SeparableStrategy:
    """Sample a valid strategy whose shared state is fully product per term.

    Weights come from a symmetric simplex sample, share states from
    normalized complex-normal kets (optionally blended toward the
    maximally mixed state), and each party's success element from a
    rescaled Gram matrix, so every draw is feasible by construction.
    """
    input_dims = tuple(int(d) for d in input_dims)
    weights = tuple(rng.dirichlet(np.ones(mixture_size)))
    terms = []
    for _ in range(mixture_size):
        states = []
        for _p in input_dims:
            psi = _random_unit(rng, share_dim)
            m = np.outer(psi, psi.conj())
            if mixedness > 0.0:
                lam = rng.uniform(0.0, mixedness)
                m = (1.0 - lam) * m + lam * np.eye(share_dim) / share_dim
            states.append(DensityMatrix(m, (share_dim,)))
        terms.append(tuple(states))
    povms = tuple(
        binary_povm(_random_success_element(rng, d * share_dim), (d, share_dim))
        for d in input_dims
    )
    return SeparableStrategy(weights, tuple(terms), povms)


def random_biseparable_strategy(
    input_dims,
    share_dim: int,
    mixture_size: int,
    rng: np.random.Generator,
) -> BiseparableStrategy:
    """Sample a tripartite mixture of bipartition-tagged terms.

    Group states are random pure two-party kets (entangled within the
    group is allowed); bipartitions are drawn uniformly per term.
    """
    input_dims = tuple(int(d) for d in input_dims)
    if len(input_dims) != 3:
        raise ValueError("biseparable strategies are tripartite")
    weights = rng.dirichlet(np.ones(mixture_size))
    tags = sorted(BIPARTITIONS_3)
    terms = []
    for k in range(mixture_size):
        tag = tags[int(rng.integers(len(tags)))]
        group_ket = _random_unit(rng, share_dim * share_dim)
        single_ket = _random_unit(rng, share_dim)
        terms.append(
            BiseparableTerm(
                tag,
                float(weights[k]),
                DensityMatrix(np.outer(group_ket, group_ket.conj()), (share_dim, share_dim)),
                DensityMatrix(np.outer(single_ket, single_ket.conj()), (share_dim,)),
            )
        )
    povms = tuple(
        binary_povm(_random_success_element(rng, d * share_dim), (d, share_dim))
        for d in input_dims
    )
    return BiseparableStrategy(tuple(terms), povms)


def _negative_projector(x: np.ndarray) -> np.ndarray:
    """Minimizer of tr[E x] over 0 <= E <= 1, kept at rank >= 1.

    This is the projector onto the negative eigenspace of ``x``.  The lowest
    eigenvector always stays in, so a restart never settles on the trivial
    fixed point E = 0, where the value is 0 and every other step is flat.
    """
    vals, vecs = np.linalg.eigh(x)
    v = vecs[:, : max(1, int(np.count_nonzero(vals < 0.0)))]
    return v @ v.conj().T


def _lowest_states(ops: np.ndarray) -> np.ndarray:
    """|v><v| for the lowest eigenvector v of each operator in a (K, n, n) stack."""
    v = np.linalg.eigh(ops)[1][..., 0]
    return v[:, :, None] * v[:, None, :].conj()


def _input_share_sum(taus: np.ndarray, y: np.ndarray) -> np.ndarray:
    """X = sum_s tau_s (x) y_s on input (x) share, so that sum_s tr[E (tau_s (x) y_s)] = tr[E X]."""
    d, m = taus.shape[1], y.shape[1]
    return np.einsum("sij,sab->iajb", taus, y).reshape(d * m, d * m)


def _coefficient_spec(n: int, p: int) -> str:
    """einsum spec of c[s, k]: beta contracted with every party's responses except p's."""
    idx = "stu"[:n]
    others = ",".join(f"{c}k" for q, c in enumerate(idx) if q != p)
    return f"{idx},{others}->{idx[p]}k"


# Fully separable search state: (weights (K,), per-party share stacks
# (K, m, m), per-party success elements on input (x) share).


def _separable_arrays(strategy: SeparableStrategy) -> tuple:
    shares = [
        np.stack([term[p].matrix for term in strategy.share_states])
        for p in range(strategy.n_parties)
    ]
    return np.asarray(strategy.weights), shares, [m.element(1) for m in strategy.measurements]


def _separable_terms(beta, inputs, state) -> np.ndarray:
    """Game value of each mixture term; the strategy's value is weights @ terms."""
    _, shares, elements = state
    resp = [_responses(trace_inputs(e, t), s) for e, t, s in zip(elements, inputs, shares)]
    c = np.einsum(_coefficient_spec(len(resp), 0), beta, *resp[1:])
    return np.einsum("sk,sk->k", c, resp[0])


def _separable_sweep(beta, inputs, state):
    """One see-saw sweep; every step minimizes the value exactly over one block.

    For each party p in turn: its success element against the others'
    responses, then its share state in every term.  Last, all weight moves
    to the lowest term.
    """
    weights, shares, elements = state
    shares, elements = list(shares), list(elements)
    fs = [trace_inputs(e, t) for e, t in zip(elements, inputs)]
    resp = [_responses(f, s) for f, s in zip(fs, shares)]
    for p, taus in enumerate(inputs):
        # c[s, k]: the value of term k per unit response of party p to input s
        c = np.einsum(
            _coefficient_spec(len(inputs), p), beta, *(r for q, r in enumerate(resp) if q != p)
        )
        y = np.einsum("sk,k,kab->sab", c, weights, shares[p])
        elements[p] = _negative_projector(_input_share_sum(taus, y))
        fs[p] = trace_inputs(elements[p], taus)
        shares[p] = _lowest_states(np.einsum("sk,sab->kab", c, fs[p]))
        resp[p] = _responses(fs[p], shares[p])
    terms = np.einsum("sk,sk->k", c, resp[-1])
    # all weight onto the lowest term
    return (np.eye(len(terms))[np.argmin(terms)], shares, elements), float(terms.min())


def _separable_strategy(state) -> SeparableStrategy:
    weights, shares, elements = state
    m = [s.shape[1] for s in shares]
    terms = tuple(
        tuple(DensityMatrix(s[k], (d,)) for s, d in zip(shares, m)) for k in range(len(weights))
    )
    povms = tuple(binary_povm(e, (e.shape[0] // d, d)) for e, d in zip(elements, m))
    return SeparableStrategy(tuple(weights), terms, povms)


# Biseparable search state: (weights (K,), bipartition tags, group states
# (K, m*m, m*m), singleton states (K, m, m), per-party success elements).
# A term tagged (p, q | r) has group state on share_p (x) share_q, p < q.


def _biseparable_arrays(strategy: BiseparableStrategy) -> tuple:
    terms = strategy.terms
    return (
        np.array([t.weight for t in terms]),
        tuple(t.bipartition for t in terms),
        np.stack([t.group_state.matrix for t in terms]),
        np.stack([t.singleton_state.matrix for t in terms]),
        [m.element(1) for m in strategy.measurements],
    )


def _biseparable_terms(beta, inputs, state) -> np.ndarray:
    """Game value of each mixture term; the strategy's value is weights @ terms."""
    _, tags, groups, singles, elements = state
    fs = [trace_inputs(e, t) for e, t in zip(elements, inputs)]
    m = singles.shape[1]
    out = []
    for tag, g, sigma in zip(tags, groups, singles):
        (p, q), r = BIPARTITIONS_3[tag]
        pair = _pair_responses(fs[p], fs[q], g.reshape(m, m, m, m))
        single = _responses(fs[r], sigma[None])[:, 0]
        out.append(np.einsum("stu,st,u->", beta.transpose(p, q, r), pair, single))
    return np.array(out)


def _biseparable_sweep(beta, inputs, state):
    """One see-saw sweep; every step minimizes the value exactly over one block.

    Each party's success element in turn, then every group state, then
    every singleton state, then all weight onto the lowest term.
    """
    weights, tags, groups, singles, elements = state
    elements = list(elements)
    m = singles.shape[1]
    fs = [trace_inputs(e, t) for e, t in zip(elements, inputs)]
    layout = [BIPARTITIONS_3[tag] for tag in tags]
    betas = [beta.transpose(p, q, r) for (p, q), r in layout]
    g4 = groups.reshape(-1, m, m, m, m)
    for x, taus in enumerate(inputs):
        # y[s]: the share operator party x meets alongside input s, summed over terms
        y = 0.0
        for w, ((p, q), r), bt, g, sigma in zip(weights, layout, betas, g4, singles):
            if x == r:
                c = np.einsum("stu,st->u", bt, _pair_responses(fs[p], fs[q], g))
                y = y + w * c[:, None, None] * sigma
                continue
            b = np.einsum("stu,uab,ba->st", bt, fs[r], sigma).real
            if x == p:  # tr_q[(1 (x) F_q[t]) sigma_group]
                y = y + w * np.einsum("st,tAB,aBcA->sac", b, fs[q], g)
            else:  # tr_p[(F_p[s] (x) 1) sigma_group]
                y = y + w * np.einsum("st,sab,bAaC->tAC", b, fs[p], g)
        elements[x] = _negative_projector(_input_share_sum(taus, y))
        fs[x] = trace_inputs(elements[x], taus)
    pair_ops = [
        np.einsum("stu,uab,ba,scd,tCD->cCdD", bt, fs[r], sigma, fs[p], fs[q])
        for ((p, q), r), bt, sigma in zip(layout, betas, singles)
    ]
    groups = _lowest_states(np.stack(pair_ops).reshape(-1, m * m, m * m))
    coeffs = [
        np.einsum("stu,st->u", bt, _pair_responses(fs[p], fs[q], g))
        for ((p, q), _), bt, g in zip(layout, betas, groups.reshape(-1, m, m, m, m))
    ]
    singles = _lowest_states(
        np.stack([np.einsum("u,uab->ab", c, fs[r]) for c, (_, r) in zip(coeffs, layout)])
    )
    terms = np.array(
        [c @ _responses(fs[r], s[None])[:, 0] for c, (_, r), s in zip(coeffs, layout, singles)]
    )
    return (np.eye(len(terms))[np.argmin(terms)], tags, groups, singles, elements), float(terms.min())


def _biseparable_strategy(state) -> BiseparableStrategy:
    weights, tags, groups, singles, elements = state
    m = singles.shape[1]
    terms = tuple(
        BiseparableTerm(tag, float(w), DensityMatrix(g, (m, m)), DensityMatrix(s, (m,)))
        for tag, w, g, s in zip(tags, weights, groups, singles)
    )
    povms = tuple(binary_povm(e, (e.shape[0] // m, m)) for e in elements)
    return BiseparableStrategy(terms, povms)


def _search(dec, ensembles, config, sample, arrays, terms, sweep, build, hook=None):
    """Shared restart/see-saw loop for both strategy families.

    A search state is a tuple of arrays whose first entry is the mixture
    weights: ``arrays`` reads it off a sampled strategy, ``terms`` gives
    each mixture term's value, ``sweep`` returns the next state and its
    value, and ``build`` turns the best state back into a strategy.  Each
    restart starts from ``sample`` drawn with its own stream and runs sweeps
    until one lowers the value by at most ``_STOP``, or for
    ``config.iterations`` sweeps.  ``hook(restart, sweep, best)`` is a test
    seam invoked after every sweep; it must not mutate anything.
    """
    if dec.residual > TOL_RECON:
        warnings.warn(
            f"attacking an inexact decomposition (residual {dec.residual:.3e}); "
            "the nonnegativity bound is only guaranteed for exact witnesses",
            stacklevel=3,
        )
    input_dims = tuple(e.dim for e in ensembles)
    beta, inputs = np.asarray(dec.beta), _input_stacks(dec.ensembles)

    restart_minima = []
    best_overall = best_state = None
    evaluations = 0
    t0 = time.perf_counter()
    for r in range(config.restarts):
        rng = restart_rng(config.seed, r)
        state = arrays(sample(input_dims, config.share_dim, config.mixture_size, rng))
        value = float(state[0] @ terms(beta, inputs, state))
        evaluations += 1
        best, kept = value, state
        for it in range(config.iterations):
            previous = value
            state, value = sweep(beta, inputs, state)
            evaluations += 1
            if value < best:
                best, kept = value, state
            if hook is not None:
                hook(r, it, best)
            if previous - value <= _STOP:
                break
        restart_minima.append(best)
        if best_overall is None or best < best_overall:
            best_overall, best_state = best, kept
    wall = time.perf_counter() - t0
    return AttackReport(
        min_value=float(best_overall),
        best_strategy=build(best_state),
        restart_minima=tuple(restart_minima),
        evaluations=evaluations,
        wall_time=wall,
        config=config,
    )


def attack(dec: Decomposition, ensembles, config: AttackConfig, hook=None) -> AttackReport:
    """Minimize the game value over fully separable strategies.

    Every point the see-saw visits is a feasible strategy (weights on the
    simplex, pure share states, success elements that are projectors), so a
    minimum below ``-BOUND_TOL`` on an exact witness decomposition
    indicates an implementation bug, not a theory violation.
    """
    return _search(
        dec, ensembles, config, random_separable_strategy, _separable_arrays,
        _separable_terms, _separable_sweep, _separable_strategy, hook,
    )


def biseparable_attack(
    dec: Decomposition, ensembles, config: AttackConfig, hook=None
) -> AttackReport:
    """Minimize the game value over biseparable tripartite strategies.

    Bipartition tags stay as sampled within a restart; weights, group and
    singleton states and the success elements move.
    """
    if dec.n_parties != 3:
        raise ValueError("biseparable attacks need a three-party decomposition")
    return _search(
        dec, ensembles, config, random_biseparable_strategy, _biseparable_arrays,
        _biseparable_terms, _biseparable_sweep, _biseparable_strategy, hook,
    )


def random_kraus_set(dim: int, n_ops: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random trace-non-increasing quantum operation as Kraus operators.

    The operators are complex-normal draws jointly rescaled so that
    sum_i K_i^dagger K_i <= 1, with strict inequality almost surely
    (i.e. the operation loses weight, like a lossy channel).
    """
    ops = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(n_ops)]
    total = sum(k.conj().T @ k for k in ops)
    top = float(np.linalg.eigvalsh(total)[-1])
    scale = np.sqrt(top * (1.0 + rng.uniform(0.0, 1.0)))
    return [k / scale for k in ops]


def violation_scan(
    family: Callable[[float], DensityMatrix],
    dec: Decomposition,
    grid,
) -> list[tuple[float, float]]:
    """Game value of the honest strategy along a state family.

    For each parameter the family state is played with maximally entangled
    projections against the decomposition's own input ensembles.
    """
    out = []
    for v in grid:
        rho = family(float(v))
        table = fast_entangled_table(rho, dec.ensembles)
        out.append((float(v), mdi_value(dec, table)))
    return out


def zero_crossing(curve) -> float:
    """Parameter where a scanned curve changes sign, by linear interpolation."""
    pts = [(float(v), float(i)) for v, i in curve]
    for (v0, i0), (v1, i1) in zip(pts, pts[1:]):
        if i0 == 0.0:
            return v0
        if i0 > 0.0 >= i1 or i0 < 0.0 <= i1:
            return v0 + (v1 - v0) * i0 / (i0 - i1)
    raise ValueError("curve does not change sign on the grid")


def expected_game_value(family: str, v: float) -> float:
    """Closed-form honest-strategy value for the named state families."""
    if family == "werner":
        return (1.0 - 3.0 * v) / 16.0
    if family == "noisy_ghz":
        return (3.0 - 7.0 * v) / 64.0
    raise ValueError(f"no closed form for family {family!r}")
