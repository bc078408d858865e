"""Adversarial search over unentangled strategies, and violation curves.

The bound "game value >= 0 without shared entanglement" holds for any
measurement devices, any shared randomness and any share dimension; this
module stress-tests an implementation of the game by actively trying to
break the bound.  Each restart samples a random strategy and refines it by
see-saw (Werner & Wolf, QIC 1, 1 (2001); Liang & Doherty, PRA 75, 042103
(2007)): the value is linear in each success element, block state and
weight vector on its own, so each step sets one of them to its exact
minimizer, an eigenprojector or a vertex of the simplex (the success
element step keeps rank >= 1, see :func:`_sweep`).  Separable and
biseparable strategies share the one sweep, in the block form and with the
contractions of :mod:`mdiw.game`, which also scores the violation curves
whose closed forms and zero crossings live here.

All restarts of a search run as one batch: their terms share one block
form whose weights are the dense (R, K) matrix of each restart's own
mixture weights, every sweep updates every running restart at once, and a
restart that stops leaves the batch.

Randomness contract: restart ``r`` of a search with master seed ``m`` draws
from ``numpy.random.default_rng((m, r))``, i.e. a PCG64 generator seeded
with ``SeedSequence(entropy=(m, r))``.  Identical configurations therefore
reproduce identical reports, independent of scheduling; the batch draws
each restart's start from its own stream first, in restart order.
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from .linalg import _check_spectrum, check_operators
from .states import _check_densities, _unchecked
from .witness import Decomposition
from .game import (
    BiseparableStrategy,
    POVM,
    SeparableStrategy,
    _BIPARTITIONS,
    _checked_clicks,
    _biseparable_strategy,
    _block_responses,
    _by_term,
    _grid,
    _responses,
    _partition_groups,
    _rows,
    _separable_strategy,
    _singletons,
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
    value by at most ``1e-15`` or that brings it to at most ``BOUND_TOL``
    above the search's :func:`certified_lower_bound`.
    """

    restarts: int = 200
    iterations: int = 500
    mixture_size: int = 4
    share_dim: int = 2
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            _check_int(f.name, getattr(self, f.name), 0 if f.name == "seed" else 1)


@dataclass(frozen=True)
class AttackReport:
    """Search outcome: each restart's descent, and the best strategy found.

    ``restart_paths[r]`` holds restart r's start value, then its best value
    after each sweep it ran.  Its last entry is the restart's minimum, the
    least of those is ``min_value``, and ``evaluations`` counts every entry.
    ``floor`` is the searched class's :func:`certified_lower_bound`.
    """

    floor: float
    best_strategy: SeparableStrategy | BiseparableStrategy
    restart_paths: tuple[tuple[float, ...], ...]
    wall_time: float
    config: AttackConfig

    @property
    def restart_minima(self) -> tuple[float, ...]:
        return tuple(path[-1] for path in self.restart_paths)

    @property
    def min_value(self) -> float:
        return min(self.restart_minima)

    @property
    def evaluations(self) -> int:
        return sum(map(len, self.restart_paths))


def report_to_dict(report: AttackReport) -> dict:
    """JSON-ready form (wall time is intentionally excluded for determinism)."""
    cfg = asdict(report.config)
    seed = cfg.pop("seed")
    return {
        "min_I": report.min_value,
        "floor": report.floor,
        "restart_minima": list(report.restart_minima),
        "evals": report.evaluations,
        "seed": seed,
        "config": cfg,
    }


def restart_rng(master_seed: int, restart: int) -> np.random.Generator:
    """The documented per-restart stream: default_rng((master_seed, restart))."""
    return np.random.default_rng((master_seed, restart))


def _unit_kets(draws: np.ndarray) -> np.ndarray:
    """Normalized kets from normal draws shaped (..., 2, m): m real parts, then m imaginary.

    Each norm sums the real and the imaginary squares as separate dot
    products, as ``np.linalg.norm`` does for a single complex ket.
    """
    v = draws[..., 0, :] + 1j * draws[..., 1, :]
    re, im = v.real[..., None, :], v.imag[..., None, :]
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return v / np.sqrt(sq[..., 0])


def _projectors(v: np.ndarray) -> np.ndarray:
    """|v><v| for each ket along the last axis of a stack."""
    return v[..., :, None] * v[..., None, :].conj()


# A sampled term is a partition of the parties, drawn from its family's (an
# ``integers`` call only where there are several), plus one random pure state
# per block, its kets one row: each block's real parts, then imaginary parts.
# A family's partitions share their block sizes in block order, those of one
# size adjacent.  The draw phase reads one restart's generator in stream order;
# the build phase puts R restarts' draws in block form (see :mod:`mdiw.game`),
# checking each block size's states and each input dimension's success
# elements as one stack, and builds no POVM.  A public sampler inverts a batch
# of one with its POVMs, as the search does its best restart.


def _check_int(name: str, value, low: int) -> None:
    """An integer (not a bool) of at least ``low``, or a ValueError."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be int, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _draw_success_element(rng: np.random.Generator, d: int) -> tuple[np.ndarray, float]:
    """One d x d success element's draws: Gram factor G's (2, d, d) real and imaginary parts, its scale's uniform."""
    return rng.normal(size=(2, d, d)), rng.random()


def _success_batch(draws, input_dims, m) -> list:
    """Each party's (R, D, D) success elements E = G^dagger G scaled into [0, 1], checked and read-only.

    ``draws[r][p]`` is restart r's draw for party p.  The parties of one input
    dimension share one stack and one ``eigvalsh``: each G^dagger G's top eigenvalue
    sets its scale, and its eigenvalues over that scale, E's, decide E in [0, 1].
    """
    n, r = len(input_dims), len(draws)
    elements = [None] * n
    for d in dict.fromkeys(input_dims):
        ps = [p for p in range(n) if input_dims[p] == d]
        g = np.array([row[p][0] for p in ps for row in draws])
        u = np.array([row[p][1] for p in ps for row in draws])
        g = g[:, 0] + 1j * g[:, 1]
        e = g.conj().swapaxes(-1, -2) @ g
        eigs = np.linalg.eigvalsh(e)
        scale = eigs[:, -1:] * (1.0 + u[:, None])
        e = e / scale[:, :, None]
        check_operators(e, (d, m))
        _check_spectrum(eigs / scale, (0.0, 1.0))
        e.setflags(write=False)
        for j, p in enumerate(ps):
            elements[p] = e[j * r : (j + 1) * r]
    return elements


def _povms(elements, input_dims, m) -> tuple:
    """The POVMs of restart 0, viewing its checked, read-only success elements."""
    return tuple(_unchecked(POVM, click=e[0], dims=(int(d), int(m))) for e, d in zip(elements, input_dims))


def _draw(rng, partitions, input_dims, m, k):
    """One restart's draws in stream order: weights, partition picks, kets and success elements."""
    weights, size = rng.dirichlet(np.ones(k)), 2 * sum(m ** len(b) for b in partitions[0])
    if len(partitions) == 1:
        picks, kets = np.zeros(k, int), rng.normal(size=(k, size))
    else:
        picks, kets = zip(*[(rng.integers(len(partitions)), rng.normal(size=size)) for _ in range(k)])
    return weights, picks, kets, [_draw_success_element(rng, d * m) for d in input_dims]


def _block(draws, partitions, input_dims, m):
    """Block form (weights, groups, success elements) of R restarts' :func:`_draw` draws."""
    kets = np.concatenate([x[2] for x in draws])
    sizes, ranked, at = [m ** len(b) for b in partitions[0]], {}, 0
    for d in dict.fromkeys(sizes):
        c = sizes.count(d)
        stack = _projectors(_unit_kets(kets[:, at : at + 2 * d * c].reshape(-1, 2, d)))
        _check_densities(stack, (d,))
        # [rank among a term's blocks of size d, term]
        ranked[d], at = np.ascontiguousarray(stack.reshape(-1, c, d, d).swapaxes(0, 1)), at + 2 * d * c
    blocks = [ranked[d][sizes[:b].count(d)] for b, d in enumerate(sizes)]  # each over every term
    if len(partitions) == 1:  # every term, in order: the block states view the stacks
        members, states = [np.arange(len(kets))], [blocks]
    else:
        picks = np.concatenate([x[1] for x in draws])
        members = [(picks == j).nonzero()[0] for j in range(len(partitions))]
        states = [[x.take(i, axis=0) for x in blocks] for i in members]
    groups = _partition_groups(partitions, members, states, (m,) * len(input_dims))
    return np.array([x[0] for x in draws]), groups, _success_batch([x[3] for x in draws], input_dims, m)


# kind: the partitions of n parties that its terms draw from, and the inverse of its block form
_FAMILIES = {
    "separable": (lambda n: (_singletons(n),), _separable_strategy),
    "biseparable": (lambda n: tuple(_BIPARTITIONS.values()) if n == 3 else (), _biseparable_strategy),
}


def _sample(kind, input_dims, m, k, rng):
    """The public samplers' body: check the arguments, draw, build a batch of one and invert it."""
    input_dims = tuple(input_dims)
    for name, value in (("parties", len(input_dims)), ("share_dim", m), ("mixture_size", k),
                        *(("input dim", d) for d in input_dims)):
        _check_int(name, value, 1)
    partitions, build = _FAMILIES[kind][0](len(input_dims)), _FAMILIES[kind][1]
    if not partitions:
        raise ValueError(f"no {kind} strategy has {len(input_dims)} parties")
    draws = _draw(rng, partitions, input_dims, m, k)
    weights, groups, elements = _block([draws], partitions, input_dims, m)
    return build(weights[0], groups, _povms(elements, input_dims, m))


def random_separable_strategy(input_dims, share_dim: int, mixture_size: int,
                              rng: np.random.Generator) -> SeparableStrategy:
    """Sample a valid strategy whose shared state is fully product per term.

    Weights come from a symmetric simplex sample, share states from
    normalized complex-normal kets, and each party's success element from
    a rescaled Gram matrix, so every draw is feasible by construction.

    Stream order: the weights (one ``dirichlet`` call); every share ket in
    one ``normal`` call, term by term and party by party within a term,
    each ket as ``share_dim`` real parts then ``share_dim`` imaginary parts;
    then each party's success element, of dimension D = input dim x
    ``share_dim``: its Gram factor in one ``normal`` call (D x D real parts,
    then D x D imaginary parts) and its scale in one ``random`` call, the
    double ``uniform(0.0, 1.0)`` would give.  All share states are checked
    as one stack.
    """
    return _sample("separable", input_dims, share_dim, mixture_size, rng)


def random_biseparable_strategy(input_dims, share_dim: int, mixture_size: int,
                                rng: np.random.Generator) -> BiseparableStrategy:
    """Sample a tripartite mixture of bipartition-tagged terms.

    Group states are random pure two-party kets (entangled within the
    group is allowed); bipartitions are drawn uniformly per term.

    Stream order: the weights (one ``dirichlet`` call); then per term its
    bipartition (one ``integers`` call) and its kets in one ``normal``
    call, the group ket (``share_dim**2`` real parts, then as many
    imaginary parts) before the singleton ket (``share_dim`` real, then
    ``share_dim`` imaginary); then each party's success element, one
    ``normal`` and one ``random`` call as in
    :func:`random_separable_strategy`.  Group and singleton states are
    checked as one stack each.
    """
    return _sample("biseparable", input_dims, share_dim, mixture_size, rng)


def _negative_projectors(x: np.ndarray) -> np.ndarray:
    """Per operator of a (R, D, D) stack, the projector onto its negative eigenspace, at rank >= 1.

    Where ``x`` has a negative eigenvalue this minimizes tr[E x] over
    0 <= E <= 1.  The lowest eigenvector always stays in, so a restart never
    settles on the trivial fixed point E = 0, where the value is 0 and
    every other step is flat; but where ``x`` is positive semidefinite
    this rank-1 projector is not the minimizer (E = 0 is), and the step
    can raise the value.  Each row of eigenvalues ascends, so the kept
    columns are the negative ones and column 0.
    """
    vals, vecs = np.linalg.eigh(x)
    keep = vals < 0.0
    keep[:, 0] = True
    v = vecs * keep[:, None, :]
    return v @ v.conj().swapaxes(-1, -2)


def _start(beta, inputs, weights, groups, elements) -> tuple[tuple, np.ndarray]:
    """Search state of a batch in block form, and each restart's value.

    The state is the block form (weights, groups, each party's (R, D, D)
    success elements; see :mod:`mdiw.game`), then each party's F_p and
    every block's R.  One ``np.vecdot`` values every restart, each as ``np.dot`` would alone.
    """
    fs = [trace_inputs(e, t) for e, t in zip(elements, inputs)]
    resp = _responses(groups, fs, weights.shape)
    values = np.vecdot(_grid(weights, groups, resp).reshape(len(weights), -1), beta.ravel())
    return (weights, groups, list(elements), fs, resp), values


def _sweep(beta, inputs, state):
    """One see-saw sweep of every restart in the batch, and each restart's value.

    For each party x in turn: its success element against everything else,
    one eigendecomposition per restart in one stacked call; then, in every
    term, the state of the block holding x.  Last, each restart moves all
    its weight to its lowest term.  The block-state and weight steps
    minimize the value exactly.  The success-element step does so only
    where the operator X it minimizes against has a negative eigenvalue:
    it keeps rank >= 1 (see :func:`_negative_projectors`), so where X is
    positive semidefinite a sweep can raise the value, and the stop rule
    of :func:`_search` then ends that restart with its best value kept.
    The state's F_p and R stay current.  Each group's terms' restarts and
    weights are taken once per sweep; a lone group reads w itself.
    """
    weights, groups, elements, fs, resp = state
    shape, w = weights.shape, weights.ravel()
    elements, fs, resp = list(elements), list(fs), [list(r) for r in resp]
    groups = [(idx, specs, list(states)) for idx, specs, states in groups]
    rows = [_rows(idx, shape) for idx, _, _ in groups]
    ws = [w] if len(groups) == 1 else [w[idx] for idx, _, _ in groups]  # a lone group holds every term in order
    for x, taus in enumerate(inputs):
        parts, cs = [], []
        for (idx, specs, states), r, t, wt in zip(groups, resp, rows, ws):
            b = specs.where[x]
            block = specs.blocks[b]
            # c[k, s_B]: the value of term k per unit response of x's block to inputs s_B
            c = np.einsum(block.coefficient, beta, *[rj.real for j, rj in enumerate(r) if j != b])
            folds, final = specs.partner[x]
            g = states[b].reshape(block.shape)
            for spec, q in zip(folds, [q for q in block.parties if q != x]):  # one einsum per partner's F_q
                g = np.einsum(spec, fs[q][t], g)
            parts.append((idx, np.einsum(final, wt, c, g)))
            cs.append(c)
        y = _by_term(shape, parts).sum(axis=1)
        # X = sum_s tau_s (x) Y[s] on input (x) share: the weighted terms sum to tr[E_x X]
        x_op = np.einsum("sij,rsab->riajb", taus, y).reshape(elements[x].shape)
        elements[x] = _negative_projectors(x_op)
        fs[x] = trace_inputs(elements[x], taus)
        for (idx, specs, states), r, c, t in zip(groups, resp, cs, rows):
            b = specs.where[x]
            block = specs.blocks[b]
            fb = [fs[p][t] for p in block.parties]
            ops = np.einsum(block.operator, c, *fb).reshape(states[b].shape)
            states[b] = _projectors(np.linalg.eigh(ops)[1][..., 0])  # each term's lowest eigenvector
            r[b] = _block_responses(block, fb, states[b])
    # each term's value, from the last party's block: its c and updated R
    terms = _by_term(shape, [(idx, np.einsum(specs.blocks[specs.where[-1]].value, c, r[specs.where[-1]].real))
                             for (idx, specs, _), r, c in zip(groups, resp, cs)])
    # per restart, all weight onto its lowest term
    low = terms.argmin(axis=1)
    return (np.eye(shape[1])[low], groups, elements, fs, resp), terms[np.arange(shape[0]), low]


def _select(state, restarts) -> tuple:
    """The search state of the listed restarts (ascending) alone, their terms renumbered.

    A group left without terms is dropped.
    """
    weights, groups, elements, fs, resp = state
    r, k = weights.shape
    slot = np.full(r, -1)
    slot[restarts] = np.arange(len(restarts))
    kept_groups, kept_resp = [], []
    for (idx, specs, states), rs in zip(groups, resp):
        new = slot[idx // k]
        mine = new >= 0
        if mine.any():
            kept_groups.append((new[mine] * k + idx[mine] % k, specs, [s[mine] for s in states]))
            kept_resp.append([x[mine] for x in rs])
    elements, fs = ([x[restarts] for x in xs] for xs in (elements, fs))
    return weights[restarts], kept_groups, elements, fs, kept_resp


def _alone(state, j: int) -> tuple:
    """Restart j's weights (1, K), groups and success elements: the first three fields of ``_select(state, [j])``."""
    weights, groups, elements = state[:3]
    k = weights.shape[1]
    kept = [(idx[mine] % k, specs, [s[mine] for s in states])
            for idx, specs, states in groups for mine in [idx // k == j] if mine.any()]
    return weights[j : j + 1], kept, [e[j : j + 1] for e in elements]


def certified_lower_bound(dec: Decomposition, kind: str) -> float:
    """Closed-form floor under the value of every ``kind`` strategy on ``dec``.

    With R = reconstruct(dec), one term of an unentangled strategy clicks on
    inputs tau_s (x) omega_t (x) ... with probability tr[(tau_s^T (x)
    omega_t^T (x) ...) P], where P = A_1 (x) A_2 (x) ... and A_p =
    tr_share[E_p (1 (x) sigma_p)]^T lies in [0, 1] for any share dimension
    and any pre-measurement map, so the term scores tr[R P].  No factor
    1/prod(d) enters: the all-click strategy A_p = 1 scores tr[R]; only the
    honest strategy's Bell measurements, each clicking with probability
    1/d_p, give tr[W rho] / prod(d).  Transposing party r alone, tr[R P] =
    tr[R^{T_r} P^{T_r}] with P^{T_r} >= 0 of trace at most prod(d), so

        tr[R P] >= min(0, lambda_min(R^{T_r})) * prod(d).

    Every cut bounds a fully separable term, so ``"separable"`` takes the
    tightest; a biseparable term with singleton r (P = Q (x) A_r, Q in [0, 1]
    on the pair) only the cut r, so ``"biseparable"`` takes the lowest.  A
    floor of 0 within rounding certifies the bound (R^{T_r} >= 0; Lewenstein,
    Kraus, Cirac & Horodecki, PRA 62, 052310 (2000)).  The eigenvalues are
    computed once per decomposition (``Decomposition.partial_transpose_minima``).
    """
    if kind not in ("separable", "biseparable"):
        raise ValueError(f"kind must be 'separable' or 'biseparable', got {kind!r}")
    minima = dec.partial_transpose_minima
    cut = max(minima) if kind == "separable" else min(minima)
    return min(0.0, cut) * math.prod(e.dim for e in dec.ensembles)


def _search(dec, ensembles, config, kind):
    """Shared see-saw search for both strategy families, all restarts as one batch.

    Restart r draws its start, terms of a partition of ``kind`` and one state
    per block, from its own stream ``restart_rng(config.seed, r)``, in
    restart order; the build phase checks all the draws, one check per
    stack, and puts them in block form, and :func:`_start` values them.
    Every :func:`_sweep` then sweeps the
    restarts still running.  A restart stops at its first sweep that lowers
    its value by at most ``_STOP`` (stalled), that leaves its best value at
    most ``BOUND_TOL`` above :func:`certified_lower_bound` (at floor), or after
    ``config.iterations`` sweeps (capped), and leaves the batch at once
    (:func:`_select` keeps the others).  No strategy scores below the floor, so an at-floor
    restart has nothing left to find; a best value more than ``_STOP``
    below the floor means the scoring or the floor is wrong, so that
    restart does not stop there and the caller's gates see how deep it
    goes.  Every earlier sweep lowered its value, so its best
    state is the one before or after that last sweep (before, on a tie).
    The best restart's (the lowest-index one on a tie) is checked, its
    states once per block size and its success elements once per input
    dimension, and turned back into a strategy.
    """
    if not dec.exact:
        warnings.warn(
            f"attacking an inexact decomposition (residual {dec.residual:.3e}); "
            "the nonnegativity bound is only guaranteed for exact witnesses",
            stacklevel=3,
        )
    input_dims, m = tuple(e.dim for e in ensembles), config.share_dim
    partitions, build = _FAMILIES[kind][0](len(input_dims)), _FAMILIES[kind][1]
    beta, inputs = np.asarray(dec.beta), [e.matrices for e in dec.ensembles]
    floor = certified_lower_bound(dec, kind)

    t0 = time.perf_counter()
    draws = [_draw(restart_rng(config.seed, r), partitions, input_dims, m, config.mixture_size)
             for r in range(config.restarts)]
    state, value = _start(beta, inputs, *_block(draws, partitions, input_dims, m))
    running, paths = np.arange(config.restarts), [[v] for v in value.tolist()]
    champion = None  # (value, restart, :func:`_alone` state) of the best stopped restart
    for it in range(config.iterations):
        swept, new = _sweep(beta, inputs, state)
        lower = new < value
        best = np.where(lower, new, value)
        for r, b in zip(running.tolist(), best.tolist()):
            paths[r].append(b)
        at_floor = (floor - _STOP <= best) & (best <= floor + BOUND_TOL)
        stop = (value - new <= _STOP) | at_floor | (it + 1 == config.iterations)
        done = np.flatnonzero(stop)
        if len(done):
            j = done[best[done].argmin()]
            if champion is None or (best[j], running[j]) < champion[:2]:
                champion = (best[j], running[j], _alone(swept if lower[j] else state, j))
            if len(done) == len(running):
                break
            go = np.flatnonzero(~stop)
            state, value, running = _select(swept, go), new[go], running[go]
        else:
            state, value = swept, new
    wall = time.perf_counter() - t0
    weights, groups, elements = champion[2]
    for size in {s.shape[-1] for _, _, states in groups for s in states}:
        _check_densities(np.concatenate([s for _, _, ss in groups for s in ss if s.shape[-1] == size]), (size,))
    for d in dict.fromkeys(input_dims):
        ps = [p for p in range(len(input_dims)) if input_dims[p] == d]
        for p, e in zip(ps, _checked_clicks(np.concatenate([elements[p] for p in ps]), (d, m))[0]):
            elements[p] = e[None]
    return AttackReport(
        floor=floor,
        best_strategy=build(weights[0], groups, _povms(elements, input_dims, m)),
        restart_paths=tuple(map(tuple, paths)),
        wall_time=wall,
        config=config,
    )


def attack(dec: Decomposition, ensembles, config: AttackConfig) -> AttackReport:
    """Minimize the game value over fully separable strategies.

    Every point the see-saw visits is a feasible strategy (weights on the
    simplex, pure share states, success elements that are projectors), so a
    minimum below ``-BOUND_TOL`` on an exact witness decomposition
    indicates an implementation bug, not a theory violation.
    """
    return _search(dec, ensembles, config, "separable")


def biseparable_attack(dec: Decomposition, ensembles, config: AttackConfig) -> AttackReport:
    """Minimize the game value over biseparable tripartite strategies.

    Bipartition tags stay as sampled within a restart; weights, group and
    singleton states and the success elements move.
    """
    if dec.n_parties != 3:
        raise ValueError("biseparable attacks need a three-party decomposition")
    return _search(dec, ensembles, config, "biseparable")


def _draw_kraus(rng: np.random.Generator, dim: int, n_ops: int) -> tuple[np.ndarray, float]:
    """One set's draws for :func:`random_kraus_set`: its (n_ops, 2, dim, dim) normals, then a uniform."""
    return rng.normal(size=(n_ops, 2, dim, dim)), rng.random()


def _kraus_ops(normals: np.ndarray, u) -> np.ndarray:
    """Kraus operators (..., n_ops, dim, dim) of draws (..., n_ops, 2, dim, dim) and scale uniforms (...).

    A batch pads a set with zero normals: zero operators add exact zeros at the
    end of sum_i K_i^dagger K_i, so the set's operators are the ones it has alone.
    """
    ops = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    top = np.linalg.eigvalsh((ops.conj().swapaxes(-1, -2) @ ops).sum(axis=-3))[..., -1]
    return ops / np.sqrt(top * (1.0 + u))[..., None, None, None]


def random_kraus_set(dim: int, n_ops: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random trace-non-increasing quantum operation as Kraus operators.

    The operators are complex-normal draws jointly rescaled so that
    sum_i K_i^dagger K_i <= 1, with strict inequality almost surely
    (i.e. the operation loses weight, like a lossy channel).  Stream
    order: every operator in one ``normal`` call, operator by operator,
    each as its ``dim x dim`` real parts then its imaginary parts; then one
    ``random`` draw for the scale, the double ``uniform(0.0, 1.0)`` would
    give.
    """
    _check_int("dim", dim, 1)
    _check_int("n_ops", n_ops, 0)
    return list(_kraus_ops(*_draw_kraus(rng, dim, n_ops)))


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
