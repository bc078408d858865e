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
contractions of :mod:`mdiw.game`.  It also sweeps entangled state families
to reproduce their violation curves.

All restarts of a search run as one batch: their terms share one block
form whose weights are an (R, K) matrix, zero outside each restart's terms,
and every sweep updates every running restart at once.

Randomness contract: restart ``r`` of a search with master seed ``m`` draws
from ``numpy.random.default_rng((m, r))``, i.e. a PCG64 generator seeded
with ``SeedSequence(entropy=(m, r))``.  Identical configurations therefore
reproduce identical reports, independent of scheduling; the batch draws
each restart's start from its own stream first, in restart order.
"""

from __future__ import annotations

import numbers
import time
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from .linalg import TOL_RECON
from .states import DensityMatrix, _check_densities
from .witness import Decomposition
from .game import (
    BIPARTITIONS_3,
    BiseparableStrategy,
    BiseparableTerm,
    SeparableStrategy,
    _binary_povms,
    _biseparable_groups,
    _biseparable_strategy,
    _block_responses,
    _fold,
    _grid,
    _input_stacks,
    _responses,
    _restart_sums,
    _separable_groups,
    _separable_strategy,
    _term_fs,
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


# Each sampler has a draw phase, which calls one restart's generator in the
# documented stream order and keeps the raw numbers, and a build phase, which
# turns the draws of R restarts into checked arrays with a leading restart
# axis, every share state and success element checked once.  The public
# samplers are the case R = 1; the search puts the build in block form.


def _draw_success_element(rng: np.random.Generator, d: int) -> tuple[np.ndarray, float]:
    """One d x d success element's draws: Gram factor G (real, then imaginary parts), scale."""
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), rng.uniform(0.0, 1.0)


def _success_batch(draws, input_dims, m) -> tuple[list, list]:
    """Each party's (R, D, D) success elements E = G^dagger G scaled into [0, 1], and its R POVMs.

    ``draws[r][p]`` is restart r's draw for party p.  The parties of one
    input dimension share one stack: one scale and one check for them all.
    """
    n, r = len(input_dims), len(draws)
    elements, povms = [None] * n, [None] * n
    for d in dict.fromkeys(input_dims):
        ps = [p for p in range(n) if input_dims[p] == d]
        g = np.array([row[p][0] for p in ps for row in draws])
        u = np.array([row[p][1] for p in ps for row in draws])
        e = g.conj().swapaxes(-1, -2) @ g
        e = e / (np.linalg.eigvalsh(e)[:, -1] * (1.0 + u))[:, None, None]
        checked = _binary_povms(e, (d, m))
        for j, p in enumerate(ps):
            elements[p], povms[p] = e[j * r : (j + 1) * r], checked[j * r : (j + 1) * r]
    return elements, povms


def _block_weights(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal (R, R K) weights from R rows of K, and the restart of each term."""
    r, k = weights.shape
    restart = np.repeat(np.arange(r), k)
    full = np.zeros((r, r * k))
    full[restart, np.arange(r * k)] = weights.ravel()
    return full, restart


def _draw_separable(rng, input_dims, m, k, mixedness=0.0):
    """One restart's draws for :func:`random_separable_strategy`, in its stream order."""
    n = len(input_dims)
    weights = rng.dirichlet(np.ones(k))
    kets = rng.normal(size=(k, n, 2, m))
    lam = rng.uniform(0.0, mixedness, size=(k, n)) if mixedness > 0.0 else None
    return weights, kets, lam, [_draw_success_element(rng, d * m) for d in input_dims]


def _separable_batch(draws, input_dims, m):
    """Weights (R, K), share states (R, K, n, m, m), success elements and POVMs of R draws."""
    weights = np.array([w for w, _, _, _ in draws])
    shares = _projectors(_unit_kets(np.array([kets for _, kets, _, _ in draws])))
    if draws[0][2] is not None:
        lam = np.array([lam for _, _, lam, _ in draws])[..., None, None]
        shares = (1.0 - lam) * shares + lam * np.eye(m) / m
    _check_densities(shares.reshape(-1, m, m), (m,))
    return weights, shares, *_success_batch([s for _, _, _, s in draws], input_dims, m)


def _separable_block(draws, input_dims, m):
    """Block form (weights, groups, elements) of a separable batch."""
    weights, shares, elements, _ = _separable_batch(draws, input_dims, m)
    weights, restart = _block_weights(weights)
    states = np.moveaxis(shares, 2, 0).reshape(len(input_dims), -1, m, m)
    return weights, _separable_groups(states, restart), elements


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

    Stream order: the weights (one ``dirichlet`` call); every share ket in
    one ``normal`` call, term by term and party by party within a term,
    each ket as ``share_dim`` real parts then ``share_dim`` imaginary parts;
    with ``mixedness > 0``, every blend weight lambda in one ``uniform``
    call in the same term/party order; then each party's success element.
    All share states are checked as one stack.
    """
    input_dims, m = tuple(int(d) for d in input_dims), share_dim
    draws = _draw_separable(rng, input_dims, m, mixture_size, mixedness)
    (weights,), (shares,), _, povms = _separable_batch([draws], input_dims, m)
    states = DensityMatrix._views(shares.reshape(-1, m, m), (m,))
    n = len(input_dims)
    terms = tuple(states[k * n : (k + 1) * n] for k in range(mixture_size))
    return SeparableStrategy(tuple(weights), terms, tuple(p[0] for p in povms))


def _draw_biseparable(rng, input_dims, m, k):
    """One restart's draws for :func:`random_biseparable_strategy`, in its stream order."""
    if len(input_dims) != 3:
        raise ValueError("biseparable strategies are tripartite")
    weights = rng.dirichlet(np.ones(k))
    tags = sorted(BIPARTITIONS_3)
    picks, kets = [], []
    for _ in range(k):
        picks.append(tags[int(rng.integers(len(tags)))])
        kets.append(rng.normal(size=2 * (m * m + m)))
    return weights, picks, kets, [_draw_success_element(rng, d * m) for d in input_dims]


def _biseparable_batch(draws, input_dims, m):
    """Weights (R, K), every term's tag, group and singleton states, success elements and POVMs.

    Terms run restart by restart.
    """
    weights = np.array([w for w, _, _, _ in draws])
    tags = [tag for _, picks, _, _ in draws for tag in picks]
    kets = np.array([ket for _, _, ks, _ in draws for ket in ks])
    pairs = _projectors(_unit_kets(kets[:, : 2 * m * m].reshape(-1, 2, m * m)))
    singles = _projectors(_unit_kets(kets[:, 2 * m * m :].reshape(-1, 2, m)))
    _check_densities(pairs, (m, m))
    _check_densities(singles, (m,))
    elements, povms = _success_batch([s for _, _, _, s in draws], input_dims, m)
    return weights, tags, pairs, singles, elements, povms


def _biseparable_block(draws, input_dims, m):
    """Block form (weights, groups, elements) of a biseparable batch."""
    weights, tags, pairs, singles, elements, _ = _biseparable_batch(draws, input_dims, m)
    weights, restart = _block_weights(weights)
    return weights, _biseparable_groups(tags, pairs, singles, restart, (m,) * 3), elements


def random_biseparable_strategy(
    input_dims,
    share_dim: int,
    mixture_size: int,
    rng: np.random.Generator,
) -> BiseparableStrategy:
    """Sample a tripartite mixture of bipartition-tagged terms.

    Group states are random pure two-party kets (entangled within the
    group is allowed); bipartitions are drawn uniformly per term.

    Stream order: the weights (one ``dirichlet`` call); then per term its
    bipartition (one ``integers`` call) and its kets in one ``normal``
    call, the group ket (``share_dim**2`` real parts, then as many
    imaginary parts) before the singleton ket (``share_dim`` real, then
    ``share_dim`` imaginary); then each party's success element.  Group
    and singleton states are checked as one stack each.
    """
    input_dims, m = tuple(int(d) for d in input_dims), share_dim
    draws = _draw_biseparable(rng, input_dims, m, mixture_size)
    (weights,), tags, pairs, singles, _, povms = _biseparable_batch([draws], input_dims, m)
    groups, ones = DensityMatrix._views(pairs, (m, m)), DensityMatrix._views(singles, (m,))
    terms = tuple(BiseparableTerm(*term) for term in zip(tags, map(float, weights), groups, ones))
    return BiseparableStrategy(terms, tuple(p[0] for p in povms))


def _negative_projectors(x: np.ndarray) -> np.ndarray:
    """Per operator of a (R, D, D) stack, the projector onto its negative eigenspace, at rank >= 1.

    Where ``x`` has a negative eigenvalue this minimizes tr[E x] over
    0 <= E <= 1.  The lowest eigenvector always stays in, so a restart never
    settles on the trivial fixed point E = 0, where the value is 0 and
    every other step is flat; but where ``x`` is positive semidefinite
    this rank-1 projector is not the minimizer (E = 0 is), and the step
    can raise the value.
    """
    vals, vecs = np.linalg.eigh(x)
    rank = np.maximum(1, np.count_nonzero(vals < 0.0, axis=-1))
    v = vecs * (np.arange(x.shape[-1]) < rank[:, None])[:, None, :]
    return v @ v.conj().swapaxes(-1, -2)


def _lowest_states(ops: np.ndarray) -> np.ndarray:
    """|v><v| for the lowest eigenvector v of each operator in a (K, n, n) stack."""
    return _projectors(np.linalg.eigh(ops)[1][..., 0])


def _start(beta, inputs, weights, groups, elements) -> tuple[tuple, np.ndarray]:
    """Search state of a batch in block form, and each restart's value.

    The state is the block form (weights, groups, each party's (R, D, D)
    success elements; see :mod:`mdiw.game`), then each party's F_p and
    every block's R.
    """
    fs = [trace_inputs(e, t) for e, t in zip(elements, inputs)]
    resp = _responses(groups, fs)
    values = _grid(weights, groups, resp).reshape(len(weights), -1) @ beta.ravel()
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
    The state's F_p and R stay current.
    """
    weights, groups, elements, fs, resp = state
    n = len(weights)
    elements, fs, resp = list(elements), list(fs), [list(r) for r in resp]
    groups = [(idx, restart, specs, list(states)) for idx, restart, specs, states in groups]
    for x, taus in enumerate(inputs):
        y, cs = 0.0, []
        for (idx, restart, specs, states), r in zip(groups, resp):
            b = specs.where[x]
            block = specs.blocks[b]
            # c[k, s_B]: the value of term k per unit response of x's block to inputs s_B
            c = np.einsum(block.coefficient, beta, *[rj for j, rj in enumerate(r) if j != b])
            folds, final = specs.partner[x]
            partners = _term_fs(fs, restart, [q for q in block.parties if q != x])
            g = _fold(folds, states[b].reshape(block.shape), partners)
            y = y + _restart_sums(np.einsum(final, weights[restart, idx], c, g), restart, n)
            cs.append(c)
        # X = sum_s tau_s (x) Y[s] on input (x) share: the weighted terms sum to tr[E_x X]
        x_op = np.einsum("sij,rsab->riajb", taus, y).reshape(elements[x].shape)
        elements[x] = _negative_projectors(x_op)
        fs[x] = trace_inputs(elements[x], taus)
        for (_, restart, specs, states), r, c in zip(groups, resp, cs):
            b = specs.where[x]
            block = specs.blocks[b]
            fb = _term_fs(fs, restart, block.parties)
            ops = np.einsum(block.operator, c, *fb)
            states[b] = _lowest_states(ops.reshape(states[b].shape))
            r[b] = _block_responses(block, fb, states[b])
    # each term's value, from the last party's block: its c and updated R
    terms, owner = np.empty(weights.shape[1]), np.empty(weights.shape[1], dtype=int)
    for (idx, restart, specs, _), r, c in zip(groups, resp, cs):
        b = specs.where[-1]
        terms[idx] = np.einsum(specs.blocks[b].value, c, r[b])
        owner[idx] = restart
    # per restart, all weight onto its lowest term
    own = np.where(owner == np.arange(n)[:, None], terms, np.inf)
    low = own.argmin(axis=1)
    weights = np.zeros_like(weights)
    weights[np.arange(n), low] = 1.0
    return (weights, groups, elements, fs, resp), own[np.arange(n), low]


def _keep(kept, state, better: np.ndarray) -> tuple:
    """``kept`` (weights, groups, elements) with the restarts in ``better`` taken from ``state``."""

    def pick(mask, new, old):
        return np.where(mask.reshape(mask.shape + (1,) * (new.ndim - 1)), new, old)

    if better.all() or not better.any():
        return state[:3] if better.all() else kept
    weights, groups, elements = kept
    return (
        pick(better, state[0], weights),
        [(idx, restart, specs, [pick(better[restart], s, o) for s, o in zip(now[3], states)])
         for (idx, restart, specs, states), now in zip(groups, state[1])],
        [pick(better, e, o) for e, o in zip(state[2], elements)],
    )


def _restart_slice(weights, groups, r: int) -> tuple[np.ndarray, list]:
    """Restart r's weights (K_r,) and groups alone, their states checked as density matrices."""
    cols = np.sort(np.concatenate([idx[restart == r] for idx, restart, _, _ in groups]))
    out = []
    for idx, restart, specs, states in groups:
        mine = restart == r
        if mine.any():
            stacks = [s[mine] for s in states]
            for block, s in zip(specs.blocks, stacks):
                _check_densities(s, block.shape[1 : 1 + len(block.parties)])
            out.append((np.searchsorted(cols, idx[mine]), restart[mine] - r, specs, stacks))
    return weights[r, cols], out


def _search(dec, ensembles, config, draw, block, build, hook=None):
    """Shared see-saw search for both strategy families, all restarts as one batch.

    Restart r draws its start with ``draw`` from its own stream
    ``restart_rng(config.seed, r)``, in restart order; ``block`` checks all
    the draws and puts them in block form, and :func:`_start` values them.
    Every :func:`_sweep` then sweeps the whole batch.  A restart stops at
    its first sweep that lowers its value by at most ``_STOP``, or after
    ``config.iterations`` sweeps; from then on a mask freezes its best
    value, the state kept at that value and its evaluation count, while
    the batch sweeps on until every restart has stopped.  ``build`` turns
    the best restart's kept slice back into a strategy.
    ``hook(restart, sweep, best)`` is a test seam invoked after every sweep
    once per restart still running, in restart order; it must not mutate
    anything.
    """
    if dec.residual > TOL_RECON:
        warnings.warn(
            f"attacking an inexact decomposition (residual {dec.residual:.3e}); "
            "the nonnegativity bound is only guaranteed for exact witnesses",
            stacklevel=3,
        )
    input_dims, m = tuple(e.dim for e in ensembles), config.share_dim
    beta, inputs = np.asarray(dec.beta), _input_stacks(dec.ensembles)

    t0 = time.perf_counter()
    draws = [
        draw(restart_rng(config.seed, r), input_dims, m, config.mixture_size)
        for r in range(config.restarts)
    ]
    state, value = _start(beta, inputs, *block(draws, input_dims, m))
    best, kept = value, state[:3]
    running = np.ones(config.restarts, dtype=bool)
    evaluations = config.restarts
    for it in range(config.iterations):
        state, new = _sweep(beta, inputs, state)
        evaluations += int(running.sum())
        better = running & (new < best)
        best = np.where(better, new, best)
        kept = _keep(kept, state, better)
        if hook is not None:
            for r in np.flatnonzero(running):
                hook(int(r), it, float(best[r]))
        running &= ~(value - new <= _STOP)
        value = new
        if not running.any():
            break
    wall = time.perf_counter() - t0
    r = int(np.argmin(best))
    weights, groups = _restart_slice(kept[0], kept[1], r)
    povms = tuple(binary_povm(e[r], (d, m)) for e, d in zip(kept[2], input_dims))
    return AttackReport(
        min_value=float(best[r]),
        best_strategy=build(weights, groups, povms),
        restart_minima=tuple(float(b) for b in best),
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
        dec, ensembles, config, _draw_separable, _separable_block, _separable_strategy, hook
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
        dec, ensembles, config, _draw_biseparable, _biseparable_block, _biseparable_strategy, hook
    )


def random_kraus_set(dim: int, n_ops: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random trace-non-increasing quantum operation as Kraus operators.

    The operators are complex-normal draws jointly rescaled so that
    sum_i K_i^dagger K_i <= 1, with strict inequality almost surely
    (i.e. the operation loses weight, like a lossy channel).  Stream
    order: every operator in one ``normal`` call, operator by operator,
    each as its ``dim x dim`` real parts then its imaginary parts; then one
    ``uniform`` draw for the scale.
    """
    g = rng.normal(size=(n_ops, 2, dim, dim))
    ops = g[:, 0] + 1j * g[:, 1]
    total = (ops.conj().transpose(0, 2, 1) @ ops).sum(axis=0)
    top = float(np.linalg.eigvalsh(total)[-1])
    scale = np.sqrt(top * (1.0 + rng.uniform(0.0, 1.0)))
    return list(ops / scale)


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
