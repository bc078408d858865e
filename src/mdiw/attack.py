"""Adversarial search over unentangled strategies, and violation curves.

The bound "game value >= 0 without shared entanglement" holds for any
measurement devices, any shared randomness and any share dimension; this
module stress-tests an implementation of the game by actively trying to
break the bound.  One term of an unentangled strategy scores tr[R (A_1 (x)
A_2 (x) ...)], one effective operator 0 <= A_B <= 1 per block of its
partition on that block's inputs (see :func:`certified_lower_bound`), and
the value is linear in the mixture weights, so the search moves only those
operators: each restart draws random operators as its start (:func:`_start`)
and refines each term by see-saw (Werner & Wolf, QIC 1, 1 (2001); Liang &
Doherty, PRA 75, 042103 (2007)), every step setting one block's operator to
the projector onto the negative eigenspace of its gradient (see
:func:`_sweep`).  All restarts run as one batch.  A restart's value is its
lowest term's as a strategy realizes it (:func:`_strategy`).  The public
samplers share the block form of :mod:`mdiw.game`, which also scores the
violation curves whose closed forms and zero crossings live here.

Randomness contract: restart ``r`` of a search with master seed ``m`` draws
from ``numpy.random.default_rng((m, r))``, i.e. a PCG64 generator seeded
with ``SeedSequence(entropy=(m, r))``.  Identical configurations therefore
reproduce identical reports, independent of scheduling.  The batch draws
each restart's start from its own stream, in restart order: its k partition
picks in one ``integers`` call, made only where the family has several
partitions; then per searched form f, f = 0 every term as a product and f =
1 each term whose pick searches its pair whole (its f-th plan in
:func:`_plans`), those terms' draws in term order: every block's Gram factor
in one ``normal`` call, term by term and block by block, each D x D real
parts then imaginary parts, and one uniform per term and block in one
``random`` call (a form without terms draws neither).  Cuts that share a
plan therefore draw what they draw on plans of their own.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import time
import warnings
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .linalg import _check_spectrum, check_operators
from .states import DensityMatrix, _check_densities, _unchecked, projector
from .witness import Decomposition
from .game import (
    BiseparableStrategy,
    BiseparableTerm,
    POVM,
    SeparableStrategy,
    _BIPARTITIONS,
    _TAGS,
    _biseparable_strategy,
    _checked_clicks,
    _grid,
    _responses,
    _partition_groups,
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

    ``mixture_size`` is the number k of terms each restart draws, each on
    every searched plan of its drawn partition (:func:`_start`): the product
    plan gets all k, a random operator per party each, and a pair searched
    whole the terms whose bipartition it is, a random pair and singleton
    operator each.  ``share_dim`` decides only whether a biseparable pair is
    searched whole, which teleportation realizes only where it is at least
    the pair's first input dimension, and the reported strategy's share
    dimension.  The bound holds for any dimension, so the cap is a validation
    budget, not an assumption.  ``iterations`` caps the sweeps per restart; a
    restart also ends at the first sweep that lowers the value by at most
    ``1e-15`` or that brings it to at most ``BOUND_TOL`` above the search's
    :func:`certified_lower_bound`.
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


# A sampled term is a partition of the parties, drawn from its family's (an
# ``integers`` call only where there are several), plus one random pure state
# per block, its kets one row: each block's real parts, then imaginary parts.
# A family's partitions share their block sizes in block order, those of one
# size adjacent.  The draw phase reads one generator in stream order; the build
# phase puts R draws in block form (see :mod:`mdiw.game`), checking each block
# size's states and each input dimension's success elements as one stack, and
# builds no POVM; a public sampler inverts a batch of one with POVMs viewing its
# stacks.  The search's start (:func:`_start`) draws no strategy.


def _check_int(name: str, value, low: int) -> None:
    """An integer (not a bool) of at least ``low``, or a ValueError."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be int, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _unit_stack(g, u, dims) -> np.ndarray:
    """The read-only (N, D, D) operators E = G^dagger G / (lambda_max (1 + u)) of (N, 2, D, D) Gram factors G (real
    parts, then imaginary parts) and (N,) uniforms u, checked as one stack against ``dims``: its one ``eigvalsh``
    sets each scale, and its eigenvalues over that scale, E's, decide E in [0, 1]."""
    g = g[:, 0] + 1j * g[:, 1]
    e = g.conj().swapaxes(-1, -2) @ g
    eigs = np.linalg.eigvalsh(e)
    scale = eigs[:, -1:] * (1.0 + u[:, None])
    e = e / scale[:, :, None]
    check_operators(e, dims)
    _check_spectrum(eigs / scale, (0.0, 1.0))
    e.setflags(write=False)
    return e


def _draw(rng, partitions, input_dims, m, k):
    """One restart's draws in stream order: weights, partition picks, kets and success elements, each its Gram
    factor's (2, D, D) real and imaginary parts and its scale's uniform."""
    weights, size = rng.dirichlet(np.ones(k)), 2 * sum(m ** len(b) for b in partitions[0])
    if len(partitions) == 1:
        picks, kets = np.zeros(k, int), rng.normal(size=(k, size))
    else:
        picks, kets = zip(*[(rng.integers(len(partitions)), rng.normal(size=size)) for _ in range(k)])
    return weights, picks, kets, [(rng.normal(size=(2, d * m, d * m)), rng.random()) for d in input_dims]


def _block(draws, partitions, input_dims, m):
    """Block form (weights, groups, success elements) of R restarts' :func:`_draw` draws."""
    kets = np.concatenate([x[2] for x in draws])
    sizes, ranked, at = [m ** len(b) for b in partitions[0]], {}, 0
    for d in dict.fromkeys(sizes):
        c = sizes.count(d)
        v = _unit_kets(kets[:, at : at + 2 * d * c].reshape(-1, 2, d))
        stack = v[:, :, None] * v[:, None, :].conj()  # |v><v|
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
    groups = _partition_groups(partitions, members, states)
    elements = {}  # the parties of one input dimension share one stack
    for d in dict.fromkeys(input_dims):
        ps = [p for p in range(len(input_dims)) if input_dims[p] == d]
        g, u = (np.array([x[3][p][i] for p in ps for x in draws]) for i in (0, 1))
        elements |= zip(ps, _unit_stack(g, u, (d, m)).reshape(len(ps), len(draws), d * m, d * m))
    return np.array([x[0] for x in draws]), groups, [elements[p] for p in range(len(input_dims))]


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
    povms = tuple(_unchecked(POVM, click=e[0], dims=(int(d), int(m))) for e, d in zip(elements, input_dims))
    return build(weights[0], groups, povms)  # restart 0's POVMs view its checked, read-only success elements


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
    """Per operator of a (N, D, D) stack, the projector onto its negative eigenspace, at rank >= 1.

    Where ``x`` has a negative eigenvalue this minimizes tr[A x] over
    0 <= A <= 1.  The lowest eigenvector always stays in, so a term never
    settles on the trivial fixed point A = 0, where the value is 0 and
    every other step is flat; but where ``x`` is positive semidefinite
    this rank-1 projector is not the minimizer (A = 0 is), and the step
    can raise the value.  Each row of eigenvalues ascends, so the kept
    columns are the negative ones and column 0.
    """
    vals, vecs = np.linalg.eigh(x)
    keep = vals < 0.0
    keep[:, 0] = True
    v = vecs * keep[:, None, :]
    return v @ v.conj().swapaxes(-1, -2)


def _mixture_values(beta, inputs, weights, groups, elements) -> np.ndarray:
    """Each restart's value of a batch in block form (weights, groups, success elements; see :mod:`mdiw.game`).

    Each party's F_p, then every block's R, then one ``np.vecdot`` values
    every restart, each as ``np.dot`` would alone.  The loss check values its samples with it.
    """
    fs = [trace_inputs(e, t) for e, t in zip(elements, inputs)]
    resp = _responses(groups, fs, weights.shape)
    return np.vecdot(_grid(weights, groups, resp).reshape(len(weights), -1), beta.ravel())


# The search state of a batch: per distinct contraction, its _Plan, each term's
# restart and column (term t of k, in its partition's f-th plan, is column
# f k + t), and per block the terms' (N, D, D) effective operators A and (N, S)
# responses r[k, s] = tr[A_k T[s]], T[s] = (x)_p tau_p,s_p^T over the block's
# parties.  A term's partition is its restart's pick (see :func:`_term`).  Every
# step is one stacked matmul, vecdot, trace or eigendecomposition over the
# terms, the same work for each term, so a term has the same bits in a batch
# of any size.


class _Plan(NamedTuple):
    """The contractions of one searched partition, built once per search and shared by every partition whose
    contraction has the same bits (see :func:`_plans`); ``blocks`` are those of the first."""

    blocks: tuple  # one tuple of parties per block
    inputs: tuple  # per block, its T as a real (S, 2 D^2) view: each entry's real, then imaginary part
    betas: tuple  # per block, beta over its inputs, then each other block's, in block order
    scale: float  # the realized share of a term's value: 1 for a product, 1 / d_i^2 for a teleported pair


def _plan(beta, inputs, blocks, scale=1.0) -> _Plan:
    """The :class:`_Plan` of ``blocks`` for ``beta`` and each party's (S_p, d_p, d_p) input states."""
    ts, betas = [], []
    for b in blocks:
        t = functools.reduce(lambda t, u: (t[:, None, :, None, :, None] * u[None, :, None, :, None, :]).reshape(
            len(t) * len(u), t.shape[-1] * u.shape[-1], -1), [inputs[p].swapaxes(-1, -2) for p in b])
        ts.append(np.ascontiguousarray(t).reshape(len(t), -1).view(float))
        order = (b,) + tuple(o for o in blocks if o != b)
        sizes = [math.prod(beta.shape[p] for p in o) for o in order]
        betas.append(np.ascontiguousarray(beta.transpose(sum(order, ()))).reshape(sizes))
    return _Plan(tuple(blocks), tuple(ts), tuple(betas), scale)


def _plans(beta, inputs, partitions, m) -> dict:
    """Each drawn partition's searched :class:`_Plan` s: every term as a product, one operator per party, and
    a pair (i, j) also whole where ``m`` >= d_i, which teleportation needs (see :func:`_strategy`).

    Each distinct contraction is built once: partitions whose ``beta`` in their block order, blocks' input
    stacks and realized scale have the same bits (every cut, where ``beta`` and the inputs are symmetric under
    permuting the parties, as GHZ's over three tetrahedra are) share one plan, and so one batch.
    """
    single, plans, built = _plan(beta, inputs, _singletons(len(inputs))), {}, {}
    for part in partitions:
        d, order, plans[part] = inputs[part[0][0]].shape[-1], sum(part, ()), (single,)
        if len(part) < len(inputs) and m >= d:
            key = (d**-2.0, *((a.shape, a.tobytes()) for a in [beta.transpose(order), *(inputs[p] for p in order)]))
            built[key] = built.get(key) or _plan(beta, inputs, part, d**-2.0)
            plans[part] += (built[key],)
    return plans


def _coefficients(beta, resp) -> np.ndarray:
    """c[k, s]: a block's ``beta`` contracted with the other blocks' (N, S) responses, the last first.

    Term k scores sum_s c[k, s] r[k, s], so its block's gradient is sum_s c[k, s] T[s].
    """
    x, lead = beta, ()
    for r in resp[::-1]:
        x = (x.reshape(lead + (-1, x.shape[-1])) @ r[:, :, None]).reshape((len(r),) + x.shape[len(lead) : -1])
        lead = (len(r),)
    return x


def _readout(ops, t) -> np.ndarray:
    """r[k, s] = tr[A_k T[s]] for (N, D, D) operators and a block's T view ``t``; T is Hermitian."""
    return (ops.reshape(len(ops), 1, -1).view(float) @ t.T)[:, 0]


def _start(plans, partitions, input_dims, config) -> tuple[np.ndarray, list]:
    """Every restart's (R, k) partition picks, and the search state of its random start.

    Restart r reads ``restart_rng(config.seed, r)`` as the module's randomness contract says; term t of
    form f (its f-th plan in :func:`_plans`) is column f k + t.  Each operator is G^dagger G / (lambda_max
    (1 + u)); those of one plan and block size, over every restart, are one :func:`_unit_stack`.
    """
    k, forms, drawn = config.mixture_size, [plans[part] for part in partitions], {}
    sizes = {id(p): [math.prod(input_dims[q] for q in b) for b in p.blocks] for ps in forms for p in ps}
    widths = {key: 2 * sum(d * d for d in size) for key, size in sizes.items()}  # a term's normals
    picks = np.zeros((config.restarts, k), int)
    for r in range(config.restarts):
        rng = restart_rng(config.seed, r)
        if len(partitions) > 1:
            picks[r] = rng.integers(len(partitions), size=k)
        for f in range(max(map(len, forms))):
            if terms := [(t, forms[j][f]) for t, j in enumerate(picks[r].tolist()) if len(forms[j]) > f]:
                ends = [0, *itertools.accumulate(widths[id(p)] for _, p in terms)]
                x, u = rng.normal(size=ends[-1]), rng.random((len(terms), len(terms[0][1].blocks)))
                for (t, plan), a, b, v in zip(terms, ends, ends[1:], u):
                    drawn.setdefault(id(plan), (plan, []))[1].append((r, f * k + t, x[a:b], v))
    state = []
    for plan, got in drawn.values():
        (rows, cols, g, u), size = map(np.array, zip(*got)), sizes[id(plan)]
        ends, ops = [0, *itertools.accumulate(2 * d * d for d in size)], {}
        for d in dict.fromkeys(size):  # the blocks of one size share one stack
            bs = [b for b, x in enumerate(size) if x == d]
            e = _unit_stack(np.concatenate([g[:, ends[b] : ends[b + 1]].reshape(-1, 2, d, d) for b in bs]),
                            u[:, bs].T.ravel(), (d,))
            ops |= zip(bs, e.reshape(len(bs), -1, d, d))
        ops = [ops[b] for b in range(len(size))]
        state.append((plan, rows, cols, ops, [_readout(a, t) for a, t in zip(ops, plan.inputs)]))
    return picks, state


def _values(state, shape) -> np.ndarray:
    """z[r, c]: the realized value of restart r's searched term c, inf where the state has none: its last block's
    coefficients against that block's responses, in full for a product and over d_i^2 for a teleported pair."""
    z = np.full(shape, np.inf)
    for plan, rows, cols, ops, resp in state:
        z[rows, cols] = np.vecdot(_coefficients(plan.betas[-1], resp[:-1]), resp[-1]) * plan.scale
    return z


def _sweep(state, shape) -> tuple[list, np.ndarray]:
    """One see-saw sweep of every term in the batch, and the swept terms' values as :func:`_values` gives them.

    Each block in turn, in every term at once, moves to the operator that
    minimizes tr[A G] at rank >= 1 (see :func:`_negative_projectors`), G
    its gradient against the other blocks' current responses: exact where
    G has a negative eigenvalue, and where it has none the step can raise
    the value; the stop rule of :func:`_search` keeps that restart's best.
    """
    swept, z = [], np.full(shape, np.inf)
    for plan, rows, cols, ops, resp in state:
        ops, resp = list(ops), list(resp)
        for b, t in enumerate(plan.inputs):
            c = _coefficients(plan.betas[b], resp[:b] + resp[b + 1 :])
            ops[b] = _negative_projectors((c[:, None, :] @ t).reshape(len(c), -1).view(complex).reshape(ops[b].shape))
            resp[b] = _readout(ops[b], t)
        z[rows, cols] = np.vecdot(c, resp[-1]) * plan.scale  # c: the last block's coefficients
        swept.append((plan, rows, cols, ops, resp))
    return swept, z


def _keep(state, alive) -> list:
    """The search state of the restarts the (R,) mask ``alive`` marks; a plan left without terms is dropped."""
    return [(plan, rows[mine], cols[mine], [a[mine] for a in ops], [r[mine] for r in resp])
            for plan, rows, cols, ops, resp in state for mine in [alive[rows]] if mine.any()]


def _term(state, j, c, picks, partitions) -> tuple:
    """Restart j's searched term c and its partition, each block's operators as a batch of one: a product's
    partition is its plan's, a whole pair's its pick, ``partitions[picks[j, c % k]]``."""
    for plan, rows, cols, ops, resp in state:
        for i in np.flatnonzero((rows == j) & (cols == c)):
            cut = plan.blocks if len(plan.blocks[0]) == 1 else partitions[picks[j, c % picks.shape[1]]]
            return cut, [a[i : i + 1] for a in ops]


@functools.cache
def _shares(d, m) -> tuple[DensityMatrix, DensityMatrix]:
    """|0><0| on a share of dimension ``m`` and |Phi><Phi| on two (|00> at d = 1), each checked once per (d, m)."""
    phi = np.diag(np.arange(m) < d) / math.sqrt(d)  # |Phi> as an m x m matrix
    return DensityMatrix(projector(np.eye(m)[0]), (m,)), DensityMatrix(projector(phi), (m, m))


def _strategy(blocks, ops, input_dims, m, kind):
    """One searched term, its partition and its operators a batch of one, as a strategy that scores its realized value.

    Each party of a product clicks on A_p^T (x) 1_m, which scores
    tr[A_p tau_s^T] whatever its share holds.  A pair (i, j) is teleported:
    it shares |Phi> = sum_a |aa> / sqrt(d_i) on its shares, party i clicks
    on |Phi><Phi| of input (x) share, which sends tau_s to party j's share
    with probability 1 / d_i^2, and party j clicks on SWAP Q^T SWAP of input
    (x) share.  Every other share holds |0>.
    """
    n, one = len(input_dims), np.eye(m)[None, :, None, :]
    clicks = {b[0]: (a[0].T[:, None, :, None] * one).reshape(input_dims[b[0]] * m, -1)
              for b, a in zip(blocks, ops) if len(b) == 1}
    d, tag = 1, "AB|C"  # a product's parties click alone: any bipartition tag describes it, with shares |00>
    if len(blocks) < n:
        ((i, j), (r,)), d, dj = blocks, input_dims[blocks[0][0]], input_dims[blocks[0][1]]
        click = np.zeros((dj, m, dj, m), dtype=complex)
        click[:, :d, :, :d] = ops[0][0].reshape(d, dj, d, dj).transpose(3, 2, 1, 0)
        clicks |= {i: projector(np.eye(d, m) / math.sqrt(d)), j: click.reshape(dj * m, -1)}
        tag = _TAGS[(i, j), r]
    povms = {}
    for dp in dict.fromkeys(input_dims):
        ps = [p for p in range(n) if input_dims[p] == dp]
        es, dims = _checked_clicks([clicks[p] for p in ps], (dp, m))
        povms |= {p: _unchecked(POVM, click=e, dims=dims) for p, e in zip(ps, es)}
    (single, pair), povms = _shares(d, m), tuple(povms[p] for p in range(n))
    if kind == "separable":
        return SeparableStrategy((1.0,), ((single,) * n,), povms)
    return BiseparableStrategy((BiseparableTerm(tag, 1.0, pair, single),), povms)


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

    Restart r draws its start as effective operators, checked where they
    are drawn (:func:`_start`).  A restart's value is its lowest term's
    realized value.  It stops at its first sweep that lowers that value by at most ``_STOP`` (stalled), that
    leaves its best value at most ``BOUND_TOL`` above
    :func:`certified_lower_bound` (at floor; more than ``_STOP`` below it
    means the scoring or the floor is wrong, so the search goes on), or
    after ``config.iterations`` sweeps (capped), and leaves the batch.  Every
    earlier sweep lowered the value, so its best state is the one before or
    after the last sweep (before, on a tie).  The first best restart's first
    best term becomes the reported strategy (:func:`_strategy`) on its
    partition (:func:`_term`), embedded in shares of ``config.share_dim``.
    """
    if not dec.exact:
        warnings.warn(f"attacking an inexact decomposition (residual {dec.residual:.3e}); the nonnegativity bound is "
                      "only guaranteed for exact witnesses", stacklevel=3)
    input_dims, m, k = tuple(e.dim for e in ensembles), config.share_dim, config.mixture_size
    partitions = _FAMILIES[kind][0](len(input_dims))
    plans = _plans(np.asarray(dec.beta), [e.matrices for e in dec.ensembles], partitions, m)
    floor = certified_lower_bound(dec, kind)

    t0 = time.perf_counter()
    picks, state = _start(plans, partitions, input_dims, config)
    terms = _values(state, (config.restarts, k * max(map(len, plans.values()))))
    running, value = np.arange(config.restarts), terms.min(axis=1)
    paths, champion = [[v] for v in value.tolist()], None  # champion: (value, restart, its best :func:`_term`)
    for it in range(config.iterations):
        swept, swept_terms = _sweep(state, terms.shape)
        new = swept_terms[running].min(axis=1)
        lower = new < value
        best = np.where(lower, new, value)
        for r, b in zip(running.tolist(), best.tolist()):
            paths[r].append(b)
        at_floor = (floor - _STOP <= best) & (best <= floor + BOUND_TOL)
        stop = (value - new <= _STOP) | at_floor | (it + 1 == config.iterations)
        if stop.any():
            j = np.flatnonzero(stop)[best[stop].argmin()]
            if champion is None or (best[j], running[j]) < champion[:2]:
                kept, z = (swept, swept_terms) if lower[j] else (state, terms)
                champion = (best[j], running[j], _term(kept, running[j], z[running[j]].argmin(), picks, partitions))
            if stop.all():
                break
            running, value, alive = running[~stop], new[~stop], np.zeros(len(terms), bool)
            alive[running] = True
            state, terms = _keep(swept, alive), swept_terms
        else:
            state, terms, value = swept, swept_terms, new
    wall = time.perf_counter() - t0
    return AttackReport(floor=floor, best_strategy=_strategy(*champion[2], input_dims, m, kind),
                        restart_paths=tuple(map(tuple, paths)), wall_time=wall, config=config)


def attack(dec: Decomposition, ensembles, config: AttackConfig) -> AttackReport:
    """Minimize the game value over fully separable strategies.

    Every value on a restart's path is that of a feasible strategy (each
    party clicking on its effective operator's transpose, tensored with the
    identity on its share), so a minimum below ``-BOUND_TOL`` on an exact
    witness decomposition indicates an implementation bug, not a theory
    violation.
    """
    if dec.n_parties < 2:
        raise ValueError("separable attacks need at least two parties")
    return _search(dec, ensembles, config, "separable")


def biseparable_attack(dec: Decomposition, ensembles, config: AttackConfig) -> AttackReport:
    """Minimize the game value over biseparable tripartite strategies.

    Each term keeps its drawn bipartition while its operators move, and the
    best term is realized on it as :func:`_strategy` describes.
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
