"""Adversarial search over unentangled strategies, and violation curves.

The bound "game value >= 0 without shared entanglement" holds for any
measurement devices, any shared randomness and any share dimension; this
module stress-tests an implementation of the game by actively trying to
break the bound.  Each restart samples a random strategy and refines it by
see-saw (Werner & Wolf, QIC 1, 1 (2001); Liang & Doherty, PRA 75, 042103
(2007)): the value is linear in each success element, block state and
weight vector on its own, so each step sets one of them to its exact
minimizer, an eigenprojector or a vertex of the simplex.  Separable and
biseparable strategies share the one sweep, in the block form and with the
contractions of :mod:`mdiw.game`.  It also sweeps entangled state families
to reproduce their violation curves.

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
    _biseparable_strategy,
    _block_responses,
    _grid,
    _groups,
    _input_stacks,
    _responses,
    _separable_strategy,
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

    Stream order: the weights (one ``dirichlet`` call); every share ket in
    one ``normal`` call, term by term and party by party within a term,
    each ket as ``share_dim`` real parts then ``share_dim`` imaginary parts;
    with ``mixedness > 0``, every blend weight lambda in one ``uniform``
    call in the same term/party order; then each party's success element.
    All share states are checked as one stack.
    """
    input_dims = tuple(int(d) for d in input_dims)
    n, m = len(input_dims), share_dim
    weights = tuple(rng.dirichlet(np.ones(mixture_size)))
    shares = _projectors(_unit_kets(rng.normal(size=(mixture_size, n, 2, m))))
    if mixedness > 0.0:
        lam = rng.uniform(0.0, mixedness, size=(mixture_size, n))[..., None, None]
        shares = (1.0 - lam) * shares + lam * np.eye(m) / m
    states = DensityMatrix.stack(shares.reshape(-1, m, m), (m,))
    terms = tuple(states[k * n : (k + 1) * n] for k in range(mixture_size))
    povms = tuple(
        binary_povm(_random_success_element(rng, d * m), (d, m)) for d in input_dims
    )
    return SeparableStrategy(weights, terms, povms)


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
    input_dims = tuple(int(d) for d in input_dims)
    if len(input_dims) != 3:
        raise ValueError("biseparable strategies are tripartite")
    m = share_dim
    weights = rng.dirichlet(np.ones(mixture_size))
    tags = sorted(BIPARTITIONS_3)
    picks, draws = [], []
    for _ in range(mixture_size):
        picks.append(tags[int(rng.integers(len(tags)))])
        draws.append(rng.normal(size=2 * (m * m + m)))
    draws = np.array(draws)
    groups = _projectors(_unit_kets(draws[:, : 2 * m * m].reshape(-1, 2, m * m)))
    singles = _projectors(_unit_kets(draws[:, 2 * m * m :].reshape(-1, 2, m)))
    terms = tuple(
        BiseparableTerm(tag, float(w), g, s)
        for tag, w, g, s in zip(
            picks, weights, DensityMatrix.stack(groups, (m, m)), DensityMatrix.stack(singles, (m,))
        )
    )
    povms = tuple(
        binary_povm(_random_success_element(rng, d * m), (d, m)) for d in input_dims
    )
    return BiseparableStrategy(terms, povms)


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
    return _projectors(np.linalg.eigh(ops)[1][..., 0])


def _start(beta, inputs, strategy) -> tuple[tuple, float]:
    """Search state of a strategy, and its value.

    The state is the block form (weights, groups, success elements; see
    :mod:`mdiw.game`), then each party's F_p and every block's R.
    """
    weights, groups = _groups(strategy)
    elements = [m.element(1) for m in strategy.measurements]
    fs = [trace_inputs(e, t) for e, t in zip(elements, inputs)]
    resp = _responses(groups, fs)
    value = float(np.dot(beta.ravel(), _grid(weights, groups, resp).ravel()))
    return (weights, groups, elements, fs, resp), value


def _sweep(beta, inputs, state):
    """One see-saw sweep; every step minimizes the value exactly over one variable.

    For each party x in turn: its success element against everything
    else, then, in every term, the state of the block holding x.  Last,
    all weight moves to the lowest term.  The state's F_p and R stay current.
    """
    weights, groups, elements, fs, resp = state
    elements, fs, resp = list(elements), list(fs), [list(r) for r in resp]
    groups = [(idx, specs, list(states)) for idx, specs, states in groups]
    for x, taus in enumerate(inputs):
        y, cs = 0.0, []
        for (idx, specs, states), r in zip(groups, resp):
            b = specs.where[x]
            block = specs.blocks[b]
            # c[k, s_B]: the value of term k per unit response of x's block to inputs s_B
            c = np.einsum(block.coefficient, beta, *[rj for j, rj in enumerate(r) if j != b])
            partners = [fs[q] for q in block.parties if q != x] + [states[b].reshape(block.shape)]
            y = y + np.einsum(specs.partner[x], weights[idx], c, *partners)
            cs.append(c)
        # X = sum_s tau_s (x) Y[s] on input (x) share: the weighted terms sum to tr[E_x X]
        x_op = np.einsum("sij,sab->iajb", taus, y).reshape(elements[x].shape)
        elements[x] = _negative_projector(x_op)
        fs[x] = trace_inputs(elements[x], taus)
        for (_, specs, states), r, c in zip(groups, resp, cs):
            b = specs.where[x]
            block = specs.blocks[b]
            ops = np.einsum(block.operator, c, *[fs[p] for p in block.parties])
            states[b] = _lowest_states(ops.reshape(states[b].shape))
            r[b] = _block_responses(block, fs, states[b])
    # each term's value, from the last party's block: its c and updated R
    terms = np.empty(len(weights))
    for (idx, specs, _), r, c in zip(groups, resp, cs):
        b = specs.where[-1]
        terms[idx] = np.einsum(specs.blocks[b].value, c, r[b])
    # all weight onto the lowest term
    return (np.eye(len(terms))[np.argmin(terms)], groups, elements, fs, resp), float(terms.min())


def _search(dec, ensembles, config, sample, build, hook=None):
    """Shared restart/see-saw loop for both strategy families.

    Each restart starts from ``sample`` drawn with its own stream, put in
    block form by :func:`_start`, and runs :func:`_sweep` until a sweep
    lowers the value by at most ``_STOP``, or for ``config.iterations``
    sweeps.  ``build`` turns the best state back into a strategy.
    ``hook(restart, sweep, best)`` is a test seam invoked after every
    sweep; it must not mutate anything.
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
        strategy = sample(input_dims, config.share_dim, config.mixture_size, rng)
        state, value = _start(beta, inputs, strategy)
        evaluations += 1
        best, kept = value, state
        for it in range(config.iterations):
            previous = value
            state, value = _sweep(beta, inputs, state)
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
    weights, groups, elements, _, _ = best_state
    povms = tuple(binary_povm(e, m.dims) for e, m in zip(elements, strategy.measurements))
    return AttackReport(
        min_value=float(best_overall),
        best_strategy=build(weights, groups, povms),
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
    return _search(dec, ensembles, config, random_separable_strategy, _separable_strategy, hook)


def biseparable_attack(
    dec: Decomposition, ensembles, config: AttackConfig, hook=None
) -> AttackReport:
    """Minimize the game value over biseparable tripartite strategies.

    Bipartition tags stay as sampled within a restart; weights, group and
    singleton states and the success elements move.
    """
    if dec.n_parties != 3:
        raise ValueError("biseparable attacks need a three-party decomposition")
    return _search(dec, ensembles, config, random_biseparable_strategy, _biseparable_strategy, hook)


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
