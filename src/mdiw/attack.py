"""Adversarial search over unentangled strategies, and violation curves.

The bound "game value >= 0 without shared entanglement" holds for any
measurement devices, any shared randomness and any share dimension; this
module stress-tests an implementation of the game by actively trying to
break the bound with randomized, locally refined strategies.  It also
sweeps entangled state families to reproduce their violation curves.

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
    binary_povm,
    fast_entangled_table,
    mdi_value,
    simulate_separable,
    trace_inputs,
)

# No strategy without shared entanglement may push the game value below
# -BOUND_TOL when the decomposition reconstructs a valid witness.
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class AttackConfig:
    """Knobs for the randomized strategy search.

    ``share_dim`` caps the dimension of each party's share; the bound holds
    for any dimension, so the cap is a validation budget, not an assumption.
    """

    restarts: int = 200
    iterations: int = 500
    mixture_size: int = 4
    share_dim: int = 2
    seed: int = 0
    step_init: float = 0.3
    step_decay: float = 0.99

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind = {"int": numbers.Integral, "float": numbers.Real}[f.type]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        if self.restarts < 1 or self.iterations < 1 or self.mixture_size < 1:
            raise ValueError("restarts, iterations and mixture size must be >= 1")
        if self.share_dim < 1:
            raise ValueError("share dimension must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not 0.0 < self.step_decay < 1.0:
            raise ValueError("step decay must lie in (0, 1)")
        if self.step_init <= 0.0:
            raise ValueError("initial step must be positive")


@dataclass(frozen=True)
class AttackReport:
    """Search outcome: the global minimum and per-restart bookkeeping."""

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


def _clip_success_element(e: np.ndarray) -> np.ndarray:
    """Project a Hermitian matrix onto the operator interval [0, 1]."""
    e = (e + e.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(e)
    vals = np.clip(vals, 0.0, 1.0)
    return (vecs * vals) @ vecs.conj().T


def _normalize_weights(w: np.ndarray) -> np.ndarray:
    w = np.clip(w, 0.0, None)
    s = w.sum()
    if s <= 0.0:
        return np.full(w.shape, 1.0 / len(w))
    return w / s


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


class _SeparableParams:
    """Mutable search representation of a fully separable strategy."""

    def __init__(self, strategy: SeparableStrategy, share_dim: int):
        self.share_dim = share_dim
        self.input_dims = tuple(p.dims[0] for p in strategy.measurements)
        self.weights = np.asarray(strategy.weights, dtype=float)
        # Pure kets per (term, party); sampled strategies are pure per term.
        self.kets = [
            [self._to_ket(s) for s in term] for term in strategy.share_states
        ]
        self.success = [p.element(1).copy() for p in strategy.measurements]

    @staticmethod
    def _to_ket(state: DensityMatrix) -> np.ndarray:
        vals, vecs = np.linalg.eigh(state.matrix)
        return vecs[:, -1].copy()

    def materialize(self) -> SeparableStrategy:
        terms = tuple(
            tuple(
                DensityMatrix(np.outer(k, k.conj()), (self.share_dim,)) for k in term
            )
            for term in self.kets
        )
        povms = tuple(
            binary_povm(e, (d, self.share_dim))
            for e, d in zip(self.success, self.input_dims)
        )
        return SeparableStrategy(tuple(self.weights), terms, povms)

    def perturb(self, rng: np.random.Generator, step: float) -> None:
        n_parties = len(self.input_dims)
        k = len(self.kets)
        block = int(rng.integers(3))
        if block == 0:
            self.weights = _normalize_weights(
                self.weights + step * rng.normal(size=self.weights.shape)
            )
        elif block == 1:
            i = int(rng.integers(k))
            p = int(rng.integers(n_parties))
            ket = self.kets[i][p]
            ket = ket + step * (rng.normal(size=ket.shape) + 1j * rng.normal(size=ket.shape))
            self.kets[i][p] = ket / np.linalg.norm(ket)
        else:
            p = int(rng.integers(n_parties))
            e = self.success[p]
            noise = rng.normal(size=e.shape) + 1j * rng.normal(size=e.shape)
            self.success[p] = _clip_success_element(e + step * noise)

    def copy(self) -> "_SeparableParams":
        out = object.__new__(_SeparableParams)
        out.share_dim = self.share_dim
        out.input_dims = self.input_dims
        out.weights = self.weights.copy()
        out.kets = [[k.copy() for k in term] for term in self.kets]
        out.success = [e.copy() for e in self.success]
        return out


class _BiseparableParams:
    """Mutable search representation of a biseparable strategy.

    Bipartition tags stay fixed within a restart; only weights, kets and
    measurement elements move.
    """

    def __init__(self, strategy: BiseparableStrategy, share_dim: int):
        self.share_dim = share_dim
        self.input_dims = tuple(p.dims[0] for p in strategy.measurements)
        self.tags = [t.bipartition for t in strategy.terms]
        self.weights = np.array([t.weight for t in strategy.terms])
        self.group_kets = [_SeparableParams._to_ket(t.group_state) for t in strategy.terms]
        self.single_kets = [_SeparableParams._to_ket(t.singleton_state) for t in strategy.terms]
        self.success = [p.element(1).copy() for p in strategy.measurements]

    def materialize(self) -> BiseparableStrategy:
        d = self.share_dim
        terms = []
        for tag, w, g, s in zip(self.tags, self.weights, self.group_kets, self.single_kets):
            terms.append(
                BiseparableTerm(
                    tag,
                    float(w),
                    DensityMatrix(np.outer(g, g.conj()), (d, d)),
                    DensityMatrix(np.outer(s, s.conj()), (d,)),
                )
            )
        povms = tuple(
            binary_povm(e, (dim, d)) for e, dim in zip(self.success, self.input_dims)
        )
        return BiseparableStrategy(tuple(terms), povms)

    def perturb(self, rng: np.random.Generator, step: float) -> None:
        k = len(self.tags)
        block = int(rng.integers(4))
        if block == 0:
            self.weights = _normalize_weights(
                self.weights + step * rng.normal(size=self.weights.shape)
            )
        elif block == 1:
            i = int(rng.integers(k))
            ket = self.group_kets[i]
            ket = ket + step * (rng.normal(size=ket.shape) + 1j * rng.normal(size=ket.shape))
            self.group_kets[i] = ket / np.linalg.norm(ket)
        elif block == 2:
            i = int(rng.integers(k))
            ket = self.single_kets[i]
            ket = ket + step * (rng.normal(size=ket.shape) + 1j * rng.normal(size=ket.shape))
            self.single_kets[i] = ket / np.linalg.norm(ket)
        else:
            p = int(rng.integers(3))
            e = self.success[p]
            noise = rng.normal(size=e.shape) + 1j * rng.normal(size=e.shape)
            self.success[p] = _clip_success_element(e + step * noise)

    def copy(self) -> "_BiseparableParams":
        out = object.__new__(_BiseparableParams)
        out.share_dim = self.share_dim
        out.input_dims = self.input_dims
        out.tags = list(self.tags)
        out.weights = self.weights.copy()
        out.group_kets = [k.copy() for k in self.group_kets]
        out.single_kets = [k.copy() for k in self.single_kets]
        out.success = [e.copy() for e in self.success]
        return out


class _FastObjective:
    """Game value evaluated directly on search parameters.

    Uses the same trace identity as the effective-element route,
    tr[eff (x) ...] = tr[E (input (x) share)], but contracted with einsum
    on raw arrays so the refinement loop skips re-validating dataclasses
    every step.  Tests pin this against
    ``mdi_value(dec, simulate_separable(...))`` on the materialized
    strategies.
    """

    def __init__(self, dec: Decomposition):
        self.beta = np.asarray(dec.beta)
        # inputs[p][s] = tau_s for party p, stacked as (S, d, d)
        self.inputs = [np.stack([s.matrix for s in e.states]) for e in dec.ensembles]

    def _responses(self, success, kets_by_party):
        """response[p][s, k] = tr[E_p (tau_s (x) |psi_pk><psi_pk|)]."""
        out = []
        for e, taus, kets in zip(success, self.inputs, kets_by_party):
            psis = np.stack(kets)
            f = trace_inputs(e, taus)
            out.append(np.einsum("sab,kb,ka->sk", f, psis, psis.conj()).real)
        return out

    def separable(self, params: "_SeparableParams") -> float:
        resp = self._responses(params.success, list(zip(*params.kets)))
        if len(resp) == 2:
            return float(np.einsum("st,sk,tk,k->", self.beta, resp[0], resp[1], params.weights))
        if len(resp) == 3:
            return float(
                np.einsum(
                    "stu,sk,tk,uk,k->", self.beta, resp[0], resp[1], resp[2], params.weights
                )
            )
        raise ValueError("only 2- and 3-party games are supported")

    def biseparable(self, params: "_BiseparableParams") -> float:
        fs = [trace_inputs(e, taus) for e, taus in zip(params.success, self.inputs)]
        total = 0.0
        subscripts = {
            "AB|C": ("stu,st,u->", 0, 1, 2),
            "AC|B": ("stu,su,t->", 0, 2, 1),
            "BC|A": ("stu,tu,s->", 1, 2, 0),
        }
        for tag, w, g_ket, s_ket in zip(
            params.tags, params.weights, params.group_kets, params.single_kets
        ):
            sub, p, q, r = subscripts[tag]
            share = params.share_dim
            sg = np.outer(g_ket, g_ket.conj()).reshape(share, share, share, share)
            # pair[s, t] = tr[(E_p (x) E_q) (tau_s (x) tau_t (x) sigma_group)]
            pair = np.einsum("sab,tAB,bBaA->st", fs[p], fs[q], sg).real
            single = np.einsum("uab,b,a->u", fs[r], s_ket, s_ket.conj()).real
            total += w * np.einsum(sub, self.beta, pair, single)
        return float(total)


def _search(dec, ensembles, config, sampler, wrapper, objective, hook=None):
    """Shared restart/refine loop for both strategy families.

    ``hook(restart, iteration, best)`` is a test seam invoked after every
    accepted-or-rejected step; it must not mutate anything.
    """
    if dec.residual > TOL_RECON:
        warnings.warn(
            f"attacking an inexact decomposition (residual {dec.residual:.3e}); "
            "the nonnegativity bound is only guaranteed for exact witnesses",
            stacklevel=3,
        )
    ensembles = tuple(ensembles)
    input_dims = tuple(e.dim for e in ensembles)

    restart_minima = []
    best_overall = None
    best_params = None
    evaluations = 0
    t0 = time.perf_counter()
    for r in range(config.restarts):
        rng = restart_rng(config.seed, r)
        params = wrapper(sampler(input_dims, config.share_dim, config.mixture_size, rng),
                         config.share_dim)
        best = objective(params)
        evaluations += 1
        step = config.step_init
        for it in range(config.iterations):
            candidate = params.copy()
            candidate.perturb(rng, step)
            value = objective(candidate)
            evaluations += 1
            if value < best:
                best = value
                params = candidate
            step *= config.step_decay
            if hook is not None:
                hook(r, it, best)
        restart_minima.append(best)
        if best_overall is None or best < best_overall:
            best_overall = best
            best_params = params
    wall = time.perf_counter() - t0
    return AttackReport(
        min_value=float(best_overall),
        best_strategy=best_params.materialize(),
        restart_minima=tuple(restart_minima),
        evaluations=evaluations,
        wall_time=wall,
        config=config,
    )


def attack(dec: Decomposition, ensembles, config: AttackConfig, hook=None) -> AttackReport:
    """Minimize the game value over fully separable strategies.

    Every evaluated point is a feasible strategy (weights on the simplex,
    unit share kets, success elements clipped into [0, 1]), so a minimum
    below ``-BOUND_TOL`` on an exact witness decomposition indicates an
    implementation bug, not a theory violation.
    """
    objective = _FastObjective(dec).separable
    return _search(
        dec, ensembles, config, random_separable_strategy, _SeparableParams, objective, hook
    )


def biseparable_attack(
    dec: Decomposition, ensembles, config: AttackConfig, hook=None
) -> AttackReport:
    """Minimize the game value over biseparable tripartite strategies."""
    if dec.n_parties != 3:
        raise ValueError("biseparable attacks need a three-party decomposition")
    objective = _FastObjective(dec).biseparable
    return _search(
        dec, ensembles, config, random_biseparable_strategy, _BiseparableParams, objective, hook
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
