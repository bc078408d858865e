import functools
import importlib
import itertools
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdiw.states import (
    FAMILIES,
    DensityMatrix,
    InputEnsemble,
    ghz_ket,
    noisy_ghz,
    projector,
    random_density_matrix,
    singlet_ket,
    tetrahedron_ensemble,
    werner_state,
)
from mdiw.witness import (Decomposition, Witness, decompose, ghz_beta, ghz_witness, pauli6_beta, reconstruct,
                         singlet_witness, tetrahedron_beta)
from mdiw.game import (
    BIPARTITIONS_3,
    BiseparableStrategy,
    BiseparableTerm,
    EntangledStrategy,
    POVM,
    SeparableStrategy,
    _contract,
    _groups,
    _singletons,
    apply_pre_measurement_map,
    mdi_value,
    simulate_entangled,
    simulate_separable,
    trace_inputs,
    violation_scan,
)
from mdiw.attack import (
    BOUND_TOL,
    AttackConfig,
    _FAMILIES,
    _block,
    _draw,
    _keep,
    _mixture_values,
    _negative_projectors,
    _plans,
    _start,
    _strategy,
    _sweep,
    _term,
    _values,
    attack,
    biseparable_attack,
    certified_lower_bound,
    expected_game_value,
    random_biseparable_strategy,
    random_kraus_set,
    random_separable_strategy,
    report_to_dict,
    restart_rng,
    zero_crossing,
)
from mdiw.serialize import dumps
from mdiw.verify import negated_projector_decomposition, offset_singlet_decomposition
from oracles import (
    certified_floor,
    grid_value,
    rank_rule_negative_projectors,
    mixture_as_shared_state,
    partial_transpose,
    pointwise_scan,
    product_grid_minimum,
    restart_start,
    sequential_search,
    strategy_state,
    terms_state,
    unshared_plans,
)

game_module = importlib.import_module("mdiw.game")

SMALL = AttackConfig(restarts=8, iterations=120, mixture_size=3, share_dim=2, seed=7)


def _public(dec, strategy) -> float:
    return mdi_value(dec, simulate_separable(strategy, dec.ensembles))


def _one_term(s, t):
    """Term t of a sampled strategy alone, at weight 1, and its partition of the parties."""
    if isinstance(s, SeparableStrategy):
        return SeparableStrategy((1.0,), (s.share_states[t],), s.measurements), tuple((p,) for p in range(s.n_parties))
    term = s.terms[t]
    alone = BiseparableTerm(term.bipartition, 1.0, term.group_state, term.singleton_state)
    return BiseparableStrategy((alone,), s.measurements), (term.group, (term.singleton,))


def _mixed_separable(dims, m, k, rng) -> SeparableStrategy:
    """A sampled separable strategy with its share states replaced by random mixed states."""
    s = random_separable_strategy(dims, m, k, rng)
    shares = tuple(tuple(random_density_matrix((m,), rng) for _ in dims) for _ in range(k))
    return SeparableStrategy(s.weights, shares, s.measurements)


class TestRandomStrategies:
    def test_generated_strategies_are_valid(self):
        # constructors validate; surviving construction is the check
        rng = np.random.default_rng(60)
        for _ in range(25):
            random_separable_strategy((2, 2), int(rng.integers(1, 5)), int(rng.integers(1, 5)), rng)
            random_biseparable_strategy((2, 2, 2), 2, int(rng.integers(1, 5)), rng)

    def test_success_element_spectra_in_unit_interval(self):
        rng = np.random.default_rng(61)
        for _ in range(10_000):
            d = int(rng.integers(2, 5))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            e = g.conj().T @ g
            e /= float(np.linalg.eigvalsh(e)[-1]) * (1.0 + rng.uniform(0.0, 1.0))
            eigs = np.linalg.eigvalsh(e)
            assert eigs[0] >= -1e-12 and eigs[-1] <= 1 + 1e-12

    def test_mixed_share_states_supported(self):
        rng = np.random.default_rng(62)
        s = _mixed_separable((2, 2), 2, 2, rng)
        for term in s.share_states:
            for state in term:
                assert np.trace(state.matrix).real == pytest.approx(1.0)
                assert np.trace(state.matrix @ state.matrix).real < 1.0 - 1e-6
        dec = tetrahedron_beta()
        value = mdi_value(dec, simulate_separable(s, dec.ensembles))
        entangled = EntangledStrategy(mixture_as_shared_state(s), s.measurements)
        assert value == pytest.approx(mdi_value(dec, simulate_entangled(entangled, dec.ensembles)), abs=1e-12)
        assert value == pytest.approx(grid_value(dec, entangled), abs=1e-12)

    @pytest.mark.parametrize("sample", [
        lambda rng: random_biseparable_strategy((2, 2, 2), 2, 0, rng),
        lambda rng: random_separable_strategy((2, 2), 0, 2, rng),
        lambda rng: random_separable_strategy((), 2, 2, rng),
        lambda rng: random_separable_strategy((2, 0), 2, 2, rng),
        lambda rng: random_separable_strategy((2, 2), 2.0, 2, rng),
        lambda rng: random_separable_strategy((2, 2), True, 2, rng),
        lambda rng: random_biseparable_strategy((2, 2.5, 2), 2, 2, rng),
        lambda rng: random_biseparable_strategy((2, 2), 2, 2, rng),
        lambda rng: random_kraus_set(0, 2, rng),
        lambda rng: random_kraus_set(2, -1, rng),
        lambda rng: random_kraus_set(2, 1.5, rng),
    ], ids=["mixture_0", "share_0", "no_parties", "input_dim_0", "float_share", "bool_share",
            "float_input_dim", "bipartite_biseparable", "kraus_dim_0", "kraus_negative_ops", "kraus_float_ops"])
    def test_bad_arguments_rejected_before_any_draw(self, sample):
        rng = np.random.default_rng(64)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            sample(rng)
        assert rng.bit_generator.state == state

    def test_trivial_share_dimension_degenerates(self):
        rng = np.random.default_rng(63)
        s = random_separable_strategy((2, 2), 1, 1, rng)
        assert s.measurements[0].dims == (2, 1)


# Per-draw reference samplers: one rng call per ket, operator and element,
# in the order the vectorized samplers document.


def _loop_ket(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _loop_success_element(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    e = g.conj().T @ g
    return e / (float(np.linalg.eigvalsh(e)[-1]) * (1.0 + rng.uniform(0.0, 1.0)))


def _loop_separable(input_dims, m, k, rng):
    weights = rng.dirichlet(np.ones(k))
    shares = [[projector(_loop_ket(rng, m)) for _ in input_dims] for _ in range(k)]
    return weights, shares, [_loop_success_element(rng, d * m) for d in input_dims]


def _loop_biseparable(input_dims, m, k, rng):
    weights = rng.dirichlet(np.ones(k))
    tags = sorted(BIPARTITIONS_3)
    terms = []
    for _ in range(k):
        tag = tags[int(rng.integers(len(tags)))]
        terms.append((tag, projector(_loop_ket(rng, m * m)), projector(_loop_ket(rng, m))))
    return weights, terms, [_loop_success_element(rng, d * m) for d in input_dims]


def _loop_kraus(dim, n_ops, rng):
    ops = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(n_ops)]
    top = float(np.linalg.eigvalsh(sum(k.conj().T @ k for k in ops))[-1])
    scale = np.sqrt(top * (1.0 + rng.uniform(0.0, 1.0)))
    return [k / scale for k in ops]


def _close(a, b) -> bool:
    return np.abs(np.asarray(a) - np.asarray(b)).max() <= 1e-15


class _Recorder:
    """A generator that appends the name of each method called on it to ``calls``."""

    def __init__(self, rng, calls):
        self.rng, self.calls = rng, calls

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


class _Spoiled:
    """A generator whose ``random`` calls return ``u`` in their last entry, or in every entry with ``every``."""

    def __init__(self, rng, u, every=False):
        self.rng, self.u, self.every = rng, u, every

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def random(self, size=None):
        u = np.array(self.rng.random(size))
        if self.every:
            u[...] = self.u
        else:
            u.flat[-1] = self.u
        return u if size is not None else float(u)


# (family, input dims, share dim) of each start-stream case: a separable family of two and of three parties,
# and a biseparable family at share dims 1 (no pair searched whole), 2 (pairs searched whole only where the first
# party is a qubit, or all on one shared plan for GHZ) and 3 (each cut on a plan of its own block sizes)
START_CASES = {
    "separable_2": ("separable", (2, 3), 2),
    "separable_3": ("separable", (3, 2, 2), 1),
    "biseparable_share1": ("biseparable", (2, 2, 3), 1),
    "biseparable_share2": ("biseparable", (3, 2, 2), 2),
    "biseparable_ghz": ("biseparable", None, 2),
    "biseparable_share3": ("biseparable", (2, 3, 2), 3),
}


def _start_case(case, restarts, mixture, seed):
    """The plans, partitions, dims and config of a START_CASES row."""
    kind, dims, share = START_CASES[case]
    dec = ghz_beta() if dims is None else _random_game(dims, np.random.default_rng(sum(dims)))
    dims, partitions = tuple(e.dim for e in dec.ensembles), _FAMILIES[kind](dec.n_parties)
    plans = _plans(np.asarray(dec.beta), [e.matrices for e in dec.ensembles], partitions, share)
    return plans, partitions, dims, AttackConfig(restarts=restarts, mixture_size=mixture, share_dim=share, seed=seed)


class TestStreamContract:
    """The vectorized samplers draw the same numbers as one rng call per draw."""

    @pytest.mark.parametrize("seed", range(6))
    def test_separable_sampler(self, seed):
        dims, m, k = [(2, 2), (2, 3, 2), (3, 2)][seed % 3], 1 + seed % 3, 1 + seed % 4
        rng, ref = np.random.default_rng((seed, 1)), np.random.default_rng((seed, 1))
        s = random_separable_strategy(dims, m, k, rng)
        weights, shares, elements = _loop_separable(dims, m, k, ref)
        assert _close(s.weights, weights)
        for term, want in zip(s.share_states, shares):
            assert all(_close(sigma.matrix, w) for sigma, w in zip(term, want))
        assert all(_close(p.element(1), e) for p, e in zip(s.measurements, elements))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", range(6))
    def test_biseparable_sampler(self, seed):
        m, k = 1 + seed % 3, 1 + seed % 5
        rng, ref = np.random.default_rng((seed, 2)), np.random.default_rng((seed, 2))
        s = random_biseparable_strategy((2, 2, 2), m, k, rng)
        weights, terms, elements = _loop_biseparable((2, 2, 2), m, k, ref)
        for term, w, (tag, group, single) in zip(s.terms, weights, terms):
            assert (term.bipartition, term.weight) == (tag, w)
            assert _close(term.group_state.matrix, group)
            assert _close(term.singleton_state.matrix, single)
        assert all(_close(p.element(1), e) for p, e in zip(s.measurements, elements))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("family", ["separable", "biseparable"])
    def test_draw_makes_the_documented_calls(self, family):
        # a lone partition draws no integers and every ket in one normal call; a success
        # element draws its Gram factor's real and imaginary parts in one normal call
        calls = []
        k, rng = 3, _Recorder(np.random.default_rng(65), calls)
        if family == "separable":
            random_separable_strategy((2, 2), 2, k, rng)
            kets = ["normal"]
        else:
            random_biseparable_strategy((2, 2, 2), 2, k, rng)
            kets = ["integers", "normal"] * k
        success = ["normal", "random"] * (2 if family == "separable" else 3)
        assert calls == ["dirichlet"] + kets + success

    @pytest.mark.parametrize("case", list(START_CASES))
    def test_search_start_matches_oracle(self, monkeypatch, case):
        # every restart's picks and start operators, byte for byte, its generator calls by name and its stream left
        # where the oracle, one call and one operator at a time, leaves it
        module = importlib.import_module("mdiw.attack")
        plans, partitions, dims, cfg = _start_case(case, 4, 3, 23)
        streams, calls = [], []

        def recorded(seed, r):
            streams.append(np.random.default_rng((seed, r)))  # the stream the contract names
            calls.append([])
            return _Recorder(streams[-1], calls[-1])

        monkeypatch.setattr(module, "restart_rng", recorded)
        picks, state = _start(plans, partitions, dims, cfg)
        got = {(r, c): (plan, [a[i].tobytes() for a in ops]) for plan, rows, cols, ops, _ in state
               for i, (r, c) in enumerate(zip(rows.tolist(), cols.tolist()))}
        forms = set()
        for r in range(cfg.restarts):
            want_picks, terms, ref = restart_start(cfg.seed, r, plans, dims, cfg.mixture_size)
            assert picks[r].tolist() == want_picks.tolist()
            for plan, c, ops in terms:
                got_plan, got_ops = got.pop((r, c))
                assert got_plan is plan and got_ops == [a.tobytes() for a in ops]
            assert streams[r].bit_generator.state == ref.bit_generator.state
            drawn = sorted({c // cfg.mixture_size for _, c, _ in terms})
            assert calls[r] == ["integers"] * (len(partitions) > 1) + ["normal", "random"] * len(drawn)
            forms.add(len(drawn))
        assert not got and len(calls) == cfg.restarts
        # restarts draw the whole-pair form where some pick searches a pair whole: never, always, or by their picks
        whole = [len(plans[part]) > 1 for part in partitions]
        assert forms == ({1} if not any(whole) else {2} if all(whole) else {1, 2})

    @pytest.mark.parametrize("dim, n_ops", [(2, 1), (4, 2), (4, 3), (3, 5)])
    def test_kraus_sampler(self, dim, n_ops):
        rng, ref = np.random.default_rng((dim, n_ops)), np.random.default_rng((dim, n_ops))
        ops = random_kraus_set(dim, n_ops, rng)
        want = _loop_kraus(dim, n_ops, ref)
        assert len(ops) == n_ops and all(_close(a, b) for a, b in zip(ops, want))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_reports_byte_identical_per_seed(self, seed):
        cfg = AttackConfig(restarts=3, iterations=40, mixture_size=3, share_dim=2, seed=seed)
        for search, dec in ((attack, tetrahedron_beta()), (biseparable_attack, ghz_beta())):
            first, again = (dumps(report_to_dict(search(dec, dec.ensembles, cfg))) for _ in range(2))
            assert first == again


class TestBlockForm:
    """Every unentangled mixture's block form, converted by the oracle, is searched and realized as it scores."""

    @pytest.mark.parametrize("game", ["tetrahedron", "pauli6", "ghz"])
    @pytest.mark.parametrize("share_dim", [1, 2, 3])
    def test_sweep_matches_public_route(self, game, share_dim):
        dec = {"tetrahedron": tetrahedron_beta, "pauli6": pauli6_beta, "ghz": ghz_beta}[game]()
        kind, sample = ("biseparable", random_biseparable_strategy) if game == "ghz" else (
            "separable", random_separable_strategy)
        dims, beta, inputs = (2,) * dec.n_parties, np.asarray(dec.beta), [e.matrices for e in dec.ensembles]
        partitions = _FAMILIES[kind](dec.n_parties)
        plans = _plans(beta, inputs, partitions, share_dim)
        rng = np.random.default_rng((66, share_dim))
        for _ in range(5):
            k = int(rng.integers(1, 5))
            s = sample(dims, share_dim, k, rng)
            elements = [m.element(1)[None] for m in s.measurements]
            weights, groups = _groups(s)
            # the mixture's value in block form and through the public route share every contraction: the same bits
            assert _mixture_values(beta, inputs, weights, groups, elements)[0] == _public(dec, s)
            picks, state = strategy_state(s, plans, share_dim)
            shape = (1, k * max(map(len, plans.values())))
            start = _values(state, shape)
            for t in range(k):
                alone, partition = _one_term(s, t)
                for f, plan in enumerate(plans[partition]):
                    if plan.blocks == partition:  # searched as drawn: its effective operators score it as it scores
                        assert start[0, f * k + t] / plan.scale == pytest.approx(_public(dec, alone), abs=1e-12)
            # every searched term, before and after a sweep, realized: three routes score its realized value
            swept, swept_values = _sweep(state, shape)
            # the sweep values its terms from its last block's coefficients, with the bits of the separate route
            assert swept_values.tobytes() == _values(swept, shape).tobytes()
            for state, values in ((state, start), (swept, swept_values)):
                assert np.isfinite(values).all()
                for c, value in enumerate(values[0]):
                    realized = _strategy(*_term(state, 0, c, picks, partitions), dims, share_dim, kind)
                    assert value == pytest.approx(_public(dec, realized), abs=1e-12)
                    # the strategy as one explicit shared state, in the block form's one block of every party
                    # and by the honest table's contraction, an independent route
                    entangled = EntangledStrategy(mixture_as_shared_state(realized), realized.measurements)
                    assert value == pytest.approx(mdi_value(dec, simulate_entangled(entangled, dec.ensembles)), abs=1e-12)
                    assert value == pytest.approx(grid_value(dec, entangled), abs=1e-12)

    def test_biseparable_groups_keep_term_indices(self):
        rng = np.random.default_rng(67)
        s = random_biseparable_strategy((2, 2, 2), 2, 3, rng)
        strategy = BiseparableStrategy(
            tuple(
                BiseparableTerm(tag, w, t.group_state, t.singleton_state)
                for tag, w, t in zip(("AB|C", "BC|A", "AB|C"), (0.5, 0.3, 0.2), s.terms)
            ),
            s.measurements,
        )
        weights, groups = _groups(strategy)
        assert weights.tolist() == [[0.5, 0.3, 0.2]]
        # each group holds its terms' indices, ascending, and their states in that order
        assert [(idx.tolist(), partition) for idx, partition, _ in groups] == [
            ([0, 2], ((0, 1), (2,))), ([1], ((1, 2), (0,)))
        ]
        for idx, _, (pairs, singles) in groups:
            for i, pair, single in zip(idx, pairs, singles):
                assert np.array_equal(pair, strategy.terms[i].group_state.matrix)
                assert np.array_equal(single, strategy.terms[i].singleton_state.matrix)
        # share dims (1, 2, 3): each bipartition's group and singleton states differ in size,
        # and the bipartitions first appear out of sorted order
        shares, tags = (1, 2, 3), ("AB|C", "BC|A", "AC|B", "AB|C")
        povms = tuple(POVM(np.eye(2 * m) / 2, (2, m)) for m in shares)
        terms = []
        for tag, w in zip(tags, (0.4, 0.3, 0.2, 0.1)):
            (p, q), r = BIPARTITIONS_3[tag]
            pair = random_density_matrix((shares[p], shares[q]), rng)
            terms.append(BiseparableTerm(tag, w, pair, random_density_matrix((shares[r],), rng)))
        ragged = BiseparableStrategy(tuple(terms), povms)
        weights, groups = _groups(ragged)
        assert weights.tolist() == [[0.4, 0.3, 0.2, 0.1]]
        pairs = [partition[0] for _, partition, _ in groups]
        assert pairs == [BIPARTITIONS_3[t][0] for t in sorted(set(tags))]  # groups in sorted order
        assert [idx.tolist() for idx, _, _ in groups] == [[0, 3], [2], [1]]
        for idx, ((p, q), (r,)), (pair_states, single_states) in groups:
            assert pair_states.shape == (len(idx), shares[p] * shares[q], shares[p] * shares[q])
            assert single_states.shape == (len(idx), shares[r], shares[r])
            for i, pair, single in zip(idx, pair_states, single_states):
                assert np.array_equal(pair, ragged.terms[i].group_state.matrix)
                assert np.array_equal(single, ragged.terms[i].singleton_state.matrix)

    def test_separable_groups_hold_every_term_in_order(self):
        s = _mixed_separable((2, 3), 2, 3, np.random.default_rng(68))
        weights, groups = _groups(s)
        assert weights.tolist() == [list(s.weights)]
        ((idx, partition, states),) = groups
        assert idx.tolist() == [0, 1, 2] and partition == ((0,), (1,))
        for p, stack in enumerate(states):
            assert all(np.array_equal(x, term[p].matrix) for x, term in zip(stack, s.share_states))


def _graded(eps):
    ensembles = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
    return decompose(Witness(singlet_witness().matrix - eps * np.eye(4), (2, 2)), ensembles)


def _offset_ghz():
    """W_GHZ - 1e-4 * 1 over three tetrahedron inputs: the product |000> scores -1e-4, the floor is -8e-4."""
    w = ghz_witness()
    return decompose(Witness(w.matrix - 1e-4 * np.eye(8), w.dims, w.kind), tuple(map(tetrahedron_ensemble, "ABC")))


def _teleported_game():
    """(0.45 * 1 - |psi><psi|) (x) |0><0| over three tetrahedron inputs, psi = (|00> + i|11>) / sqrt(2).

    A product scores at least -0.05, but the pair AB searched whole reaches Q = |psi><psi| at
    0.45 - 1, which teleportation realizes at (0.45 - 1) / 4 = -0.1375; psi^* is not SWAP psi,
    so only SWAP Q^T SWAP at party B realizes it.
    """
    psi = np.array([1.0, 0.0, 0.0, 1.0j]) / np.sqrt(2.0)
    m = np.kron(0.45 * np.eye(4) - projector(psi), np.diag([1.0, 0.0]))
    return decompose(Witness(m, (2, 2, 2)), tuple(map(tetrahedron_ensemble, "ABC")))


def _one_ensemble_game(d, seed, symmetric=True):
    """A random three-party game with one ensemble of d^2 random input states for every party.

    Symmetric, its beta is the sorted mean of a random tensor's six transposes, so beta in every cut's block
    order has the same bits and the three cuts share one whole-pair plan; otherwise it is that tensor.
    The witness is the decomposition's reconstruction, so it is exact.
    """
    rng = np.random.default_rng(seed)
    states = tuple(random_density_matrix((d,), rng) for _ in range(d * d))
    ensembles = tuple(InputEnsemble(p, tuple(map(str, range(d * d))), states) for p in "ABC")
    x = rng.normal(size=(d * d,) * 3) / d**3
    beta = np.sort([x.transpose(p) for p in itertools.permutations(range(3))], axis=0).sum(axis=0) / 6
    return Decomposition(beta if symmetric else x, ensembles, 0.0)


SEPARABLE = ("separable", attack)
BISEPARABLE = ("biseparable", biseparable_attack)
# name: (family, decomposition, mixture size, share dim, iterations, seed)
BATCH_CASES = {
    "tetrahedron": (SEPARABLE, tetrahedron_beta, 8, 4, 200, 7),
    "pauli6": (SEPARABLE, pauli6_beta, 4, 2, 200, 8),
    "graded_1e-4": (SEPARABLE, lambda: _graded(1e-4), 4, 2, 200, 101),
    "non_witness": (SEPARABLE, negated_projector_decomposition, 2, 2, 200, 3),
    "ghz": (BISEPARABLE, ghz_beta, 6, 2, 200, 9),
    "ghz_offset": (BISEPARABLE, _offset_ghz, 6, 2, 200, 101),
    "teleported": (BISEPARABLE, _teleported_game, 3, 2, 200, 5),
    "teleported_share3": (BISEPARABLE, _teleported_game, 2, 3, 200, 6),
    # the three cuts share one whole-pair plan; the champion is teleported on AC|B or BC|A, never the plan's first
    "symmetric": (BISEPARABLE, lambda: _one_ensemble_game(2, 0), 3, 2, 200, 6),
    # restarts stop after 1, 2 or 3 sweeps; capped at 2, some stop on their own
    "ghz_share1": (BISEPARABLE, ghz_beta, 3, 1, 500, 61),
    "ghz_share1_capped": (BISEPARABLE, ghz_beta, 3, 1, 2, 61),
}


class TestBatchedSearch:
    """All restarts run as one batch and still reproduce the restart-by-restart search."""

    @pytest.mark.parametrize("restarts", [1, 3, 7])
    @pytest.mark.parametrize("case", list(BATCH_CASES))
    def test_matches_sequential_loop(self, case, restarts):
        (kind, search), make, mixture, share, iterations, seed = BATCH_CASES[case]
        dec = make()
        cfg = AttackConfig(restarts=restarts, iterations=iterations, mixture_size=mixture,
                           share_dim=share, seed=seed)
        batched = search(dec, dec.ensembles, cfg)
        want = sequential_search(dec, dec.ensembles, cfg, kind)
        assert batched.evaluations == want.evaluations
        assert batched.floor == want.floor
        # each restart's path, bit for bit: its start, then its best value after each sweep (the search's
        # sweep values against the oracle's separate _values route)
        assert [len(p) for p in batched.restart_paths] == [len(p) for p in want.restart_paths]
        for got, path in zip(batched.restart_paths, want.restart_paths):
            assert np.array(got).tobytes() == np.array(path).tobytes()
        assert repr(batched.best_strategy) == repr(want.best_strategy)
        assert _public(dec, batched.best_strategy) == pytest.approx(batched.min_value, abs=1e-12)

    def test_restarts_stop_at_different_sweeps(self):
        # the ghz_share1 cases must exercise the stop mask
        dec = ghz_beta()
        cfg = AttackConfig(restarts=7, iterations=500, mixture_size=3, share_dim=1, seed=61)
        sweeps = [len(p) - 1 for p in biseparable_attack(dec, dec.ensembles, cfg).restart_paths]
        assert len(set(sweeps)) >= 3 and min(sweeps) == 1


class TestStoppedRestarts:
    def test_stopped_restarts_leave_the_batch(self, monkeypatch):
        # restarts of this search stop after 1, 2 or 3 sweeps (restart 2 rises on its first);
        # every sweep must run only the restarts still running, one counted evaluation each
        module = importlib.import_module("mdiw.attack")
        sweep, batch_sizes = module._sweep, []

        def spy(state, shape):
            batch_sizes.append(len(np.unique(np.concatenate([rows for _, rows, *_ in state]))))
            return sweep(state, shape)

        monkeypatch.setattr(module, "_sweep", spy)
        dec = ghz_beta()
        cfg = AttackConfig(restarts=7, iterations=500, mixture_size=3, share_dim=1, seed=61)
        report = biseparable_attack(dec, dec.ensembles, cfg)
        assert sum(batch_sizes) == report.evaluations - cfg.restarts == 17
        assert batch_sizes == [7, 6, 4]


def _independence_cases():
    """(search, decomposition, mixture size, seed, share dim) of each TestRestartIndependence case."""
    rows = [("ghz", biseparable_attack, ghz_beta, (1, 2, 3, 6), (66, 9, 3), (1, 2)),
            ("tetrahedron", attack, tetrahedron_beta, (1, 3), (3, 5), (1, 2, 4)),
            ("pauli6", attack, pauli6_beta, (1, 2), (4,), (1, 2, 4))]
    return [pytest.param(search, make, k, seed, share, id=f"{name}_mixture{k}_seed{seed}-{share}")
            for name, search, make, ks, seeds, shares in rows
            for k in ks for seed in seeds for share in shares]


class TestRestartIndependence:
    """Restart r's search does not depend on how many restarts run beside it, bit for bit."""

    @pytest.mark.parametrize("search, make, mixture, seed, share", _independence_cases())
    def test_restart_alone_equals_restart_in_batch(self, search, make, mixture, seed, share):
        dec = make()
        runs = {}
        for restarts in (1, 2, 3):
            cfg = AttackConfig(restarts=restarts, iterations=500, mixture_size=mixture,
                               share_dim=share, seed=seed)
            # restart r's whole path, as bytes: its start, then its best value after each sweep
            runs[restarts] = [np.array(p).tobytes() for p in search(dec, dec.ensembles, cfg).restart_paths]
        assert runs[1] == runs[2][:1] == runs[3][:1]
        assert runs[2] == runs[3][:2]

    @pytest.mark.parametrize("case", list(START_CASES))
    def test_start_alone_equals_start_in_batch(self, case):
        # restart r's picks, and each of its start terms' plan, operators and responses, as bytes
        runs, (plans, partitions, dims, cfg) = {}, _start_case(case, 3, 4, 17)
        for restarts in (1, 2, 3):
            picks, state = _start(plans, partitions, dims, replace(cfg, restarts=restarts))
            runs[restarts] = (picks.tobytes(), {key: (id(plan), term) for key, (plan, term) in _terms_at(state).items()})
        for restarts in (1, 2):
            picks, terms = runs[restarts]
            assert runs[3][0][: len(picks)] == picks
            assert terms == {(r, c): term for (r, c), term in runs[3][1].items() if r < restarts}


class TestBatchInvariance:
    """Each block-form contraction gives an operator, a term or a restart the same bits in a batch of any size."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 2, 4]), st.integers(1, 5), st.integers(1, 3))
    def test_batch_equals_one_at_a_time(self, seed, share, size, mixture):
        rng = np.random.default_rng(seed)
        taus = tetrahedron_ensemble("A").matrices
        elements = rng.normal(size=(size, 2 * share, 2 * share)) + 1j * rng.normal(size=(size, 2 * share, 2 * share))
        f = trace_inputs(elements, taus)
        for i in range(size):
            assert np.array_equal(f[i], trace_inputs(elements[i], taus))
        # a singleton block and a pair block, each party reading its own F_p
        for parties in (1, 2):
            fb = [f[rng.permutation(size)] for _ in range(parties)]
            states = np.array([random_density_matrix((share**parties,), rng).matrix for _ in range(size)])
            r = _contract(fb, states)
            for i in range(size):
                assert r[i].tobytes() == _contract([x[i : i + 1] for x in fb], states[i : i + 1])[0].tobytes()
        # R sampled mixtures on the separable partition, the loss check's batch, valued as one batch and each alone
        dec, partition = tetrahedron_beta(), _singletons(2)
        inputs = [e.matrices for e in dec.ensembles]
        draws = [_draw(restart_rng(seed, r), (partition,), (2, 2), share, mixture) for r in range(size)]
        values = _mixture_values(dec.beta, inputs, *_block(draws, partition, (2, 2), share))
        for r, one in enumerate(draws):
            assert values[r] == _mixture_values(dec.beta, inputs, *_block([one], partition, (2, 2), share))[0]
        # R restarts' starts searched and swept as one batch, and each alone from the oracle's start
        for kind, dims, dec in (("separable", (2, 2), tetrahedron_beta()), ("biseparable", (2, 2, 2), ghz_beta())):
            partitions, inputs = _FAMILIES[kind](len(dims)), [e.matrices for e in dec.ensembles]
            plans = _plans(np.asarray(dec.beta), inputs, partitions, share)
            width = mixture * max(map(len, plans.values()))
            cfg = AttackConfig(restarts=size, mixture_size=mixture, share_dim=share, seed=seed)
            state = _start(plans, partitions, dims, cfg)[1]
            starts, (swept_state, swept) = _values(state, (size, width)), _sweep(state, (size, width))
            assert swept.tobytes() == _values(swept_state, (size, width)).tobytes()
            for r in range(size):
                state = terms_state(restart_start(seed, r, plans, dims, mixture)[1])
                assert starts[r].tobytes() == _values(state, (1, width))[0].tobytes()
                assert swept[r].tobytes() == _sweep(state, (1, width))[1][0].tobytes()


def _terms_at(state) -> dict:
    """Each searched term of a search state by (restart, column): its plan, and its operators' and responses' bytes."""
    return {(r, c): (plan, [x[i].tobytes() for x in (*ops, *resp)])
            for plan, rows, cols, ops, resp in state for i, (r, c) in enumerate(zip(rows.tolist(), cols.tolist()))}


class TestSharedPlans:
    """Cuts whose whole-pair contractions have the same bits share one plan and one batch."""

    def test_plans_shared_only_where_contractions_agree(self):
        partitions = _FAMILIES["biseparable"](3)
        # (decomposition, share dim, whole-pair plans): one ensemble for every party shares a plan only where
        # beta is symmetric too, and a share dim below the input dim searches no pair whole
        games = [(ghz_beta(), 2, 1), (_one_ensemble_game(2, 0), 2, 1), (_one_ensemble_game(3, 0), 3, 1),
                 (_one_ensemble_game(2, 0, symmetric=False), 2, 3), (_teleported_game(), 2, 3),
                 (_random_game((2, 2, 2), np.random.default_rng(4)), 2, 3), (ghz_beta(), 1, 0)]
        for dec, share, count in games:
            plans = _plans(np.asarray(dec.beta), [e.matrices for e in dec.ensembles], partitions, share)
            wholes = {id(p) for found in plans.values() for p in found[1:]}
            assert len(wholes) == count
            assert len({id(found[0]) for found in plans.values()}) == 1  # one product plan

    @pytest.mark.parametrize("game", ["ghz", "symmetric_2", "symmetric_3", "one_ensemble_2"])
    def test_merged_sweep_matches_each_cut_alone(self, game):
        # every term of the merged batch, before and after each of two sweeps, has the partition and the bytes it
        # has where each cut's terms are searched over that cut's own plan built by _plan: the start draws the
        # same numbers whichever plans its cuts share
        dec = {"ghz": ghz_beta, "symmetric_2": lambda: _one_ensemble_game(2, 0),
               "symmetric_3": lambda: _one_ensemble_game(3, 0),
               "one_ensemble_2": lambda: _one_ensemble_game(2, 0, symmetric=False)}[game]()
        d, k, restarts, partitions = dec.ensembles[0].dim, 3, 4, _FAMILIES["biseparable"](3)
        dims, beta, inputs = (d,) * 3, np.asarray(dec.beta), [e.matrices for e in dec.ensembles]
        cfg = AttackConfig(restarts=restarts, mixture_size=k, share_dim=d, seed=21)
        picks, state = _start(_plans(beta, inputs, partitions, d), partitions, dims, cfg)
        own_plans = unshared_plans(beta, inputs, partitions, d)
        own_picks, alone = _start(own_plans, partitions, dims, cfg)
        assert picks.tobytes() == own_picks.tobytes()
        shape, cuts = (restarts, 2 * k), set()
        for _ in range(3):
            merged, own = _terms_at(state), _terms_at(alone)
            assert {key: term for key, (_, term) in merged.items()} == {key: term for key, (_, term) in own.items()}
            assert len(merged) == restarts * 2 * k
            for (r, c), (plan, _) in own.items():
                cut = _term(state, r, c, picks, partitions)[0]
                # each term's partition, on the merged plans, is the one whose own plan it is searched on alone
                assert plan is (own_plans[cut][1] if c >= k else own_plans[partitions[0]][0])
                assert cut == _term(alone, r, c, picks, partitions)[0]
                cuts.add(cut)
            (state, values), (alone, own_values) = _sweep(state, shape), _sweep(alone, shape)
            assert values.tobytes() == own_values.tobytes() and np.isfinite(values).all()
        assert cuts == set(partitions) | {_singletons(3)}


def _build_case(family, rng):
    """(input dims, partitions, public sampler, beta, inputs) of a TestBuildPhase or TestStart family."""
    if family == "separable":
        dims = (2, 3)
        inputs = [np.stack([random_density_matrix((d,), rng).matrix for _ in range(3)]) for d in dims]
        return dims, _FAMILIES["separable"](2), random_separable_strategy, rng.normal(size=(3, 3)), inputs
    # GHZ's three cuts share one whole-pair plan; the random game keeps one per cut
    dec = ghz_beta() if family == "biseparable" else _random_game((2, 2, 2), rng)
    return ((2, 2, 2), _FAMILIES["biseparable"](3), random_biseparable_strategy, np.asarray(dec.beta),
            [e.matrices for e in dec.ensembles])


class TestBuildPhase:
    """The loss check's draws of R restarts become one batch, checked once; a public sampler builds its strategy
    from one draw's checked stacks.  Neither touches the streams."""

    @pytest.mark.parametrize("family", ["separable"])
    def test_batch_matches_block_of_one(self, family):
        dims, partitions, sampler, beta, inputs = _build_case(family, np.random.default_rng(15))
        m, k = 2, 3
        rngs = [restart_rng(12, r) for r in range(5)]
        batch = _block([_draw(rng, partitions, dims, m, k) for rng in rngs], partitions[0], dims, m)
        values = _mixture_values(beta, inputs, *batch)
        for r, rng in enumerate(rngs):
            ref = restart_rng(12, r)
            alone = _block([_draw(ref, partitions, dims, m, k)], partitions[0], dims, m)
            assert rng.bit_generator.state == ref.bit_generator.state
            # the build phase returns no POVMs; the public sampler's POVMs view the same checked elements
            povms = sampler(dims, m, k, restart_rng(12, r)).measurements
            for e, p, want in zip(batch[2], povms, alone[2]):
                assert np.array_equal(p.element(1), e[r]) and np.array_equal(want[0], e[r])
            assert _mixture_values(beta, inputs, *alone)[0] == values[r]

    def test_non_psd_share_in_last_restart_rejected_like_single(self):
        # a NaN in the last restart's last ket: only a check of every restart's shares sees it
        dims, m, partitions = (2, 2), 2, _FAMILIES["separable"](2)
        draws = [_draw(restart_rng(13, r), partitions, dims, m, 2) for r in range(4)]
        ket = draws[-1][2][-1].reshape(2, 2, m)[-1]  # the last party's ket in the last term's flat row
        ket[0, 0] = np.nan
        with np.errstate(invalid="ignore"):
            v = (ket[0] + 1j * ket[1]) / np.linalg.norm(ket[0] + 1j * ket[1])
            with pytest.raises(ValueError, match="NaN") as single:
                DensityMatrix(np.outer(v, v.conj()), (m,))
            with pytest.raises(ValueError, match="NaN") as batched:
                _block(draws, partitions[0], dims, m)
        assert str(batched.value) == str(single.value)

    @pytest.mark.parametrize("block", ["pair", "singleton"])
    def test_nan_in_each_block_size_rejected_like_single(self, monkeypatch, block):
        # a NaN in a biseparable sample's last term, in its pair ket or its singleton ket
        module, m, spoiled = importlib.import_module("mdiw.attack"), 2, []
        draw = module._draw

        def spoil(*args):
            draws = draw(*args)
            row = draws[2][-1]
            spoiled.append((row[: 2 * m * m] if block == "pair" else row[2 * m * m :]).reshape(2, -1))
            spoiled[0][0, 0] = np.nan
            return draws

        monkeypatch.setattr(module, "_draw", spoil)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="NaN") as sampled:
                random_biseparable_strategy((2, 2, 2), m, 3, restart_rng(16, 2))
            (ket,) = spoiled
            v = (ket[0] + 1j * ket[1]) / np.linalg.norm(ket[0] + 1j * ket[1])
            with pytest.raises(ValueError, match="NaN") as single:
                DensityMatrix(np.outer(v, v.conj()), (len(v),))
        assert str(sampled.value) == str(single.value)

    def test_one_eigvalsh_per_stack(self, monkeypatch):
        calls, eigvalsh, cholesky = [], np.linalg.eigvalsh, np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *rest: calls.append(("eigvalsh", a.shape))
                            or eigvalsh(a, *rest))
        monkeypatch.setattr(np.linalg, "cholesky", lambda a, *rest: calls.append(("cholesky", a.shape))
                            or cholesky(a, *rest))
        random_separable_strategy((2, 2), 2, 2, np.random.default_rng(0))
        # the shares' density check by one factorization, then the spectrum that scales the success elements
        # and checks them
        assert calls == [("cholesky", (4, 2, 2)), ("eigvalsh", (2, 4, 4))]

    @pytest.mark.parametrize("search", [
        lambda: random_separable_strategy((2, 2), 2, 2, _Spoiled(np.random.default_rng(0), -0.5, every=True)),
        lambda: random_biseparable_strategy((2, 2, 2), 2, 2, _Spoiled(np.random.default_rng(0), -0.5, every=True)),
        lambda: attack(tetrahedron_beta(), tetrahedron_beta().ensembles,
                       AttackConfig(restarts=2, iterations=3, mixture_size=2, share_dim=2)),
        lambda: biseparable_attack(ghz_beta(), ghz_beta().ensembles,
                                   AttackConfig(restarts=2, iterations=3, mixture_size=2, share_dim=2)),
    ], ids=["random_separable_strategy", "random_biseparable_strategy", "attack", "biseparable_attack"])
    def test_half_scale_fails_the_folded_click_check(self, monkeypatch, search):
        # u = -0.5 turns the scale lambda_max (1 + u) into lambda_max / 2: each E's top eigenvalue is 2, a
        # sampler's success elements' and the search's start operators' alike
        module = importlib.import_module("mdiw.attack")
        stream = module.restart_rng
        monkeypatch.setattr(module, "restart_rng", lambda seed, r: _Spoiled(stream(seed, r), -0.5, every=True))
        with pytest.raises(ValueError) as exc:
            search()
        assert str(exc.value) == "1 - E not positive semidefinite (max eigenvalue 2.000e+00, above 1)"

    @pytest.mark.parametrize("family", ["separable", "biseparable"])
    def test_success_element_above_one_in_last_restart_rejected_like_single(self, monkeypatch, family):
        # the last party's element scaled by 1 / (top * 0.5), so its top eigenvalue becomes 2: in the last of the
        # loss check's four restarts, and in the public biseparable sampler's one draw, the last of its stack
        module, spoiled = importlib.import_module("mdiw.attack"), []
        draw = module._draw

        def spoil(*args):
            draws = draw(*args)
            spoiled.append(draws[-1][-1][0])
            draws[-1][-1] = (spoiled[-1], -0.5)
            return draws

        monkeypatch.setattr(module, "_draw", spoil)
        with pytest.raises(ValueError, match="positive semidefinite") as batched:
            if family == "separable":
                partitions = _FAMILIES["separable"](2)
                draws = [draw(restart_rng(14, r), partitions, (2, 2), 2, 2) for r in range(3)]
                _block(draws + [spoil(restart_rng(14, 3), partitions, (2, 2), 2, 2)], partitions[0], (2, 2), 2)
            else:
                random_biseparable_strategy((2, 2, 2), 2, 2, restart_rng(14, 3))
        g = spoiled[0][0] + 1j * spoiled[0][1]
        e = g.conj().T @ g
        with pytest.raises(ValueError, match="positive semidefinite") as single:
            POVM(e / (np.linalg.eigvalsh(e)[-1] * 0.5), (2, 2))
        assert str(batched.value) == str(single.value)


class TestStart:
    """The search's start: R restarts drawn and checked as one batch, each restart's terms those it draws alone."""

    @pytest.mark.parametrize("family", ["separable", "biseparable", "biseparable_asymmetric"])
    def test_batch_matches_restart_alone(self, family):
        dims, partitions, _, beta, inputs = _build_case(family, np.random.default_rng(15))
        m, k, lacking = 2, 3, 0
        plans = _plans(beta, inputs, partitions, m)
        picks, state = _start(plans, partitions, dims, AttackConfig(restarts=5, mixture_size=k, share_dim=m, seed=12))
        for r in range(5):
            want_picks, terms, _ = restart_start(12, r, plans, dims, k)
            assert picks[r].tolist() == want_picks.tolist()
            # the batch's searched terms of restart r are those of its start alone, bit for bit
            kept = {id(entry[0]): entry for entry in _keep(state, np.arange(5) == r)}
            want = {id(entry[0]): entry for entry in terms_state(terms)}
            assert kept.keys() == want.keys()
            for key, (plan, rows, cols, ops, resp) in kept.items():
                _, want_rows, want_cols, want_ops, want_resp = want[key]
                assert np.array_equal(rows, want_rows + r)
                for got, expected in zip([cols, *ops, *resp], [want_cols, *want_ops, *want_resp]):
                    assert got.dtype == expected.dtype and got.shape == expected.shape
                    assert got.tobytes() == expected.tobytes()
            lacking += len(kept) < len(state)
        # some restart holds no term of a bipartition that others use: where that bipartition has a plan of its
        # own, the plan is dropped from the restart's state
        assert (lacking > 0) == (family == "biseparable_asymmetric")

    @pytest.mark.parametrize("search", [attack, biseparable_attack], ids=["separable", "biseparable"])
    def test_start_operator_above_one_in_last_restart_rejected_like_single(self, monkeypatch, search):
        # each random call of restart 3 (seed 14) ends in u = -0.3: its last operator's top eigenvalue is 1 / 0.7.
        # Only a check of every restart's start sees it, and a batch names it as restart 3 alone does
        module = importlib.import_module("mdiw.attack")
        stream, dec, errors = module.restart_rng, tetrahedron_beta() if search is attack else ghz_beta(), []
        for restarts in (4, 1):
            monkeypatch.setattr(module, "restart_rng", lambda seed, r: _Spoiled(stream(seed, 3), -0.3)
                                if r == restarts - 1 else stream(seed, r))
            with pytest.raises(ValueError, match="positive semidefinite") as exc:
                search(dec, dec.ensembles, AttackConfig(restarts=restarts, iterations=5, mixture_size=2, seed=14))
            errors.append(str(exc.value))
        assert errors[0] == errors[1] == "1 - E not positive semidefinite (max eigenvalue 1.429e+00, above 1)"

    @pytest.mark.parametrize("case", list(START_CASES))
    def test_one_eigvalsh_per_plan_and_block_size(self, monkeypatch, case):
        # each plan's operators of one block size, over every restart, are one eigvalsh and one check
        plans, partitions, dims, cfg = _start_case(case, 5, 4, 3)
        calls, eigvalsh, check = [], np.linalg.eigvalsh, importlib.import_module("mdiw.attack").check_operators
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(("eigvalsh", a.shape)) or eigvalsh(a))
        monkeypatch.setattr(importlib.import_module("mdiw.attack"), "check_operators",
                            lambda ms, dims: calls.append(("check", ms.shape)) or check(ms, dims))
        _, state = _start(plans, partitions, dims, cfg)
        want = []
        for plan, rows, cols, ops, resp in state:
            sizes = [a.shape[-1] for a in ops]
            for d in dict.fromkeys(sizes):
                shape = (sizes.count(d) * len(rows), d, d)
                want += [("eigvalsh", shape), ("check", shape)]
        assert calls == want


class TestNegativeProjectorRank:
    """The see-saw step keeps rank >= 1: exact only where the gradient has a negative eigenvalue."""

    def test_psd_operator_keeps_lowest_eigenvector(self):
        x = np.array([np.diag([1.0, 2.0]), np.diag([-1.0, 2.0]), np.diag([-1.0, -2.0])], dtype=complex)
        e = _negative_projectors(x)
        # for X >= 0 the minimizer is E = 0 (value 0), but the step keeps rank 1 (value 1)
        assert np.allclose(e[0], np.diag([1.0, 0.0]))
        assert np.allclose(e[1], np.diag([1.0, 0.0]))
        assert np.allclose(e[2], np.eye(2))

    @pytest.mark.parametrize("signs", ["positive", "negative", "mixed", "zero"])
    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    def test_mask_matches_rank_rule(self, d, signs):
        # random unitaries rotate spectra of the given signs; "zero" stacks hold exact zeros on a diagonal
        rng = np.random.default_rng((18, d))
        g = rng.normal(size=(12, d, d)) + 1j * rng.normal(size=(12, d, d))
        u = np.linalg.qr(g)[0]
        spectra = {
            "positive": rng.uniform(0.1, 2.0, size=(12, d)),
            "negative": -rng.uniform(0.1, 2.0, size=(12, d)),
            "mixed": rng.uniform(-2.0, 2.0, size=(12, d)),
            "zero": rng.choice([-1.0, 0.0, 0.0, 1.0], size=(12, d)),
        }[signs]
        if signs == "zero":
            x = np.array([np.diag(v) for v in spectra], dtype=complex)
            x[0], x[1] = 0.0, np.diag(np.full(d, -0.0))
        else:
            x = (u * spectra[:, None, :]) @ u.conj().swapaxes(-1, -2)
        assert _negative_projectors(x).tobytes() == rank_rule_negative_projectors(x).tobytes()

    def test_sweep_can_raise_value_on_ghz_share_dim_1(self):
        # an exact step cannot raise a term's value, so where one rises some step met a
        # positive semidefinite gradient and kept rank 1
        dec, partitions = ghz_beta(), _FAMILIES["biseparable"](3)
        plans = _plans(np.asarray(dec.beta), [e.matrices for e in dec.ensembles], partitions, 1)
        cfg = AttackConfig(restarts=7, mixture_size=3, share_dim=1, seed=61)
        state = _start(plans, partitions, (2, 2, 2), cfg)[1]
        start, swept = _values(state, (7, 3)), _sweep(state, (7, 3))[1]
        assert [r for r in range(7) if swept[r].min() > start[r].min()] == [2]
        assert start[2] == pytest.approx((0.20404, 0.16704, 0.17920), abs=1e-5)
        assert swept[2] == pytest.approx((0.24344, 0.19951, 0.27178), abs=1e-5)

    def test_rising_sweep_ends_restart_with_start_value_kept(self):
        # restart 2 of this search rises on its first sweep, stops, and keeps its start
        dec = ghz_beta()
        cfg = AttackConfig(restarts=7, iterations=500, mixture_size=3, share_dim=1, seed=61)
        report = biseparable_attack(dec, dec.ensembles, cfg)
        path = report.restart_paths[2]
        assert path == (path[0], path[0])
        assert path[0] == pytest.approx(0.16704, abs=1e-5)
        assert report.restart_minima[2] == path[0] > 0.15
        assert report.min_value <= 1e-15


class TestSearch:
    def test_bound_holds_on_small_run(self):
        report = attack(tetrahedron_beta(), tetrahedron_beta().ensembles, SMALL)
        assert report.min_value >= -1e-9

    def test_biseparable_bound_holds_on_small_run(self):
        dec = ghz_beta()
        cfg = AttackConfig(restarts=4, iterations=120, mixture_size=3, share_dim=2, seed=9)
        report = biseparable_attack(dec, dec.ensembles, cfg)
        assert report.min_value >= -1e-9

    def test_deterministic_given_seed(self):
        dec = tetrahedron_beta()
        a = attack(dec, dec.ensembles, SMALL)
        b = attack(dec, dec.ensembles, SMALL)
        assert a.restart_minima == b.restart_minima
        assert a.min_value == b.min_value
        assert a.evaluations == b.evaluations

    def test_seed_changes_results(self):
        dec = tetrahedron_beta()
        other = AttackConfig(restarts=8, iterations=120, mixture_size=3, share_dim=2, seed=8)
        assert attack(dec, dec.ensembles, SMALL).restart_minima != attack(
            dec, dec.ensembles, other
        ).restart_minima

    def test_tracked_best_is_monotone_within_restart(self):
        dec = tetrahedron_beta()
        cfg = AttackConfig(restarts=3, iterations=80, mixture_size=2, share_dim=2, seed=5)
        report = attack(dec, dec.ensembles, cfg)
        for path, minimum in zip(report.restart_paths, report.restart_minima):
            assert 2 <= len(path) <= cfg.iterations + 1
            assert all(b <= a for a, b in zip(path, path[1:]))
            assert minimum == path[-1]

    def test_report_minimum_consistent(self):
        report = attack(tetrahedron_beta(), tetrahedron_beta().ensembles, SMALL)
        assert len(report.restart_paths) == SMALL.restarts
        assert report.min_value == min(path[-1] for path in report.restart_paths)
        # one value per restart's start, plus one per sweep run
        assert report.evaluations == sum(len(path) for path in report.restart_paths)
        assert SMALL.restarts < report.evaluations <= SMALL.restarts * (SMALL.iterations + 1)

    def test_best_strategy_reproduces_reported_minimum(self):
        for search, dec in ((attack, tetrahedron_beta()), (biseparable_attack, ghz_beta())):
            report = search(dec, dec.ensembles, SMALL)
            s = report.best_strategy
            value = mdi_value(dec, simulate_separable(s, dec.ensembles))
            assert value == pytest.approx(report.min_value, abs=1e-12)
            entangled = EntangledStrategy(mixture_as_shared_state(s), s.measurements)
            value = mdi_value(dec, simulate_entangled(entangled, dec.ensembles))
            assert value == pytest.approx(report.min_value, abs=1e-12)
            assert grid_value(dec, entangled) == pytest.approx(report.min_value, abs=1e-12)

    @pytest.mark.parametrize("share_dim", [2, 3])
    def test_teleported_pair_realizes_a_quarter(self, share_dim):
        # the pair AB searched whole reaches 0.45 - 1 at Q = |psi><psi|, a quarter of which
        # teleportation realizes; no product reaches below -0.05
        dec = _teleported_game()
        cfg = AttackConfig(restarts=4, iterations=100, mixture_size=3, share_dim=share_dim, seed=2)
        report = biseparable_attack(dec, dec.ensembles, cfg)
        assert report.min_value == pytest.approx(-0.55 / 4, abs=1e-12)
        (term,) = report.best_strategy.terms
        assert term.bipartition == "AB|C"
        phi = np.zeros((2, share_dim))
        phi[[0, 1], [0, 1]] = 2**-0.5
        assert np.allclose(report.best_strategy.measurements[0].click, projector(phi))
        assert _public(dec, report.best_strategy) == pytest.approx(report.min_value, abs=1e-12)

    def test_inexact_decomposition_warns(self):
        from mdiw.states import InputEnsemble, bloch_state

        single = InputEnsemble("A", ("0",), (bloch_state((0, 0, 1)),))
        single_b = InputEnsemble("B", ("0",), (bloch_state((0, 0, 1)),))
        from mdiw.witness import singlet_witness

        dec = decompose(singlet_witness(), (single, single_b))
        cfg = AttackConfig(restarts=1, iterations=5, mixture_size=1, share_dim=1, seed=0)
        with pytest.warns(UserWarning, match="inexact"):
            attack(dec, dec.ensembles, cfg)

    def test_restart_stream_contract(self):
        # restart streams are default_rng((master, r)) and thus independent
        a = restart_rng(3, 0).normal(size=4)
        b = restart_rng(3, 1).normal(size=4)
        again = restart_rng(3, 0).normal(size=4)
        assert np.array_equal(a, again)
        assert not np.array_equal(a, b)

    def test_biseparable_requires_three_parties(self):
        with pytest.raises(ValueError, match="three-party"):
            biseparable_attack(tetrahedron_beta(), tetrahedron_beta().ensembles, SMALL)


def _random_game(dims, rng):
    """A random Hermitian witness over d^2 random input states per party of ``dims``, decomposed."""
    ensembles = tuple(InputEnsemble(p, tuple(map(str, range(d * d))),
                                    tuple(random_density_matrix((d,), rng) for _ in range(d * d)))
                      for p, d in zip("ABC", dims))
    g = rng.normal(size=(np.prod(dims),) * 2) + 1j * rng.normal(size=(np.prod(dims),) * 2)
    return decompose(Witness((g + g.conj().T) / 2, dims), ensembles)


class TestRealizedSearch:
    """Every search reports a strategy that scores its minimum, and every path descends."""

    GAMES = {
        "separable": ((tetrahedron_beta, pauli6_beta, lambda: _graded(1e-4), negated_projector_decomposition), attack),
        "biseparable": ((ghz_beta, _offset_ghz, _teleported_game, lambda: _one_ensemble_game(2, 0)),
                        biseparable_attack),
    }

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(["separable", "biseparable"]), st.integers(0, 3), st.integers(0, 2**31 - 1),
           st.integers(1, 3), st.integers(1, 4), st.integers(1, 4))
    def test_best_strategy_scores_min_value(self, kind, game, seed, share, mixture, restarts):
        makes, search = self.GAMES[kind]
        dec = makes[game % len(makes)]()
        cfg = AttackConfig(restarts=restarts, iterations=100, mixture_size=mixture, share_dim=share, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = search(dec, dec.ensembles, cfg)
        assert _public(dec, report.best_strategy) == pytest.approx(report.min_value, abs=1e-12)
        for path in report.restart_paths:
            assert all(b <= a for a, b in zip(path, path[1:]))

    @pytest.mark.parametrize("dims, share", [((3, 2, 2), 2), ((2, 3, 2), 2), ((2, 2, 3), 3), ((3, 2, 3), 1)])
    def test_ragged_input_dims(self, dims, share):
        # a pair is searched whole only where the share holds its first party's input, and a share
        # larger than that input pads the teleportation
        dec = _random_game(dims, np.random.default_rng((sum(dims), share)))
        # random qutrit inputs solve with coefficients up to about 1e4: the rounding of each route scales with them
        tol = 1e-14 * np.abs(dec.beta).sum()
        assert dec.exact
        for search in (attack, biseparable_attack):
            cfg = AttackConfig(restarts=3, iterations=50, mixture_size=3, share_dim=share, seed=1)
            report = search(dec, dec.ensembles, cfg)
            assert _public(dec, report.best_strategy) == pytest.approx(report.min_value, abs=tol)
        # every searched form of a biseparable start, the teleported pairs included, realized: the search's own
        # start, and a sampled strategy's terms converted by the oracle
        partitions = _FAMILIES["biseparable"](3)
        plans = _plans(np.asarray(dec.beta), [e.matrices for e in dec.ensembles], partitions, share)
        s = random_biseparable_strategy(dims, share, 3, np.random.default_rng(1))
        starts = (_start(plans, partitions, dims, AttackConfig(restarts=1, mixture_size=3, share_dim=share, seed=1)),
                  strategy_state(s, plans, share))
        for picks, state in starts:
            values = _values(state, (1, 3 * max(map(len, plans.values()))))[0]
            for c in np.flatnonzero(np.isfinite(values)):
                realized = _strategy(*_term(state, 0, c, picks, partitions), dims, share, "biseparable")
                assert _public(dec, realized) == pytest.approx(values[c], abs=tol)

    @pytest.mark.parametrize("d", [2, 3])
    def test_symmetric_game_realizes_each_term_on_its_own_cut(self, d):
        # the three cuts share one plan: each searched term is still realized on its drawn cut, as over the cut's
        # own plan, and a teleported term carries that cut's tag
        dec, k = _one_ensemble_game(d, 0), 4
        beta, inputs = np.asarray(dec.beta), [e.matrices for e in dec.ensembles]
        partitions = _FAMILIES["biseparable"](3)
        cfg = AttackConfig(restarts=1, mixture_size=k, share_dim=d, seed=3)
        (picks, shared), (_, own) = (_start(plans(beta, inputs, partitions, d), partitions, (d,) * 3, cfg)
                                     for plans in (_plans, unshared_plans))
        values = _values(shared, (1, 2 * k))[0]
        assert values.tobytes() == _values(own, (1, 2 * k))[0].tobytes() and np.isfinite(values).all()
        assert len(shared) == 2 and len(own) == 1 + len(set(picks[0].tolist()))
        for c, value in enumerate(values):
            realized = _strategy(*_term(shared, 0, c, picks, partitions), (d,) * 3, d, "biseparable")
            assert repr(realized) == repr(_strategy(*_term(own, 0, c, picks, partitions), (d,) * 3, d, "biseparable"))
            # the family's partitions are its bipartitions in sorted tag order
            assert realized.terms[0].bipartition == (sorted(BIPARTITIONS_3)[picks[0, c % k]] if c >= k else "AB|C")
            assert _public(dec, realized) == pytest.approx(value, abs=1e-12)
        assert len(set(picks[0].tolist())) > 1


class TestEigenCalls:
    """The reported strategy's clicks are checked as stacks and its share states once."""

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 2), (2, 3, 2), (3, 2, 3)])
    @pytest.mark.parametrize("kind", ["separable", "biseparable"])
    def test_strategy_checks_clicks_once_per_input_dimension(self, monkeypatch, kind, dims):
        module, stacks = importlib.import_module("mdiw.attack"), []
        checked = module._checked_clicks

        def spy(clicks, d):
            stacks.append((len(clicks), d))
            return checked(clicks, d)

        monkeypatch.setattr(module, "_checked_clicks", spy)
        dec, share = _random_game(dims, np.random.default_rng(sum(dims))), 3  # a share of 3 teleports every pair
        partitions = _FAMILIES[kind](3)
        plans = _plans(np.asarray(dec.beta), [e.matrices for e in dec.ensembles], partitions, share)
        cfg = AttackConfig(restarts=1, mixture_size=4, share_dim=share, seed=2)
        picks, state = _start(plans, partitions, dims, cfg)
        values = _values(state, (1, 4 * max(map(len, plans.values()))))[0]
        forms = set()
        for c in np.flatnonzero(np.isfinite(values)):
            stacks.clear()
            blocks, ops = _term(state, 0, c, picks, partitions)
            realized = _strategy(blocks, ops, dims, share, kind)
            forms.add(len(blocks))
            # one stack per input dimension, in first-party order, holding every party of that dimension
            assert stacks == [(dims.count(d), (d, share)) for d in dict.fromkeys(dims)]
            for p, povm in enumerate(realized.measurements):
                assert povm.dims == (dims[p], share) and not povm.click.flags.writeable
        assert forms == ({3} if kind == "separable" else {2, 3})

    def test_searches_share_one_read_only_state(self):
        # |0> and |Phi> are built and checked once per (d, share dim): every search returns the same objects
        tet, ghz = tetrahedron_beta(), ghz_beta()
        shares = []
        for seed in (0, 1):
            cfg = AttackConfig(restarts=2, iterations=5, mixture_size=2, share_dim=2, seed=seed)
            separable = attack(tet, tet.ensembles, cfg).best_strategy
            # at share dim 1 no pair is teleported: the best term shares |00> and |0>
            (term,) = biseparable_attack(ghz, ghz.ensembles, replace(cfg, share_dim=1)).best_strategy.terms
            shares.append(separable.share_states[0] + (term.singleton_state, term.group_state))
        assert shares[0][0] is shares[0][1] and np.array_equal(shares[0][0].matrix, np.diag([1.0, 0.0]))
        for a, b in zip(*shares):
            assert a is b and not a.matrix.flags.writeable


class TestPowerNegativeControl:
    def test_attack_violates_non_witness(self):
        dec = negated_projector_decomposition()
        assert dec.residual < 1e-10
        cfg = AttackConfig(restarts=20, iterations=400, mixture_size=2, share_dim=2, seed=11)
        report = attack(dec, dec.ensembles, cfg)
        # the sum of coefficients is the class minimum (test_non_witness_class_minimum_is_coefficient_sum)
        minimum = float(np.sum(dec.beta))
        assert minimum - BOUND_TOL <= report.min_value <= 0.99 * minimum

    def test_biseparable_attack_violates_non_witness(self):
        ensembles = tuple(tetrahedron_ensemble(p) for p in "ABC")
        dec = decompose(Witness(-projector(ghz_ket()), (2, 2, 2)), ensembles)
        assert dec.residual < 1e-10
        cfg = AttackConfig(restarts=4, iterations=50, mixture_size=4, share_dim=2, seed=11)
        report = biseparable_attack(dec, dec.ensembles, cfg)
        assert report.min_value <= -0.2
        assert report.min_value >= -1.0 - 1e-9

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    def test_attack_reaches_graded_control(self, eps):
        # W_eps = W_singlet - eps*1 is violated by exactly -eps (the product
        # state |01>), so the detection floor must sit far below eps
        ensembles = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        dec = decompose(Witness(singlet_witness().matrix - eps * np.eye(4), (2, 2)), ensembles)
        cfg = AttackConfig(restarts=4, iterations=50, mixture_size=4, share_dim=2, seed=101)
        report = attack(dec, dec.ensembles, cfg)
        assert -eps - 1e-9 <= report.min_value <= -0.99 * eps

    def test_non_witness_class_minimum_is_coefficient_sum(self):
        # R = -|psi-><psi-| <= 0, so tr[R P] >= tr[R] = sum(beta) for every 0 <= P <= 1, and the all-click
        # strategy scores exactly that; rank-1 product projectors without shares stop at -1/2 (antipodal Bloch
        # vectors: -(1 + 1)/4)
        dec = negated_projector_decomposition()
        r, minimum = reconstruct(dec), float(np.sum(dec.beta))
        assert np.linalg.eigvalsh(r)[-1] <= 1e-12
        assert minimum == pytest.approx(np.trace(r).real, abs=1e-12) and minimum == pytest.approx(-1.0, abs=1e-12)
        zero = DensityMatrix(projector([1.0, 0.0]), (2,))
        click = SeparableStrategy((1.0,), ((zero, zero),), (POVM(np.eye(4), (2, 2)),) * 2)
        assert _public(dec, click) == pytest.approx(minimum, abs=1e-12)
        assert product_grid_minimum(dec, 21, 40) == pytest.approx(-0.5, abs=1e-12)


# name: (family, its one-state builder, decomposition, detector efficiencies)
SCAN_GAMES = {
    "werner_tetrahedron": ("werner", werner_state, tetrahedron_beta, None),
    "werner_tetrahedron_lossy": ("werner", werner_state, tetrahedron_beta, (0.9, 0.7)),
    "werner_pauli6": ("werner", werner_state, pauli6_beta, None),
    "ghz": ("noisy_ghz", noisy_ghz, ghz_beta, None),
    "ghz_lossy": ("noisy_ghz", noisy_ghz, ghz_beta, (0.9, 0.8, 0.7)),
}


class TestViolationScan:
    def test_werner_curve_matches_closed_form(self):
        dec = tetrahedron_beta()
        grid = np.linspace(0.0, 1.0, 11)
        curve = violation_scan("werner", dec, grid)
        for v, value in curve:
            assert value == pytest.approx(expected_game_value("werner", v), abs=1e-12)

    def test_werner_zero_crossing(self):
        dec = tetrahedron_beta()
        curve = violation_scan("werner", dec, np.linspace(0.0, 1.0, 11))
        assert zero_crossing(curve) == pytest.approx(1 / 3, abs=1e-10)

    def test_ghz_zero_crossing(self):
        dec = ghz_beta()
        curve = violation_scan("noisy_ghz", dec, np.linspace(0.0, 1.0, 15))
        assert zero_crossing(curve) == pytest.approx(3 / 7, abs=1e-10)

    @pytest.mark.parametrize("size", [0, 1, 2, 7])
    @pytest.mark.parametrize("game", sorted(SCAN_GAMES))
    def test_matches_pointwise_oracle(self, game, size):
        family, builder, make_dec, etas = SCAN_GAMES[game]
        dec = make_dec()
        grid = np.linspace(0.0, 1.0, size) if size > 1 else [0.37][:size]
        curve = violation_scan(family, dec, grid, etas)
        reference = pointwise_scan(builder, dec, grid, etas or (1.0,) * dec.n_parties)
        assert [v for v, _ in curve] == [v for v, _ in reference]
        for (v, value), (_, expected) in zip(curve, reference):
            if v in (0.0, 1.0):
                assert value == expected  # the ends are the pointwise route, bit for bit
            else:
                assert abs(value - expected) <= 1e-15
        assert violation_scan(family, dec, []) == []

    @pytest.mark.parametrize("game", sorted(SCAN_GAMES))
    def test_point_independent_of_grid(self, game):
        family, _, make_dec, etas = SCAN_GAMES[game]
        dec = make_dec()
        grid = np.random.default_rng(5).uniform(0.0, 1.0, 300).tolist() + [0.0, 1.0, 1 / 3, 3 / 7]
        alone = {v: violation_scan(family, dec, [v], etas)[0][1] for v in grid}
        # the grid, its reverse, and a shuffled copy with duplicates
        shuffled = np.random.default_rng(6).permutation(grid + grid[::7]).tolist()
        for points in (grid, grid[::-1], shuffled):
            curve = violation_scan(family, dec, points, etas)
            assert [v for v, _ in curve] == points
            assert all(value == alone[v] for v, value in curve)

    def test_blocks_bound_memory(self):
        # 100,000 noisy-GHZ states as one (S, 8, 8) complex stack, with its
        # eigenvalue workspace and (S, 4, 4, 4) table, would peak near 300 MB
        dec = ghz_beta()
        grid = np.linspace(0.0, 1.0, 100_000)
        tracemalloc.start()
        try:
            curve = violation_scan("noisy_ghz", dec, grid, (0.9, 0.8, 0.7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
        assert len(curve) == len(grid)

    def test_parameter_out_of_range_raises_single_builder_message(self):
        for bad in (1.5, -0.25, float("nan")):
            with pytest.raises(ValueError) as single:
                werner_state(bad)
            assert str(single.value) == f"mixing parameter must lie in [0, 1], got {bad}"
            for grid in ([0.5, bad], [bad, 0.5], [0.5] * 5000 + [bad]):
                with pytest.raises(ValueError) as scan:
                    violation_scan("werner", tetrahedron_beta(), grid)
                assert str(scan.value) == str(single.value)

    def test_broken_target_raises_single_builder_message(self, monkeypatch):
        # a family whose target is not a state: v = 0 is white noise, v = 1 is not a state
        monkeypatch.setitem(FAMILIES, "werner", (-projector(singlet_ket()), (2, 2)))
        with pytest.raises(ValueError) as single:
            werner_state(1.0)
        # the end v = 1 is built and checked whatever the grid holds
        for grid in ([0.0, 1.0], [0.0] * 5000, []):
            with pytest.raises(ValueError) as scan:
                violation_scan("werner", tetrahedron_beta(), grid)
            assert str(scan.value) == str(single.value)

    @pytest.mark.parametrize("end", [1.0, 0.0])
    def test_spoiled_end_table_raises_single_builder_message(self, monkeypatch, end):
        contract = game_module._contract_grid

        def spoiled(rho, dims, stacks):
            p = contract(rho, dims, stacks)
            if np.allclose(rho, werner_state(end).matrix):
                p[2, 1] = 8.0  # one probability of 2 at that end, before the scaling by 1/4
            return p

        monkeypatch.setattr(game_module, "_contract_grid", spoiled)
        dec = tetrahedron_beta()
        with pytest.raises(ValueError) as single:
            game_module.fast_entangled_table(werner_state(end), dec.ensembles)
        assert str(single.value) == "probability 2.0 out of range at ('2', '1')"
        with pytest.raises(ValueError) as scan:
            violation_scan("werner", dec, np.linspace(0.0, 1.0, 11), (0.5, 0.5))
        assert str(scan.value) == str(single.value)

    def test_efficiencies_and_dims_checked(self):
        dec = tetrahedron_beta()
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
            violation_scan("werner", dec, [0.5], (1.5, 1.0))
        with pytest.raises(ValueError, match="one efficiency per party"):
            violation_scan("werner", dec, [0.5], (0.9,))
        with pytest.raises(ValueError, match="input dims"):
            violation_scan("noisy_ghz", dec, [0.5])

    def test_curve_starting_at_zero_crosses_there(self):
        # a first point of value exactly 0 is the crossing, whatever follows it
        assert zero_crossing([(0.25, 0.0), (0.5, 1.0), (1.0, -1.0)]) == 0.25

    def test_no_crossing_raises(self):
        with pytest.raises(ValueError, match="sign"):
            zero_crossing([(0.0, 1.0), (1.0, 0.5)])

    def test_expected_game_value_unknown_family(self):
        with pytest.raises(ValueError):
            expected_game_value("isotropic", 0.5)


def _random_psd(rng, d: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    return g @ g.conj().T


def _random_target(seed: int, shift: float, parties: int = 2):
    """W = P + Q^{T_B} - shift * 1 solved over tetrahedron inputs, P separable and Q >= 0.

    P is a sum of products of positive operators, so P^{T_B} >= 0 and at
    shift 0 the witness is decomposable with W^{T_B} = P^{T_B} + Q >= 0.
    """
    rng = np.random.default_rng(seed)
    dims = (2,) * parties
    p = sum(functools.reduce(np.kron, [_random_psd(rng, 2, 1) for _ in dims]) for _ in range(3))
    q = _random_psd(rng, 2**parties, 2)
    m = p + partial_transpose(q, dims, 1) - shift * np.eye(2**parties)
    m = (m + m.conj().T) / 2.0
    return decompose(Witness(m, dims), tuple(tetrahedron_ensemble(x) for x in "ABC"[:parties]))


class TestCertifiedFloor:
    """certified_lower_bound: min(0, lambda_min(R^{T_r})) * prod(d), the tightest cut or the lowest."""

    def test_shipped_floors(self):
        assert certified_lower_bound(tetrahedron_beta(), "separable") == pytest.approx(-5.42e-16, rel=1e-2)
        assert certified_lower_bound(pauli6_beta(), "separable") == pytest.approx(-1.53e-16, rel=1e-2)
        assert certified_lower_bound(ghz_beta(), "biseparable") == pytest.approx(-1.40e-15, rel=1e-2)
        assert certified_lower_bound(negated_projector_decomposition(), "separable") == pytest.approx(-2.0)
        eps = 1e-4
        assert certified_lower_bound(offset_singlet_decomposition(eps), "separable") == pytest.approx(-4 * eps)

    @pytest.mark.parametrize("kind", ["separable", "biseparable"])
    def test_matches_oracle(self, kind):
        decs = [ghz_beta(), _random_target(5, 0.3, parties=3)]
        if kind == "separable":
            decs += [tetrahedron_beta(), pauli6_beta(), negated_projector_decomposition(), _random_target(6, 0.1)]
        for dec in decs:
            assert certified_lower_bound(dec, kind) == pytest.approx(certified_floor(dec, kind), abs=1e-14)

    def test_cuts_separable_tightest_biseparable_lowest(self):
        dec = _random_target(7, 0.2, parties=3)
        lows = dec.partial_transpose_minima
        assert len(set(lows)) == 3 and min(lows) < 0
        assert certified_lower_bound(dec, "separable") == min(0.0, max(lows)) * 8
        assert certified_lower_bound(dec, "biseparable") == min(lows) * 8

    def test_computed_once_on_first_use(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        dec = decompose(singlet_witness(), tuple(map(tetrahedron_ensemble, "AB")))
        assert calls == [] and "partial_transpose_minima" not in vars(dec)
        first = certified_lower_bound(dec, "separable")
        assert calls == [(2, 4, 4)]
        assert certified_lower_bound(dec, "separable") == first and len(calls) == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            certified_lower_bound(tetrahedron_beta(), "entangled")

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1))
    def test_decomposable_witness_floor_is_zero(self, seed):
        dec = _random_target(seed, 0.0)
        assert dec.exact
        assert certified_lower_bound(dec, "separable") >= -1e-12

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 0.5))
    def test_no_sampled_strategy_below_floor(self, seed, shift):
        dec = _random_target(seed, shift)
        floor = certified_lower_bound(dec, "separable")
        rng = np.random.default_rng((seed, 1))
        for _ in range(20):
            s = random_separable_strategy((2, 2), int(rng.integers(1, 4)), int(rng.integers(1, 4)), rng)
            assert mdi_value(dec, simulate_separable(s, dec.ensembles)) >= floor - 1e-12
            d = s.measurements[0].element(1).shape[0]
            mapped = tuple(apply_pre_measurement_map(m, random_kraus_set(d, int(rng.integers(1, 4)), rng))
                           for m in s.measurements)
            noisy = SeparableStrategy(s.weights, s.share_states, mapped)
            assert mdi_value(dec, simulate_separable(noisy, dec.ensembles)) >= floor - 1e-12
        cfg = AttackConfig(restarts=3, iterations=50, mixture_size=2, share_dim=2, seed=seed)
        assert attack(dec, dec.ensembles, cfg).min_value >= floor - 1e-12

    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 0.5))
    def test_no_biseparable_strategy_below_floor(self, seed, shift):
        dec = _random_target(seed, shift, parties=3)
        floor = certified_lower_bound(dec, "biseparable")
        rng = np.random.default_rng((seed, 2))
        for _ in range(10):
            s = random_biseparable_strategy((2, 2, 2), int(rng.integers(1, 3)), int(rng.integers(1, 4)), rng)
            assert mdi_value(dec, simulate_separable(s, dec.ensembles)) >= floor - 1e-12
        cfg = AttackConfig(restarts=2, iterations=30, mixture_size=2, share_dim=2, seed=seed)
        assert biseparable_attack(dec, dec.ensembles, cfg).min_value >= floor - 1e-12

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 0.5))
    def test_floor_below_product_grid_minimum(self, seed, shift):
        dec = _random_target(seed, shift)
        # the class minimum lies at or below every strategy's value: the product grid's and the all-click sum(beta)
        assert certified_lower_bound(dec, "separable") <= min(product_grid_minimum(dec, 11, 20), np.sum(dec.beta))


class TestFloorStop:
    """A restart ends once its best value is within BOUND_TOL of the floor."""

    # (decomposition, search, mixture size, share dim) of the bounded benchmark jobs
    BOUNDED = {
        "tetrahedron": (tetrahedron_beta, attack, 8, 4),
        "pauli6": (pauli6_beta, attack, 4, 2),
        "ghz": (ghz_beta, biseparable_attack, 6, 2),
    }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("job", list(BOUNDED))
    def test_certified_search_stops_after_one_sweep(self, job, seed):
        make, search, mixture, share = self.BOUNDED[job]
        dec = make()
        cfg = AttackConfig(restarts=4, iterations=200, mixture_size=mixture, share_dim=share, seed=seed)
        report = search(dec, dec.ensembles, cfg)
        # every restart: its start and one sweep that reaches the floor
        assert report.evaluations == 8
        assert all(report.floor - BOUND_TOL <= m <= report.floor + BOUND_TOL for m in report.restart_minima)

    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_floor_below_reach_never_stops_a_restart(self, eps):
        # the floor -4 eps lies below the -eps the search reaches
        dec = offset_singlet_decomposition(eps)
        cfg = AttackConfig(restarts=4, iterations=200, mixture_size=4, share_dim=2, seed=101)
        report = attack(dec, dec.ensembles, cfg)
        assert report.floor == pytest.approx(-4 * eps)
        # every restart reaches -eps on its first sweep and stops when its second stalls there
        assert report.evaluations == 12
        for path in report.restart_paths:
            assert -eps - 1e-9 <= path[2] <= path[1] <= -0.99 * eps and path[1] - path[2] <= 1e-15

    def test_non_witness_search_keeps_digging(self):
        dec = negated_projector_decomposition()
        cfg = AttackConfig(restarts=4, iterations=200, mixture_size=4, share_dim=2, seed=0)
        report = attack(dec, dec.ensembles, cfg)
        assert report.floor == pytest.approx(-2.0)
        assert report.evaluations > 8 and report.min_value == pytest.approx(-1.0)

    def test_restart_below_floor_keeps_searching(self, monkeypatch):
        # a search scoring with every coefficient lowered by 1e-4 reaches about -6e-10 on
        # restart 0's first sweep, well below the floor (about -2e-15) but inside its
        # BOUND_TOL band; it must not stop there, but dig to -8e-4
        module = importlib.import_module("mdiw.attack")
        plans = module._plans
        monkeypatch.setattr(module, "_plans", lambda beta, *rest: plans(beta - 1e-4, *rest))
        dec = ghz_beta()
        cfg = AttackConfig(restarts=4, iterations=50, mixture_size=6, share_dim=2, seed=0)
        report = biseparable_attack(dec, dec.ensembles, cfg)
        assert report.min_value == pytest.approx(-8e-4, rel=1e-6)
        assert report.min_value < report.floor - BOUND_TOL

    def test_stopped_batch_is_not_selected(self, monkeypatch):
        # every restart stops after one sweep: the search ends without selecting an empty batch,
        # and takes its best restart's best term, once
        module = importlib.import_module("mdiw.attack")
        keep, term, sizes, picked = module._keep, module._term, [], []
        monkeypatch.setattr(module, "_keep", lambda state, alive: sizes.append(alive.sum()) or keep(state, alive))
        monkeypatch.setattr(module, "_term", lambda state, j, *rest: picked.append(j) or term(state, j, *rest))
        dec = tetrahedron_beta()
        attack(dec, dec.ensembles, AttackConfig(restarts=4, iterations=200, mixture_size=8, share_dim=4, seed=0))
        assert sizes == [] and len(picked) == 1


class TestConfigAndReport:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(restarts=0)
        with pytest.raises(ValueError):
            AttackConfig(iterations=0)
        with pytest.raises(ValueError):
            AttackConfig(seed=-1)
        with pytest.raises(ValueError):
            AttackConfig(share_dim=0)
        with pytest.raises(ValueError, match="must be int"):
            AttackConfig(restarts=2.5)

    def test_report_dict_schema(self):
        report = attack(tetrahedron_beta(), tetrahedron_beta().ensembles, SMALL)
        doc = report_to_dict(report)
        assert set(doc) == {"min_I", "floor", "restart_minima", "evals", "seed", "config"}
        assert doc["seed"] == SMALL.seed
        assert len(doc["restart_minima"]) == SMALL.restarts
        assert "wall_time" not in doc["config"]
