import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdiw.linalg import hermitian_eigenvalues, kron, partial_trace
from mdiw.states import (
    DensityMatrix,
    InputEnsemble,
    bloch_vector,
    max_entangled,
    noisy_ghz,
    pauli6_ensemble,
    projector,
    random_density_matrix,
    singlet_ket,
    tetrahedron_ensemble,
    werner_state,
)
from mdiw.witness import (
    Decomposition,
    Witness,
    decompose,
    ghz_beta,
    ghz_witness,
    pauli6_beta,
    singlet_witness,
    tetrahedron_beta,
    witness_value,
)
from mdiw.game import (
    BIPARTITIONS_3,
    BiseparableStrategy,
    BiseparableTerm,
    CorrelationTable,
    EntangledStrategy,
    POVM,
    SeparableStrategy,
    _checked_clicks,
    _contract,
    apply_pre_measurement_map,
    apply_uniform_loss,
    bell_outcome_povm,
    bell_strategy,
    check_efficiencies,
    fast_entangled_table,
    mdi_value,
    simulate_entangled,
    simulate_separable,
    table_to_csv,
    trace_inputs,
)
from mdiw.attack import (
    BOUND_TOL,
    random_biseparable_strategy,
    random_kraus_set,
    random_separable_strategy,
)
from oracles import (
    dense_block_contraction,
    effective_povm_element,
    einsum_trace_inputs,
    mixture_as_shared_state,
    per_bitstring_table,
    permute_subsystems,
)


def game_probability_oracle(inputs, rho, elements):
    """All-ones probability by raw index bookkeeping.

    Sums E_1[(i1,s1),(j1,t1)] * E_2[(i2,s2),(j2,t2)] * ... *
    tau_p[j_p, i_p] * rho[(t1..tn),(s1..sn)] over every index, without any
    of the package's reshape/permute machinery.
    """
    n = len(inputs)
    d_in = [m.shape[0] for m in inputs]
    d_sh = [elements[p].shape[0] // d_in[p] for p in range(n)]

    def flat(digits, dims):
        idx = 0
        for v, d in zip(digits, dims):
            idx = idx * d + v
        return idx

    total = 0.0j
    ranges = [range(d) for d in d_in] + [range(d) for d in d_sh]
    for i in itertools.product(*ranges[:n]):
        for s in itertools.product(*ranges[n:]):
            for j in itertools.product(*ranges[:n]):
                for t in itertools.product(*ranges[n:]):
                    term = rho[flat(t, d_sh), flat(s, d_sh)]
                    if term == 0:
                        continue
                    for p in range(n):
                        term *= elements[p][
                            i[p] * d_sh[p] + s[p], j[p] * d_sh[p] + t[p]
                        ]
                        term *= inputs[p][j[p], i[p]]
                    total += term
    return float(total.real)


def random_binary_povm(rng, d_in, share):
    d = d_in * share
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    e = g.conj().T @ g
    return POVM(e / (np.linalg.eigvalsh(e)[-1] * (1.0 + rng.uniform())), (d_in, share))


def random_ensemble(rng, party, d, size):
    states = tuple(random_density_matrix((d,), rng) for _ in range(size))
    return InputEnsemble(party, tuple(str(i) for i in range(size)), states)


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


seeds = st.integers(0, 2**32 - 1)


class TestContractionProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, shares=st.lists(st.integers(1, 3), min_size=2, max_size=3),
           include_full=st.booleans())
    def test_simulate_entangled_matches_index_oracle(self, seed, shares, include_full):
        rng = np.random.default_rng(seed)
        n = len(shares)
        ens = tuple(tetrahedron_ensemble(p) for p in "ABC"[:n])
        rho = random_density_matrix(tuple(shares), rng)
        strategy = EntangledStrategy(rho, tuple(random_binary_povm(rng, 2, d) for d in shares))
        table = simulate_entangled(strategy, ens, include_full=include_full)
        assert (table.full is not None) == include_full
        # One cell and one outcome string per example keep the index oracle cheap.
        idx = tuple(int(i) for i in rng.integers(4, size=n))
        inputs = [ens[p].states[i].matrix for p, i in enumerate(idx)]
        elements = [m.element(1) for m in strategy.measurements]
        want = game_probability_oracle(inputs, rho.matrix, elements)
        assert table.p_all_ones[idx] == pytest.approx(want, abs=1e-12)
        if include_full:
            bits = tuple(int(b) for b in rng.integers(2, size=n))
            elements = [m.element(b) for m, b in zip(strategy.measurements, bits)]
            want = game_probability_oracle(inputs, rho.matrix, elements)
            assert table.full[bits + idx] == pytest.approx(want, abs=1e-12)
            assert table.full[(1,) * n + idx] == table.p_all_ones[idx]

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, shares=st.lists(st.integers(1, 3), min_size=2, max_size=3),
           include_full=st.booleans(), random_state=st.booleans(),
           inputs=st.sampled_from(["tetrahedron", "pauli6", "random"]))
    def test_simulate_entangled_matches_per_bitstring_route(self, seed, shares, include_full,
                                                          random_state, inputs):
        # one contraction over the outcome-extended inputs, bit for bit the
        # contraction of every outcome bitstring on its own; the honest
        # table's contraction, which shares no code with it, within 1e-14
        rng = np.random.default_rng(seed)
        n = len(shares)
        builders = {"tetrahedron": tetrahedron_ensemble, "pauli6": pauli6_ensemble,
                    "random": lambda p: random_ensemble(rng, p, 2, 3)}
        ens = tuple(builders[inputs](p) for p in "ABC"[:n])
        if random_state:
            rho = random_density_matrix(tuple(shares), rng)
        else:
            rho = DensityMatrix(np.eye(math.prod(shares)) / math.prod(shares), tuple(shares))
        strategy = EntangledStrategy(rho, tuple(random_binary_povm(rng, 2, d) for d in shares))
        table = simulate_entangled(strategy, ens, include_full=include_full)
        p_all_ones, full = per_bitstring_table(strategy, ens, include_full)
        assert np.array_equal(table.p_all_ones, p_all_ones)
        assert (table.full is None and full is None) or np.array_equal(table.full, full)
        p_all_ones, full = per_bitstring_table(strategy, ens, include_full, route="grid")
        assert np.abs(table.p_all_ones - p_all_ones).max() <= 1e-14
        assert (table.full is None and full is None) or np.abs(table.full - full).max() <= 1e-14

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, dims=st.lists(st.integers(2, 3), min_size=2, max_size=3),
           size=st.integers(1, 4))
    def test_fast_table_matches_bell_strategy(self, seed, dims, size):
        rng = np.random.default_rng(seed)
        ens = tuple(random_ensemble(rng, p, d, size) for p, d in zip("ABC", dims))
        rho = random_density_matrix(tuple(dims), rng)
        fast = fast_entangled_table(rho, ens)
        full = simulate_entangled(bell_strategy(rho), ens)
        assert fast.p_all_ones.shape == full.p_all_ones.shape == (size,) * len(dims)
        assert np.abs(fast.p_all_ones - full.p_all_ones).max() <= 1e-12


class TestTraceInputsOracle:
    """trace_inputs gives the bits and the memory layout of the order="C" einsum."""

    @pytest.mark.parametrize("size", [4, 6])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_order_c_einsum(self, d, size):
        rng = np.random.default_rng((17, d, size))
        taus = random_ensemble(rng, "A", d, size).matrices
        for share in (1, 2, 3, 4):
            for lead in ((), (1,), (2,), (3,), (4,), (5,), (200,)):
                shape = lead + (d * share, d * share)
                element = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                got, want = trace_inputs(element, taus), einsum_trace_inputs(element, taus)
                assert got.shape == want.shape == lead + (size, share, share)
                # one memory layout: the strides of every axis longer than 1 agree
                assert [(n, t) for n, t in zip(got.shape, got.strides) if n > 1] == \
                    [(n, t) for n, t in zip(want.shape, want.strides) if n > 1], (share, lead)
                assert got.tobytes() == want.tobytes(), (share, lead)


class TestBlockContraction:
    """The block contraction that tables, the loss check's batch and the search share."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seeds, st.lists(st.tuples(st.integers(1, 3), st.integers(1, 6), st.booleans()), min_size=1, max_size=3),
           st.integers(1, 5))
    def test_batch_broadcast_and_dense_oracle(self, seed, parties, n):
        # parties: each party's share dim, X_p and whether it passes a stack of one
        rng = np.random.default_rng(seed)
        stacks = []
        for m, x, one in parties:
            g = rng.normal(size=(1 if one else n, x, m, m)) + 1j * rng.normal(size=(1 if one else n, x, m, m))
            stacks.append(g / np.linalg.norm(g, axis=(-2, -1), keepdims=True))  # every G_p[k, x] of unit norm
        sigma = np.array([random_density_matrix((math.prod(m for m, _, _ in parties),), rng).matrix
                          for _ in range(n)])
        got = _contract(stacks, sigma)
        assert got.shape == (n,) + tuple(x for _, x, _ in parties)
        for k in range(n):  # each state alone has the batch's bytes
            alone = _contract([g[k : k + 1] if len(g) > 1 else g for g in stacks], sigma[k : k + 1])
            assert alone.tobytes() == got[k : k + 1].tobytes()
        # a stack of one has the bytes of that stack gathered for every state
        assert _contract([np.repeat(g, n // len(g), axis=0) for g in stacks], sigma).tobytes() == got.tobytes()
        assert np.abs(got - dense_block_contraction(stacks, sigma)).max() <= 1e-14


class TestBellOutcomePovm:
    def test_success_element_is_rank_one_unit_trace(self):
        e = bell_outcome_povm(2).element(1)
        assert np.isclose(np.trace(e).real, 1.0)
        assert np.allclose(hermitian_eigenvalues(e), [0, 0, 0, 1], atol=1e-12)

    def test_higher_dimension(self):
        e = bell_outcome_povm(3).element(1)
        assert np.allclose(e, projector(max_entangled(3)), atol=1e-14)

    def test_rejects_trivial_dimension(self):
        # d = 0 has no maximally entangled ket; at d = 1 the projection is the identity: the party always clicks
        with pytest.raises(ValueError, match="local dimension must be >= 1, got 0"):
            bell_outcome_povm(0)
        assert np.array_equal(bell_outcome_povm(1).click, [[1.0]])

    def test_shared_per_dimension_and_read_only(self):
        assert bell_outcome_povm(2) is bell_outcome_povm(2)
        with pytest.raises(ValueError):
            bell_outcome_povm(2).click[0, 0] = 0.0


def click_stack(broken, last):
    """Three valid click elements, with ``broken`` first or last."""
    good = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    return np.array(good + [broken] if last else [broken] + good, dtype=complex)


class TestPovmValidation:
    def test_rejects_non_psd_element(self):
        with pytest.raises(ValueError, match="positive"):
            POVM(np.diag([1.5, -0.5]), (2,))

    def test_element_lookup_by_outcome(self):
        povm = bell_outcome_povm(2)
        assert np.allclose(povm.element(1) + povm.element(0), np.eye(4))

    def test_rejects_other_outcomes(self):
        with pytest.raises(ValueError, match="outcome must be 0 or 1"):
            bell_outcome_povm(2).element(2)

    @pytest.mark.parametrize(
        "broken, keyword",
        [
            ([[np.nan, 0.0], [0.0, 0.0]], "NaN or Inf"),
            ([[0.0, 0.1], [0.0, 0.0]], "not Hermitian"),
            (np.diag([0.0, -0.5]), "positive semidefinite"),
            (np.diag([0.0, 1.5]), "positive semidefinite"),
        ],
        ids=["non_finite", "non_hermitian", "not_psd", "above_identity"],
    )
    def test_broken_last_element_rejected_like_first(self, broken, keyword):
        # only the last click element of the stack breaks its predicate
        with pytest.raises(ValueError, match=keyword) as last:
            _checked_clicks(click_stack(broken, last=True), (2,))
        with pytest.raises(ValueError, match=keyword) as first:
            _checked_clicks(click_stack(broken, last=False), (2,))
        with pytest.raises(ValueError, match=keyword) as single:
            POVM(np.array(broken, dtype=complex), (2,))
        assert str(last.value) == str(first.value) == str(single.value)

    @pytest.mark.parametrize("depth, accepted", [(0.5e-10, True), (2e-10, False)])
    def test_graded_psd_boundary(self, depth, accepted):
        # eigenvalue -depth, then 1 + depth, against TOL_PSD = 1e-10, on the last element only
        for eig in (-depth, 1.0 + depth):
            stack = click_stack(np.diag([0.0, eig]), last=True)
            if accepted:
                assert _checked_clicks(stack, (2,))[0][-1, 1, 1] == eig
                assert POVM(stack[-1], (2,)).element(1)[1, 1] == eig
            else:
                with pytest.raises(ValueError, match="positive semidefinite"):
                    _checked_clicks(stack, (2,))
                with pytest.raises(ValueError, match="positive semidefinite"):
                    POVM(stack[-1], (2,))

    def test_elements_are_read_only_copies(self):
        e = np.diag([1.0, 0.0]).astype(complex)
        povm = POVM(e, (2,))
        stacked = _checked_clicks(e[None], (2,))[0][0]
        e[0, 0] = 0.5
        for click in (povm.element(1), stacked):
            assert click[0, 0] == 1.0
            with pytest.raises(ValueError):
                click[0, 0] = 0.5

    @pytest.mark.parametrize("dims", [(2, 1, 2), (4,), (8,)], ids=["three_factors", "one_factor", "too_large"])
    @pytest.mark.parametrize("kind", ["entangled", "separable", "biseparable"])
    def test_strategies_reject_povm_not_on_input_and_share(self, kind, dims):
        # party 1's POVM does not act on input (x) share: its share dim would
        # broadcast or index past the end of its dims
        rng = np.random.default_rng(70)
        good = random_biseparable_strategy((2, 2, 2), 1, 2, rng)
        d = math.prod(dims)
        bad = POVM(np.diag(np.arange(d) % 2), dims)
        measurements = (good.measurements[0], bad, good.measurements[2])
        with pytest.raises(ValueError, match="party 1: POVM dims"):
            if kind == "entangled":
                EntangledStrategy(random_density_matrix((1, 1, 1), rng), measurements)
            elif kind == "separable":
                SeparableStrategy((1.0,), (tuple(DensityMatrix(np.eye(1), (1,)) for _ in range(3)),),
                                  measurements)
            else:
                BiseparableStrategy(good.terms, measurements)


class TestSimulateEntangled:
    def test_singlet_diagonal_inputs_never_coincide(self):
        ens = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        table = simulate_entangled(bell_strategy(werner_state(1.0)), ens)
        for s in range(4):
            assert table.p_all_ones[s, s] == pytest.approx(0.0, abs=1e-14)

    def test_singlet_off_diagonal_value(self):
        ens = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        table = simulate_entangled(bell_strategy(werner_state(1.0)), ens)
        for s, t in itertools.permutations(range(4), 2):
            assert table.p_all_ones[s, t] == pytest.approx(1 / 12, abs=1e-14)

    def test_werner_closed_form_all_entries(self):
        # P(1,1|s,t) = (1 - v n_s . n_t)/16 with n the input Bloch vectors
        ens = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        vecs = [bloch_vector(s) for s in ens[0].states]
        for v in (0.0, 0.35, 1.0):
            table = simulate_entangled(bell_strategy(werner_state(v)), ens)
            for i, j in itertools.product(range(4), repeat=2):
                expected = (1 - v * (vecs[i] @ vecs[j])) / 16
                assert table.p_all_ones[i, j] == pytest.approx(expected, abs=1e-13)

    def test_matches_raw_index_oracle_bipartite(self):
        rng = np.random.default_rng(41)
        ens = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        rho = random_density_matrix((2, 2), rng)
        strategy = bell_strategy(rho)
        table = simulate_entangled(strategy, ens)
        elements = [m.element(1) for m in strategy.measurements]
        for i, j in itertools.product(range(4), repeat=2):
            want = game_probability_oracle(
                [ens[0].states[i].matrix, ens[1].states[j].matrix], rho.matrix, elements
            )
            assert table.p_all_ones[i, j] == pytest.approx(want, abs=1e-12)

    def test_matches_raw_index_oracle_tripartite(self):
        rng = np.random.default_rng(42)
        ens = tuple(tetrahedron_ensemble(p) for p in "ABC")
        rho = random_density_matrix((2, 2, 2), rng)
        strategy = bell_strategy(rho)
        table = simulate_entangled(strategy, ens)
        elements = [m.element(1) for m in strategy.measurements]
        for idx in [(0, 0, 0), (1, 2, 3), (3, 1, 0)]:
            want = game_probability_oracle(
                [ens[p].states[i].matrix for p, i in enumerate(idx)], rho.matrix, elements
            )
            assert table.p_all_ones[idx] == pytest.approx(want, abs=1e-12)

    def test_full_distributions_normalized(self):
        ens = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        table = simulate_entangled(bell_strategy(werner_state(0.6)), ens, include_full=True)
        assert np.abs(table.full.sum(axis=(0, 1)) - 1.0).max() <= 1e-12
        assert np.abs(table.full[1, 1] - table.p_all_ones).max() <= 1e-14


def one_state(party, state):
    return InputEnsemble(party, ("0",), (state,))


class TestFastEntangledProb:
    """Single probabilities: fast_entangled_table on one-state ensembles."""

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        ens = (one_state("A", tetrahedron_ensemble("A").states[0]),
               one_state("B", tetrahedron_ensemble("B").states[0]))
        assert fast_entangled_table(rho, ens).p_all_ones[0, 0] == pytest.approx(1 / 16)

    def test_singlet_cross_input(self):
        states = tetrahedron_ensemble("A").states
        ens = (one_state("A", states[0]), one_state("B", states[1]))
        table = fast_entangled_table(werner_state(1.0), ens)
        assert table.p_all_ones[0, 0] == pytest.approx(1 / 12)

    def test_agrees_with_full_simulation(self):
        rng = np.random.default_rng(43)
        for n in (2, 3):
            ens = tuple(tetrahedron_ensemble(p) for p in "ABC"[:n])
            for _ in range(5):
                rho = random_density_matrix((2,) * n, rng)
                fast = fast_entangled_table(rho, ens)
                full = simulate_entangled(bell_strategy(rho), ens)
                assert np.abs(fast.p_all_ones - full.p_all_ones).max() <= 1e-12

    @pytest.mark.parametrize("dims", [(1, 2), (2, 1), (1, 1, 2)])
    def test_dimension_one_parties_agree_with_full_simulation(self, dims):
        # a dimension-1 party's Bell projection is the identity: it clicks on its one input
        rng = np.random.default_rng(44)
        trivial = DensityMatrix(np.eye(1), (1,))
        ens = tuple(one_state(p, trivial) if d == 1 else tetrahedron_ensemble(p) for p, d in zip("ABC", dims))
        for _ in range(5):
            rho = random_density_matrix(dims, rng)
            fast = fast_entangled_table(rho, ens).p_all_ones
            for include_full in (False, True):
                full = simulate_entangled(bell_strategy(rho), ens, include_full=include_full).p_all_ones
                assert np.abs(fast - full).max() <= 1e-15

    def test_dims_mismatch(self):
        with pytest.raises(ValueError, match="input dims"):
            fast_entangled_table(
                werner_state(1.0), (one_state("A", tetrahedron_ensemble("A").states[0]),)
            )


def effective_element_oracle(element, d_in, d_sh, sigma):
    """Effective element by direct index sums: sum_ab E[(ia),(jb)] sigma[b,a]."""
    out = np.zeros((d_in, d_in), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            for a in range(d_sh):
                for b in range(d_sh):
                    out[i, j] += element[i * d_sh + a, j * d_sh + b] * sigma[b, a]
    return out


class TestEffectivePovmElement:
    def test_identity_element(self):
        share = DensityMatrix(np.eye(3) / 3, (3,))
        eff = effective_povm_element(np.eye(6), (2, 3), share, (1,))
        assert np.allclose(eff, np.eye(2), atol=1e-14)

    def test_bell_element_on_maximally_mixed_share(self):
        share = DensityMatrix(np.eye(2) / 2, (2,))
        eff = effective_povm_element(bell_outcome_povm(2).element(1), (2, 2), share, (1,))
        assert np.allclose(eff, np.eye(2) / 4, atol=1e-14)

    def test_product_element_factorizes(self):
        rng = np.random.default_rng(44)
        p = np.diag([0.7, 0.2]).astype(complex)
        q = random_density_matrix((2,), rng).matrix  # any PSD works
        share = random_density_matrix((2,), rng)
        eff = effective_povm_element(kron(p, q), (2, 2), share, (1,))
        assert np.allclose(eff, np.trace(q @ share.matrix) * p, atol=1e-13)

    def test_matches_index_oracle(self):
        rng = np.random.default_rng(45)
        for d_in, d_sh in ((2, 2), (2, 3), (3, 2)):
            g = rng.normal(size=(d_in * d_sh,) * 2) + 1j * rng.normal(size=(d_in * d_sh,) * 2)
            e = g.conj().T @ g
            e /= np.linalg.eigvalsh(e)[-1]
            share = random_density_matrix((d_sh,), rng)
            got = effective_povm_element(e, (d_in, d_sh), share, (1,))
            want = effective_element_oracle(e, d_in, d_sh, share.matrix)
            assert np.allclose(got, want, atol=1e-12)

    def test_share_first_layout(self):
        rng = np.random.default_rng(46)
        share = random_density_matrix((2,), rng)
        p = np.diag([0.3, 0.9]).astype(complex)
        q = np.diag([0.5, 0.5]).astype(complex)
        eff = effective_povm_element(kron(p, q), (2, 2), share, share_axes=(0,))
        assert np.allclose(eff, np.trace(p @ share.matrix) * q, atol=1e-13)

    def test_bounded_by_identity(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            s = random_separable_strategy((2,), 3, 1, rng)
            eff = effective_povm_element(
                s.measurements[0].element(1), (2, 3), s.share_states[0][0], (1,)
            )
            eigs = np.linalg.eigvalsh(eff)
            assert eigs[0] >= -1e-10 and eigs[-1] <= 1 + 1e-10


class TestSimulateSeparable:
    def test_share_ignoring_strategy_reduces_to_direct_povm(self):
        # POVM = M (x) identity on the share: the share state cannot matter
        ens = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        m_a = np.diag([0.8, 0.3]).astype(complex)
        m_b = np.diag([0.4, 0.6]).astype(complex)
        rng = np.random.default_rng(48)
        share = tuple(random_density_matrix((2,), rng) for _ in range(2))
        strategy = SeparableStrategy(
            (1.0,),
            ((share[0], share[1]),),
            (POVM(kron(m_a, np.eye(2)), (2, 2)), POVM(kron(m_b, np.eye(2)), (2, 2))),
        )
        table = simulate_separable(strategy, ens)
        for i, j in itertools.product(range(4), repeat=2):
            want = (
                np.trace(m_a @ ens[0].states[i].matrix).real
                * np.trace(m_b @ ens[1].states[j].matrix).real
            )
            assert table.p_all_ones[i, j] == pytest.approx(want, abs=1e-13)

    def test_matches_explicit_mixture_simulation(self):
        rng = np.random.default_rng(49)
        ens = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        for _ in range(5):
            strategy = random_separable_strategy((2, 2), 2, 3, rng)
            via_effective = simulate_separable(strategy, ens)
            mixed = mixture_as_shared_state(strategy)
            via_full = simulate_entangled(
                EntangledStrategy(mixed, strategy.measurements), ens
            )
            assert np.abs(via_effective.p_all_ones - via_full.p_all_ones).max() <= 1e-12
            # the shared state's table by the honest table's contraction, which shares no block code
            via_grid, _ = per_bitstring_table(EntangledStrategy(mixed, strategy.measurements), ens, False, "grid")
            assert np.abs(via_effective.p_all_ones - via_grid).max() <= 1e-12

    def test_biseparable_matches_explicit_mixture(self):
        rng = np.random.default_rng(50)
        ens = tuple(tetrahedron_ensemble(p) for p in "ABC")
        for _ in range(5):
            strategy = random_biseparable_strategy((2, 2, 2), 2, 4, rng)
            via_effective = simulate_separable(strategy, ens)
            mixed = mixture_as_shared_state(strategy)
            via_full = simulate_entangled(
                EntangledStrategy(mixed, strategy.measurements), ens
            )
            assert np.abs(via_effective.p_all_ones - via_full.p_all_ones).max() <= 1e-12
            # the shared state's table by the honest table's contraction, which shares no block code
            via_grid, _ = per_bitstring_table(EntangledStrategy(mixed, strategy.measurements), ens, False, "grid")
            assert np.abs(via_effective.p_all_ones - via_grid).max() <= 1e-12

    def test_full_distribution_is_product_rule(self):
        rng = np.random.default_rng(51)
        ens = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        strategy = random_separable_strategy((2, 2), 2, 2, rng)
        table = simulate_separable(strategy, ens, include_full=True)
        assert np.abs(table.full.sum(axis=(0, 1)) - 1.0).max() <= 1e-12
        assert np.abs(table.full[1, 1] - table.p_all_ones).max() <= 1e-14

    def test_trivial_share_dimension(self):
        # share dim 1: the strategy is just a direct POVM on the inputs
        ens = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        rng = np.random.default_rng(52)
        strategy = random_separable_strategy((2, 2), 1, 1, rng)
        table = simulate_separable(strategy, ens)
        for i, j in itertools.product(range(4), repeat=2):
            want = (
                np.trace(strategy.measurements[0].element(1) @ ens[0].states[i].matrix).real
                * np.trace(strategy.measurements[1].element(1) @ ens[1].states[j].matrix).real
            )
            assert table.p_all_ones[i, j] == pytest.approx(want, abs=1e-13)


def separable_cell_oracle(strategy, states, bits):
    """One cell by effective elements: sum_k w_k prod_p tr[A_pk tau_p], per outcome bit."""
    total = 0.0
    for w, term in zip(strategy.weights, strategy.share_states):
        prod = w
        for m, sigma, tau, b in zip(strategy.measurements, term, states, bits):
            eff = effective_povm_element(m.element(b), m.dims, sigma, (1,))
            prod *= np.trace(eff @ tau.matrix).real
        total += prod
    return total


def biseparable_cell_oracle(strategy, states, bits):
    """One cell by effective elements on each term's group and singleton, per outcome bit."""
    total = 0.0
    for term in strategy.terms:
        (p, q), r = term.group, term.singleton
        mp, mq, mr = (strategy.measurements[i] for i in (p, q, r))
        group = effective_povm_element(
            kron(mp.element(bits[p]), mq.element(bits[q])), mp.dims + mq.dims, term.group_state, (1, 3)
        )
        single = effective_povm_element(mr.element(bits[r]), mr.dims, term.singleton_state, (1,))
        total += (
            term.weight
            * np.trace(group @ kron(states[p].matrix, states[q].matrix)).real
            * np.trace(single @ states[r].matrix).real
        )
    return total


def one_term_per_bipartition(rng, dims, share):
    """Biseparable strategy with one random mixed term for each bipartition."""
    weights = rng.dirichlet(np.ones(3))
    terms = tuple(
        BiseparableTerm(
            tag,
            float(w),
            random_density_matrix((share, share), rng),
            random_density_matrix((share,), rng),
        )
        for tag, w in zip(sorted(BIPARTITIONS_3), weights)
    )
    return BiseparableStrategy(terms, tuple(random_binary_povm(rng, d, share) for d in dims))


class TestSeparableTableOracle:
    """simulate_separable against the per-cell effective-element route."""

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, dims=st.lists(st.integers(2, 3), min_size=2, max_size=3),
           share=st.integers(1, 3), mixture=st.integers(1, 3), include_full=st.booleans())
    def test_separable_matches_cell_oracle(self, seed, dims, share, mixture, include_full):
        rng = np.random.default_rng(seed)
        n = len(dims)
        ens = tuple(random_ensemble(rng, p, d, 3) for p, d in zip("ABC", dims))
        strategy = SeparableStrategy(
            tuple(rng.dirichlet(np.ones(mixture))),
            tuple(tuple(random_density_matrix((share,), rng) for _ in dims) for _ in range(mixture)),
            tuple(random_binary_povm(rng, d, share) for d in dims),
        )
        table = simulate_separable(strategy, ens, include_full=include_full)
        assert (table.full is not None) == include_full
        for idx in itertools.product(range(3), repeat=n):
            states = [e.states[i] for e, i in zip(ens, idx)]
            want = separable_cell_oracle(strategy, states, (1,) * n)
            assert table.p_all_ones[idx] == pytest.approx(want, abs=1e-12)
            if include_full:
                for bits in itertools.product((0, 1), repeat=n):
                    want = separable_cell_oracle(strategy, states, bits)
                    assert table.full[bits + idx] == pytest.approx(want, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, dims=st.lists(st.integers(2, 3), min_size=3, max_size=3),
           share=st.integers(1, 3), include_full=st.booleans())
    def test_biseparable_matches_cell_oracle(self, seed, dims, share, include_full):
        rng = np.random.default_rng(seed)
        ens = tuple(random_ensemble(rng, p, d, 3) for p, d in zip("ABC", dims))
        strategy = one_term_per_bipartition(rng, dims, share)
        table = simulate_separable(strategy, ens, include_full=include_full)
        assert (table.full is not None) == include_full
        for idx in itertools.product(range(3), repeat=3):
            states = [e.states[i] for e, i in zip(ens, idx)]
            want = biseparable_cell_oracle(strategy, states, (1, 1, 1))
            assert table.p_all_ones[idx] == pytest.approx(want, abs=1e-12)
            if include_full:
                for bits in itertools.product((0, 1), repeat=3):
                    want = biseparable_cell_oracle(strategy, states, bits)
                    assert table.full[bits + idx] == pytest.approx(want, abs=1e-12)

    def test_biseparable_unequal_share_dims(self):
        # each party's share has its own dimension, so each bipartition's group
        # state has its own size; AB|C appears twice, around the other two
        rng = np.random.default_rng(69)
        shares = (1, 2, 3)
        ens = tuple(random_ensemble(rng, p, 2, 3) for p in "ABC")
        terms = tuple(
            BiseparableTerm(
                tag,
                float(w),
                random_density_matrix(tuple(shares[p] for p in BIPARTITIONS_3[tag][0]), rng),
                random_density_matrix((shares[BIPARTITIONS_3[tag][1]],), rng),
            )
            for tag, w in zip(("AB|C", "AC|B", "BC|A", "AB|C"), rng.dirichlet(np.ones(4)))
        )
        strategy = BiseparableStrategy(terms, tuple(random_binary_povm(rng, 2, m) for m in shares))
        table = simulate_separable(strategy, ens)
        full = simulate_separable(strategy, ens, include_full=True)
        for idx in itertools.product(range(3), repeat=3):
            states = [e.states[i] for e, i in zip(ens, idx)]
            want = biseparable_cell_oracle(strategy, states, (1, 1, 1))
            assert table.p_all_ones[idx] == pytest.approx(want, abs=1e-12)
            for bits in itertools.product((0, 1), repeat=3):
                want = biseparable_cell_oracle(strategy, states, bits)
                assert full.full[bits + idx] == pytest.approx(want, abs=1e-12)

    def test_oracle_rejects_swapped_group_factors(self):
        # Swapping the factors of every group state must show up in the table.
        rng = np.random.default_rng(58)
        ens = tuple(random_ensemble(rng, p, 2, 3) for p in "ABC")
        strategy = one_term_per_bipartition(rng, (2, 2, 2), 2)
        swapped = BiseparableStrategy(
            tuple(
                BiseparableTerm(
                    t.bipartition,
                    t.weight,
                    DensityMatrix(permute_subsystems(t.group_state.matrix, (2, 2), (1, 0)), (2, 2)),
                    t.singleton_state,
                )
                for t in strategy.terms
            ),
            strategy.measurements,
        )
        table = simulate_separable(swapped, ens)
        worst = max(
            abs(table.p_all_ones[idx]
                - biseparable_cell_oracle(strategy, [e.states[i] for e, i in zip(ens, idx)], (1, 1, 1)))
            for idx in itertools.product(range(3), repeat=3)
        )
        assert worst > 1e-6

    def test_ensemble_dimension_checked(self):
        rng = np.random.default_rng(59)
        strategy = random_separable_strategy((2, 2), 2, 2, rng)
        ens = (tetrahedron_ensemble("A"), random_ensemble(rng, "B", 3, 3))
        with pytest.raises(ValueError, match="party 1: ensemble dim 3"):
            simulate_separable(strategy, ens)


SINGLET_GAMES = {"tetrahedron": tetrahedron_beta, "pauli6": pauli6_beta}


class TestGameProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, game=st.sampled_from(sorted(SINGLET_GAMES)), share=st.integers(1, 3),
           mixture=st.integers(1, 4), n_kraus=st.integers(1, 3))
    def test_kraus_mapped_separable_strategy_respects_bound(self, seed, game, share, mixture, n_kraus):
        rng = np.random.default_rng(seed)
        dec = SINGLET_GAMES[game]()
        strategy = random_separable_strategy((2, 2), share, mixture, rng)
        povms = tuple(
            apply_pre_measurement_map(m, random_kraus_set(2 * share, n_kraus, rng))
            for m in strategy.measurements
        )
        mapped = SeparableStrategy(strategy.weights, strategy.share_states, povms)
        assert mdi_value(dec, simulate_separable(mapped, dec.ensembles)) >= -BOUND_TOL

    @pytest.mark.parametrize("game", sorted(SINGLET_GAMES))
    def test_bound_gate_fails_with_shared_entanglement(self, game):
        # The same Kraus-mapped measurements on a shared singlet break the bound.
        dec = SINGLET_GAMES[game]()
        povm = apply_pre_measurement_map(bell_outcome_povm(2), [np.eye(4)])
        table = simulate_entangled(EntangledStrategy(werner_state(1.0), (povm, povm)), dec.ensembles)
        assert mdi_value(dec, table) == pytest.approx(-0.125, abs=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, n=st.integers(2, 3), named=st.booleans())
    def test_honest_value_is_witness_expectation(self, seed, n, named):
        rng = np.random.default_rng(seed)
        if named:
            w, dec = (singlet_witness(), tetrahedron_beta()) if n == 2 else (ghz_witness(), ghz_beta())
        else:
            w = Witness(random_hermitian(rng, 2**n), (2,) * n)
            dec = decompose(w, tuple(pauli6_ensemble(p) for p in "ABC"[:n]))
        rho = random_density_matrix((2,) * n, rng)
        value = mdi_value(dec, fast_entangled_table(rho, dec.ensembles))
        assert value == pytest.approx(witness_value(w, rho) / 2**n, abs=1e-12)

    def test_honest_value_gate_fails_on_relabelled_inputs(self):
        # Reversing one party's input order without touching beta breaks the identity.
        dec = tetrahedron_beta()
        b = dec.ensembles[1]
        ens = (dec.ensembles[0], InputEnsemble(b.party, b.labels, b.states[::-1]))
        rho = werner_state(1.0)
        value = mdi_value(Decomposition(dec.beta, ens, 0.0), fast_entangled_table(rho, ens))
        assert abs(value - witness_value(singlet_witness(), rho) / 4) > 1e-3

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, perm=st.integers(2, 3).flatmap(lambda n: st.permutations(range(n))))
    def test_value_invariant_under_party_permutation(self, seed, perm):
        rng = np.random.default_rng(seed)
        n = len(perm)
        dims = tuple(int(d) for d in rng.integers(2, 4, size=n))
        ens = tuple(random_ensemble(rng, p, d, 3 + p_i) for p_i, (p, d) in enumerate(zip("ABC", dims)))
        beta = rng.normal(size=tuple(len(e) for e in ens))
        rho = random_density_matrix(dims, rng)
        value = mdi_value(Decomposition(beta, ens, 0.0), fast_entangled_table(rho, ens))
        moved = tuple(ens[i] for i in perm)
        rho_moved = DensityMatrix(
            permute_subsystems(rho.matrix, dims, perm), tuple(dims[i] for i in perm)
        )
        dec_moved = Decomposition(beta.transpose(perm), moved, 0.0)
        assert mdi_value(dec_moved, fast_entangled_table(rho_moved, moved)) == pytest.approx(
            value, abs=1e-12
        )

    def test_permutation_gate_fails_when_beta_is_left_behind(self):
        rng = np.random.default_rng(60)
        ens = tuple(random_ensemble(rng, p, 2, 4) for p in "AB")
        beta = rng.normal(size=(4, 4))
        rho = random_density_matrix((2, 2), rng)
        value = mdi_value(Decomposition(beta, ens, 0.0), fast_entangled_table(rho, ens))
        moved = ens[::-1]
        rho_moved = DensityMatrix(permute_subsystems(rho.matrix, (2, 2), (1, 0)), (2, 2))
        stale = mdi_value(Decomposition(beta, moved, 0.0), fast_entangled_table(rho_moved, moved))
        assert abs(stale - value) > 1e-6


class TestMdiValue:
    def test_werner_closed_form(self):
        dec = tetrahedron_beta()
        for v in (0.0, 0.5, 1.0):
            table = fast_entangled_table(werner_state(v), dec.ensembles)
            assert mdi_value(dec, table) == pytest.approx((1 - 3 * v) / 16, abs=1e-13)

    def test_werner_v1_frozen(self):
        dec = tetrahedron_beta()
        table = fast_entangled_table(werner_state(1.0), dec.ensembles)
        assert mdi_value(dec, table) == pytest.approx(-0.125, abs=1e-14)

    def test_ghz_closed_form(self):
        dec = ghz_beta()
        for v in (0.0, 3 / 7, 1.0):
            table = fast_entangled_table(noisy_ghz(v), dec.ensembles)
            assert mdi_value(dec, table) == pytest.approx((3 - 7 * v) / 64, abs=1e-13)

    def test_quantum_value_identity_random_states(self):
        rng = np.random.default_rng(53)
        dec = tetrahedron_beta()
        w = singlet_witness()
        for _ in range(20):
            rho = random_density_matrix((2, 2), rng)
            table = fast_entangled_table(rho, dec.ensembles)
            assert mdi_value(dec, table) == pytest.approx(
                witness_value(w, rho) / 4, abs=1e-12
            )

    def test_label_mismatch_rejected(self):
        dec = tetrahedron_beta()
        table = fast_entangled_table(werner_state(1.0), dec.ensembles)
        relabeled = dataclasses.replace(table, labels=(("a", "b", "c", "d"), table.labels[1]))
        with pytest.raises(ValueError, match="labels"):
            mdi_value(dec, relabeled)


class TestUniformLoss:
    def test_no_loss_is_identity(self):
        dec = tetrahedron_beta()
        table = fast_entangled_table(werner_state(1.0), dec.ensembles)
        lossy = apply_uniform_loss(table, (1.0, 1.0))
        assert np.array_equal(lossy.p_all_ones, table.p_all_ones)

    def test_multiplicative_scaling(self):
        dec = tetrahedron_beta()
        table = fast_entangled_table(werner_state(1.0), dec.ensembles)
        base = mdi_value(dec, table)
        lossy = mdi_value(dec, apply_uniform_loss(table, (0.5, 0.5)))
        assert lossy == pytest.approx(0.25 * base, abs=1e-15)
        assert (lossy < 0) == (base < 0)

    def test_frozen_example(self):
        dec = tetrahedron_beta()
        table = fast_entangled_table(werner_state(1.0), dec.ensembles)
        lossy = mdi_value(dec, apply_uniform_loss(table, (0.9, 0.8)))
        assert lossy == pytest.approx(0.72 * -0.125, abs=1e-14)
        assert lossy == pytest.approx(-0.09, abs=1e-14)

    def test_full_distribution_reroutes_to_zero_outcome(self):
        ens = tetrahedron_beta().ensembles
        table = simulate_entangled(bell_strategy(werner_state(0.8)), ens, include_full=True)
        lossy = apply_uniform_loss(table, (0.7, 0.4))
        old, new = table.full, lossy.full
        assert np.abs(new.sum(axis=(0, 1)) - 1.0).max() <= 1e-12
        assert np.abs(new[1, 1] - old[1, 1] * 0.28).max() <= 1e-14
        # outcome (1, 0): kept 1 at A, lost or absent at B
        assert np.abs(new[1, 0] - (old[1, 1] * 0.7 * 0.6 + old[1, 0] * 0.7)).max() <= 1e-13

    def test_rejects_zero_efficiency(self):
        table = fast_entangled_table(werner_state(1.0), tetrahedron_beta().ensembles)
        with pytest.raises(ValueError):
            apply_uniform_loss(table, (0.0, 1.0))

    @pytest.mark.parametrize("eta", [0.0, -0.5, 1.5, float("nan"), float("inf")])
    def test_efficiency_range_checked_once(self, eta):
        assert check_efficiencies((1, 0.5), 2) == (1.0, 0.5)
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
            check_efficiencies((1.0, eta), 2)


class TestPreMeasurementMaps:
    def test_kraus_sets_are_trace_non_increasing(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            ops = random_kraus_set(4, int(rng.integers(1, 4)), rng)
            total = sum(k.conj().T @ k for k in ops)
            assert np.linalg.eigvalsh(total)[-1] <= 1 + 1e-12

    def test_composed_povm_still_valid(self):
        rng = np.random.default_rng(55)
        povm = bell_outcome_povm(2)
        ops = random_kraus_set(4, 2, rng)
        noisy = apply_pre_measurement_map(povm, ops)
        eigs = np.linalg.eigvalsh(noisy.element(1))
        assert eigs[0] >= -1e-12 and eigs[-1] <= 1 + 1e-12

    def test_identity_map_is_noop(self):
        povm = bell_outcome_povm(2)
        same = apply_pre_measurement_map(povm, [np.eye(4)])
        assert np.allclose(same.element(1), povm.element(1), atol=1e-14)

    def test_empty_kraus_list_never_clicks(self):
        lost = apply_pre_measurement_map(bell_outcome_povm(2), [])
        assert np.array_equal(lost.element(1), np.zeros((4, 4)))

    def test_matches_term_by_term_sum(self):
        rng = np.random.default_rng(56)
        povm = random_binary_povm(rng, 2, 2)
        ops = random_kraus_set(4, 3, rng)
        loop = np.zeros((4, 4), dtype=complex)
        for k in ops:
            loop += k.conj().T @ povm.element(1) @ k
        mapped = apply_pre_measurement_map(povm, ops).element(1)
        assert np.abs(mapped - loop).max() <= 1e-15

    def test_rejects_wrong_kraus_shape(self):
        with pytest.raises(ValueError, match="Kraus"):
            apply_pre_measurement_map(bell_outcome_povm(2), [np.eye(2)])


class TestCorrelationTableChecks:
    """Shape, range and normalization are checked once, at construction."""

    @staticmethod
    def full_table():
        ens = tetrahedron_beta().ensembles
        return simulate_entangled(bell_strategy(werner_state(0.6)), ens, include_full=True)

    def test_rejects_party_count_mismatch(self):
        with pytest.raises(ValueError, match="1 party names for 2 label tuples"):
            dataclasses.replace(self.full_table(), parties=("A",))

    def test_rejects_out_of_range_cell_in_normalized_row(self):
        table = self.full_table()
        full = np.array(table.full)
        full[:, :, 0, 1] = 0.0
        full[0, 0, 0, 1], full[1, 1, 0, 1] = 1.5, -0.5  # the row still sums to 1
        with pytest.raises(ValueError, match=r"probability 1.5 out of range at \('0', '1'\)"):
            dataclasses.replace(table, full=full)

    def test_rejects_missing_outcome_bitstrings(self):
        table = self.full_table()
        # only party A's outcome axis: rows still sum to 1
        full = np.stack([1.0 - table.full[1].sum(axis=0), table.full[1].sum(axis=0)])
        with pytest.raises(ValueError, match=r"full has shape \(2, 4, 4\), expected \(2, 2, 4, 4\)"):
            dataclasses.replace(table, full=full)

    def test_rejects_empty_full(self):
        with pytest.raises(ValueError, match="full"):
            dataclasses.replace(self.full_table(), full={})

    def test_rejects_unnormalized_distribution(self):
        table = self.full_table()
        full = np.array(table.full)
        full[0, 0, 2, 3] += 0.01
        with pytest.raises(ValueError, match=r"distribution at \('2', '3'\) sums to"):
            dataclasses.replace(table, full=full)

    def test_arrays_are_read_only_copies(self):
        p = np.full((4, 4), 0.25)
        table = CorrelationTable(("A", "B"), (("0", "1", "2", "3"),) * 2, p)
        p[0, 0] = 0.5
        assert table.p_all_ones[0, 0] == 0.25
        with pytest.raises(ValueError):
            table.p_all_ones[0, 0] = 0.5


class TestCsvRendering:
    def test_layout_and_row_order(self):
        table = CorrelationTable(("A", "B"), (("b", "a"), ("0", "1")), [[0.5, 0.25], [0.125, 1.0]])
        got = table_to_csv(table)
        assert got == (
            "A,B,p_all_ones\n"
            "a,0,0.125\n"
            "a,1,1\n"
            "b,0,0.5\n"
            "b,1,0.25\n"
        )

    def test_full_columns_sorted_by_bitstring(self):
        ens = tetrahedron_beta().ensembles
        table = simulate_entangled(bell_strategy(werner_state(1.0)), ens, include_full=True)
        header = table_to_csv(table).splitlines()[0]
        assert header == "A,B,p_all_ones,p_00,p_01,p_10,p_11"


class TestStrategyTypes:
    def test_separable_weights_must_normalize(self):
        rng = np.random.default_rng(56)
        good = random_separable_strategy((2, 2), 2, 2, rng)
        with pytest.raises(ValueError, match="sum"):
            SeparableStrategy((0.5, 0.4), good.share_states, good.measurements)

    def test_biseparable_term_dims_checked(self):
        rng = np.random.default_rng(57)
        good = random_biseparable_strategy((2, 2, 2), 2, 2, rng)
        bad_term = BiseparableTerm(
            "AB|C",
            1.0,
            random_density_matrix((2, 3), rng),
            random_density_matrix((2,), rng),
        )
        with pytest.raises(ValueError, match="group state dims"):
            BiseparableStrategy((bad_term,), good.measurements)

    def test_party_counts(self):
        rng = np.random.default_rng(58)
        assert random_separable_strategy((2, 2), 2, 2, rng).n_parties == 2
        assert random_biseparable_strategy((2, 2, 2), 2, 2, rng).n_parties == 3
        assert bell_strategy(noisy_ghz(0.5)).n_parties == 3

    def test_entangled_strategy_checks_share_dims(self):
        with pytest.raises(ValueError, match="incompatible"):
            EntangledStrategy(werner_state(0.5), (bell_outcome_povm(2), bell_outcome_povm(3)))
