import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdiw.linalg import hermitian_eigenvalues, kron, partial_trace, permute_subsystems
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
    apply_pre_measurement_map,
    apply_uniform_loss,
    bell_outcome_povm,
    bell_strategy,
    binary_povm,
    effective_povm_element,
    fast_entangled_prob,
    fast_entangled_table,
    mdi_value,
    mixture_as_shared_state,
    simulate_entangled,
    simulate_separable,
    table_to_csv,
)
from mdiw.attack import (
    BOUND_TOL,
    random_biseparable_strategy,
    random_kraus_set,
    random_separable_strategy,
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
    return binary_povm(e / (np.linalg.eigvalsh(e)[-1] * (1.0 + rng.uniform())), (d_in, share))


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
        key = tuple(str(i) for i in idx)
        inputs = [ens[p].states[i].matrix for p, i in enumerate(idx)]
        elements = [m.element(1) for m in strategy.measurements]
        want = game_probability_oracle(inputs, rho.matrix, elements)
        assert table.p_all_ones[key] == pytest.approx(want, abs=1e-12)
        if include_full:
            bits = "".join(str(int(b)) for b in rng.integers(2, size=n))
            elements = [m.element(int(b)) for m, b in zip(strategy.measurements, bits)]
            want = game_probability_oracle(inputs, rho.matrix, elements)
            assert table.full[key][bits] == pytest.approx(want, abs=1e-12)
            assert table.full[key]["1" * n] == table.p_all_ones[key]

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, dims=st.lists(st.integers(2, 3), min_size=2, max_size=3),
           size=st.integers(1, 4))
    def test_fast_table_matches_bell_strategy(self, seed, dims, size):
        rng = np.random.default_rng(seed)
        ens = tuple(random_ensemble(rng, p, d, size) for p, d in zip("ABC", dims))
        rho = random_density_matrix(tuple(dims), rng)
        fast = fast_entangled_table(rho, ens)
        full = simulate_entangled(bell_strategy(rho), ens)
        assert fast.p_all_ones.keys() == full.p_all_ones.keys()
        for key, p in fast.p_all_ones.items():
            assert p == pytest.approx(full.p_all_ones[key], abs=1e-12)


class TestBellOutcomePovm:
    def test_success_element_is_rank_one_unit_trace(self):
        e = bell_outcome_povm(2).element(1)
        assert np.isclose(np.trace(e).real, 1.0)
        assert np.allclose(hermitian_eigenvalues(e), [0, 0, 0, 1], atol=1e-12)

    def test_completeness(self):
        povm = bell_outcome_povm(2)
        assert np.allclose(sum(povm.elements), np.eye(4), atol=1e-14)

    def test_higher_dimension(self):
        e = bell_outcome_povm(3).element(1)
        assert np.allclose(e, projector(max_entangled(3)), atol=1e-14)

    def test_rejects_trivial_dimension(self):
        with pytest.raises(ValueError):
            bell_outcome_povm(1)


class TestPovmValidation:
    def test_rejects_non_psd_element(self):
        bad = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match="positive"):
            POVM((bad, np.eye(2) - bad), (1, 0), (2,))

    def test_rejects_incomplete_elements(self):
        e = np.diag([0.5, 0.5])
        with pytest.raises(ValueError, match="identity"):
            POVM((e, e / 2), (1, 0), (2,))

    def test_element_lookup_by_outcome(self):
        povm = bell_outcome_povm(2)
        assert np.allclose(povm.element(1) + povm.element(0), np.eye(4))


class TestSimulateEntangled:
    def test_singlet_diagonal_inputs_never_coincide(self):
        ens = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        table = simulate_entangled(bell_strategy(werner_state(1.0)), ens)
        for s in "0123":
            assert table.p_all_ones[(s, s)] == pytest.approx(0.0, abs=1e-14)

    def test_singlet_off_diagonal_value(self):
        ens = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        table = simulate_entangled(bell_strategy(werner_state(1.0)), ens)
        for s, t in itertools.permutations("0123", 2):
            assert table.p_all_ones[(s, t)] == pytest.approx(1 / 12, abs=1e-14)

    def test_werner_closed_form_all_entries(self):
        # P(1,1|s,t) = (1 - v n_s . n_t)/16 with n the input Bloch vectors
        ens = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        vecs = [bloch_vector(s) for s in ens[0].states]
        for v in (0.0, 0.35, 1.0):
            table = simulate_entangled(bell_strategy(werner_state(v)), ens)
            for i, j in itertools.product(range(4), repeat=2):
                expected = (1 - v * (vecs[i] @ vecs[j])) / 16
                assert table.p_all_ones[(str(i), str(j))] == pytest.approx(
                    expected, abs=1e-13
                )

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
            assert table.p_all_ones[(str(i), str(j))] == pytest.approx(want, abs=1e-12)

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
            key = tuple(str(i) for i in idx)
            assert table.p_all_ones[key] == pytest.approx(want, abs=1e-12)

    def test_full_distributions_normalized(self):
        ens = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        table = simulate_entangled(bell_strategy(werner_state(0.6)), ens, include_full=True)
        for key, dist in table.full.items():
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
            assert dist["11"] == pytest.approx(table.p_all_ones[key], abs=1e-14)


class TestFastEntangledProb:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        inputs = (tetrahedron_ensemble("A").states[0], tetrahedron_ensemble("B").states[0])
        assert fast_entangled_prob(rho, inputs) == pytest.approx(1 / 16)

    def test_singlet_cross_input(self):
        ens = tetrahedron_ensemble("A")
        rho = werner_state(1.0)
        assert fast_entangled_prob(rho, (ens.states[0], ens.states[1])) == pytest.approx(1 / 12)

    def test_agrees_with_full_simulation(self):
        rng = np.random.default_rng(43)
        for n in (2, 3):
            ens = tuple(tetrahedron_ensemble(p) for p in "ABC"[:n])
            for _ in range(5):
                rho = random_density_matrix((2,) * n, rng)
                fast = fast_entangled_table(rho, ens)
                full = simulate_entangled(bell_strategy(rho), ens)
                for key in fast.p_all_ones:
                    assert fast.p_all_ones[key] == pytest.approx(
                        full.p_all_ones[key], abs=1e-12
                    )

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            fast_entangled_prob(werner_state(1.0), (tetrahedron_ensemble("A").states[0],))


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
            (binary_povm(kron(m_a, np.eye(2)), (2, 2)), binary_povm(kron(m_b, np.eye(2)), (2, 2))),
        )
        table = simulate_separable(strategy, ens)
        for i, j in itertools.product(range(4), repeat=2):
            want = (
                np.trace(m_a @ ens[0].states[i].matrix).real
                * np.trace(m_b @ ens[1].states[j].matrix).real
            )
            assert table.p_all_ones[(str(i), str(j))] == pytest.approx(want, abs=1e-13)

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
            for key in via_effective.p_all_ones:
                assert via_effective.p_all_ones[key] == pytest.approx(
                    via_full.p_all_ones[key], abs=1e-12
                )

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
            for key in via_effective.p_all_ones:
                assert via_effective.p_all_ones[key] == pytest.approx(
                    via_full.p_all_ones[key], abs=1e-12
                )

    def test_full_distribution_is_product_rule(self):
        rng = np.random.default_rng(51)
        ens = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        strategy = random_separable_strategy((2, 2), 2, 2, rng)
        table = simulate_separable(strategy, ens, include_full=True)
        for key, dist in table.full.items():
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
            assert dist["11"] == pytest.approx(table.p_all_ones[key], abs=1e-14)

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
            assert table.p_all_ones[(str(i), str(j))] == pytest.approx(want, abs=1e-13)


def separable_cell_oracle(strategy, states, bits):
    """One cell by effective elements: sum_k w_k prod_p tr[A_pk tau_p], per outcome bit."""
    total = 0.0
    for w, term in zip(strategy.weights, strategy.share_states):
        prod = w
        for m, sigma, tau, b in zip(strategy.measurements, term, states, bits):
            eff = effective_povm_element(m.element(int(b)), m.dims, sigma, (1,))
            prod *= np.trace(eff @ tau.matrix).real
        total += prod
    return total


def biseparable_cell_oracle(strategy, states):
    """One all-ones cell by effective elements on each term's group and singleton."""
    total = 0.0
    for term in strategy.terms:
        (p, q), r = term.group, term.singleton
        mp, mq, mr = (strategy.measurements[i] for i in (p, q, r))
        group = effective_povm_element(
            kron(mp.element(1), mq.element(1)), mp.dims + mq.dims, term.group_state, (1, 3)
        )
        single = effective_povm_element(mr.element(1), mr.dims, term.singleton_state, (1,))
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
        strategy = random_separable_strategy(tuple(dims), share, mixture, rng, mixedness=0.5)
        table = simulate_separable(strategy, ens, include_full=include_full)
        assert (table.full is not None) == include_full
        for idx in itertools.product(range(3), repeat=n):
            key = tuple(str(i) for i in idx)
            states = [e.states[i] for e, i in zip(ens, idx)]
            want = separable_cell_oracle(strategy, states, "1" * n)
            assert table.p_all_ones[key] == pytest.approx(want, abs=1e-12)
            if include_full:
                for bits in map("".join, itertools.product("01", repeat=n)):
                    want = separable_cell_oracle(strategy, states, bits)
                    assert table.full[key][bits] == pytest.approx(want, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, dims=st.lists(st.integers(2, 3), min_size=3, max_size=3),
           share=st.integers(1, 3))
    def test_biseparable_matches_cell_oracle(self, seed, dims, share):
        rng = np.random.default_rng(seed)
        ens = tuple(random_ensemble(rng, p, d, 3) for p, d in zip("ABC", dims))
        strategy = one_term_per_bipartition(rng, dims, share)
        table = simulate_separable(strategy, ens)
        for idx in itertools.product(range(3), repeat=3):
            states = [e.states[i] for e, i in zip(ens, idx)]
            want = biseparable_cell_oracle(strategy, states)
            assert table.p_all_ones[tuple(map(str, idx))] == pytest.approx(want, abs=1e-12)

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
            abs(table.p_all_ones[tuple(map(str, idx))]
                - biseparable_cell_oracle(strategy, [e.states[i] for e, i in zip(ens, idx)]))
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
        relabeled = CorrelationTable(
            table.parties,
            (("a", "b", "c", "d"), table.labels[1]),
            {("abcd"[int(k[0])], k[1]): v for k, v in table.p_all_ones.items()},
        )
        with pytest.raises(ValueError, match="labels"):
            mdi_value(dec, relabeled)


class TestUniformLoss:
    def test_no_loss_is_identity(self):
        dec = tetrahedron_beta()
        table = fast_entangled_table(werner_state(1.0), dec.ensembles)
        lossy = apply_uniform_loss(table, (1.0, 1.0))
        assert lossy.p_all_ones == table.p_all_ones

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
        for key, dist in lossy.full.items():
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
            assert dist["11"] == pytest.approx(table.full[key]["11"] * 0.28, abs=1e-14)
            # outcome (1, 0): kept 1 at A, lost or absent at B
            want_10 = table.full[key]["11"] * 0.7 * 0.6 + table.full[key]["10"] * 0.7
            assert dist["10"] == pytest.approx(want_10, abs=1e-13)

    def test_rejects_zero_efficiency(self):
        table = fast_entangled_table(werner_state(1.0), tetrahedron_beta().ensembles)
        with pytest.raises(ValueError):
            apply_uniform_loss(table, (0.0, 1.0))


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


class TestCsvRendering:
    def test_layout_and_row_order(self):
        table = CorrelationTable(
            ("A", "B"),
            (("b", "a"), ("0", "1")),
            {
                ("b", "0"): 0.5,
                ("b", "1"): 0.25,
                ("a", "0"): 0.125,
                ("a", "1"): 1.0,
            },
        )
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

    def test_entangled_strategy_checks_share_dims(self):
        with pytest.raises(ValueError, match="incompatible"):
            EntangledStrategy(werner_state(0.5), (bell_outcome_povm(2), bell_outcome_povm(3)))
