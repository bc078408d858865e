import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdiw.linalg import TOL_RECON, frobenius_distance, hermitian_eigenvalues
from mdiw.states import (
    DensityMatrix,
    InputEnsemble,
    bloch_state,
    ket,
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
    _ghz_table,
    _pauli6_table,
    _tetrahedron_table,
    Witness,
    decompose,
    decomposition_to_dict,
    ghz_beta,
    ghz_coefficient,
    ghz_witness,
    pauli6_beta,
    reconstruct,
    singlet_witness,
    tetrahedron_beta,
    witness_value,
)
from oracles import basis_reconstruct, lstsq_decompose, partial_transpose


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


class TestHermitianPart:
    def test_skew_input_stored_as_its_hermitian_part(self):
        # an anti-Hermitian part within TOL_HERM passes the check; the stored witness drops it
        w = Witness(np.eye(4) + 0.4e-10j * np.ones((4, 4)), (2, 2))
        assert w.matrix.tobytes() == np.eye(4, dtype=complex).tobytes()

    def test_exactly_hermitian_input_stored_bit_for_bit(self):
        m = random_hermitian(np.random.default_rng(34), 8)
        assert Witness(m, (2, 2, 2)).matrix.tobytes() == m.tobytes()


class TestRoundTripProperty:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(4, 6), min_size=2, max_size=3))
    # condition number ~1.3e6; plain least squares leaves residual 2.9e-10
    @example(seed=782050530, sizes=[4, 4, 4])
    # |beta| up to 9.5e5: residual 1.0993e-10 with the dense lstsq route, 9.51e-11 factored
    @example(seed=24722, sizes=[5, 4, 4])
    def test_decompose_reconstruct_round_trip(self, seed, sizes):
        # four or more random qubit states span the Hermitian 2 x 2 matrices
        # almost surely, so every such ensemble is tomographically complete
        rng = np.random.default_rng(seed)
        ensembles = tuple(
            InputEnsemble(p, tuple(str(i) for i in range(k)),
                          tuple(random_density_matrix((2,), rng) for _ in range(k)))
            for p, k in zip("ABC", sizes)
        )
        w = Witness(random_hermitian(rng, 2 ** len(sizes)), (2,) * len(sizes))
        dec = decompose(w, ensembles)
        assert dec.beta.shape == tuple(sizes)
        assert dec.residual <= TOL_RECON
        assert frobenius_distance(reconstruct(dec), w.matrix) <= TOL_RECON


def random_ensemble(party, k, d, rng):
    return InputEnsemble(party, tuple(map(str, range(k))), tuple(random_density_matrix((d,), rng) for _ in range(k)))


def flat_ensemble(party, k, rng):
    """k qubit states whose Bloch vectors leave the x-y plane by +-1e-9.

    The smallest singular value of the ensemble is then about 1e-9 of its
    largest: kept on its own, but its square falls below ``lstsq``'s cutoff.
    """
    angles = rng.uniform(0.0, 2.0 * math.pi, size=k)
    v = np.stack([0.9 * np.cos(angles), 0.9 * np.sin(angles), 1e-9 * (-1.0) ** np.arange(k)], axis=1)
    return InputEnsemble(party, tuple(map(str, range(k))), tuple(map(bloch_state, v)))


# name: (local dims, per party a count of random full-rank states, "pauli6", or "flat" for 5 flat_ensemble states)
SOLVE_CASES = {
    "2p-sizes-1-6": ((2, 2), (1, 6)),  # a single state beside an over-complete ensemble
    "2p-complete": ((2, 2), (4, 4)),
    "2p-rank-deficient": ((2, 2), (3, 2)),
    "2p-pauli6": ((2, 2), ("pauli6", "pauli6")),
    "2p-qutrit-complete": ((3, 2), (9, 4)),
    "2p-qutrit-rank-deficient": ((3, 2), (6, 5)),
    "3p-complete": ((2, 2, 2), (4, 4, 4)),
    "3p-mixed": ((2, 2, 2), (2, 5, "pauli6")),
    "3p-qutrit": ((2, 3, 2), (4, 3, 1)),
    "2p-near-degenerate": ((2, 2), ("flat", "flat")),
}


def solve_case(name, rng):
    dims, sizes = SOLVE_CASES[name]
    return tuple(pauli6_ensemble(p) if k == "pauli6" else flat_ensemble(p, 5, rng) if k == "flat"
                 else random_ensemble(p, k, d, rng) for p, k, d in zip("ABC", sizes, dims))


class TestFactoredSolve:
    """``decompose`` gives the dense ``lstsq`` route's coefficients and exact flag (``oracles.lstsq_decompose``)."""

    @pytest.mark.parametrize("in_span", [False, True], ids=["random-witness", "witness-in-span"])
    @pytest.mark.parametrize("case", list(SOLVE_CASES))
    def test_matches_dense_lstsq(self, case, in_span):
        rng = np.random.default_rng([19, list(SOLVE_CASES).index(case), in_span])
        ensembles = solve_case(case, rng)
        d = math.prod(e.dim for e in ensembles)
        m = random_hermitian(rng, d)  # complex, so a witness and its transpose differ
        if in_span:
            m = basis_reconstruct(rng.normal(size=tuple(map(len, ensembles))), ensembles)
        w = Witness(m, tuple(e.dim for e in ensembles))
        dec = decompose(w, ensembles)
        beta, residual = lstsq_decompose(w, ensembles)
        # a kept singular value 1e-9 of the largest amplifies rounding to about eps * 1e9 in
        # relative terms on any route; a direction kept on products would move beta 1e9 times more
        slack = 1e7 if case == "2p-near-degenerate" else 1.0
        assert np.abs(dec.beta - beta).max() <= 1e-12 * slack * max(1.0, np.abs(beta).max())
        assert dec.exact == (residual <= TOL_RECON)
        assert dec.residual == pytest.approx(residual, rel=1e-12 * slack, abs=1e-13)

    def test_near_degenerate_pair_drops_only_the_product_direction(self):
        rng = np.random.default_rng([19, list(SOLVE_CASES).index("2p-near-degenerate"), False])
        ensembles = solve_case("2p-near-degenerate", rng)
        s = [e.transposed_svd[1] for e in ensembles]
        ratios = [float(x[3] / x[0]) for x in s]
        assert all(1e-10 < r < 1e-8 for r in ratios)  # each party keeps its small direction
        assert ratios[0] * ratios[1] < np.finfo(float).eps  # their product falls below the cutoff
        w = Witness(random_hermitian(rng, 4), (2, 2))
        dec = decompose(w, ensembles)
        assert not dec.exact and dec.residual == pytest.approx(lstsq_decompose(w, ensembles)[1], rel=1e-5)


class TestFactoredReconstruct:
    """``reconstruct`` and the partial-transpose minima agree with the stacked product basis."""

    @staticmethod
    def assert_matches_basis(dec):
        dims = tuple(e.dim for e in dec.ensembles)
        expected = basis_reconstruct(dec.beta, dec.ensembles)
        tol = 1e-14 * max(1.0, np.abs(dec.beta).max())
        assert np.abs(reconstruct(dec) - expected).max() <= tol
        minima = [np.linalg.eigvalsh(partial_transpose(expected, dims, r))[0] for r in range(len(dims))]
        assert np.allclose(dec.partial_transpose_minima, minima, rtol=0.0, atol=tol)

    @pytest.mark.parametrize("make", [tetrahedron_beta, pauli6_beta, ghz_beta], ids=["tetrahedron", "pauli6", "ghz"])
    def test_closed_form_tables(self, make):
        self.assert_matches_basis(make())

    @pytest.mark.parametrize("case", ["2p-complete", "2p-pauli6", "2p-qutrit-complete", "3p-mixed", "3p-qutrit"])
    def test_random_complex_witnesses(self, case):
        rng = np.random.default_rng([19, 1, list(SOLVE_CASES).index(case)])
        ensembles = solve_case(case, rng)
        w = Witness(random_hermitian(rng, math.prod(e.dim for e in ensembles)), tuple(e.dim for e in ensembles))
        self.assert_matches_basis(decompose(w, ensembles))


class TestSingletWitness:
    def test_matrix(self):
        w = singlet_witness()
        assert np.allclose(w.matrix, 0.5 * np.eye(4) - projector(singlet_ket()), atol=1e-15)

    def test_spectrum(self):
        eigs = hermitian_eigenvalues(singlet_witness().matrix)
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_nonnegative_on_product_state(self):
        rho = DensityMatrix(projector(ket("00")), (2, 2))
        assert witness_value(singlet_witness(), rho) == pytest.approx(0.5)

    def test_werner_values(self):
        w = singlet_witness()
        assert witness_value(w, werner_state(1.0)) == pytest.approx(-0.5)
        assert witness_value(w, werner_state(1 / 3)) == pytest.approx(0.0, abs=1e-12)


class TestGhzWitness:
    def test_kind(self):
        assert ghz_witness().kind == "genuine-multipartite"

    def test_threshold_values(self):
        w = ghz_witness()
        assert witness_value(w, noisy_ghz(3 / 7)) == pytest.approx(0.0, abs=1e-12)
        assert witness_value(w, noisy_ghz(1.0)) == pytest.approx(-0.5)
        assert witness_value(w, noisy_ghz(0.0)) == pytest.approx(3 / 8)

    def test_dims_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            witness_value(ghz_witness(), werner_state(0.5))


class TestDecompose:
    def test_tetrahedron_basis_is_tomographically_complete(self):
        rng = np.random.default_rng(31)
        ens = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        for _ in range(10):
            w = Witness(random_hermitian(rng, 4), (2, 2))
            dec = decompose(w, ens)
            assert dec.residual < 1e-10
            assert dec.beta.dtype == np.float64

    def test_overcomplete_pauli6_reconstructs(self):
        ens = (pauli6_ensemble("A"), pauli6_ensemble("B"))
        dec = decompose(singlet_witness(), ens)
        assert dec.residual < 1e-10
        assert np.allclose(reconstruct(dec), singlet_witness().matrix, atol=1e-10)

    def test_minimum_norm_among_solutions(self):
        # the tabulated pauli6 coefficients are one valid solution; the
        # solver's minimum-norm answer cannot have a larger norm
        solved = decompose(singlet_witness(), pauli6_beta().ensembles)
        assert np.linalg.norm(solved.beta) <= np.linalg.norm(pauli6_beta().beta) + 1e-12

    def test_rank_deficient_ensembles_flagged_inexact(self):
        single = InputEnsemble("A", ("0",), (bloch_state((0, 0, 1)),))
        single_b = InputEnsemble("B", ("0",), (bloch_state((0, 0, 1)),))
        dec = decompose(singlet_witness(), (single, single_b))
        assert dec.residual > 0.1
        assert not dec.exact

    def test_round_trip_residual_matches_recorded(self):
        rng = np.random.default_rng(32)
        tetra2 = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        tetra3 = tuple(tetrahedron_ensemble(p) for p in "ABC")
        for ens, d in ((tetra2, 4), (tetra3, 8)):
            for _ in range(5):
                w = Witness(random_hermitian(rng, d), (2,) * len(ens))
                dec = decompose(w, ens)
                measured = frobenius_distance(w.matrix, reconstruct(dec))
                assert abs(measured - dec.residual) < 1e-12

    def test_reconstruction_is_hermitian(self):
        rng = np.random.default_rng(33)
        ens = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        w = Witness(random_hermitian(rng, 4), (2, 2))
        m = reconstruct(decompose(w, ens))
        assert np.abs(m - m.conj().T).max() < 1e-10

    def test_party_count_mismatch(self):
        with pytest.raises(ValueError, match="parties"):
            decompose(singlet_witness(), (tetrahedron_ensemble("A"),))


class TestFixedCoefficientTables:
    def test_tetrahedron_values(self):
        beta = tetrahedron_beta().beta
        assert beta[0, 0] == pytest.approx(5 / 8)
        assert beta[0, 1] == pytest.approx(-1 / 8)
        assert np.allclose(np.diag(beta), 5 / 8)

    def test_tetrahedron_sum_matches_witness_trace(self):
        # every product of transposed inputs has unit trace
        assert tetrahedron_beta().beta.sum() == pytest.approx(1.0)
        assert np.trace(singlet_witness().matrix).real == pytest.approx(1.0)

    def test_tetrahedron_reconstructs(self):
        dec = tetrahedron_beta()
        assert dec.residual < 1e-10
        assert np.allclose(reconstruct(dec), singlet_witness().matrix, atol=1e-10)

    def test_pauli6_values(self):
        dec = pauli6_beta()
        labels = dec.ensembles[0].labels
        i = labels.index("+x")
        assert dec.beta[i, i] == pytest.approx(1 / 3)
        assert dec.beta[i, labels.index("-x")] == pytest.approx(-1 / 6)
        assert dec.beta[i, labels.index("+y")] == 0.0

    def test_pauli6_reconstructs(self):
        dec = pauli6_beta()
        assert dec.residual < 1e-10
        assert np.allclose(reconstruct(dec), singlet_witness().matrix, atol=1e-10)

    def test_both_singlet_tables_reconstruct_identically(self):
        a = reconstruct(tetrahedron_beta())
        b = reconstruct(pauli6_beta())
        assert np.allclose(a, b, atol=1e-10)


class TestSharedBuiltins:
    """Built-in witnesses and closed-form tables are built once and shared read-only."""

    @pytest.mark.parametrize("build", [singlet_witness, ghz_witness], ids=["singlet", "ghz"])
    def test_witness_is_shared_and_read_only(self, build):
        assert build() is build()
        with pytest.raises(ValueError):
            build().matrix[0, 0] = 0.0

    @pytest.mark.parametrize("table", [_tetrahedron_table, _pauli6_table, _ghz_table],
                             ids=["tetrahedron", "pauli6", "ghz"])
    def test_table_is_shared_and_read_only(self, table):
        beta = table()
        assert table() is beta
        with pytest.raises(ValueError):
            beta[(0,) * beta.ndim] = 0.0


class TestGhzBeta:
    def test_coefficient_magnitude_classes(self):
        lo = 3 * (math.sqrt(3) - 1) / 32
        hi = 3 * (math.sqrt(3) + 1) / 32
        mags = {round(abs(ghz_coefficient(s, t, u)), 12) for s in range(4)
                for t in range(4) for u in range(4)}
        assert mags == {round(lo, 12), round(hi, 12)}

    def test_label_zero_floor_contributes_odd_sign(self):
        # s = t = u = 0: floors are -1, pair sum + 1 = 4 (even), floor sum -3 (odd)
        expected = (3 / 32) * (-1 + math.sqrt(3))
        assert ghz_coefficient(0, 0, 0) == pytest.approx(expected)

    def test_formula_reconstructs_witness(self):
        dec = ghz_beta()
        assert dec.residual < 1e-10
        assert np.allclose(reconstruct(dec), ghz_witness().matrix, atol=1e-10)

    def test_is_closed_form_table(self):
        dec = ghz_beta()
        for s, t, u in np.ndindex(4, 4, 4):
            assert dec.beta[s, t, u] == ghz_coefficient(s, t, u)

    def test_solver_route_agrees_on_reconstruction(self):
        formula = ghz_beta()
        solved = decompose(ghz_witness(), formula.ensembles)
        assert solved.residual < 1e-10
        assert np.allclose(reconstruct(solved), reconstruct(formula), atol=1e-10)


class TestSerialization:
    def test_decomposition_dict_shape(self):
        doc = decomposition_to_dict(tetrahedron_beta())
        assert doc["ensembles"] == ["tetrahedron", "tetrahedron"]
        assert len(doc["beta"]) == 4 and len(doc["beta"][0]) == 4
        assert doc["residual"] < 1e-10

    def test_decomposition_shape_validation(self):
        ens = (tetrahedron_ensemble("A"), tetrahedron_ensemble("B"))
        with pytest.raises(ValueError, match="shape"):
            Decomposition(np.zeros((3, 4)), ens, 0.0)
