import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdiw.linalg import TOL_RECON, frobenius_distance, hermitian_eigenvalues, hermiticity_defect
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


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


class TestRoundTripProperty:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(4, 6), min_size=2, max_size=3))
    # condition number ~1.3e6; plain least squares leaves residual 2.9e-10
    @example(seed=782050530, sizes=[4, 4, 4])
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
        assert hermiticity_defect(reconstruct(decompose(w, ens))) < 1e-10

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
        dec = ghz_beta(source="formula")
        assert dec.residual < 1e-10
        assert np.allclose(reconstruct(dec), ghz_witness().matrix, atol=1e-10)

    def test_auto_prefers_exact_formula(self):
        formula = ghz_beta(source="formula")
        auto = ghz_beta()
        assert np.array_equal(formula.beta, auto.beta)

    def test_solver_route_agrees_on_reconstruction(self):
        solved = ghz_beta(source="solve")
        assert solved.residual < 1e-10
        assert np.allclose(reconstruct(solved), ghz_witness().matrix, atol=1e-10)

    def test_unknown_source(self):
        with pytest.raises(ValueError):
            ghz_beta(source="guess")


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
