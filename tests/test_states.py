import math

import numpy as np
import pytest

from mdiw import linalg
from mdiw.states import (
    DensityMatrix,
    InputEnsemble,
    TETRAHEDRON_VERTICES,
    bloch_state,
    bloch_vector,
    ghz_ket,
    ket,
    max_entangled,
    named_ensemble,
    noisy_ghz,
    pauli6_ensemble,
    projector,
    random_density_matrix,
    singlet_ket,
    tetrahedron_ensemble,
    werner_state,
)
from mdiw.witness import ghz_witness, singlet_witness, witness_value
from oracles import pauli


class TestPauli:
    def test_sigma_0_is_identity(self):
        assert np.array_equal(pauli(0), np.eye(2))

    def test_sigma_z(self):
        assert np.array_equal(pauli(3), np.diag([1.0 + 0j, -1.0]))

    def test_involution(self):
        for k in range(4):
            assert np.allclose(pauli(k) @ pauli(k), np.eye(2))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pauli(4)


class TestBlochState:
    def test_north_pole(self):
        assert np.allclose(bloch_state((0, 0, 1)).matrix, np.diag([1.0, 0.0]))

    def test_center_is_maximally_mixed(self):
        assert np.allclose(bloch_state((0, 0, 0)).matrix, np.eye(2) / 2)

    def test_unit_vector_gives_pure_state(self):
        rho = bloch_state(np.array([1.0, 1.0, 1.0]) / math.sqrt(3))
        eigs = linalg.hermitian_eigenvalues(rho.matrix)
        assert np.allclose(eigs, [0.0, 1.0], atol=1e-12)

    def test_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            bloch_state((1.0, 1.0, 1.0))

    def test_bloch_vector_round_trip(self):
        n = np.array([0.3, -0.5, 0.2])
        assert np.allclose(bloch_vector(bloch_state(n)), n, atol=1e-12)


class TestTetrahedronEnsemble:
    def test_pairwise_bloch_dot_products(self):
        ens = tetrahedron_ensemble()
        vecs = [bloch_vector(s) for s in ens.states]
        for i in range(4):
            for j in range(4):
                expected = 1.0 if i == j else -1.0 / 3.0
                assert np.isclose(vecs[i] @ vecs[j], expected, atol=1e-12)

    def test_states_sum_to_twice_identity(self):
        total = sum(s.matrix for s in tetrahedron_ensemble().states)
        assert np.allclose(total, 2 * np.eye(2), atol=1e-12)

    def test_states_are_rank_one_projectors(self):
        for s in tetrahedron_ensemble().states:
            assert np.allclose(s.matrix @ s.matrix, s.matrix, atol=1e-12)

    def test_vertex_frame_identity(self):
        gram = sum(np.outer(v, v) for v in TETRAHEDRON_VERTICES)
        assert np.allclose(gram, (4.0 / 3.0) * np.eye(3), atol=1e-12)

    def test_transposed_states_keep_dot_products(self):
        # transpose flips the y component of every Bloch vector uniformly
        vecs = [bloch_vector(s.matrix.T) for s in tetrahedron_ensemble().states]
        for i in range(4):
            for j in range(4):
                expected = 1.0 if i == j else -1.0 / 3.0
                assert np.isclose(vecs[i] @ vecs[j], expected, atol=1e-12)

    def test_vertex_s_is_conjugation_by_pauli_s(self):
        base = bloch_state(TETRAHEDRON_VERTICES[0]).matrix
        for s, state in enumerate(tetrahedron_ensemble().states):
            assert np.allclose(state.matrix, pauli(s) @ base @ pauli(s), atol=1e-12)


class TestPauli6Ensemble:
    def test_plus_z_is_ground_projector(self):
        ens = pauli6_ensemble()
        plus_z = ens.states[ens.labels.index("+z")]
        assert np.allclose(plus_z.matrix, np.diag([1.0, 0.0]))

    def test_minus_x(self):
        ens = pauli6_ensemble()
        minus_x = ens.states[ens.labels.index("-x")]
        assert np.allclose(minus_x.matrix, (np.eye(2) - pauli(1)) / 2)

    def test_sums_to_three_identities(self):
        total = sum(s.matrix for s in pauli6_ensemble().states)
        assert np.allclose(total, 3 * np.eye(2), atol=1e-12)


def _custom_ensemble(party="A"):
    rng = np.random.default_rng(5)
    states = tuple(random_density_matrix((3,), rng) for _ in range(4))
    return InputEnsemble(party, ("a", "b", "c", "d"), states)


class TestEnsembleStack:
    """Each ensemble keeps the read-only stack of its checked states."""

    @pytest.mark.parametrize("build", [tetrahedron_ensemble, pauli6_ensemble, _custom_ensemble],
                             ids=["tetrahedron", "pauli6", "custom"])
    def test_stack_is_the_states_bitwise_and_read_only(self, build):
        e = build("B")
        stacked = np.stack([s.matrix for s in e.states])
        assert e.matrices.shape == stacked.shape == (len(e), e.dim, e.dim)
        assert e.matrices.dtype == stacked.dtype and e.matrices.tobytes() == stacked.tobytes()
        with pytest.raises(ValueError):
            e.matrices[0, 0, 0] = 0.0

    def test_tetrahedron_stack_is_bloch_state_bitwise(self):
        matrices = tetrahedron_ensemble().matrices
        for v, m in zip(TETRAHEDRON_VERTICES, matrices, strict=True):
            assert m.tobytes() == bloch_state(v).matrix.tobytes()


class TestSharedEnsembles:
    """A built-in ensemble is built once per party and shared read-only."""

    @pytest.mark.parametrize("build", [tetrahedron_ensemble, pauli6_ensemble], ids=["tetrahedron", "pauli6"])
    def test_one_object_per_party_differing_only_in_party(self, build):
        a, b = build("A"), build("B")
        assert build("B") is b and (a.party, b.party) == ("A", "B")
        assert (a.labels, a.name, [s.dims for s in a.states]) == (b.labels, b.name, [s.dims for s in b.states])
        assert a.matrices.tobytes() == b.matrices.tobytes()

    @pytest.mark.parametrize("build", [tetrahedron_ensemble, pauli6_ensemble], ids=["tetrahedron", "pauli6"])
    def test_state_matrices_are_read_only(self, build):
        with pytest.raises(ValueError):
            build("A").states[0].matrix[0, 0] = 0.0


class TestWernerFamily:
    def test_v_zero_fully_mixed(self):
        assert np.allclose(werner_state(0.0).matrix, np.eye(4) / 4)

    def test_v_one_is_singlet(self):
        assert np.allclose(werner_state(1.0).matrix, projector(singlet_ket()), atol=1e-15)

    def test_spectrum(self):
        v = 0.7
        eigs = linalg.hermitian_eigenvalues(werner_state(v).matrix)
        expected = sorted([(1 + 3 * v) / 4] + [(1 - v) / 4] * 3)
        assert np.allclose(eigs, expected, atol=1e-12)

    def test_witness_trace_closed_form(self):
        w = singlet_witness()
        for v in np.linspace(0, 1, 11):
            assert np.isclose(
                witness_value(w, werner_state(v)), (1 - 3 * v) / 4, atol=1e-12
            )

    def test_entangled_iff_above_one_third(self):
        w = singlet_witness()
        assert witness_value(w, werner_state(1 / 3)) == pytest.approx(0.0, abs=1e-12)
        for v in (0.0, 0.1, 0.2, 0.3, 1 / 3):
            assert witness_value(w, werner_state(v)) >= -1e-12
        for v in (1 / 3 + 1e-6, 0.4, 0.7, 1.0):
            assert witness_value(w, werner_state(v)) < 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            werner_state(1.5)


class TestNoisyGhzFamily:
    def test_v_zero_fully_mixed(self):
        assert np.allclose(noisy_ghz(0.0).matrix, np.eye(8) / 8)

    def test_v_one_is_rank_one(self):
        eigs = linalg.hermitian_eigenvalues(noisy_ghz(1.0).matrix)
        assert np.allclose(eigs, [0] * 7 + [1], atol=1e-12)

    def test_witness_trace_closed_form(self):
        # tr[W rho_v] = 1/2 - (v + (1 - v)/8) = (3 - 7v)/8, verified by direct trace
        w = ghz_witness()
        for v in np.linspace(0, 1, 11):
            direct = np.trace(w.matrix @ noisy_ghz(v).matrix).real
            assert np.isclose(direct, (3 - 7 * v) / 8, atol=1e-12)
            assert np.isclose(witness_value(w, noisy_ghz(v)), (3 - 7 * v) / 8, atol=1e-12)


class TestMaxEntangled:
    def test_d2_vector(self):
        assert np.allclose(max_entangled(2), (ket("00") + ket("11")) / math.sqrt(2))

    def test_normalized(self):
        for d in (2, 3, 4):
            assert np.isclose(np.linalg.norm(max_entangled(d)), 1.0)

    def test_marginals_maximally_mixed(self):
        for d in (2, 3):
            proj = projector(max_entangled(d))
            for keep in ({0}, {1}):
                marginal = linalg.partial_trace(proj, (d, d), keep)
                assert np.allclose(marginal, np.eye(d) / d, atol=1e-12)

    def test_too_small(self):
        # every local dimension d >= 1 has the ket; at d = 1 it is |00> = [1]
        with pytest.raises(ValueError, match="local dimension must be >= 1, got 0"):
            max_entangled(0)
        assert np.array_equal(max_entangled(1), [1.0])


class TestCatalogValidity:
    def test_every_catalog_state_is_a_density_matrix(self):
        catalog = (
            list(tetrahedron_ensemble().states)
            + list(pauli6_ensemble().states)
            + [werner_state(v) for v in (0.0, 0.5, 1.0)]
            + [noisy_ghz(v) for v in (0.0, 0.5, 1.0)]
        )
        for state in catalog:
            assert DensityMatrix(state.matrix, state.dims).dims == state.dims

    def test_ghz_ket_matches_catalog(self):
        assert np.allclose(projector(ghz_ket()), noisy_ghz(1.0).matrix, atol=1e-15)


class TestTypes:
    def test_density_matrix_rejects_non_psd(self):
        with pytest.raises(ValueError, match="positive"):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2), (2,))

    def test_density_matrix_is_frozen(self):
        rho = werner_state(0.5)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0

    def test_ensemble_rejects_duplicate_labels(self):
        s = bloch_state((0, 0, 1))
        with pytest.raises(ValueError, match="duplicate"):
            InputEnsemble("A", ("a", "a"), (s, s))

    def test_ensemble_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="dimension"):
            InputEnsemble("A", ("a", "b"), (bloch_state((0, 0, 1)), werner_state(0.5)))

    def test_named_ensemble_lookup(self):
        assert named_ensemble("tetrahedron", "B").party == "B"
        with pytest.raises(ValueError, match="unknown ensemble"):
            named_ensemble("cube", "A")


# One broken 2x2 matrix per density predicate, each failing only that one.
BROKEN_DENSITIES = {
    "non_finite": (np.array([[np.nan, 0.0], [0.0, 1.0]]), "NaN or Inf"),
    "non_hermitian": (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian"),
    "trace_off": (np.diag([0.6, 0.6]), "trace"),
    "negative_eigenvalue": (np.diag([1.5, -0.5]), "positive semidefinite"),
}


class TestDensityStack:
    """``DensityMatrix.stack`` checks every matrix of the stack, not just the first."""

    @staticmethod
    def valid_stack(n=3):
        return [bloch_state(v).matrix for v in TETRAHEDRON_VERTICES[:n]]

    def test_states_match_single_construction(self):
        ms = self.valid_stack()
        states = DensityMatrix.stack(ms, (2,))
        assert len(states) == len(ms)
        for rho, m in zip(states, ms):
            assert isinstance(rho, DensityMatrix) and rho.dims == (2,) and rho.dim == 2
            assert np.array_equal(rho.matrix, DensityMatrix(m, (2,)).matrix)
            with pytest.raises(ValueError):
                rho.matrix[0, 0] = 9.0

    @pytest.mark.parametrize("read_only_view", [False, True], ids=["writable", "read_only_view"])
    def test_input_is_copied(self, read_only_view):
        # a read-only view of a writable base is copied too: a write to the base would reach a view
        ms = np.array(self.valid_stack())
        given = ms[:]
        given.setflags(write=not read_only_view)
        states = DensityMatrix.stack(given, (2,))
        ms[:, 0, 0] = 9.0
        assert all(rho.matrix[0, 0] != 9.0 for rho in states)

    @pytest.mark.parametrize("case", list(BROKEN_DENSITIES), ids=list(BROKEN_DENSITIES))
    def test_broken_last_matrix_rejected_like_single(self, case):
        broken, keyword = BROKEN_DENSITIES[case]
        with pytest.raises(ValueError, match=keyword) as single:
            DensityMatrix(broken, (2,))
        with pytest.raises(ValueError, match=keyword) as stacked:
            DensityMatrix.stack(self.valid_stack() + [broken], (2,))
        assert str(stacked.value) == str(single.value)

    @pytest.mark.parametrize("depth, accepted", [(0.5e-10, True), (2e-10, False)])
    def test_graded_psd_boundary(self, depth, accepted):
        # min eigenvalue -depth against TOL_PSD = 1e-10, on the last matrix only
        edge = np.diag([1.0 + depth, -depth])
        ms = self.valid_stack() + [edge]
        if accepted:
            assert DensityMatrix.stack(ms, (2,))[-1].matrix[1, 1] == -depth
            DensityMatrix(edge, (2,))
        else:
            with pytest.raises(ValueError, match="positive semidefinite"):
                DensityMatrix.stack(ms, (2,))
            with pytest.raises(ValueError, match="positive semidefinite"):
                DensityMatrix(edge, (2,))

    def test_shape_and_dims_checked(self):
        with pytest.raises(ValueError, match="stack"):
            DensityMatrix.stack(np.eye(2) / 2, (2,))
        with pytest.raises(ValueError, match="square"):
            DensityMatrix.stack(np.zeros((2, 2, 3)), (2,))
        with pytest.raises(ValueError, match="dims"):
            DensityMatrix.stack(self.valid_stack(), (3,))
        assert DensityMatrix.stack(np.zeros((0, 2, 2)), (2,)) == ()
