import ast
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdiw import linalg, serialize, verify
from mdiw.attack import AttackConfig, attack, biseparable_attack, random_biseparable_strategy, random_separable_strategy
from mdiw.game import POVM, _checked_clicks
from mdiw.witness import Witness, ghz_beta, tetrahedron_beta
from mdiw.states import DensityMatrix, werner_state, singlet_ket, projector
from oracles import pauli, permute_subsystems

I2 = np.eye(2)


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def kron_oracle(a, b):
    """Brute-force Kronecker product by direct index computation."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(m, dims, keep):
    """Brute-force partial trace by summing matrix entries directly."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    out = np.zeros((d_keep, d_keep), dtype=complex)

    def flat(multi):
        idx = 0
        for pos, d in enumerate(dims):
            idx = idx * d + multi[pos]
        return idx

    def flat_keep(multi):
        idx = 0
        for pos in keep:
            idx = idx * dims[pos] + multi[pos]
        return idx

    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            if all(row[t] == col[t] for t in traced):
                out[flat_keep(row), flat_keep(col)] += m[flat(row), flat(col)]
    return out


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(linalg.kron(I2, I2), np.eye(4))

    def test_diagonal_product(self):
        assert np.allclose(linalg.kron(pauli(3), pauli(3)), np.diag([1, -1, -1, 1]))

    def test_flips_basis_state(self):
        # kron(X, X) |00> -> |11>, checked by direct index computation
        ket00 = np.zeros(4)
        ket00[0] = 1.0
        result = linalg.kron(pauli(1), pauli(1)) @ ket00
        expected = np.zeros(4)
        expected[3] = 1.0
        assert np.allclose(result, expected)

    def test_matches_index_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
            b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
            assert np.allclose(linalg.kron(a, b), kron_oracle(a, b), atol=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="NaN"):
            linalg.kron(np.array([[np.nan, 0], [0, 1]]), I2)


class TestPartialTrace:
    def test_product_state_factorization(self):
        rng = np.random.default_rng(5)
        rho = random_hermitian(rng, 3)
        sigma = random_hermitian(rng, 4)
        pt = linalg.partial_trace(linalg.kron(rho, sigma), (3, 4), keep={0})
        assert np.allclose(pt, np.trace(sigma) * rho, atol=1e-12)

    def test_singlet_marginal_is_maximally_mixed(self):
        proj = projector(singlet_ket())
        # frozen from the brute-force index sum below
        expected = partial_trace_oracle(proj, (2, 2), [0])
        assert np.allclose(expected, I2 / 2, atol=1e-15)
        assert np.allclose(linalg.partial_trace(proj, (2, 2), {0}), I2 / 2, atol=1e-14)

    def test_identity_case(self):
        assert np.allclose(linalg.partial_trace(np.eye(4), (2, 2), {1}), 2 * I2)

    def test_matches_index_oracle(self):
        rng = np.random.default_rng(6)
        for dims in [(2, 2), (2, 3), (2, 2, 2), (3, 2, 2)]:
            m = rng.normal(size=(int(np.prod(dims)),) * 2) + 1j * rng.normal(
                size=(int(np.prod(dims)),) * 2
            )
            for keep in [{0}, {len(dims) - 1}, set(range(len(dims)))]:
                got = linalg.partial_trace(m, dims, keep)
                want = partial_trace_oracle(m, dims, keep)
                assert np.allclose(got, want, atol=1e-13)

    def test_preserves_trace(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(rng, 8)
        pt = linalg.partial_trace(m, (2, 2, 2), {1})
        assert np.isclose(np.trace(pt), np.trace(m), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.partial_trace(np.eye(4), (2, 3), {0})


class TestTranspose:
    def test_pauli_y_flips_sign(self):
        assert np.array_equal(linalg.transpose(pauli(2)), -pauli(2))

    def test_symmetric_matrix_fixed(self):
        assert np.array_equal(linalg.transpose(pauli(1)), pauli(1))

    def test_involution(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.array_equal(linalg.transpose(linalg.transpose(m)), m)

    def test_no_conjugation(self):
        m = np.array([[0, 1j], [0, 0]])
        assert np.array_equal(linalg.transpose(m), np.array([[0, 0], [1j, 0]]))


class TestHermitianEigenvalues:
    def test_identity(self):
        assert np.allclose(linalg.hermitian_eigenvalues(I2), [1, 1])

    def test_sigma_z(self):
        assert np.allclose(linalg.hermitian_eigenvalues(pauli(3)), [-1, 1])

    def test_rank_one_projector(self):
        eigs = linalg.hermitian_eigenvalues(projector(singlet_ket()))
        assert np.allclose(eigs, [0, 0, 0, 1], atol=1e-14)

    def test_ascending_and_sum_equals_trace(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = int(rng.integers(2, 17))
            m = random_hermitian(rng, d)
            eigs = linalg.hermitian_eigenvalues(m)
            assert np.all(np.diff(eigs) >= 0)
            assert abs(eigs.sum() - np.trace(m).real) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


class TestFrobeniusDistance:
    def test_zero_on_equal(self):
        m = pauli(1)
        assert linalg.frobenius_distance(m, m) == 0.0

    def test_identity_to_zero(self):
        assert np.isclose(linalg.frobenius_distance(I2, np.zeros((2, 2))), np.sqrt(2))

    def test_x_to_z(self):
        # entrywise: sqrt(1 + 1 + 1 + 1) = 2
        assert np.isclose(linalg.frobenius_distance(pauli(1), pauli(3)), 2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            linalg.frobenius_distance(I2, np.eye(3))


class TestValidate:
    """Operator predicates, checked where states and measurements are built."""

    def test_maximally_mixed_is_density(self):
        assert DensityMatrix(I2 / 2, (2,)).dim == 2

    def test_sigma_z_not_psd(self):
        with pytest.raises(ValueError, match=r"min eigenvalue -5\.000e-01"):
            DensityMatrix((I2 + 2 * pauli(3)) / 2, (2,))

    def test_werner_half_is_density(self):
        rho = werner_state(0.5)
        assert DensityMatrix(rho.matrix, (2, 2)).dims == (2, 2)
        # spectrum (1+3v)/4, (1-v)/4 x3 at v = 0.5
        eigs = linalg.hermitian_eigenvalues(rho.matrix)
        assert np.allclose(eigs, [0.125, 0.125, 0.125, 0.625], atol=1e-12)

    def test_povm_element_above_identity_fails(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            POVM(2 * I2, (2,))


class TestPermuteSubsystems:
    def test_swap_two_factors(self):
        rng = np.random.default_rng(10)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        swapped = permute_subsystems(linalg.kron(a, b), (2, 3), (1, 0))
        assert np.allclose(swapped, linalg.kron(b, a), atol=1e-14)

    def test_three_factor_cycle(self):
        rng = np.random.default_rng(12)
        mats = [random_hermitian(rng, d) for d in (2, 3, 2)]
        full = linalg.kron(linalg.kron(mats[0], mats[1]), mats[2])
        cycled = permute_subsystems(full, (2, 3, 2), (2, 0, 1))
        assert np.allclose(cycled, linalg.kron(linalg.kron(mats[2], mats[0]), mats[1]), atol=1e-13)

    def test_identity_permutation(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(6, 6))
        assert np.allclose(permute_subsystems(m, (2, 3), (0, 1)), m)

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            permute_subsystems(np.eye(4), (2, 2), (0, 0))


# rule: (one matrix, a stack of matrices or None), each built with dims (3,) and raising on a bad input
RULES = {
    "density": (lambda m: DensityMatrix(m, (3,)), lambda ms: DensityMatrix.stack(ms, (3,))),
    "click": (lambda m: POVM(m, (3,)), lambda ms: _checked_clicks(ms, (3,))[0]),
    "witness": (lambda m: Witness(m, (3,)), None),
    "hermitian_eigenvalues": (linalg.hermitian_eigenvalues, None),
}
# predicate: (3x3 matrix that breaks only it, by t, for every rule listed; keyword; those rules)
EDGES = {
    "hermitian": (lambda t: np.array([[0.5, t, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]]),
                  "not Hermitian", tuple(RULES)),
    "unit_trace": (lambda t: np.diag([0.5 + t, 0.5, 0.0]), "trace", ("density",)),
    "eigenvalue_below_0": (lambda t: np.diag([0.5 + t, 0.5, -t]), "positive semidefinite", ("density", "click")),
    "eigenvalue_above_1": (lambda t: np.diag([1.0 + t, 0.0, 0.0]), "positive semidefinite", ("click",)),
}
VALID_STACK = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])]
EDGE_CASES = [(rule, edge) for edge, (_, _, rules) in EDGES.items() for rule in rules]


def _rejected_alike(rule, m, keyword):
    """``m`` fails ``rule`` with ``keyword``, alone and as the last matrix of a stack, with one message."""
    single, stacked = RULES[rule]
    with pytest.raises(ValueError, match=keyword) as one:
        single(m)
    if stacked is not None:
        with pytest.raises(ValueError, match=keyword) as many:
            stacked(VALID_STACK + [m])
        assert str(many.value) == str(one.value)


class TestOperatorRules:
    """Each constructor applies linalg.check_operators with its rule; a stack fails like its worst matrix."""

    @pytest.mark.parametrize("t, accepted", [(0.5e-10, True), (2e-10, False)])
    @pytest.mark.parametrize("rule, edge", EDGE_CASES, ids=[f"{r}-{e}" for r, e in EDGE_CASES])
    def test_graded_boundary(self, rule, edge, t, accepted):
        # t = 0.5e-10 and 2e-10 sit on either side of TOL_HERM = TOL_TRACE = TOL_PSD = 1e-10
        build, keyword, _ = EDGES[edge]
        single, stacked = RULES[rule]
        if accepted:
            single(build(t))
            if stacked is not None:
                assert len(stacked(VALID_STACK + [build(t)])) == 3
        else:
            _rejected_alike(rule, build(t), keyword)

    @pytest.mark.parametrize("rule", list(RULES))
    def test_non_finite_rejected(self, rule):
        _rejected_alike(rule, np.diag([np.nan, 0.5, 0.5]), "NaN or Inf")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(1, 5), st.sampled_from([0.99, 0.999, 1.001, 1.01]),
           st.integers(0, 2**32 - 1))
    def test_density_rule_decides_like_its_eigenvalues(self, d, n, depth, seed):
        # complex Hermitian stacks, rotated off the diagonal, whose last matrix has lowest eigenvalue
        # -depth TOL_PSD, the others eigenvalues in [0, 1]; the factorization accepts what eigvalsh accepts,
        # rejects with its message and reads eigenvalues only where it fails. The two rules part only within
        # rounding (about d eps) of the edge, far inside the 1e-13 margin of depths 0.999 and 1.001
        rng = np.random.default_rng(seed)
        eigs = rng.random((n, d)) * (rng.random((n, d)) < 0.7)
        eigs[-1, 0] = -depth * linalg.TOL_PSD
        u = np.linalg.qr(rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d)))[0]
        ms = (u * eigs[:, None, :]) @ u.conj().swapaxes(1, 2)
        ms = (ms + ms.conj().swapaxes(1, 2)) / 2
        try:
            linalg._check_spectrum(np.linalg.eigvalsh(ms), (0.0, math.inf))
        except ValueError as exc:
            expected = str(exc)
        else:
            expected = None
        assert (expected is None) == (depth < 1.0)
        calls, eigvalsh = [], np.linalg.eigvalsh
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", lambda a, *rest: calls.append(a.shape) or eigvalsh(a, *rest))
            if expected is None:
                assert linalg.check_operators(ms, (d,), spectrum=(0.0, math.inf)) == (d,)
            else:
                with pytest.raises(ValueError) as exc:
                    linalg.check_operators(ms, (d,), spectrum=(0.0, math.inf))
                assert str(exc.value) == expected
        assert calls == ([] if expected is None else [ms.shape])


def _with_entry(i, j, value, n=2):
    """A valid n x n density matrix stack of one, with entry (i, j) set to ``value``."""
    m = np.eye(n, dtype=complex) / n
    m[i, j] = value
    return m[None]


NON_FINITE = "matrix has NaN or Inf entries"
# case: (stack, dims, the exact message check_operators raises, or None when it accepts)
MESSAGES = {
    "nan_diagonal": (_with_entry(0, 0, np.nan), (2,), NON_FINITE),
    "nan_off_diagonal": (_with_entry(0, 1, np.nan), (2,), NON_FINITE),
    "inf_diagonal": (_with_entry(1, 1, np.inf), (2,), NON_FINITE),
    "minus_inf_diagonal": (_with_entry(1, 1, -np.inf), (2,), NON_FINITE),
    "inf_off_diagonal": (_with_entry(1, 0, np.inf), (2,), NON_FINITE),
    "minus_inf_off_diagonal": (_with_entry(0, 1, -np.inf), (2,), NON_FINITE),
    "symmetric_infs": (np.array([[[0.5, np.inf], [np.inf, 0.5]]], dtype=complex), (2,), NON_FINITE),
    "complex_infinity": (_with_entry(0, 1, complex(np.inf, np.inf)), (2,), NON_FINITE),
    "imaginary_infinity_diagonal": (_with_entry(0, 0, complex(0.0, np.inf)), (2,), NON_FINITE),
    "nan_in_last_of_stack": (np.concatenate([_with_entry(0, 0, 0.5)] * 3 + [_with_entry(1, 0, np.nan)]),
                             (2,), NON_FINITE),
    "nan_and_bad_dims": (_with_entry(0, 0, np.nan), (3,), NON_FINITE),
    "nan_and_non_hermitian": (_with_entry(0, 0, np.nan) + _with_entry(0, 1, 1.0), (2,), NON_FINITE),
    # finite entries whose Hermitian defect overflows to inf: not a non-finite entry
    "defect_overflows": (np.array([[[0.0, 1e308], [-1e308, 0.0]]], dtype=complex), (2,),
                         "not Hermitian (defect inf)"),
    "empty_stack": (np.zeros((0, 2, 2), dtype=complex), (2,), None),
    "empty_stack_bad_dims": (np.zeros((0, 2, 2), dtype=complex), (3,), "dims (3,) do not multiply to matrix size 2"),
    "bad_dims": (_with_entry(0, 0, 0.5), (2, 2), "dims (2, 2) do not multiply to matrix size 2"),
}
# rule: check_operators keywords
KEYWORDS = {"bare": {}, "density": {"spectrum": (0.0, math.inf), "unit_trace": True}, "click": {"spectrum": (0.0, 1.0)}}


@pytest.mark.parametrize("rule", list(KEYWORDS))
@pytest.mark.parametrize("case", list(MESSAGES))
def test_check_operators_message_table(case, rule):
    # the message, and the order in which the predicates are decided, for each rule
    ms, dims, message = MESSAGES[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if message is None:
            assert linalg.check_operators(ms, dims, **KEYWORDS[rule]) == dims
        else:
            with pytest.raises(ValueError) as exc:
                linalg.check_operators(ms, dims, **KEYWORDS[rule])
            assert str(exc.value) == message
    # numpy reports the overflow of m - m^dagger, and nothing else warns
    overflow = ["overflow encountered in subtract"] if case == "defect_overflows" else []
    assert [str(w.message) for w in caught] == overflow


# name: a strategy sampled or searched through the public API
STRATEGIES = {
    "random_separable_strategy": lambda: random_separable_strategy((2, 2), 2, 3, np.random.default_rng(3)),
    "random_biseparable_strategy": lambda: random_biseparable_strategy((2, 2, 2), 2, 3, np.random.default_rng(3)),
    "attack_best_strategy": lambda: attack(
        tetrahedron_beta(), tetrahedron_beta().ensembles,
        AttackConfig(restarts=2, iterations=3, mixture_size=2, share_dim=2)).best_strategy,
    "biseparable_attack_best_strategy": lambda: biseparable_attack(
        ghz_beta(), ghz_beta().ensembles,
        AttackConfig(restarts=2, iterations=3, mixture_size=2, share_dim=2)).best_strategy,
}


@pytest.mark.parametrize("name", list(STRATEGIES))
def test_strategies_hold_read_only_shares_and_clicks(name):
    strategy = STRATEGIES[name]()
    if hasattr(strategy, "share_states"):
        shares = [rho.matrix for term in strategy.share_states for rho in term]
    else:
        shares = [m for t in strategy.terms for m in (t.group_state.matrix, t.singleton_state.matrix)]
    for m in shares + [p.click for p in strategy.measurements]:
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 9.0


VALIDITY_TOLERANCES = {"TOL_HERM", "TOL_PSD", "TOL_TRACE"}


def _tolerance_uses(source: str, imports_allowed: bool = False, names=VALIDITY_TOLERANCES) -> list[int]:
    """Lines whose code (not strings) names one of ``names``; with ``imports_allowed``, imports don't count."""
    named = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.alias) and not imports_allowed:
            name = node.name
        if name in names:
            named.append(node.lineno)
    return sorted(named)


class TestOneValidityRule:
    """Only linalg.check_operators decides validity: no other module uses its tolerances.

    Likewise only ``Decomposition.exact`` decides exactness: only witness.py names ``TOL_RECON``.
    """

    def test_no_other_module_names_the_tolerances(self):
        uses = {}
        for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
            if path.name != "linalg.py":
                names = VALIDITY_TOLERANCES | ({"TOL_RECON"} if path.name != "witness.py" else set())
                lines = _tolerance_uses(path.read_text(), path.name == "__init__.py", names)
                if lines:
                    uses[path.name] = lines
        assert uses == {}

    @pytest.mark.parametrize("source, lines", [
        ("if defect > TOL_HERM:\n    pass\n", [1]),
        ("x = 1\nok = eig >= -linalg.TOL_PSD\n", [2]),
        ("from .linalg import TOL_TRACE, as_matrix\n", [1]),
        ('"""Hermitian within ``TOL_HERM``."""\nfrom .linalg import TOL_RECON\n', []),
    ], ids=["compare", "attribute", "import", "docstring_and_other_tolerance"])
    def test_scan_sees_each_use(self, source, lines):
        assert _tolerance_uses(source) == lines

    def test_allowed_imports_still_flag_other_uses(self):
        source = "from .linalg import TOL_HERM, TOL_PSD\n"
        assert _tolerance_uses(source, imports_allowed=True) == []
        assert _tolerance_uses(source + "bad = TOL_PSD < 0\n", imports_allowed=True) == [2]


class TestInvariantSuite:
    """The randomized identities the package relies on everywhere."""

    def test_kron_associativity(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            a, b, c = (random_hermitian(rng, int(rng.integers(2, 4))) for _ in range(3))
            left = linalg.kron(linalg.kron(a, b), c)
            right = linalg.kron(a, linalg.kron(b, c))
            assert np.abs(left - right).max() < 1e-12

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            a = random_hermitian(rng, int(rng.integers(2, 5)))
            b = random_hermitian(rng, int(rng.integers(2, 5)))
            assert abs(np.trace(linalg.kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12

    def test_partial_trace_of_product(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            da, db = rng.integers(2, 5, size=2)
            a, b = random_hermitian(rng, da), random_hermitian(rng, db)
            pt = linalg.partial_trace(linalg.kron(a, b), (da, db), {0})
            assert np.abs(pt - np.trace(b) * a).max() < 1e-12

    def test_transpose_preserves_hermitian_spectrum(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            m = random_hermitian(rng, int(rng.integers(2, 9)))
            ev = linalg.hermitian_eigenvalues(m)
            ev_t = linalg.hermitian_eigenvalues(linalg.transpose(m))
            assert np.abs(ev - ev_t).max() < 1e-10


def _plus(kernel, entry, eps):
    """``kernel`` with ``eps`` added to one entry of its result."""

    def broken(*args, **kwargs):
        out = np.array(kernel(*args, **kwargs))
        out[entry] += eps
        return out

    return broken


class TestInvariantsCriterion:
    """The linalg_invariants criterion fails on a broken kernel, on the identity that kernel feeds."""

    # kernel: entry of its result, a defect about 10x the tolerance of the identity it feeds
    # (any nonzero one for the exact involution), and that identity
    DEFECTS = {
        "kron": ((0, 1), 1e-11, "kron_associativity"),
        "partial_trace": ((0, 0), 1e-11, "partial_trace_factorization"),
        "transpose": ((0, 1), 1e-11, "transpose_involution"),
        "hermitian_eigenvalues": (-1, 1e-9, "eigenvalue_trace_sum"),
    }

    @pytest.mark.parametrize("kernel", list(DEFECTS))
    def test_broken_kernel_fails_its_identity(self, monkeypatch, kernel):
        entry, eps, identity = self.DEFECTS[kernel]
        monkeypatch.setattr(linalg, kernel, _plus(getattr(linalg, kernel), entry, eps))
        verdict = verify.check_linalg_invariants()
        over = [k for k, tol in verify._LINALG_TOLERANCES.items() if not verdict.details[k] <= tol]
        assert not verdict.passed and over == [identity]

    def test_unbroken_kernels_pass(self):
        verdict = verify.check_linalg_invariants()
        assert verdict.passed and list(verdict.details) == list(verify._LINALG_TOLERANCES)

    def test_nan_eigenvalues_fail_their_identities(self, monkeypatch):
        # max(0.0, nan) is 0.0, so a NaN error has to stick in the worst figure
        monkeypatch.setattr(linalg, "hermitian_eigenvalues", lambda m: np.full(len(m), np.nan))
        verdict = verify.check_linalg_invariants()
        nan = [k for k, err in verdict.details.items() if math.isnan(err)]
        assert not verdict.passed and nan == ["transpose_spectrum", "eigenvalue_trace_sum"]
        doc = json.loads(serialize.dumps(verify.verdict_to_dict(verdict)))
        assert doc["passed"] is False and doc["details"]["eigenvalue_trace_sum"] is None
