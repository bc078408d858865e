"""Reference computations and output checks, written with numpy only.

Nothing here imports ``mdiw``: states, witnesses and ensembles are rebuilt
from kets and Bloch vectors, so a check compares the program against an
independent construction rather than against itself.  Every check returns
``(ok, detail)``; :func:`self_test` feeds each one a deliberately corrupted
input and confirms that it fails.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

# Same floor as the package's attack bound; kept separate on purpose.
BOUND_TOL = 1e-9
# Honest-strategy values and table cells against the closed forms.
TOL_VALUE = 1e-12
# A re-scored strategy against the value the program reported for it.
TOL_RESCORE = 1e-10
# Frobenius residual of a coefficient table against its witness.
TOL_RECON = 1e-10

_SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def bloch(n) -> np.ndarray:
    """(1 + n.sigma)/2."""
    return 0.5 * (_SIGMA[0] + n[0] * _SIGMA[1] + n[1] * _SIGMA[2] + n[2] * _SIGMA[3])


TETRAHEDRON_BLOCH = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
) / math.sqrt(3.0)
PAULI6_BLOCH = np.array(
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]], dtype=float
)
# Input states per ensemble name, in the label order the package documents.
ENSEMBLES = {
    "tetrahedron": np.stack([bloch(n) for n in TETRAHEDRON_BLOCH]),
    "pauli6": np.stack([bloch(n) for n in PAULI6_BLOCH]),
}


def _basis_ket(bits: str) -> np.ndarray:
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


SINGLET_KET = (_basis_ket("01") - _basis_ket("10")) / math.sqrt(2.0)
GHZ_KET = (_basis_ket("000") + _basis_ket("111")) / math.sqrt(2.0)


def projector(ket) -> np.ndarray:
    return np.outer(ket, ket.conj())


def singlet_witness() -> np.ndarray:
    return 0.5 * np.eye(4) - projector(SINGLET_KET)


def ghz_witness() -> np.ndarray:
    return 0.5 * np.eye(8) - projector(GHZ_KET)


WITNESSES = {"singlet": singlet_witness, "ghz": ghz_witness}


def werner(v: float) -> np.ndarray:
    return v * projector(SINGLET_KET) + (1.0 - v) * np.eye(4) / 4.0


def noisy_ghz(v: float) -> np.ndarray:
    return v * projector(GHZ_KET) + (1.0 - v) * np.eye(8) / 8.0


FAMILIES = {"werner": werner, "noisy_ghz": noisy_ghz}
# Honest-strategy closed forms and the parameter where they change sign.
CLOSED_FORMS = {
    "werner": (lambda v: (1.0 - 3.0 * v) / 16.0, 1.0 / 3.0),
    "noisy_ghz": (lambda v: (3.0 - 7.0 * v) / 64.0, 3.0 / 7.0),
}


def product_basis(ensembles) -> np.ndarray:
    """ops[s, t, ...] = tau_s^T (x) omega_t^T (x) ..., shaped (*sizes, D, D)."""
    n = len(ensembles)
    rows, cols, labels = "abcdef"[:n], "ABCDEF"[:n], "stuvwx"[:n]
    ins = ",".join(f"{l}{c}{r}" for l, r, c in zip(labels, rows, cols))  # transpose
    ops = np.einsum(f"{ins}->{labels}{rows}{cols}", *ensembles)
    d = math.prod(e.shape[1] for e in ensembles)
    return ops.reshape(tuple(len(e) for e in ensembles) + (d, d))


def reconstruct(beta, ensembles) -> np.ndarray:
    """sum beta[s, t, ...] tau_s^T (x) omega_t^T (x) ..."""
    ops = product_basis(ensembles)
    return np.tensordot(np.asarray(beta, dtype=float), ops, axes=np.ndim(beta))


def honest_table(rho, ensembles, etas=None) -> np.ndarray:
    """p[s, t, ...] = prod(eta) tr[(tau_s^T (x) omega_t^T (x) ...) rho] / prod(d)."""
    ops = product_basis(ensembles)
    d = ops.shape[-1]
    p = np.einsum("...ij,ji->...", ops, rho).real / d
    return p * (math.prod(etas) if etas is not None else 1.0)


def check_reconstruction(beta, ensembles, witness) -> tuple[bool, str]:
    """A coefficient table must rebuild its witness to TOL_RECON."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != tuple(len(e) for e in ensembles):
        return False, f"beta shape {beta.shape} does not match the ensembles"
    residual = float(np.linalg.norm(reconstruct(beta, ensembles) - witness))
    return residual <= TOL_RECON, f"reconstruction residual {residual:.3e}"


def check_decompose_json(text: str, witness_name: str) -> tuple[bool, str]:
    """``mdiw decompose`` output: beta rebuilds the named witness, residual is small."""
    doc = json.loads(text)
    ensembles = [ENSEMBLES[name] for name in doc["ensembles"]]
    ok, detail = check_reconstruction(doc["beta"], ensembles, WITNESSES[witness_name]())
    if ok and not doc["residual"] <= TOL_RECON:
        return False, f"reported residual {doc['residual']} above {TOL_RECON}"
    return ok, detail


def zero_crossing(vs, values) -> float:
    """First sign change of a sampled curve, by linear interpolation."""
    for v0, v1, i0, i1 in zip(vs, vs[1:], values, values[1:]):
        if i0 == 0.0:
            return v0
        if (i0 > 0.0) != (i1 > 0.0):
            return v0 + (v1 - v0) * i0 / (i0 - i1)
    return math.nan


def parse_scan_csv(text: str) -> tuple[list[float], list[float]]:
    rows = list(csv.DictReader(io.StringIO(text)))
    return [float(r["v"]) for r in rows], [float(r["I"]) for r in rows]


def check_closed_form(vs, values, family: str, etas) -> tuple[bool, str]:
    """Honest value at each v equals prod(eta) times the family's closed form."""
    form, _ = CLOSED_FORMS[family]
    scale = math.prod(etas)
    err = max(abs(i - scale * form(v)) for v, i in zip(vs, values))
    return err <= TOL_VALUE, f"max |I - closed form| {err:.3e}"


def check_crossing(vs, values, family: str) -> tuple[bool, str]:
    """The sampled curve changes sign at the family's threshold (1/3 or 3/7)."""
    _, threshold = CLOSED_FORMS[family]
    crossing = zero_crossing(vs, values)
    return abs(crossing - threshold) <= 1e-9, f"sign change at {crossing:.12f}, expected {threshold:.12f}"


def check_scan_csv(text: str, family: str, etas) -> tuple[bool, str]:
    """``mdiw scan`` output: closed form at every v and the sign change at the threshold."""
    vs, values = parse_scan_csv(text)
    ok_form, form_detail = check_closed_form(vs, values, family, etas)
    ok_cross, cross_detail = check_crossing(vs, values, family)
    return ok_form and ok_cross, f"{form_detail}; {cross_detail}"


def check_full_table_csv(text: str, rho, ensemble_names, etas) -> tuple[bool, str]:
    """``mdiw simulate --full`` table: rows sum to 1, all-ones cells equal tr[(...)rho]/prod(d)."""
    rows = list(csv.DictReader(io.StringIO(text)))
    ensembles = [ENSEMBLES[name] for name in ensemble_names]
    expected = honest_table(rho, ensembles, etas)
    n = len(ensembles)
    if len(rows) != expected.size:
        return False, f"{len(rows)} rows for {expected.size} input combinations"
    worst_sum = worst_cell = 0.0
    for row in rows:
        labels = list(row.values())[:n]
        idx = tuple(_label_index(name, label) for name, label in zip(ensemble_names, labels))
        outcome_cols = [k for k in row if k.startswith("p_") and k != "p_all_ones"]
        if len(outcome_cols) != 2 ** n:
            return False, f"{len(outcome_cols)} outcome columns for {n} parties"
        worst_sum = max(worst_sum, abs(sum(float(row[k]) for k in outcome_cols) - 1.0))
        worst_cell = max(worst_cell, abs(float(row["p_all_ones"]) - expected[idx]))
    ok = worst_sum <= TOL_VALUE and worst_cell <= TOL_VALUE
    return ok, f"max |row sum - 1| {worst_sum:.2e}, max cell err {worst_cell:.2e}"


_LABELS = {
    "tetrahedron": ("0", "1", "2", "3"),
    "pauli6": ("+x", "+y", "+z", "-x", "-y", "-z"),
}


def _label_index(ensemble: str, label: str) -> int:
    return _LABELS[ensemble].index(label)


def check_summary_json(text: str, family: str, v: float, witness_name: str, etas) -> tuple[bool, str]:
    """``mdiw simulate`` summary: I and the scaled witness value from kets."""
    doc = json.loads(text)
    rho = FAMILIES[family](v)
    w = WITNESSES[witness_name]()
    scaled = float(np.trace(w @ rho).real) / rho.shape[0]
    form, _ = CLOSED_FORMS[family]
    err_i = abs(doc["I"] - math.prod(etas) * scaled)
    err_form = abs(doc["I"] - math.prod(etas) * form(v))
    err_w = abs(doc["witness_value_scaled"] - scaled)
    ok = max(err_i, err_form, err_w) <= TOL_VALUE
    return ok, f"|I - eta tr[W rho]/D| {err_i:.2e}, |scaled witness err| {err_w:.2e}"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_identical(first: dict, again: dict) -> tuple[bool, str]:
    """Artifacts of a repeated command with the same seed must match byte for byte."""
    changed = sorted(k for k in first if first[k] != again.get(k))
    return not changed, f"changed artifacts: {changed}" if changed else "byte-identical"


# -- unentangled strategies ---------------------------------------------------


def kraus_mapped(element, kraus_ops) -> np.ndarray:
    """Heisenberg picture of a pre-measurement map: sum K^dagger E K."""
    return sum(k.conj().T @ element @ k for k in kraus_ops)


def party_responses(element, taus, shares) -> np.ndarray:
    """r[s, k] = tr[E (tau_s (x) sigma_k)] with E on input (x) share."""
    d = taus.shape[1]
    share = element.shape[0] // d
    e4 = element.reshape(d, share, d, share)
    return np.einsum("iajb,sji,kba->sk", e4, taus, shares).real


def separable_value(beta, ensembles, weights, shares, elements) -> float:
    """Game value of a product-state mixture.

    ``shares[p]`` stacks party p's share state per mixture term and
    ``elements[p]`` is party p's success element on input (x) share.
    """
    n = len(ensembles)
    resp = [party_responses(e, t, s) for e, t, s in zip(elements, ensembles, shares)]
    labels = "stuvwx"[:n]
    spec = ",".join(f"{l}k" for l in labels)
    p = np.einsum(f"{spec},k->{labels}", *resp, np.asarray(weights))
    return float(np.sum(np.asarray(beta) * p))


_PAIR_AXES = {(0, 1): "st", (0, 2): "su", (1, 2): "tu"}
_SINGLE_AXIS = {0: "s", 1: "t", 2: "u"}


def biseparable_value(beta, ensembles, terms, elements) -> float:
    """Game value of a tripartite mixture of (group pair, singleton) terms.

    ``terms`` lists ``(weight, (p, q), group_state, r, singleton_state)``;
    the group state lives on share_p (x) share_q.
    """
    total = np.zeros(tuple(len(e) for e in ensembles))
    for weight, (p, q), group, r, single in terms:
        dp = ensembles[p].shape[1]
        dq = ensembles[q].shape[1]
        sp = elements[p].shape[0] // dp
        sq = elements[q].shape[0] // dq
        ep = elements[p].reshape(dp, sp, dp, sp)
        eq = elements[q].reshape(dq, sq, dq, sq)
        g = group.reshape(sp, sq, sp, sq)
        pair = np.einsum(
            "iajb,IAJB,sji,tJI,bBaA->st", ep, eq, ensembles[p], ensembles[q], g
        ).real
        resp = party_responses(elements[r], ensembles[r], single[None])[:, 0]
        total += weight * np.einsum(
            f"{_PAIR_AXES[(p, q)]},{_SINGLE_AXIS[r]}->stu", pair, resp
        )
    return float(np.sum(np.asarray(beta) * total))


def check_rescore(reference: float, reported: float) -> tuple[bool, str]:
    err = abs(reference - reported)
    return err <= TOL_RESCORE, f"|rescored - reported| {err:.2e}"


def check_bounded(value: float) -> tuple[bool, str]:
    """Unentangled strategies on an exact witness: I >= -BOUND_TOL."""
    return value >= -BOUND_TOL, f"I = {value:.3e}"


def grid_minimum(beta, bloch_a, bloch_b, n_theta: int = 61, n_phi: int = 120) -> float:
    """Brute-force minimum over pure product-projector strategies.

    Each party answers with a rank-1 projector on a Bloch-sphere grid, so
    tr[P tau_s] = (1 + a.n_s)/2; rows are processed in blocks to keep
    memory small.
    """
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    grid = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    ).reshape(-1, 3)
    resp_a = 0.5 * (1.0 + grid @ bloch_a.T)
    resp_b = 0.5 * (1.0 + grid @ bloch_b.T)
    right = np.asarray(beta) @ resp_b.T
    return float(min((resp_a[i : i + 64] @ right).min() for i in range(0, len(grid), 64)))


def check_non_witness(value: float, grid_min: float) -> tuple[bool, str]:
    """Optimizer power: -1 - tol <= I <= -0.2 and I <= 0.95 * grid minimum."""
    ok = -1.0 - BOUND_TOL <= value <= -0.2 and value <= 0.95 * grid_min
    return ok, f"I = {value:.4f}, grid minimum {grid_min:.4f}"


def check_graded(value: float, eps: float) -> tuple[bool, str]:
    """W - eps*1 is reached at exactly -eps; the search must get within 1%."""
    ok = -eps - BOUND_TOL <= value <= -0.99 * eps
    return ok, f"I = {value:.3e}, required [{-eps - BOUND_TOL:.3e}, {-0.99 * eps:.3e}]"


# -- corrupted-input self test ------------------------------------------------


def _corrupt_csv_cell(text: str, column: str, delta: float) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[len(rows) // 2][column] = repr(float(rows[len(rows) // 2][column]) + delta)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _honest_scan_csv(family: str, etas, v0: float = 0.0) -> str:
    """A correct scan artifact built from the closed form (shifted by v0 when corrupting)."""
    form, _ = CLOSED_FORMS[family]
    lines = ["v,I,expected,abs_err"]
    for i in range(21):
        v = i / 20.0
        lines.append(f"{v!r},{math.prod(etas) * form(v - v0)!r},,")
    return "\n".join(lines) + "\n"


def _honest_full_csv(rho, names, etas) -> str:
    ensembles = [ENSEMBLES[n] for n in names]
    p = honest_table(rho, ensembles, etas)
    n = len(names)
    bits = [format(b, f"0{n}b") for b in range(2 ** n)]
    lines = [",".join(["A", "B", "C"][:n] + ["p_all_ones"] + [f"p_{b}" for b in bits])]
    for idx in np.ndindex(p.shape):
        labels = [_LABELS[name][i] for name, i in zip(names, idx)]
        cell = float(p[idx])
        rest = [repr(cell)] + [repr(cell if b == "1" * n else (1.0 - cell) / (2**n - 1)) for b in bits]
        lines.append(",".join(labels + rest))
    return "\n".join(lines) + "\n"


def self_test() -> list[str]:
    """Run every check on a genuine and on a corrupted input.

    Returns the names of checks that misjudged either one; an empty list
    means each check accepts correct output and rejects the corruption.
    """
    tet = ENSEMBLES["tetrahedron"]
    beta = np.full((4, 4), -1.0 / 8.0)
    np.fill_diagonal(beta, 5.0 / 8.0)
    bad_beta = beta.copy()
    bad_beta[0, 1] += 1e-6
    etas = (0.9, 0.8, 0.95)
    rho = noisy_ghz(0.6)
    full = _honest_full_csv(rho, ["tetrahedron"] * 3, etas)
    dec_doc = {"ensembles": ["tetrahedron"] * 2, "beta": beta.tolist(), "residual": 0.0}
    bad_doc = dict(dec_doc, beta=bad_beta.tolist())
    summary = {
        "I": math.prod(etas) * (3.0 - 7.0 * 0.6) / 64.0,
        "witness_value_scaled": (3.0 - 7.0 * 0.6) / 64.0,
    }
    rng = np.random.default_rng(0)
    elements = []
    for _ in range(2):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        e = g.conj().T @ g
        elements.append(e / (np.linalg.eigvalsh(e)[-1] * 1.5))
    shares = [np.stack([projector(v / np.linalg.norm(v)) for v in rng.normal(size=(3, 2))]) for _ in range(2)]
    weights = np.array([0.5, 0.3, 0.2])
    value = separable_value(beta, [tet, tet], weights, shares, elements)
    cases = {
        "reconstruction": (
            check_reconstruction(beta, [tet, tet], singlet_witness()),
            check_reconstruction(bad_beta, [tet, tet], singlet_witness()),
        ),
        "decompose_json": (
            check_decompose_json(json.dumps(dec_doc), "singlet"),
            check_decompose_json(json.dumps(bad_doc), "singlet"),
        ),
        "scan_closed_form": (
            check_scan_csv(_honest_scan_csv("werner", (1.0, 1.0)), "werner", (1.0, 1.0)),
            check_scan_csv(
                _corrupt_csv_cell(_honest_scan_csv("werner", (1.0, 1.0)), "I", 1e-9),
                "werner",
                (1.0, 1.0),
            ),
        ),
        "scan_crossing": (
            check_crossing(*parse_scan_csv(_honest_scan_csv("noisy_ghz", etas)), "noisy_ghz"),
            check_crossing(*parse_scan_csv(_honest_scan_csv("noisy_ghz", etas, v0=0.01)), "noisy_ghz"),
        ),
        "full_row_sums": (
            check_full_table_csv(full, rho, ["tetrahedron"] * 3, etas),
            check_full_table_csv(_corrupt_csv_cell(full, "p_010", 1e-9), rho, ["tetrahedron"] * 3, etas),
        ),
        "full_all_ones_cells": (
            check_full_table_csv(full, rho, ["tetrahedron"] * 3, etas),
            check_full_table_csv(full, noisy_ghz(0.61), ["tetrahedron"] * 3, etas),
        ),
        "summary_json": (
            check_summary_json(json.dumps(summary), "noisy_ghz", 0.6, "ghz", etas),
            check_summary_json(json.dumps(dict(summary, I=summary["I"] + 1e-9)), "noisy_ghz", 0.6, "ghz", etas),
        ),
        "byte_identical": (
            check_identical({"a": sha256(b"x,1\n")}, {"a": sha256(b"x,1\n")}),
            check_identical({"a": sha256(b"x,1\n")}, {"a": sha256(b"x,2\n")}),
        ),
        "rescore": (
            check_rescore(separable_value(beta, [tet, tet], weights, shares, elements), value),
            check_rescore(separable_value(beta, [tet, tet], weights[::-1], shares, elements), value),
        ),
        "bounded": (check_bounded(-0.5e-9), check_bounded(-2e-9)),
        "non_witness": (check_non_witness(-0.6, -0.5), check_non_witness(-0.3, -0.5)),
        "graded": (check_graded(-1e-2, 1e-2), check_graded(-0.28e-2, 1e-2)),
    }
    return [name for name, ((ok, _), (bad_ok, _)) in cases.items() if not ok or bad_ok]
