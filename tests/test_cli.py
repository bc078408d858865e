import argparse
import contextlib
import errno
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mdiw import cli, serialize, states, witness
from mdiw.cli import ConfigError, ScenarioConfig, main
from mdiw.linalg import TOL_HERM, TOL_PSD, TOL_RECON, TOL_TRACE
from mdiw.states import (InputEnsemble, noisy_ghz, pauli6_ensemble, projector, singlet_ket,
                         tetrahedron_ensemble, werner_state)
from mdiw.witness import Decomposition, Witness, reconstruct, tetrahedron_beta
from mdiw.game import CorrelationTable, table_to_csv
from oracles import pointwise_scan, render_json, scan_csv, table_csv


BASE_CONFIG = {
    "parties": 2,
    "witness": "singlet",
    "ensembles": ["tetrahedron", "tetrahedron"],
    "state": {"family": "werner", "v": 1.0},
    "decomposition": "paper",
    "loss": [1.0, 1.0],
    "seed": 7,
    "attack": {"restarts": 4, "iterations": 60, "mixture_size": 2, "share_dim": 2},
}


# name: (BASE_CONFIG overrides, the message of the one error line).  Wrong JSON types up
# to biseparable_two_parties: each used to crash with a traceback (exit 1, the code for a
# failed bound) or to be coerced silently.
MALFORMED = {
    "parties_string": ({"parties": "x"}, "parties must be the integer 2 or 3, got 'x'"),
    "parties_float": ({"parties": 2.5}, "parties must be the integer 2 or 3, got 2.5"),
    "v_string": ({"state": {"family": "werner", "v": "abc"}},
                 "family parameter v must be a number in [0, 1], got 'abc'"),
    "ensembles_number": ({"ensembles": 5}, "ensembles must be a JSON array, got 5"),
    "loss_strings": ({"loss": ["a", "b"]}, "loss efficiencies must be numbers in (0, 1], got ['a', 'b']"),
    "state_list": ({"state": [1]}, "state must be a JSON object, got [1]"),
    "ensemble_state_not_pairs": (
        {"ensembles": [{"labels": ["0"], "states": [[[1, 0]]]}, "tetrahedron"]},
        "bad ensemble spec for party A: matrix row 0 must hold [re, im] pairs of numbers, got [1, 0]"),
    "seed_float": ({"seed": 1.7}, "seed must be a nonnegative integer, got 1.7"),
    "restarts_string": ({"attack": {"restarts": "many"}}, "bad attack config: restarts must be int, got 'many'"),
    "loss_bool": ({"loss": [True, 1.0]}, "loss efficiencies must be numbers in (0, 1], got [True, 1.0]"),
    "loss_empty": ({"loss": []}, "one loss efficiency per party required"),
    "v_bool": ({"state": {"family": "werner", "v": True}}, "family parameter v must be a number in [0, 1], got True"),
    "v_numeric_string": ({"state": {"family": "werner", "v": "0.5"}},
                         "family parameter v must be a number in [0, 1], got '0.5'"),
    # `attack` crashed with a ValueError traceback on a 2-party config
    "biseparable_two_parties": ({"attack": {"kind": "biseparable"}}, "attack kind 'biseparable' needs 3 parties, got 2"),
    "state_neither_family_nor_matrix": ({"state": {"v": 0.5}}, "state must give a 'family' or an explicit 'matrix'"),
    "witness_number": ({"witness": 5}, "witness must be a name or an explicit matrix object"),
    "state_dims_string": ({"state": {"matrix": serialize.matrix_to_json(np.eye(4) / 4), "dims": "2x2"}},
                          "state dims must be a JSON array of integers, got '2x2'"),
    "state_matrix_empty": ({"state": {"matrix": [], "dims": [2, 2]}},
                           "bad state spec: matrix JSON must be a nested list of [re, im] pairs"),
    "attack_expectation": ({"attack": {"expectation": "maybe"}}, "attack expectation must be 'bounded' or 'violable'"),
    "ensemble_spec_number": ({"ensembles": [5, "tetrahedron"]}, "ensemble spec must be a name or object, got int"),
    "ensemble_name_number": ({"ensembles": [{"name": 5, "labels": ["0"], "states": [[[[1, 0]]]]}, "tetrahedron"]},
                             "ensemble name for party A must be a string"),
}


# every command that reads a config, as its argv words: a config one rejects with exit 2, all reject
CONFIG_COMMANDS = ["decompose", "simulate", "simulate --full", "scan", "attack"]


def write_config(tmp_path, overrides=None, name="cfg.json"):
    data = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        data[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestScenarioConfig:
    def test_defaults_fill_in(self):
        cfg = ScenarioConfig.from_dict(
            {
                "parties": 2,
                "witness": "singlet",
                "ensembles": ["tetrahedron", "tetrahedron"],
                "state": {"family": "werner", "v": 0.5},
            }
        )
        assert cfg.loss == (1.0, 1.0)
        assert cfg.attack["kind"] == "separable"
        assert cfg.decomposition == "paper"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"parties": 4},
            {"ensembles": ["tetrahedron"]},
            {"state": {"family": "werner", "v": 1.5}},
            {"state": {"family": "unknown", "v": 0.5}},
            {"loss": [1.0, 0.0]},
            {"decomposition": "guess"},
            {"seed": -3},
            {"attack": {"kind": "quantum"}},
            {"extra_key": 1},
            {"attack": {"step_init": 0.3}},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        data = json.loads(json.dumps(BASE_CONFIG))
        data.update(overrides)
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(data)

    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_malformed_config_exits_2(self, tmp_path, capsys, name):
        overrides, message = MALFORMED[name]
        cfg = write_config(tmp_path, overrides)
        assert main(["simulate", "-c", cfg, "-o", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_biseparable_attack_on_two_parties_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MALFORMED["biseparable_two_parties"][0])
        assert main(["attack", "-c", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "3 parties" in err

    @pytest.mark.parametrize("label", ["a,b", 'a"b', "a\nb", "a\rb"])
    def test_label_that_breaks_csv_exits_2(self, tmp_path, capsys, label):
        # the label went into the CSV unquoted: 4 fields per row under a 3-column header
        states = [serialize.matrix_to_json(s.matrix) for s in tetrahedron_ensemble().states]
        custom = {"labels": ["0", "1", "2", label], "states": states}
        overrides = {"ensembles": [custom, "tetrahedron"], "decomposition": "solve"}
        cfg = write_config(tmp_path, overrides)
        assert main(["simulate", "-c", cfg, "-o", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "input labels" in err
        assert not (tmp_path / "t.csv").exists()

    def test_unresolvable_tabulated_combination(self):
        cfg = ScenarioConfig.from_dict(
            {
                "parties": 2,
                "witness": "singlet",
                "ensembles": ["tetrahedron", "pauli6"],
                "state": {"family": "werner", "v": 0.5},
            }
        )
        with pytest.raises(ConfigError, match="tabulated"):
            cfg.resolve()

    def test_witness_ensemble_dims_cross_checked(self):
        cfg = ScenarioConfig.from_dict(
            {
                "parties": 3,
                "witness": "singlet",
                "ensembles": ["tetrahedron"] * 3,
                "state": {"family": "noisy_ghz", "v": 0.5},
            }
        )
        with pytest.raises(ConfigError, match="dims"):
            cfg.resolve()


def custom_ensemble(ensemble_states, name="tetrahedron"):
    """A config ensemble spec that holds the given states under ``name``."""
    return {"labels": [str(i) for i in range(len(ensemble_states))],
            "states": [serialize.matrix_to_json(s.matrix) for s in ensemble_states], "name": name}


class TestCustomEnsembleNames:
    """A tabulated table is attached to the ensembles the config gives, whatever their names."""

    def test_other_states_under_builtin_name_are_inexact(self, tmp_path, capsys):
        # +x, +y, +z, -x under the tetrahedron's name used to get the built-in tetrahedron
        spec = custom_ensemble(pauli6_ensemble().states[:4])
        cfg = write_config(tmp_path, {"ensembles": [spec, spec]})
        assert main(["decompose", "-c", cfg]) == 1
        assert json.loads(capsys.readouterr().out)["residual"] > 0.4
        assert main(["simulate", "-c", cfg, "-o", str(tmp_path / "t.csv")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["expected"] is None
        given = InputEnsemble("A", tuple("0123"), pauli6_ensemble().states[:4], name="tetrahedron")
        dec = Decomposition(tetrahedron_beta().beta, (given, given), 0.0)
        rho = werner_state(1.0).matrix
        assert summary["I"] == pytest.approx(np.trace(reconstruct(dec) @ rho).real / 4, abs=1e-12)
        assert summary["I"] != pytest.approx(-0.125, abs=1e-3)

    def test_builtin_states_under_builtin_name_match_named_config(self, tmp_path):
        spec = custom_ensemble(tetrahedron_ensemble().states)
        named = write_config(tmp_path, name="named.json")
        custom = write_config(tmp_path, {"ensembles": [spec, spec]}, name="custom.json")
        assert main(["decompose", "-c", named, "-o", str(tmp_path / "named.out")]) == 0
        assert main(["decompose", "-c", custom, "-o", str(tmp_path / "custom.out")]) == 0
        assert (tmp_path / "named.out").read_bytes() == (tmp_path / "custom.out").read_bytes()

    def test_shared_builtins_do_not_leak_between_configs(self, tmp_path):
        # the README config, then custom +x, +y, +z, -x under the tetrahedron's name, then the README again
        readme = write_config(tmp_path, name="readme.json")
        spec = custom_ensemble(pauli6_ensemble().states[:4])
        custom = write_config(tmp_path, {"ensembles": [spec, spec]}, name="custom.json")
        outs = [tmp_path / f"dec{i}.json" for i in range(3)]
        codes = [main(["decompose", "-c", cfg, "-o", str(out)]) for cfg, out in zip((readme, custom, readme), outs)]
        assert codes == [0, 1, 0]
        assert json.loads(outs[1].read_text())["residual"] == pytest.approx(0.4507, abs=5e-5)
        assert outs[2].read_bytes() == outs[0].read_bytes()

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_size_that_does_not_fit_table_exits_2(self, tmp_path, capsys, command):
        spec = custom_ensemble(pauli6_ensemble().states)
        cfg = write_config(tmp_path, {"ensembles": [spec, "tetrahedron"]})
        assert main([*command.split(), "-c", cfg, "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "(6, 4)" in err


# States that cannot be resolved for the README config's ensembles
UNRESOLVABLE_STATES = {
    "wrong_factors": {"matrix": serialize.matrix_to_json(np.eye(4) / 4), "dims": [4]},
    "not_psd": {"matrix": serialize.matrix_to_json(np.diag([0.75, 0.5, 0.0, -0.25])), "dims": [2, 2]},
}


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
@pytest.mark.parametrize("state", sorted(UNRESOLVABLE_STATES))
def test_unresolvable_state_exits_2_on_every_command(tmp_path, capsys, command, state):
    # decompose and attack never resolved the state and exited 0
    cfg = write_config(tmp_path, {"state": UNRESOLVABLE_STATES[state]})
    assert main([*command.split(), "-c", cfg, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "state" in err


# A zero [re, im] entry written in malformed forms: the one-element pair
# crashed with an IndexError traceback (exit 1), the others were read as 0.
BAD_PAIRS = {"one_element": [0.0], "three_element": [0.0, 0.0, 3], "string": "00", "bool": [False, 0]}


def _with_pair(m, pair):
    """JSON of matrix ``m`` with its first zero entry written as ``pair``."""
    doc = serialize.matrix_to_json(m)
    i, j = np.argwhere(m == 0)[0]
    doc[i][j] = pair
    return doc


def _pair_overrides(spec, pair):
    """BASE_CONFIG overrides that give the witness, the state or an ensemble state with ``pair``."""
    if spec == "witness":
        return {"witness": {"matrix": _with_pair(0.5 * np.eye(4) - projector(singlet_ket()), pair)},
                "decomposition": "solve"}
    if spec == "state":
        return {"state": {"matrix": _with_pair(np.eye(4) / 4, pair), "dims": [2, 2]}}
    states = pauli6_ensemble().states
    ensemble = custom_ensemble(states, name="pauli6")
    ensemble["states"][2] = _with_pair(states[2].matrix, pair)  # +z
    return {"ensembles": [ensemble, "pauli6"]}


@pytest.mark.parametrize("pair", list(BAD_PAIRS.values()), ids=list(BAD_PAIRS))
@pytest.mark.parametrize("spec", ["witness", "state", "ensemble"])
def test_malformed_pair_exits_2(tmp_path, capsys, spec, pair):
    good = write_config(tmp_path, _pair_overrides(spec, [0.0, 0.0]), name="good.json")
    assert main(["decompose", "-c", good, "-o", str(tmp_path / "out")]) == 0
    cfg = write_config(tmp_path, _pair_overrides(spec, pair))
    assert main(["decompose", "-c", cfg, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "row 0" in err


class TestDecomposeCommand:
    def test_tabulated_singlet(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["decompose", "-c", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ensembles"] == ["tetrahedron", "tetrahedron"]
        assert doc["residual"] < 1e-10
        assert doc["beta"][0][0] == pytest.approx(0.625)

    def test_solved_pauli6(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"ensembles": ["pauli6", "pauli6"], "decomposition": "solve"},
        )
        assert main(["decompose", "-c", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["residual"] < 1e-10

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"ensembles": ["tetrahedron"]})
        assert main(["decompose", "-c", cfg]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["decompose", "-c", "/nonexistent.json"]) == 2

    def test_output_file(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "dec.json"
        assert main(["decompose", "-c", cfg, "-o", str(out)]) == 0
        assert json.loads(out.read_text())["residual"] < 1e-10


LONE_SURROGATE_ENSEMBLE = dict(custom_ensemble(tetrahedron_ensemble().states), labels=["\ud800", "1", "2", "3"])


# every dimension 1: an explicit 1 x 1 witness and state, and one 1 x 1 input state per party
ONE = serialize.matrix_to_json(np.eye(1))
DIMENSION_ONE_CONFIG = dict(BASE_CONFIG, witness={"matrix": ONE, "dims": [1, 1]},
                            ensembles=[{"labels": ["0"], "states": [ONE]}] * 2,
                            state={"matrix": ONE, "dims": [1, 1]}, decomposition="solve")


def test_dimension_one_config_simulates_with_and_without_full(tmp_path):
    # --full exited 2: its Bell projection took local dimensions >= 2 only; at d = 1 every party clicks
    cfg = write_config(tmp_path, DIMENSION_ONE_CONFIG)
    tables, summaries = [], []
    for i, full in enumerate([[], ["--full"]]):
        table, summary = tmp_path / f"t{i}.csv", tmp_path / f"s{i}.json"
        assert main(["simulate", "-c", cfg, *full, "-o", str(table), "--summary", str(summary)]) == 0
        tables.append([line.split(",")[2] for line in table.read_text().splitlines()])
        summaries.append(json.loads(summary.read_text()))
    assert tables[0] == tables[1] == ["p_all_ones", "1"]
    assert summaries[0]["I"] == summaries[1]["I"] == 1.0


# an explicit 3-qubit witness 1 + 0.4e-10 i J (J all ones): its anti-Hermitian part passes TOL_HERM = 1e-10
SKEW_WITNESS_CONFIG = dict(
    BASE_CONFIG, parties=3, ensembles=["tetrahedron"] * 3, loss=[1.0] * 3, decomposition="solve",
    witness={"matrix": serialize.matrix_to_json(np.eye(8) + 0.4e-10j * np.ones((8, 8))), "dims": [2, 2, 2]},
    state={"matrix": serialize.matrix_to_json(np.ones((8, 8)) / 8), "dims": [2, 2, 2]})


def test_skew_witness_config_decomposes_and_simulates(tmp_path, capsys):
    # decompose exited 1 (its residual was that anti-Hermitian part, 3.2e-10) and simulate
    # ended in "trace has imaginary residue 3.200e-10": the witness is stored as its Hermitian part
    cfg = write_config(tmp_path, SKEW_WITNESS_CONFIG)
    assert main(["decompose", "-c", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["residual"] <= TOL_RECON
    summary = tmp_path / "s.json"
    assert main(["simulate", "-c", cfg, "-o", str(tmp_path / "t.csv"), "--summary", str(summary)]) == 0
    doc = json.loads(summary.read_text())
    assert doc["witness_value_scaled"] == 0.125
    assert doc["I"] == pytest.approx(doc["witness_value_scaled"], abs=1e-12)


# rho = J/8 + 0.4e-10 i 1 passes the state check (anti-Hermitian part 0.8e-10 per diagonal entry)
SKEW_STATE_CONFIG = dict(
    BASE_CONFIG, parties=3, witness="ghz", ensembles=["tetrahedron"] * 3, loss=[1.0] * 3,
    state={"matrix": serialize.matrix_to_json(np.ones((8, 8)) / 8 + 0.4e-10j * np.eye(8)), "dims": [2, 2, 2]})


@pytest.mark.parametrize("full", [False, True], ids=["table", "full"])
def test_skew_state_config_simulates(tmp_path, full):
    # simulate ended in "trace has imaginary residue 1.200e-10": the residue of a checked state lies
    # within TOL_HERM sum |W_ij|
    cfg = write_config(tmp_path, SKEW_STATE_CONFIG)
    summary = tmp_path / "s.json"
    argv = ["simulate", "-c", cfg, "-o", str(tmp_path / "t.csv"), "--summary", str(summary)] + ["--full"] * full
    assert main(argv) == 0
    doc = json.loads(summary.read_text())
    assert doc["I"] == pytest.approx(doc["witness_value_scaled"], abs=1e-12)


# rho = diag(-0.99e-10, 0, 0, 1 + 1.98e-10) passes the state check (trace 1 + 0.99e-10, lowest eigenvalue
# -0.99e-10), but its full distribution leaves [0, 1] by 1.7e-10 at (+z, +z)
EDGE_STATE_CONFIG = dict(
    BASE_CONFIG, ensembles=["pauli6"] * 2, decomposition="solve",
    state={"matrix": serialize.matrix_to_json(np.diag([-0.99e-10, 0.0, 0.0, 1.0 + 1.98e-10])), "dims": [2, 2]})


def test_edge_state_full_table_is_a_config_error(tmp_path, capsys):
    # simulate --full ended in "ValueError: probability 1.00000000017325 out of range at ('+z', '+z')", exit 1
    cfg = write_config(tmp_path, EDGE_STATE_CONFIG)
    out = ["-o", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json")]
    assert main(["simulate", "-c", cfg] + out) == 0
    capsys.readouterr()
    assert main(["simulate", "-c", cfg, "--full", "-o", str(tmp_path / "full.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: state gives no probability table: probability 1.0000000001")
    assert err.endswith(" out of range at ('+z', '+z')\n") and err.count("\n") == 1
    assert not (tmp_path / "full.csv").exists()


def _edge_matrix(rng, kets, edges):
    """A density matrix on the rows ``kets`` of an orthonormal basis, at 0.99 of the tolerance edges ``(kind,
    trace)``.

    Weight 1 + trace 0.99 TOL_TRACE, trace in (-1, 0, 1), lies on ``kets[0]``.  Kind "psd" puts the
    eigenvalue -0.99 TOL_PSD on ``kets[-1]`` and grows the weight on ``kets[0]`` by as much; kind "herm"
    adds an anti-Hermitian part, diagonal included, whose largest entry of |m - m^dagger| is 0.99 TOL_HERM.
    """
    kind, trace = edges
    low = 0.99 * TOL_PSD if kind == "psd" and len(kets) > 1 else 0.0
    m = (1.0 + trace * 0.99 * TOL_TRACE + low) * np.outer(kets[0], kets[0].conj())
    m -= low * np.outer(kets[-1], kets[-1].conj())
    if kind == "herm":
        x = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
        k = x - x.conj().T
        m = m + k * (0.99 * TOL_HERM / np.abs(k - k.conj().T).max())
    return m


def _kets(rng, d, last=None):
    """A random orthonormal basis of C^d as rows, its last along the unit ket ``last`` where given."""
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if last is not None:
        x[:, 0] = last
    return np.roll(np.linalg.qr(x)[0].T, -1, axis=0)


@st.composite
def edge_configs(draw, parties=(2, 3)):
    """A simulate config of ``parties`` parties whose custom input states, of dims 1-3, and explicit state each
    sit at 0.99 of the trace edge (either side) and of the PSD or the Hermitian edge.  The state's negative
    eigenvector is the conjugate product of one input state per party, so that input tuple's table entry
    reads the negative eigenvalue."""
    edges = st.tuples(st.sampled_from([None, "psd", "herm"]), st.sampled_from([-1, 0, 1]))
    dims = draw(st.lists(st.integers(1, 3), min_size=min(parties), max_size=max(parties)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ensembles, aligned = [], np.ones(1)
    for d in dims:
        bases = [_kets(rng, d) for _ in range(draw(st.integers(1, 4)))]
        ensembles.append({"labels": [str(i) for i in range(len(bases))], "name": "custom", "states": [
            serialize.matrix_to_json(_edge_matrix(rng, b, draw(edges))) for b in bases]})
        aligned = np.kron(aligned, bases[draw(st.integers(0, len(bases) - 1))][0].conj())
    size = len(aligned)
    w = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    kets = _kets(rng, size, aligned)
    return dict(BASE_CONFIG, parties=len(dims), ensembles=ensembles, loss=[1.0] * len(dims), decomposition="solve",
                witness={"matrix": serialize.matrix_to_json(w + w.conj().T), "dims": dims},
                state={"matrix": serialize.matrix_to_json(_edge_matrix(rng, kets, draw(edges))), "dims": dims})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(edge_configs())
def test_edge_configs_keep_simulate_contract(config):
    # simulate, plain and --full, exits 0, or 2 with one error line; it never ends in a traceback
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), config)
        for full in ([], ["--full"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["simulate", "-c", cfg, "-o", str(Path(tmp) / "t.csv"),
                             "--summary", str(Path(tmp) / "s.json")] + full)
            assert code in (0, 2), (code, full)
            assert err.getvalue() == "" if code == 0 else (
                err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1), err.getvalue()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(edge_configs())
def test_edge_configs_keep_the_other_commands_contract(config):
    # decompose, scan and attack (BASE_CONFIG's search budget) end without a traceback, and exit 2 only with
    # one error line; exit 1 is an inexact decomposition or a failed bound, which a random witness may give
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), config)
        for command in ("decompose", "scan", "attack"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("ignore")  # attacking an inexact decomposition warns
                code = main([command, "-c", cfg, "-o", str(Path(tmp) / "out")])
            assert code in (0, 1, 2), (command, code)
            if code == 2:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(edge_configs(parties=(3,)))
def test_edge_configs_keep_the_biseparable_attack_contract(config):
    # attack with "kind": "biseparable" (BASE_CONFIG's search budget) on 3-party edge configs: no traceback, and
    # exit 2 only with one error line
    config = dict(config, attack=dict(config["attack"], kind="biseparable"))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), config)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # attacking an inexact decomposition warns
            code = main(["attack", "-c", cfg, "-o", str(Path(tmp) / "out")])
        assert code in (0, 1, 2), code
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()


class TestQutritDecompose:
    """``mdiw decompose`` over a custom qutrit ensemble and the tetrahedron, for an explicit (3, 2) witness."""

    @staticmethod
    def config(tmp_path, n_states):
        rng = np.random.default_rng(3)
        qutrits = [states.random_density_matrix((3,), rng) for _ in range(9)]
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        return write_config(tmp_path, {
            "witness": {"matrix": serialize.matrix_to_json((m + m.conj().T) / 2), "dims": [3, 2]},
            "ensembles": [custom_ensemble(qutrits[:n_states], name="custom"), "tetrahedron"],
            "state": {"matrix": serialize.matrix_to_json(np.eye(6) / 6), "dims": [3, 2]},
            "decomposition": "solve",
        }, name=f"qutrit{n_states}.json")

    def test_nine_states_span_and_seven_do_not(self, tmp_path, capsys):
        assert main(["decompose", "-c", self.config(tmp_path, 9)]) == 0
        assert json.loads(capsys.readouterr().out)["residual"] <= 1e-10
        assert main(["decompose", "-c", self.config(tmp_path, 7)]) == 1
        # the seven states span 7 of the 9 qutrit dimensions; the dense lstsq route read 1.6416430626079637
        assert json.loads(capsys.readouterr().out)["residual"] == pytest.approx(1.6416430626079637, rel=1e-12)


# name: (argv, with {cfg} the README config and {tmp} the work directory; the config file's
# bytes, or None for the README config).  Each used to end in a traceback with exit 1, the
# code of a failed bound, and the simulate case left its CSV behind; the two outputs that
# name one file used to exit 0 with the summary in place of the table.
BAD_FILES = {
    "out_is_directory": (["decompose", "-c", "{cfg}", "-o", "{tmp}"], None),
    "out_in_missing_directory": (["decompose", "-c", "{cfg}", "-o", "{tmp}/missing/x"], None),
    "summary_in_missing_directory": (
        ["simulate", "-c", "{cfg}", "-o", "{tmp}/t.csv", "--summary", "{tmp}/missing/s.json"], None),
    "config_not_utf8": (["decompose", "-c", "{cfg}", "-o", "{tmp}/d.json"], b"\xff\xfe{}"),
    "config_not_object": (["decompose", "-c", "{cfg}", "-o", "{tmp}/d.json"], b"[]"),
    "config_missing_key": (["decompose", "-c", "{cfg}", "-o", "{tmp}/d.json"], b'{"parties": 2}'),
    "config_nested_too_deep": (["decompose", "-c", "{cfg}", "-o", "{tmp}/d.json"],
                               b"[" * 100_000 + b"]" * 100_000),
    # the escape \ud800 is valid JSON but a lone surrogate, which no UTF-8 file can hold
    "config_lone_surrogate": (["simulate", "-c", "{cfg}", "-o", "{tmp}/t.csv"],
                              json.dumps(dict(BASE_CONFIG, ensembles=[LONE_SURROGATE_ENSEMBLE, "tetrahedron"])).encode()),
    "verify_out_in_missing_directory": (["verify", "-o", "{tmp}/missing/v.json"], None),
    # a trailing slash names a directory; the summary path is checked before the CSV is written
    "summary_names_missing_directory": (
        ["simulate", "-c", "{cfg}", "-o", "{tmp}/t.csv", "--summary", "{tmp}/missing/"], None),
    "empty_out": (["simulate", "-c", "{cfg}", "--summary", "{tmp}/s.json", "-o", ""], None),
    # the OS resolves nodir before .., so this summary lies in no directory
    "summary_through_missing_directory": (
        ["simulate", "-c", "{cfg}", "-o", "{tmp}/t.csv", "--summary", "{tmp}/nodir/../s.json"], None),
    "out_and_summary_same_path": (["simulate", "-c", "{cfg}", "-o", "{tmp}/t.csv", "--summary", "{tmp}/t.csv"], None),
    "out_and_summary_dot_spelling": (
        ["simulate", "-c", "{cfg}", "-o", "{tmp}/t.csv", "--summary", "{tmp}/./t.csv"], None),
}


# case: its error line, where the case is a config guard of its own
BAD_FILE_MESSAGES = {"config_not_object": "error: config must be a JSON object\n",
                     "config_missing_key": "error: missing config key: witness\n"}


@pytest.mark.parametrize("case", list(BAD_FILES))
def test_bad_file_exits_2_before_any_work(tmp_path, monkeypatch, capsys, case):
    argv, config_bytes = BAD_FILES[case]
    cfg = write_config(tmp_path)
    if config_bytes is not None:
        Path(cfg).write_bytes(config_bytes)

    def no_checks(seed):
        raise AssertionError("verify ran its checks before checking its output path")

    monkeypatch.setattr(cli, "run_all", no_checks)
    before = snapshot(tmp_path)
    assert main([a.format(cfg=cfg, tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert BAD_FILE_MESSAGES.get(case, "") in err
    assert snapshot(tmp_path) == before


def snapshot(root):
    """Every file under ``root``, hidden ones included, with its bytes and modification time."""
    return {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in Path(root).rglob("*") if p.is_file()}


@contextlib.contextmanager
def failing_write(n):
    """Make writing the ``n``-th file the CLI opens for writing fail for lack of space (None: none fails)."""
    opened = []

    def no_space(text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def cli_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if "w" in mode:
            opened.append(file)
            if len(opened) == n:
                fh.write = no_space
        return fh

    with mock.patch.object(cli, "open", cli_open, create=True):
        yield


SECOND_WRITE_FAILS = ["simulate", "-c", "{cfg}", "-o", "{tmp}/t.csv", "--summary", "{tmp}/s.json"]


class TestWriter:
    """A command writes all of its files or none, through symlinks, keeping each target's mode."""

    @pytest.mark.parametrize("existing", [False, True], ids=["new_targets", "existing_targets"])
    def test_failed_second_write_changes_no_file(self, tmp_path, capsys, existing):
        cfg = write_config(tmp_path)
        if existing:
            (tmp_path / "t.csv").write_text("old table\n")
            (tmp_path / "s.json").write_text("old summary\n")
        before = snapshot(tmp_path)
        with failing_write(2):
            assert main([a.format(cfg=cfg, tmp=tmp_path) for a in SECOND_WRITE_FAILS]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("dangling", [False, True], ids=["existing_target", "dangling_link"])
    def test_symlinked_target_is_written_through(self, tmp_path, dangling):
        cfg = write_config(tmp_path)
        plain, real, link = tmp_path / "plain.json", tmp_path / "real" / "dec.json", tmp_path / "link.json"
        real.parent.mkdir()
        if not dangling:
            real.write_text("old\n")
        link.symlink_to(real)
        assert main(["decompose", "-c", cfg, "-o", str(plain)]) == 0
        assert main(["decompose", "-c", cfg, "-o", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_bytes() == plain.read_bytes()
        assert [p.name for p in real.parent.iterdir()] == ["dec.json"]

    @pytest.mark.parametrize("existing", [False, True], ids=["new_target", "existing_target"])
    @pytest.mark.parametrize("summary", ["t.csv", "./t.csv", "link.csv"], ids=["same_path", "dot_spelling", "symlink"])
    def test_outputs_naming_one_file_exit_2(self, tmp_path, monkeypatch, capsys, existing, summary):
        cfg = write_config(tmp_path)
        (tmp_path / "link.csv").symlink_to(tmp_path / "t.csv")
        if existing:
            (tmp_path / "t.csv").write_text("old table\n")
        monkeypatch.chdir(tmp_path)
        before = snapshot(tmp_path)
        assert main(["simulate", "-c", cfg, "-o", "t.csv", "--summary", summary]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "both name the file" in err
        assert snapshot(tmp_path) == before

    def test_outputs_naming_one_special_file_are_written(self, tmp_path, capsys):
        assert main(["simulate", "-c", write_config(tmp_path), "-o", os.devnull, "--summary", os.devnull]) == 0

    def test_existing_target_keeps_its_mode_and_new_file_gets_open_mode(self, tmp_path):
        cfg = write_config(tmp_path)
        existing, new, reference = tmp_path / "old.json", tmp_path / "new.json", tmp_path / "reference"
        existing.write_text("old\n")
        existing.chmod(0o640)
        umask = os.umask(0o002)  # open(path, "w") then gives 0o664, and a private temporary file 0o600
        try:
            with open(reference, "w"):
                pass
            assert main(["decompose", "-c", cfg, "-o", str(existing)]) == 0
            assert main(["decompose", "-c", cfg, "-o", str(new)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(existing.stat().st_mode) == 0o640
        assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode) == 0o664
        assert existing.read_bytes() == new.read_bytes()


class TestSimulateCommand:
    def test_werner_v1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        table_path = tmp_path / "table.csv"
        assert main(["simulate", "-c", cfg, "-o", str(table_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["I"] == pytest.approx(-0.125, abs=1e-12)
        assert summary["expected"] == pytest.approx(-0.125, abs=1e-12)
        assert summary["witness_value_scaled"] == pytest.approx(-0.125, abs=1e-12)
        lines = table_path.read_text().splitlines()
        assert lines[0] == "A,B,p_all_ones"
        assert len(lines) == 17

    def test_werner_threshold_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"family": "werner", "v": 1 / 3}})
        assert main(["simulate", "-c", cfg, "-o", str(tmp_path / "t.csv")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert abs(summary["I"]) < 1e-12

    def test_noisy_ghz_v1(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "parties": 3,
                "witness": "ghz",
                "ensembles": ["tetrahedron"] * 3,
                "state": {"family": "noisy_ghz", "v": 1.0},
                "loss": [1.0, 1.0, 1.0],
            },
        )
        assert main(["simulate", "-c", cfg, "-o", str(tmp_path / "t.csv")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["I"] == pytest.approx(-0.0625, abs=1e-12)

    def test_full_distribution_columns(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        table_path = tmp_path / "full.csv"
        assert main(["simulate", "-c", cfg, "-o", str(table_path), "--full"]) == 0
        header = table_path.read_text().splitlines()[0]
        assert header == "A,B,p_all_ones,p_00,p_01,p_10,p_11"

    def test_lossy_full_table_flags_folding_convention(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"loss": [0.8, 0.9]})
        assert main(["simulate", "-c", cfg, "-o", str(tmp_path / "t.csv"), "--full"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["loss_folding"] == "outcome-0"
        assert summary["I"] == pytest.approx(0.72 * -0.125, abs=1e-13)

    def test_explicit_state_matrix_has_null_expected(self, tmp_path, capsys):
        state = {
            "matrix": serialize.matrix_to_json(np.eye(4) / 4),
            "dims": [2, 2],
        }
        cfg = write_config(tmp_path, {"state": state})
        assert main(["simulate", "-c", cfg, "-o", str(tmp_path / "t.csv")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["expected"] is None
        assert summary["I"] == pytest.approx(1 / 16, abs=1e-12)


class TestScanCommand:
    def test_werner_closed_form_curve(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "curve.csv"
        assert main(["scan", "-c", cfg, "--from", "0", "--to", "1", "--steps", "11",
                     "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "v,I,expected,abs_err"
        assert len(lines) == 12
        for line in lines[1:]:
            v, value, expected, err = (float(x) for x in line.split(","))
            assert err < 1e-12
            assert value == pytest.approx((1 - 3 * v) / 16, abs=1e-12)

    def test_loss_scales_curve(self, tmp_path):
        plain_cfg = write_config(tmp_path, name="plain.json")
        lossy_cfg = write_config(tmp_path, {"loss": [0.5, 0.5]}, name="lossy.json")
        plain_out = tmp_path / "plain.csv"
        lossy_out = tmp_path / "lossy.csv"
        assert main(["scan", "-c", plain_cfg, "--steps", "9", "-o", str(plain_out)]) == 0
        assert main(["scan", "-c", lossy_cfg, "--steps", "9", "-o", str(lossy_out)]) == 0
        plain_rows = plain_out.read_text().splitlines()[1:]
        lossy_rows = lossy_out.read_text().splitlines()[1:]
        for p_row, l_row in zip(plain_rows, lossy_rows):
            p_i = float(p_row.split(",")[1])
            l_i = float(l_row.split(",")[1])
            assert l_i == pytest.approx(0.25 * p_i, abs=1e-15)

    def test_ghz_crossing_bracketed(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "parties": 3,
                "witness": "ghz",
                "ensembles": ["tetrahedron"] * 3,
                "state": {"family": "noisy_ghz", "v": 0.5},
                "loss": [1.0, 1.0, 1.0],
            },
        )
        out = tmp_path / "ghz.csv"
        # 10 steps keep the crossing strictly between grid points
        assert main(["scan", "-c", cfg, "--steps", "10", "-o", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        signs = [(float(v), float(i) > 0) for v, i, *_ in rows]
        flips = [
            (a[0], b[0]) for a, b in zip(signs, signs[1:]) if a[1] != b[1]
        ]
        assert len(flips) == 1
        low, high = flips[0]
        assert low < 3 / 7 < high

    def test_last_point_lands_on_to(self, tmp_path):
        # 0.2 + 0.8 * 6 / 6 is 1.0000000000000002: the family check raised and the scan exited 1
        cfg = write_config(tmp_path)
        out = tmp_path / "curve.csv"
        assert main(["scan", "-c", cfg, "--from", "0.2", "--to", "1", "--steps", "7", "-o", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 7 and rows[-1].split(",")[0] == "1"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(2, 9))
    # the last point was 0.90000000000000013, written with exit 0
    @example(0.3, 0.9, 3)
    def test_every_point_within_range(self, a, b, steps):
        assume(a != b)
        v_from, v_to = sorted((a, b))
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = write_config(Path(tmp)), Path(tmp) / "curve.csv"
            argv = ["scan", "-c", cfg, "--from", repr(v_from), "--to", repr(v_to), "--steps", str(steps)]
            assert main(argv + ["-o", str(out)]) == 0
            vs = [float(row.split(",")[0]) for row in out.read_text().splitlines()[1:]]
        assert len(vs) == steps and all(v_from <= v <= v_to for v in vs)

    def test_bad_range_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["scan", "-c", cfg, "--from", "0.9", "--to", "0.2"]) == 2
        assert main(["scan", "-c", cfg, "--steps", "1"]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: need at least 2 steps, got 1"

    def test_explicit_state_cannot_scan(self, tmp_path):
        state = {"matrix": serialize.matrix_to_json(np.eye(4) / 4), "dims": [2, 2]}
        cfg = write_config(tmp_path, {"state": state})
        assert main(["scan", "-c", cfg]) == 2

    def test_family_on_wrong_factors_exits_2(self, tmp_path, capsys):
        # qutrit inputs met the two-qubit Werner family in a traceback
        qutrit = serialize.matrix_to_json(np.eye(3) / 3)
        cfg = write_config(tmp_path, {
            "witness": {"matrix": serialize.matrix_to_json(np.eye(9))},
            "ensembles": [{"labels": ["0"], "states": [qutrit]}] * 2,
            "decomposition": "solve",
        })
        assert main(["scan", "-c", cfg]) == 2
        assert capsys.readouterr().err == "error: state dims (2, 2) do not match ensemble dims (3, 3)\n"


GHZ_CONFIG = {
    "parties": 3,
    "witness": "ghz",
    "ensembles": ["tetrahedron"] * 3,
    "state": {"family": "noisy_ghz", "v": 0.5},
    "loss": [1.0, 1.0, 1.0],
}
# name: overrides of BASE_CONFIG, the README config
SCAN_CONFIGS = {
    "readme": {},
    "readme_lossy": {"loss": [0.9, 0.7]},
    "pauli6": {"ensembles": ["pauli6", "pauli6"]},
    "ghz": GHZ_CONFIG,
    "ghz_lossy": dict(GHZ_CONFIG, loss=[0.9, 0.8, 0.7]),
    "explicit_solve": {
        "witness": {"matrix": serialize.matrix_to_json(0.5 * np.eye(4) - projector(singlet_ket()))},
        "decomposition": "solve",
    },
}


class TestScanOracle:
    """`mdiw scan` writes the bytes of its curve scored one point at a time, and the values
    of the curve scored one state at a time to within 1e-15."""

    @pytest.mark.parametrize("grid", [("0", "1", "101"), ("0.05", "0.95", "37")])
    @pytest.mark.parametrize("name", sorted(SCAN_CONFIGS))
    def test_csv_matches_pointwise_route(self, tmp_path, monkeypatch, name, grid):
        cfg = write_config(tmp_path, SCAN_CONFIGS[name])
        v_from, v_to, steps = grid
        argv = ["scan", "-c", cfg, "--from", v_from, "--to", v_to, "--steps", steps, "-o"]
        whole, per_point, pointwise = (tmp_path / f"{k}.csv" for k in ("whole", "per_point", "pointwise"))
        assert main(argv + [str(whole)]) == 0
        scan = cli.violation_scan
        monkeypatch.setattr(cli, "violation_scan", lambda family, dec, grid, etas:
                            [row for v in grid for row in scan(family, dec, [v], etas)])
        assert main(argv + [str(per_point)]) == 0
        assert whole.read_bytes() == per_point.read_bytes()
        builders = {"werner": werner_state, "noisy_ghz": noisy_ghz}
        monkeypatch.setattr(cli, "violation_scan", lambda family, dec, grid, etas:
                            pointwise_scan(builders[family], dec, grid, etas))
        assert main(argv + [str(pointwise)]) == 0
        curves = [[[float(x) for x in row.split(",")[:2]] for row in path.read_text().splitlines()[1:]]
                  for path in (whole, pointwise)]
        assert [v for v, _ in curves[0]] == [v for v, _ in curves[1]]
        assert max(abs(a - b) for (_, a), (_, b) in zip(*curves)) <= 1e-15
        rows = whole.read_text().splitlines()[1:]
        assert len(rows) == int(steps)
        # the explicit witness has no closed form: its expected and error columns stay blank
        assert all(row.endswith(",,") for row in rows) == (name == "explicit_solve")


class TestResolveOnce:
    """Each command builds the config's ensembles, its state and its witness once; a second
    command in the same process builds only its state, since built-in ensembles and witnesses are shared."""

    @pytest.mark.parametrize("argv, ends", [(["decompose"], 0), (["simulate"], 0), (["scan", "--steps", "3"], 2)],
                             ids=["decompose", "simulate", "scan"])
    @pytest.mark.parametrize("name, inputs", [("readme", 8), ("ghz", 12)], ids=["readme", "ghz"])
    def test_objects_built_once(self, tmp_path, monkeypatch, capsys, name, inputs, argv, ends):
        built = {"matrices": 0, "witnesses": 0}
        check, post_init = states._check_densities, Witness.__post_init__

        def counted_check(ms, dims):
            built["matrices"] += len(ms)
            return check(ms, dims)

        def counted_post_init(w):
            built["witnesses"] += 1
            post_init(w)

        for builder in (*states.ENSEMBLE_BUILDERS.values(), *witness.WITNESS_BUILDERS.values(),
                        *witness._TABULATED.values()):
            builder.cache_clear()
        monkeypatch.setattr(states, "_check_densities", counted_check)
        monkeypatch.setattr(Witness, "__post_init__", counted_post_init)
        cfg = write_config(tmp_path, SCAN_CONFIGS[name])
        assert main(argv + ["-c", cfg, "-o", str(tmp_path / "out")]) == 0
        # ensemble states + the config state + the scan's two end states, whatever its steps, and one witness
        assert built == {"matrices": inputs + 1 + ends, "witnesses": 1}
        built.update(matrices=0, witnesses=0)
        assert main(argv + ["-c", cfg, "-o", str(tmp_path / "out")]) == 0
        assert built == {"matrices": 1 + ends, "witnesses": 0}


class TestRepeatedCalls:
    """``main`` builds its parser once per process and carries nothing from one call to the next."""

    def test_no_parser_built_after_first_call(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path)
        assert main(["decompose", "-c", cfg, "-o", str(tmp_path / "first.json")]) == 0
        built, init = [], argparse.ArgumentParser.__init__

        def counted_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        assert main(["scan", "-c", cfg, "--steps", "3", "-o", str(tmp_path / "curve.csv")]) == 0
        assert main(["simulate", "-c", cfg, "-o", str(tmp_path / "t.csv")]) == 0
        assert built == []

    def test_simulate_flags_do_not_carry_over(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        full, plain = tmp_path / "full.csv", tmp_path / "plain.csv"
        argv = ["simulate", "-c", cfg, "--full", "--summary", str(tmp_path / "s.json"), "-o", str(full)]
        assert main(argv) == 0
        assert main(["simulate", "-c", cfg, "-o", str(plain)]) == 0
        assert "p_00" in full.read_text().splitlines()[0]
        assert plain.read_text().splitlines()[0] == "A,B,p_all_ones"
        assert json.loads(capsys.readouterr().out)["I"] == pytest.approx(-0.125, abs=1e-12)

    def test_scan_steps_default_after_explicit_steps(self, tmp_path):
        cfg = write_config(tmp_path)
        few, default = tmp_path / "few.csv", tmp_path / "default.csv"
        assert main(["scan", "-c", cfg, "--steps", "3", "-o", str(few)]) == 0
        assert main(["scan", "-c", cfg, "-o", str(default)]) == 0
        assert len(few.read_text().splitlines()) == 1 + 3
        assert len(default.read_text().splitlines()) == 1 + 101

    def test_call_after_usage_error_matches_fresh_process(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--steps", "3"])
        assert exc.value.code == 2
        argv = ["scan", "-c", cfg, "--from", "0.25", "--steps", "7", "-o"]
        assert main(argv + [str(tmp_path / "here.csv")]) == 0
        path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from mdiw.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv, str(tmp_path / "fresh.csv")],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, timeout=120,
        )
        assert (fresh.returncode, fresh.stderr) == (0, b"")
        assert (tmp_path / "here.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


class TestAttackCommand:
    def test_bounded_expectation_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "report.json"
        assert main(["attack", "-c", cfg, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["min_I"] >= -1e-9
        assert doc["seed"] == 7
        assert len(doc["restart_minima"]) == 4

    def test_power_check_violable(self, tmp_path):
        non_witness = {
            "matrix": serialize.matrix_to_json(-projector(singlet_ket())),
            "dims": [2, 2],
        }
        cfg = write_config(
            tmp_path,
            {
                "witness": non_witness,
                "decomposition": "solve",
                "attack": {
                    "restarts": 10,
                    "iterations": 300,
                    "mixture_size": 2,
                    "share_dim": 2,
                    "expectation": "violable",
                },
            },
        )
        assert main(["attack", "-c", cfg, "-o", str(tmp_path / "r.json")]) == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["min_I"] < 0

    def test_deterministic_output_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["attack", "-c", cfg, "-o", str(a)]) == 0
        assert main(["attack", "-c", cfg, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("MDIW_SEED", "99")
        assert main(["attack", "-c", cfg, "-o", str(a)]) == 0
        monkeypatch.delenv("MDIW_SEED")
        assert main(["attack", "-c", cfg, "-o", str(b)]) == 0
        doc_a = json.loads(a.read_text())
        doc_b = json.loads(b.read_text())
        assert doc_a["seed"] == 99
        assert doc_b["seed"] == 7
        assert doc_a["restart_minima"] != doc_b["restart_minima"]

    @pytest.mark.parametrize("seed, message", [("-5", "MDIW_SEED must be nonnegative"),
                                               ("x", "MDIW_SEED must be an integer, got 'x'")])
    def test_bad_env_seed_exits_2(self, tmp_path, monkeypatch, capsys, seed, message):
        monkeypatch.setenv("MDIW_SEED", seed)
        assert main(["attack", "-c", write_config(tmp_path), "-o", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.json").exists()

    def test_biseparable_kind(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "parties": 3,
                "witness": "ghz",
                "ensembles": ["tetrahedron"] * 3,
                "state": {"family": "noisy_ghz", "v": 0.5},
                "loss": [1.0, 1.0, 1.0],
                "attack": {
                    "kind": "biseparable",
                    "restarts": 2,
                    "iterations": 40,
                    "mixture_size": 2,
                    "share_dim": 2,
                },
            },
        )
        assert main(["attack", "-c", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["min_I"] >= -1e-9


class TestSerializeHelpers:
    def test_floats_have_17_significant_digits(self):
        assert serialize.fmt_float(1 / 3) == "0.33333333333333331"
        assert serialize.fmt_float(-0.125) == "-0.125"

    def test_float_round_trip(self):
        rng = np.random.default_rng(70)
        for x in rng.normal(size=100):
            assert float(serialize.fmt_float(x)) == x

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(71)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        again = serialize.matrix_from_json(serialize.matrix_to_json(m))
        assert np.array_equal(m, again)

    def test_dumps_is_valid_json(self):
        doc = {"a": [1.5, None, True], "b": {"c": "text \" with quotes"}}
        assert json.loads(serialize.dumps(doc)) == doc

    def test_dumps_writes_non_finite_floats_as_null(self):
        doc = {"nan": float("nan"), "inf": [np.inf, -np.float64("inf")], "x": 0.5}
        assert json.loads(serialize.dumps(doc)) == {"nan": None, "inf": [None, None], "x": 0.5}
        assert serialize.fmt_float(float("nan")) == "nan"


# floats whose 17-digit forms are edge cases: signed zero, the smallest subnormal, the largest
# double, a power of ten written in full by 17 digits but with an exponent by 16, a repeating fraction
EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1 / 3]
any_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
json_leaves = (any_floats | any_floats.map(np.float64) | st.booleans() | st.none()
               | st.integers(-2**70, 2**70) | st.text(max_size=4))
json_docs = st.recursive(
    json_leaves | st.lists(any_floats, max_size=5),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)
                   | st.lists(st.floats(-1e3, 1e3), max_size=4).map(np.array)),
    max_leaves=25,
)
TABLE_LABELS = [("0", "1", "2", "3"), ("x+", "x-", "y+", "y-", "z+", "z-"), ("5%", "%s", "%%", "%.17g")]


@st.composite
def tables(draw):
    """Tables of 2 or 3 parties, with or without full distributions; labels may hold '%'."""
    n, full = draw(st.sampled_from([2, 3])), draw(st.booleans())
    labels = tuple(tuple(draw(st.permutations(draw(st.sampled_from(TABLE_LABELS))))[:draw(st.integers(1, 4))])
                   for _ in range(n))
    grid = tuple(map(len, labels))
    probs = st.floats(0.0, 1.0) | st.sampled_from([-0.0, 5e-324, 1 / 3, 1.0])
    p = np.array(draw(st.lists(probs, min_size=int(np.prod(grid)), max_size=int(np.prod(grid))))).reshape(grid)
    dist = None
    if full:
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        dist = np.moveaxis(rng.dirichlet(np.ones(2**n), size=grid), -1, 0).reshape((2,) * n + grid)
        p = dist[(1,) * n]
    return CorrelationTable(tuple("ABC"[:n]), labels, p, dist)


class TestRenderingOracle:
    """The row-at-a-time renderers write the bytes of the one-float-at-a-time references."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(json_docs)
    @example({"floats": EDGE_FLOATS, "mixed": [1.5, True, None, 2, "s", np.float64(0.25), float("nan"), -np.inf],
              "bools": [True, False], "ints": [1, 2**60], "empty": [], "nan_row": [0.5, float("nan")]})
    def test_dumps_matches_per_value_route(self, doc):
        assert serialize.dumps(doc) == render_json(doc)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tables())
    def test_table_csv_matches_per_value_route(self, table):
        assert table_to_csv(table) == table_csv(table)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(SCAN_CONFIGS)), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(2, 40))
    @example("explicit_solve", 0.0, 1.0, 11)
    @example("ghz_lossy", 0.0, 1.0, 31)
    def test_scan_csv_matches_per_row_route(self, name, a, b, steps):
        assume(a != b)
        v_from, v_to = sorted((a, b))
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = write_config(Path(tmp), SCAN_CONFIGS[name]), Path(tmp) / "curve.csv"
            argv = ["scan", "-c", cfg, "--from", repr(v_from), "--to", repr(v_to), "--steps", str(steps)]
            assert main(argv + ["-o", str(out)]) == 0
            expected = scan_csv(cli.load_config(cfg).resolve(), v_from, v_to, steps)
            assert out.read_text(encoding="utf-8") == expected
        assert expected.endswith(",,\n") == (name == "explicit_solve")


class TestVerifyPlumbing:
    def test_corrupted_coefficients_fail_named_criterion(self, monkeypatch):
        import mdiw.verify as verify
        from mdiw.witness import Decomposition, reconstruct, tetrahedron_beta
        from mdiw.linalg import frobenius_distance
        from mdiw.witness import singlet_witness

        good = tetrahedron_beta()
        beta = np.array(good.beta)
        beta[0, 0] += 0.05
        corrupted = Decomposition(beta, good.ensembles, 0.0)
        residual = frobenius_distance(singlet_witness().matrix, reconstruct(corrupted))
        corrupted = Decomposition(beta, good.ensembles, residual)
        monkeypatch.setattr(verify, "tetrahedron_beta", lambda: corrupted)
        verdict = verify.check_closed_form_reconstructions()
        assert verdict.criterion == "closed_form_reconstructions"
        assert not verdict.passed
        assert verdict.details["tetrahedron_residual"] > 1e-10

    def test_run_all_runs_every_registered_check_in_order_at_its_seed(self, monkeypatch):
        import mdiw.verify as verify

        calls = []
        checks = {(lambda seed, name=name: calls.append((name, seed)) or name): 1.0 for name in "bca"}
        monkeypatch.setattr(verify, "BUDGETS", checks)
        assert verify.run_all(7) == ["b", "c", "a"]
        assert calls == [("b", 7), ("c", 7), ("a", 7)]

    def test_cheap_checks_deterministic(self):
        import mdiw.verify as verify

        first = [
            verify.check_werner_closed_form(),
            verify.check_closed_form_reconstructions(),
            verify.check_ghz_threshold(),
        ]
        second = [
            verify.check_werner_closed_form(),
            verify.check_closed_form_reconstructions(),
            verify.check_ghz_threshold(),
        ]
        for a, b in zip(first, second):
            assert verify.verdict_to_dict(a) == verify.verdict_to_dict(b)


# Every key of the config schema, nested ones as paths.
SCHEMA_PATHS = (
    ("parties",), ("witness",), ("witness", "matrix"), ("witness", "dims"),
    ("ensembles",), ("ensembles", 0), ("ensembles", 1), ("state",), ("state", "family"),
    ("state", "v"), ("state", "matrix"), ("state", "dims"), ("decomposition",), ("loss",),
    ("loss", 0), ("seed",), ("attack",), ("attack", "kind"), ("attack", "expectation"),
    ("attack", "restarts"), ("attack", "share_dim"),
)
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "x", "0.5", "2", "tetrahedron", "pauli6", "singlet", "ghz", "werner",
                     "solve", "paper", "biseparable"]),
    st.just([]),
    st.just({}),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["matrix", "labels", "states", "family", "v", "name"]),
                      inner, max_size=3),
    max_leaves=6,
)


@st.composite
def fuzzed_configs(draw):
    """BASE_CONFIG with a few schema keys replaced by arbitrary JSON, or removed."""
    data = json.loads(json.dumps(BASE_CONFIG))
    for path in sorted(draw(st.sets(st.sampled_from(SCHEMA_PATHS), min_size=1, max_size=3))):
        parent = data
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        key = path[-1]
        if isinstance(parent, dict) and isinstance(key, str):
            if draw(st.integers(0, 4)) == 0:
                parent.pop(key, None)
            else:
                parent[key] = draw(JSON_VALUES)
        elif isinstance(parent, list) and isinstance(key, int) and key < len(parent):
            parent[key] = draw(JSON_VALUES)
    return data


def _capped_search(data):
    """A copy of ``data`` whose integer attack restarts and iterations are at most 2."""
    data = json.loads(json.dumps(data))
    search = data.get("attack") if isinstance(data, dict) else None
    if isinstance(search, dict):
        for key in ("restarts", "iterations"):
            if type(search.get(key)) is int:
                search[key] = min(search[key], 2)
    return data


class TestConfigFuzz:
    """The CLI contract on any config: exit 0, 1 or 2, never a traceback."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(fuzzed_configs())
    # a valid state on the wrong factors crashed `simulate` past config checks
    @example(dict(BASE_CONFIG, state={"matrix": serialize.matrix_to_json(np.eye(4) / 4), "dims": [4]}))
    # a non-string ensemble name crashed the tabulated-coefficient lookup
    @example(dict(BASE_CONFIG, ensembles=[
        {"labels": list("0123"), "states": [serialize.matrix_to_json(s.matrix) for s in
                                            tetrahedron_ensemble().states], "name": []},
        "tetrahedron",
    ]))
    # a biseparable search on a 2-party config crashed `attack`
    @example(dict(BASE_CONFIG, attack={"kind": "biseparable", "restarts": 1}))
    # six states under the tetrahedron's name do not fit its 4 x 4 table
    @example(dict(BASE_CONFIG, ensembles=[custom_ensemble(pauli6_ensemble().states), "tetrahedron"]))
    # a one-element [re, im] pair crashed the matrix reader with an IndexError
    @example(dict(BASE_CONFIG, state={"matrix": [[[0.25]] * 4] * 4, "dims": [2, 2]}))
    # an input label holding a lone surrogate crashed the CSV write of `simulate`
    @example(dict(BASE_CONFIG, ensembles=[LONE_SURROGATE_ENSEMBLE, "tetrahedron"]))
    def test_any_config_keeps_exit_contract(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(data))
            out = str(Path(tmp) / "out")
            quick = Path(tmp) / "quick.json"
            quick.write_text(json.dumps(_capped_search(data)))
            for argv, path in (
                (["simulate", "--summary", str(Path(tmp) / "summary")], cfg), (["scan", "--steps", "3"], cfg),
                (["decompose"], cfg), (["attack"], quick),
            ):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(argv + ["-c", str(path), "-o", out])
                assert code in (0, 1, 2)
                if code == 2:
                    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


EDGE_VALUES = ["0", "1", "-5", "50", "nan", "inf", "", "x"]
# in a missing directory, an existing directory, an existing file, a new file,
# through a missing directory, and a trailing slash
EDGE_PATHS = ["{tmp}/missing/x", "{tmp}/dir", "{tmp}/old.txt", "{tmp}/new.txt", "{tmp}/nodir/../x", "{tmp}/x/"]
# the BAD_FILES config bytes and the dimension-one config, which every command takes
FUZZ_CONFIG_BYTES = sorted({config for _, config in BAD_FILES.values() if config is not None}
                           | {json.dumps(DIMENSION_ONE_CONFIG).encode()})


@st.composite
def parser_argv(draw):
    """An argv template from the parser's own subcommands and options, valued from the edge pools."""
    (commands,) = [a.choices for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    name = draw(st.sampled_from(sorted(commands)))
    argv = [name]
    for action in draw(st.permutations([a for a in commands[name]._actions
                                        if a.option_strings and not isinstance(a, argparse._HelpAction)])):
        if not (action.required or draw(st.booleans())):
            continue
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.dest == "config":
            argv.append(draw(st.just("{cfg}") | st.sampled_from(EDGE_PATHS)))
        elif action.dest in ("out", "summary"):
            argv.append(draw(st.sampled_from(EDGE_PATHS)))
        elif action.nargs != 0:
            argv.append(draw(st.sampled_from(EDGE_VALUES)))
    return argv


def bad_file_examples(test):
    """Every BAD_FILES case as an explicit example."""
    for argv, config in BAD_FILES.values():
        test = example(argv=argv, seed=None, config=config, fail_write=None)(test)
    return test


class TestArgvFuzz:
    """The CLI contract on any argv, MDIW_SEED and failed write: exit 0, 1 or 2, never a
    traceback, and an exit 2 prints one error line and creates or changes no file."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(argv=parser_argv(), seed=st.sampled_from([None, *EDGE_VALUES]),
           config=st.none() | st.sampled_from(FUZZ_CONFIG_BYTES), fail_write=st.none() | st.sampled_from([1, 2]))
    @example(argv=SECOND_WRITE_FAILS, seed=None, config=None, fail_write=2)
    @bad_file_examples
    def test_any_argv_keeps_exit_contract(self, argv, seed, config, fail_write):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "dir").mkdir()
            (tmp / "old.txt").write_text("old\n")
            cfg = tmp / "cfg.json"
            cfg.write_bytes(json.dumps(BASE_CONFIG).encode() if config is None else config)
            before = snapshot(tmp)
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.dict(os.environ), mock.patch.object(cli, "run_all", lambda seed: []), \
                    failing_write(fail_write), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                os.environ.pop("MDIW_SEED", None)
                if seed is not None:
                    os.environ["MDIW_SEED"] = seed
                try:
                    code = main([a.format(cfg=cfg, tmp=tmp) for a in argv])
                except SystemExit as exc:  # argparse's usage error
                    code = exc.code
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert len([line for line in err.getvalue().splitlines() if "error:" in line]) == 1
                assert snapshot(tmp) == before
