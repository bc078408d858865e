"""Replay recorded mutants of ``src/mdiw`` against the tests that must catch them.

Each row of ``MUTANTS`` names a file under ``src/mdiw``, a text that occurs
there exactly once, the text that replaces it, and the tests that must fail
once it is replaced.  First every named test runs on an unchanged copy of
``src/`` and ``tests/`` and must pass there.  Then each mutant is applied
to its own temporary copy, and each of its tests runs in a pytest process
of its own, one process at a time.  A mutant survives when one of its
tests still passes.

    python tools/replay_mutants.py                      # every row
    python tools/replay_mutants.py success_scale_half   # the named rows

Exit status: 0 when every mutant is caught, 1 when one survives, 2 when a
row does not apply or a named test fails unmutated.  The run takes a few
minutes; it is not part of the test suite, which only checks that
each row still applies (``tests/test_mutant_table.py``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


# name: (file under src/mdiw, old text, new text, tests that must fail)
MUTANTS = {
    # the success elements' and start operators' scale halved: their folded click check must see eigenvalues above 1
    "success_scale_half": (
        "attack.py",
        "scale = eigs[:, -1:] * (1.0 + ",
        "scale = eigs[:, -1:] / 2 * (1.0 + ",
        ["tests/test_attack.py::TestBuildPhase::test_batch_matches_block_of_one",
         "tests/test_attack.py::TestStart::test_batch_matches_restart_alone",
         "tests/test_linalg.py::test_strategies_hold_read_only_shares_and_clicks"],
    ),
    # non-finite entries decided from the Hermitian defect alone: an overflowing defect reads as NaN
    "isfinite_fallback_dropped": (
        "linalg.py",
        "if not math.isfinite(defect) and not np.isfinite(ms).all():",
        "if not math.isfinite(defect):",
        ["tests/test_linalg.py::test_check_operators_message_table"],
    ),
    # a restart stops at any best value up to BOUND_TOL above the floor, however far below it lies
    "one_sided_stop_rule": (
        "attack.py",
        "at_floor = (floor - _STOP <= best) & (best <= floor + BOUND_TOL)",
        "at_floor = best <= floor + BOUND_TOL",
        ["tests/test_attack.py::TestFloorStop::test_restart_below_floor_keeps_searching"],
    ),
    # lstsq's cutoff taken on each party's singular values instead of on their products
    "cutoff_per_party": (
        "witness.py",
        "keep = s > np.finfo(float).eps * max(m.size, math.prod(map(len, ensembles))) * s.flat[0]",
        "keep = functools.reduce(np.logical_and.outer, [e.transposed_svd[1] > np.finfo(float).eps"
        " * max(e.dim ** 2, len(e)) * e.transposed_svd[1][0] for e in ensembles])",
        ["tests/test_witness.py::TestFactoredSolve::test_near_degenerate_pair_drops_only_the_product_direction"],
    ),
    # the imaginary half of each ensemble's U taken with the wrong sign
    "imaginary_sign_flipped": (
        "states.py",
        "u = (u[:flat.shape[1]] + 1j * u[flat.shape[1]:])",
        "u = (u[:flat.shape[1]] - 1j * u[flat.shape[1]:])",
        ["tests/test_witness.py::TestFactoredSolve::test_matches_dense_lstsq",
         "tests/test_witness.py::TestRoundTripProperty::test_decompose_reconstruct_round_trip"],
    ),
    # a lone partition drawn like several: one integers call (reading no bits) and one normal call per term
    "lone_partition_drawn_per_term": (
        "attack.py",
        "if len(partitions) == 1:\n        picks, kets = np.zeros(k, int)",
        "if len(partitions) == 0:\n        picks, kets = np.zeros(k, int)",
        ["tests/test_attack.py::TestStreamContract::test_draw_makes_the_documented_calls"],
    ),
    # groups in the order their partitions are first used instead of sorted order
    "groups_in_first_use_order": (
        "game.py",
        "order = sorted(range(len(partitions)), key=partitions.__getitem__)",
        "order = sorted(range(len(partitions)), key=lambda j: members[j][:1].tolist())",
        ["tests/test_attack.py::TestBlockForm::test_biseparable_round_trip_keeps_term_order",
         "tests/test_attack.py::TestBuildPhase::test_batch_matches_block_of_one"],
    ),
    # the build checks the states of one block size only, the singletons'
    "one_block_size_checked": (
        "attack.py",
        "        _check_densities(stack, (d,))",
        "        if d == m:\n            _check_densities(stack, (d,))",
        ["tests/test_attack.py::TestBuildPhase::test_nan_in_each_block_size_rejected_like_single"],
    ),
    # the build checks restart 0's share states only
    "restart_0_shares_checked": (
        "attack.py",
        "        _check_densities(stack, (d,))",
        "        _check_densities(stack[: len(stack) // len(draws)], (d,))",
        ["tests/test_attack.py::TestBuildPhase::test_non_psd_share_in_last_restart_rejected_like_single"],
    ),
    # a stopped restart keeps its terms in the batch: the next sweep's stop rule reads them again
    "keep_ignores_stopped": (
        "attack.py",
        "for mine in [alive[rows]] if mine.any()]",
        "for mine in [alive[rows] | True] if mine.any()]",
        ["tests/test_attack.py::TestStart::test_batch_matches_restart_alone",
         "tests/test_attack.py::TestStoppedRestarts::test_stopped_restarts_leave_the_batch"],
    ),
    # every term of a batch of mixtures reads mixture 0's F_p
    "restart_0_traced_inputs": (
        "game.py",
        "return idx // shape[1] if shape[0] > 1 else slice(None)",
        "return slice(0, 1)",
        ["tests/test_attack.py::TestBatchInvariance::test_batch_equals_one_at_a_time",
         "tests/test_acceptance.py::test_loss_invariance_batch_matches_one_sample_route"],
    ),
    # each input state traced in untransposed, tr_in[E (tau^T (x) 1)]
    "trace_inputs_tau_untransposed": (
        "game.py",
        "taus.swapaxes(-1, -2).reshape(len(taus), -1)",
        "taus.reshape(len(taus), -1)",
        ["tests/test_game.py::TestSimulateEntangled::test_matches_raw_index_oracle_bipartite",
         "tests/test_game.py::TestSimulateSeparable::test_trivial_share_dimension"],
    ),
    # sigma's (row, column) pairs met as they are, not as (column, row): a block's states read transposed,
    # in tables and search starts alike (a transposed state is a state, so only an independent route sees it)
    "contract_sigma_untransposed": (
        "game.py",
        "for a in (n + p, p)]",
        "for a in (p, n + p)]",
        ["tests/test_game.py::TestBlockContraction::test_batch_broadcast_and_dense_oracle",
         "tests/test_game.py::TestSimulateSeparable::test_matches_explicit_mixture_simulation"],
    ),
    # each party's outcome traced onto the leading axis of the party in mirror position: a full table's
    # outcome axes in the wrong party order
    "full_outcome_axes_mirrored": (
        "game.py",
        "(1,) * p + (2,) + (1,) * (n - 1 - p)",
        "(1,) * (n - 1 - p) + (2,) + (1,) * p",
        ["tests/test_game.py::TestContractionProperties::test_simulate_entangled_matches_per_bitstring_route",
         "tests/test_game.py::TestSeparableTableOracle::test_separable_matches_cell_oracle"],
    ),
    # a stack of one, broadcast over a block's states, read transposed: it scores tr[G^T sigma] where the
    # same stack gathered for every state scores tr[G sigma]
    "broadcast_stack_transposed": (
        "game.py",
        "x = (g.reshape(g.shape[:-2] + (m * m,))",
        "x = ((g if len(g) > 1 else g.swapaxes(-1, -2)).reshape(g.shape[:-2] + (m * m,))",
        ["tests/test_game.py::TestBlockContraction::test_batch_broadcast_and_dense_oracle",
         "tests/test_acceptance.py::test_loss_invariance_batch_matches_one_sample_route"],
    ),
    # the starts valued by one stacked matmul, which rounds a row by the batch it sits in
    "start_values_by_matmul": (
        "attack.py",
        "np.vecdot(_grid(weights, groups, resp).reshape(len(weights), -1), beta.ravel())",
        "_grid(weights, groups, resp).reshape(len(weights), -1) @ beta.ravel()",
        ["tests/test_attack.py::TestBatchInvariance::test_batch_equals_one_at_a_time",
         "tests/test_attack.py::TestBuildPhase::test_batch_matches_block_of_one"],
    ),
    # the scan's ends swapped: every point scored as v I_0 + (1 - v) I_1
    "scan_ends_swapped": (
        "game.py",
        "              for v in (1.0, 0.0))",
        "              for v in (0.0, 1.0))",
        ["tests/test_attack.py::TestViolationScan::test_matches_pointwise_oracle",
         "tests/test_attack.py::TestViolationScan::test_werner_curve_matches_closed_form"],
    ),
    # the detector efficiencies applied at the scan's entangled end only
    "scan_loss_at_one_end": (
        "game.py",
        "fast_entangled_table(family_state(family, v), dec.ensembles), etas))",
        "fast_entangled_table(family_state(family, v), dec.ensembles), etas if v else (1.0,) * len(etas)))",
        ["tests/test_attack.py::TestViolationScan::test_matches_pointwise_oracle"],
    ),
    # the scan's grid taken without the [0, 1] range check its ends pass
    "scan_grid_range_unchecked": (
        "game.py",
        "vs = _mixing_parameters([float(v) for v in grid])",
        "vs = np.array([float(v) for v in grid])",
        ["tests/test_attack.py::TestViolationScan::test_parameter_out_of_range_raises_single_builder_message"],
    ),
    # the JSON fast path without its finiteness test: NaN and infinities in a float array written as nan, inf
    "float_row_finiteness_dropped": (
        "serialize.py",
        "finite_floats = all(type(v) is float for v in seq) and all(map(math.isfinite, seq))",
        "finite_floats = all(type(v) is float for v in seq)",
        ["tests/test_cli.py::TestRenderingOracle::test_dumps_matches_per_value_route"],
    ),
    # the JSON fast path's type test widened to ints: bools written as 1 and 0, large ints rounded
    "float_row_takes_ints": (
        "serialize.py",
        "all(type(v) is float for v in seq)",
        "all(isinstance(v, (int, float)) for v in seq)",
        ["tests/test_cli.py::TestRenderingOracle::test_dumps_matches_per_value_route"],
    ),
    # a row of floats written with 16 significant digits, which does not round-trip every double
    "float_row_16_digits": (
        "serialize.py",
        'sep.join(["%.17g"] * len(row))',
        'sep.join(["%.16g"] * len(row))',
        ["tests/test_cli.py::TestRenderingOracle::test_dumps_matches_per_value_route",
         "tests/test_cli.py::TestRenderingOracle::test_table_csv_matches_per_value_route"],
    ),
    # a read-only stack viewed instead of copied, though the array owning its memory may be writable
    "views_any_read_only_stack": (
        "states.py",
        'ms = np.array(ms, dtype=complex, order="C")',
        'ms = ms if not ms.flags.writeable else np.array(ms, dtype=complex, order="C")',
        ["tests/test_states.py::TestDensityStack::test_input_is_copied"],
    ),
    # the spectrum rule's low edge read from each row's top eigenvalue
    "spectrum_low_edge_from_top": (
        "linalg.py",
        "low = eigs.min()",
        "low = eigs[:, -1].min()",
        ["tests/test_states.py::TestDensityStack::test_graded_psd_boundary",
         "tests/test_linalg.py::TestOperatorRules::test_graded_boundary"],
    ),
    # the success-element step keeps the top eigenvector instead of the lowest where none is negative
    "kept_column_top": (
        "attack.py",
        "keep[:, 0] = True",
        "keep[:, -1] = True",
        ["tests/test_attack.py::TestNegativeProjectorRank::test_psd_operator_keeps_lowest_eigenvector",
         "tests/test_attack.py::TestNegativeProjectorRank::test_mask_matches_rank_rule"],
    ),
    # the shared state enters the block form transposed: every shared-state table scores rho^T
    "entangled_block_transposed": (
        "game.py",
        "[[strategy.shared.matrix[None]]]",
        "[[strategy.shared.matrix.T[None]]]",
        ["tests/test_game.py::TestContractionProperties::test_simulate_entangled_matches_index_oracle",
         "tests/test_game.py::TestContractionProperties::test_simulate_entangled_matches_per_bitstring_route",
         "tests/test_game.py::TestContractionProperties::test_fast_table_matches_bell_strategy"],
    ),
    # the old local-dimension rule: the Bell measurement refuses a dimension-1 party
    "dimension_two_rule_restored": (
        "states.py",
        "if d < 1:",
        "if d < 2:",
        ["tests/test_states.py::TestMaxEntangled::test_too_small",
         "tests/test_game.py::TestBellOutcomePovm::test_rejects_trivial_dimension",
         "tests/test_game.py::TestFastEntangledProb::test_dimension_one_parties_agree_with_full_simulation",
         "tests/test_cli.py::test_dimension_one_config_simulates_with_and_without_full"],
    ),
    # a state spec with neither a family nor a matrix read as a matrix spec: a KeyError's message
    "state_spec_guard_dropped": (
        "cli.py",
        "elif \"matrix\" not in self.state:",
        "elif False:",
        ["tests/test_cli.py::TestScenarioConfig::test_malformed_config_exits_2[state_neither_family_nor_matrix]"],
    ),
    # a table simulated for fewer ensembles than parties: an IndexError deep in the contraction
    "simulate_party_count_dropped": (
        "game.py",
        "if len(ensembles) != len(measurements):",
        "if False:",
        ["tests/test_input_guards.py::test_guard_raises_its_message[simulate_party_count]"],
    ),
    # a decomposition scored against a table of more parties: numpy's shape error
    "mdi_value_party_count_dropped": (
        "game.py",
        "if dec.n_parties != table.n_parties:",
        "if False:",
        ["tests/test_input_guards.py::test_guard_raises_its_message[mdi_value_party_count]"],
    ),
    # a separable strategy built with share states of the wrong dimension
    "separable_share_dim_dropped": (
        "game.py",
        "if sigma.dim != shares[p]:",
        "if False:",
        ["tests/test_input_guards.py::test_guard_raises_its_message[separable_share_dim]"],
    ),
    # a restart's path records each sweep's own value, not its best so far: a rising sweep ends it above its start
    "path_records_raw_value": (
        "attack.py",
        "for r, b in zip(running.tolist(), best.tolist()):",
        "for r, b in zip(running.tolist(), new.tolist()):",
        ["tests/test_attack.py::TestNegativeProjectorRank::test_rising_sweep_ends_restart_with_start_value_kept",
         "tests/test_attack.py::TestBatchedSearch::test_matches_sequential_loop"],
    ),
    # restart paths begun empty: the start values go unrecorded and uncounted
    "paths_without_start": (
        "attack.py",
        "[[v] for v in value.tolist()]",
        "[[] for v in value.tolist()]",
        ["tests/test_attack.py::TestBatchedSearch::test_matches_sequential_loop",
         "tests/test_attack.py::TestStoppedRestarts::test_stopped_restarts_leave_the_batch",
         "tests/test_attack.py::TestSearch::test_tracked_best_is_monotone_within_restart"],
    ),
    # a teleported pair's party j clicks on Q itself, not on SWAP Q^T SWAP
    "teleported_click_untransposed": (
        "attack.py",
        ".reshape(d, dj, d, dj).transpose(3, 2, 1, 0)",
        ".reshape(d, dj, d, dj)",
        ["tests/test_attack.py::TestBlockForm::test_sweep_matches_public_route",
         "tests/test_attack.py::TestSearch::test_teleported_pair_realizes_a_quarter"],
    ),
    # a product term's parties click on A_p (x) 1 instead of A_p^T (x) 1
    "product_click_untransposed": (
        "attack.py",
        "(a[0].T[:, None, :, None] * one)",
        "(a[0][:, None, :, None] * one)",
        ["tests/test_attack.py::TestBlockForm::test_sweep_matches_public_route",
         "tests/test_attack.py::TestSearch::test_best_strategy_reproduces_reported_minimum"],
    ),
    # the step's rank floor dropped: a positive semidefinite gradient gives A = 0
    "kept_column_dropped": (
        "attack.py",
        "    keep[:, 0] = True\n",
        "",
        ["tests/test_attack.py::TestNegativeProjectorRank::test_psd_operator_keeps_lowest_eigenvector",
         "tests/test_attack.py::TestNegativeProjectorRank::test_mask_matches_rank_rule"],
    ),
    # the sweep values, which the path and the stop rule read, relaxed: a teleported pair's are d_i^2 times its
    # realized ones
    "relaxed_values_read": (
        "attack.py",
        "np.vecdot(c, resp[-1]) * plan.scale",
        "np.vecdot(c, resp[-1])",
        ["tests/test_attack.py::TestBlockForm::test_sweep_matches_public_route",
         "tests/test_attack.py::TestSearch::test_teleported_pair_realizes_a_quarter",
         "tests/test_attack.py::TestBatchedSearch::test_matches_sequential_loop"],
    ),
    # the reported strategy's click stacks skip the first party's input dimension: a party whose input
    # dimension no other party has gets no POVM (equal dims hide it)
    "click_stack_skips_first_party": (
        "attack.py",
        "for dp in dict.fromkeys(input_dims):",
        "for dp in dict.fromkeys(input_dims[1:]):",
        ["tests/test_attack.py::TestEigenCalls::test_strategy_checks_clicks_once_per_input_dimension",
         "tests/test_attack.py::TestRealizedSearch::test_ragged_input_dims"],
    ),
    # a witness stored as given: an anti-Hermitian part within TOL_HERM reaches the evaluation and the solve
    "witness_symmetrization_dropped": (
        "witness.py",
        "m = (m + m.conj().T) / 2",
        "m = m",
        ["tests/test_witness.py::TestHermitianPart::test_skew_input_stored_as_its_hermitian_part",
         "tests/test_cli.py::test_skew_witness_config_decomposes_and_simulates"],
    ),
    # the density rule's shift subtracted: every edge matrix fails the factorization and is decided by eigvalsh
    "cholesky_shift_sign_flipped": (
        "linalg.py",
        "np.linalg.cholesky(ms + _psd_shift(ms.shape[1]))",
        "np.linalg.cholesky(ms - _psd_shift(ms.shape[1]))",
        ["tests/test_attack.py::TestBuildPhase::test_one_eigvalsh_per_stack",
         "tests/test_linalg.py::TestOperatorRules::test_density_rule_decides_like_its_eigenvalues"],
    ),
    # the density rule's shift ten times TOL_PSD: eigenvalues down to -1e-9 factor and pass
    "cholesky_shift_tenfold": (
        "linalg.py",
        "np.broadcast_to(TOL_PSD * np.eye(d), (d, d))",
        "np.broadcast_to(10 * TOL_PSD * np.eye(d), (d, d))",
        ["tests/test_linalg.py::TestOperatorRules::test_density_rule_decides_like_its_eigenvalues"],
    ),
    # every term realized on its plan's cut: on a symmetric game a whole pair's drawn cut is lost, and only the
    # reported strategy's cut tag and repr show it, its value does not
    "term_cut_from_plan": (
        "attack.py",
        "cut = plan.blocks if len(plan.blocks[0]) == 1 else partitions[picks[j, c % picks.shape[1]]]",
        "cut = plan.blocks",
        ["tests/test_attack.py::TestSharedPlans::test_merged_sweep_matches_each_cut_alone",
         "tests/test_attack.py::TestRealizedSearch::test_symmetric_game_realizes_each_term_on_its_own_cut",
         "tests/test_attack.py::TestBatchedSearch::test_matches_sequential_loop"],
    ),
    # the plan key reads beta in its own order, not the cut's: one ensemble for every party merges the cuts of
    # an asymmetric game, and two of them are searched over the first one's contraction
    "plan_key_without_beta_order": (
        "attack.py",
        "for a in [beta.transpose(order), *(inputs[p] for p in order)]",
        "for a in [beta, *(inputs[p] for p in order)]",
        ["tests/test_attack.py::TestSharedPlans::test_plans_shared_only_where_contractions_agree",
         "tests/test_attack.py::TestSharedPlans::test_merged_sweep_matches_each_cut_alone",
         "tests/test_attack.py::TestBatchedSearch::test_matches_sequential_loop"],
    ),
    # the start operators' scale halved alone, (1 + u) / 2 in place of 1 + u: the start's check must see it
    "start_scale_half": (
        "attack.py",
        "u[:, bs].T.ravel(), (d,))",
        "u[:, bs].T.ravel() / 2 - 0.5, (d,))",
        ["tests/test_attack.py::TestStreamContract::test_search_start_matches_oracle",
         "tests/test_attack.py::TestStart::test_batch_matches_restart_alone",
         "tests/test_attack.py::TestBatchedSearch::test_matches_sequential_loop"],
    ),
    # two plans' draws in swapped order: the whole pairs' form before the products'
    "start_forms_swapped": (
        "attack.py",
        "for f in range(max(map(len, forms))):",
        "for f in reversed(range(max(map(len, forms)))):",
        ["tests/test_attack.py::TestStreamContract::test_search_start_matches_oracle"],
    ),
    # restart r seeded (r, m), not (m, r)
    "restart_stream_seed_swapped": (
        "attack.py",
        "rng = restart_rng(config.seed, r)",
        "rng = restart_rng(r, config.seed)",
        ["tests/test_attack.py::TestStreamContract::test_search_start_matches_oracle",
         "tests/test_attack.py::TestBatchedSearch::test_matches_sequential_loop"],
    ),
    # the unit check reads each stack's first operator only: an operator above 1 later in a stack passes
    "unit_check_first_only": (
        "attack.py",
        "_check_spectrum(eigs / scale, (0.0, 1.0))",
        "_check_spectrum(eigs[:1] / scale[:1], (0.0, 1.0))",
        ["tests/test_attack.py::TestStart::test_start_operator_above_one_in_last_restart_rejected_like_single",
         "tests/test_attack.py::TestBuildPhase::test_success_element_above_one_in_last_restart_rejected_like_single"],
    ),
}


def apply(src: Path, name: str) -> None:
    """Replace the row's old text in the copy ``src``; it must occur there exactly once."""
    path, old, new, _ = MUTANTS[name]
    target = src / "mdiw" / path
    text = target.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{name}: the old text occurs {text.count(old)} times in src/mdiw/{path}")
    target.write_text(text.replace(old, new))


def _copy(tmp: Path) -> Path:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tmp / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", tmp / "pyproject.toml")
    return tmp


def passes(copy: Path, test: str) -> bool:
    """Run one test id in its own pytest process on ``copy``; True if it passes, False if it fails."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    if run.returncode not in (0, 1):
        raise RuntimeError(f"{test}: pytest exited {run.returncode}\n{run.stdout[-2000:]}{run.stderr[-2000:]}")
    return run.returncode == 0


def main(argv=None) -> int:
    names = list(argv if argv is not None else sys.argv[1:]) or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"error: unknown mutants {unknown}; known: {list(MUTANTS)}", file=sys.stderr)
        return 2
    tests = list(dict.fromkeys(t for n in names for t in MUTANTS[n][3]))
    try:
        with tempfile.TemporaryDirectory() as tmp:
            clean = _copy(Path(tmp))
            failing = [t for t in tests if not passes(clean, t)]
        if failing:
            print(f"error: these tests fail without any mutant: {failing}", file=sys.stderr)
            return 2
        survivors = []
        for name in names:
            with tempfile.TemporaryDirectory() as tmp:
                copy = _copy(Path(tmp))
                apply(copy / "src", name)
                alive = [t for t in MUTANTS[name][3] if passes(copy, t)]
            print(f"{name}: {'SURVIVED ' + ', '.join(alive) if alive else 'caught'}")
            survivors += [name] if alive else []
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(names) - len(survivors)} of {len(names)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
