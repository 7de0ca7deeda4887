"""The mutation gate: every recorded mutant of the source, run again.

Each row of ``MUTANTS`` names a mutant and gives the file it changes, an exact
string that must occur in that file exactly once, its replacement, the tests
that must fail on the mutant, and the change that recorded it (its title in
CHANGES.md). The runner applies each row to a fresh temporary copy of
``src/``, ``tests/`` and ``pyproject.toml`` and runs the row's tests there with
``pytest -x``. It exits 1 if a mutant survives (its tests pass) or if a row's
string no longer occurs exactly once: a change that moves the mutated code
re-anchors the row instead of dropping it. A row that takes over
``ROW_CEILING_S`` fails too, so that the gate stays cheap as it grows. Rows run
``WORKERS`` at a time, each in its own pytest process, beside the check that
their tests pass on the unmutated tree; the report keeps the rows' order.

Run from the repository root, with the standard library and pytest only:

    python3 tests/mutants.py            # every row
    python3 tests/mutants.py NAME ...   # the named rows

It re-runs test files once per row, so tier-1 does not include it; CI runs it
as a step of its own.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str      # relative to the repository root
    old: str       # occurs in ``file`` exactly once
    new: str
    tests: tuple   # pytest node ids or files, relative to the root; the run must fail
    recorded: str  # the change that recorded the mutant, as CHANGES.md titles it


SHARING = "tests/test_sweep_sharing.py"
QUANTIZATION = "tests/test_stacked_quantization.py"
ONE_READER = "form each piece inside its one reader"
PROVIDERS_FORMAT = "tests/test_assignment.py::TestProvidersFormat"
RELABELING = "tests/test_invariance.py::test_cell_relabeling_carries_the_harness_rules"
ONE_WAY_IN = "one way into a trial's memo"
REFERENCE_SHAPE = "[9-K4L2NB14NU8d2]"  # a test_dimension_fuzz shape, the benchmark's reference
AT_BUILD = "form a draw's pair pieces once, at build"
BUILT = "draw records hold only what their build formed"
PIECES = "tests/test_pair_pieces.py"
CENTRAL = "tests/test_centralized.py"
GATHERED = f"{CENTRAL}::test_gathered_stacks_equal_nulling_stacks[k4]"
CERTIFICATE = f"{CENTRAL}::test_certificate_refuses"
GRAMS = f"{CENTRAL}::test_gathered_grams_are_within_the_certificates_rounding_bound"
STATION_GRAM = "screen from one Gram per base station"
BISECTION = "tests/test_feedback.py::TestBisection"
PER_CHUNK = f"{CENTRAL}::test_screen_equals_the_per_chunk_oracle"
PLAN = "draw-invariant work out of the screen's draw"
TABLE = "the centralized screen covers every strict assignment"
LOCKSTEP = f"{BISECTION}::test_one_call_gives_every_row_its_own_walk"
ONE_BISECTION = "one lockstep bisection for every emulated user"
ROW_CEILING_S = 10.0  # a row that takes longer fails: a slow row is fixed when it is added
WORKERS = min(2, os.cpu_count() or 1)  # pytest processes at once, never more than the cores

MUTANTS = (
    Mutant("feedback-pass-on-every-cell", "src/giasim/harness.py",
           "key = (tset.assignment.providers, entries, scheme.codebook_seed)",
           "key = (tset.assignment.providers, entries, scheme.codebook_seed, scheme.bits_budget)",
           (f"{SHARING}::test_rules_that_pick_one_assignment_share_its_feedback_rates",),
           "plan from the cells"),
    Mutant("scheme-outside-the-cells-read", "src/giasim/harness.py",
           "        if scheme not in self._entries:\n",
           "        if False:\n",
           (f"{SHARING}::test_scheme_outside_the_builds_cells_is_refused",),
           "plan from the cells"),
    Mutant("transceivers-keyed-by-object", "src/giasim/harness.py",
           'return self._once("transceivers", chosen.providers,',
           'return self._once("transceivers", id(chosen),',
           (f"{SHARING}::test_rules_that_pick_one_assignment_share_its_transceivers",),
           "one assignment format"),
    Mutant("lone-never-found", "src/giasim/assignment.py",
           "return next((k for k, p in enumerate(self.providers) if k == p), None)",
           "return None",
           (PROVIDERS_FORMAT,), "one assignment format"),
    Mutant("strict-allows-fixed-point", "src/giasim/assignment.py",
           "return sorted(self.providers) == list(range(K)) and self.lone is None",
           "return sorted(self.providers) == list(range(K))",
           (PROVIDERS_FORMAT,), "one assignment format"),
    Mutant("strict-skips-permutation", "src/giasim/assignment.py",
           "return sorted(self.providers) == list(range(K)) and self.lone is None",
           "return len(self.providers) == K and self.lone is None",
           (PROVIDERS_FORMAT,), "one assignment format"),
    Mutant("strict-own-length", "src/giasim/assignment.py",
           "return sorted(self.providers) == list(range(K)) and self.lone is None",
           "return sorted(self.providers) == list(range(len(self.providers))) "
           "and self.lone is None",
           (PROVIDERS_FORMAT,), "one assignment format"),
    Mutant("breaking-step-writes-first", "src/giasim/assignment.py",
           "    displaced = providers.index(p)  # before the lone cell takes p, which index would "
           "find\n    providers[lone], providers[displaced] = p, lone\n",
           "    providers[lone] = p\n    displaced = providers.index(p)\n"
           "    providers[displaced] = lone\n",
           (PROVIDERS_FORMAT,), "one assignment format"),
    Mutant("assignment-takes-any-sequence", "src/giasim/assignment.py",
           "if not isinstance(self.providers, tuple):",
           "if not isinstance(self.providers, (tuple, list)):",
           (PROVIDERS_FORMAT,), "one assignment format"),
    Mutant("reversed-argsort-ranking", "src/giasim/assignment.py",
           'order = np.argsort(-utility, axis=-1, kind="stable")',
           "order = np.argsort(utility, axis=-1)[..., ::-1]",
           ("tests/test_assignment.py",), "one preference format"),
    Mutant("receiver-gram-without-conj", "src/giasim/assignment.py",
           "gram = images.conj().swapaxes(-1, -2) @ images",
           "gram = images.swapaxes(-1, -2) @ images",
           ("tests/test_invariance.py::test_antenna_rotations_move_no_choice_and_no_rate",),
           "one preference format"),
    Mutant("user-rate-without-conj", "src/giasim/gia.py",
           "H_eff = decoders.conj().swapaxes(-1, -2) @ direct_channels(ch) @ slices",
           "H_eff = decoders.swapaxes(-1, -2) @ direct_channels(ch) @ slices",
           ("tests/test_invariance.py::test_antenna_rotations_move_no_choice_and_no_rate",),
           "one preference format"),
    Mutant("unplanned-config-read", "src/giasim/harness.py",
           "position = self._position.get(cfg)",
           "position = self._position.get(cfg, 0)",
           (f"{SHARING}::test_config_outside_the_builds_cells_is_refused",),
           "one memo per trial build"),
    Mutant("centralized-keyed-by-proposer", "src/giasim/harness.py",
           'scheme.proposer if rule == "two_sided" else None',
           "scheme.proposer",
           (f"{SHARING}::test_centralized_schemes_that_differ_in_proposer_search_once_per_config",),
           "one memo per trial build"),
    Mutant("feedback-rates-keyed-by-rule", "src/giasim/harness.py",
           "key = (tset.assignment.providers, entries, scheme.codebook_seed)",
           "key = (tset.assignment.providers, entries, scheme.codebook_seed, scheme.assignment)",
           (f"{SHARING}::test_rules_that_pick_one_assignment_share_its_feedback_rates",),
           "one memo per trial build"),
    Mutant("rb-decoder-off-the-channel", "src/giasim/harness.py",
           "decoders = orthonormalize(gia.direct_channels(build.ch) @ patterns)",
           "decoders = orthonormalize(gia.direct_channels(build.ch).conj() @ patterns)",
           ("tests/test_invariance.py::test_antenna_rotations_move_no_baseline_rate",),
           "one memo per trial build"),
    Mutant("fdma-gram-without-conj", "src/giasim/harness.py",
           "psd_eigvals(direct.conj().swapaxes(-1, -2) @ direct)",
           "psd_eigvals(direct.swapaxes(-1, -2) @ direct)",
           ("tests/test_invariance.py::test_antenna_rotations_move_no_baseline_rate",),
           "one memo per trial build"),
    Mutant("utility-of-the-first-user", "src/giasim/assignment.py",
           "utility = np.add.reduce(terms, axis=-2)",
           "utility = np.add.reduce(terms[..., :1, :], axis=-2)",
           ("tests/test_invariance.py::"
            "test_user_relabeling_within_a_cell_moves_no_choice_and_carries_the_rates",),
           "one memo per trial build"),
    Mutant("frame-svd-unwrapped", "src/giasim/feedback.py",
           "self.Sg, sig, self.Rgh = svd(G, full_matrices=False)",
           "self.Sg, sig, self.Rgh = np.linalg.svd(G, full_matrices=False)",
           ("tests/test_feedback.py::TestEmulatedQuantization::"
            "test_frame_svd_that_does_not_converge_is_a_numerical_failure",),
           "one memo per trial build"),
    Mutant("feasibility-sides-swapped", "src/giasim/system.py",
           '"users: L*N_U >= (L-1)*N_B + d_s"',
           '"stations: L*N_U >= (L-1)*N_B + d_s"',
           ("tests/test_system.py",), "one memo per trial build"),
    Mutant("quantized-memo-without-seed", "src/giasim/harness.py",
           "keys = [(akey, seed, user, b) for",
           "keys = [(akey, 0, user, b) for",
           (f"{QUANTIZATION}::test_emulated_pair_that_two_groups_share_is_synthesized_once_per_seed",),
           ONE_READER),
    Mutant("emulation-per-call", "src/giasim/harness.py",
           "emulated = [key for key in missing if",
           "emulated = [key for key in dict.fromkeys(keys) if",
           (f"{QUANTIZATION}::test_emulated_pair_that_two_chunks_share_is_synthesized_once",),
           ONE_READER),
    Mutant("rb-images-per-cell", "src/giasim/harness.py",
           'return build.rates(cfg, "rb rates", None, evaluate)',
           "return evaluate((cfg,))[0]",
           (f"{SHARING}::test_snr_sweep_forms_baseline_pieces_once_per_trial",),
           ONE_READER),
    Mutant("potentials-form-every-pair", "src/giasim/harness.py",
           'if any(s.assignment not in ("fixed", "rb", "fdma")',
           'if True or any(s.assignment not in ("fixed", "rb", "fdma")',
           (f"{SHARING}::test_each_draw_matches_once_per_rule_and_forms_pairs_once",),
           ONE_READER),
    Mutant("leakage-gram-without-conj", "src/giasim/feedback.py",
           "omega = core.conj().swapaxes(-1, -2) @ P_perp @ core",
           "omega = core.swapaxes(-1, -2) @ P_perp @ core",
           ("tests/test_invariance.py::"
            "test_station_rotations_move_no_bit_split_distance_or_explicit_pick",),
           ONE_READER),
    Mutant("leakage-without-hermitian-part", "src/giasim/feedback.py",
           "herm_eig((omega + omega.conj().swapaxes(-1, -2)) / 2.0)", "herm_eig(omega)",
           ("tests/test_feedback.py::TestOmega::test_ill_conditioned_image",), AT_BUILD),
    Mutant("full-row-rank-unnamed", "src/giasim/gia.py",
           '        if rank == m:\n'
           '            raise InfeasibleConfig(f"interference stack has no null space, need {d_s}")\n',
           "",
           ("tests/test_lazy_decoders.py::test_infeasible_ideal_stack_raises_at_first_read",),
           ONE_READER),
    Mutant("take-index-provider-receiver-swapped", "src/giasim/gia.py",
           "[self._rows[p, r] for p, r in pairs]",
           "[self._rows[r, p] for p, r in pairs]",
           ("tests/test_pair_pieces.py::test_stacked_pieces_equal_per_pair_oracle",),
           "pair pieces in stacked calls"),
    Mutant("no-confirm-step", "src/giasim/assignment.py",
           "    near = ok[close].tolist()\n",
           "    near = []\n",
           ("tests/test_centralized.py::test_search_equals_fresh_build_on_fuzz_shapes",),
           "feed back every budget of a draw at once"),
    Mutant("flat-sum-by-cells", "src/giasim/harness.py",
           "sum(r for cell in cells for r in cell)",
           "sum(map(sum, cells))",
           (f"{SHARING}::test_snr_sweep_bit_identical_to_grid_major_loop",),
           "a cell returns its five summary numbers"),
    Mutant("fdma-off-a-cross-link", "src/giasim/harness.py",
           "direct = gia.direct_channels(build.ch)",
           "direct = build.ch.H[:, range(cfg.K), 0]",
           (f"{RELABELING}[k4-fdma]",), ONE_WAY_IN),
    Mutant("search-rates-without-cell-0", "src/giasim/harness.py",
           "lambda a: self.user_rates(cfg, self.transceivers(a)),",
           "lambda a: self.user_rates(cfg, self.transceivers(a))[:, 1:],",
           (f"{RELABELING}[k4-centralized_sum]",), ONE_WAY_IN),
    Mutant("min-objective-without-the-last-cell", "src/giasim/assignment.py",
           'reduce = sum if objective == "sum_rate" else min',
           'reduce = sum if objective == "sum_rate" else (lambda cells: min(cells[:-1]))',
           (f"{RELABELING}[k4-centralized_min]",), ONE_WAY_IN),
    Mutant("summary-without-cell-0", "src/giasim/harness.py",
           "cells = rates.T.tolist()",
           "cells = rates[:, 1:].T.tolist()",
           (f"{RELABELING}[k4-worst_sum]",), ONE_WAY_IN),
    Mutant("minimum-cell-rate-without-cell-0", "src/giasim/harness.py",
           "min(map(sum, cells))",
           "min(map(sum, cells[1:]))",
           (f"{RELABELING}[k4-worst_min]",), ONE_WAY_IN),
    Mutant("rb-patterns-user-major", "src/giasim/harness.py",
           "cfg.K, cfg.L, cfg.N_U, cfg.d_s).swapaxes(0, 1))",
           "cfg.L, cfg.K, cfg.N_U, cfg.d_s))",
           ("tests/test_invariance.py::test_cell_relabeling_carries_the_rb_rates_with_their_patterns",),
           ONE_WAY_IN),
    # what a draw's build forms, and the screen kept in the trial's memo
    Mutant("take-forms-missing-pairs", "src/giasim/gia.py",
           'raise ContractViolation(f"pairs {sorted({*pairs} - self._rows.keys())} were not formed")',
           "return Potentials(self.ch, self.cfg, pairs).take(name, pairs)",
           (f"{PIECES}::test_take_of_a_pair_the_build_did_not_form_is_refused",), AT_BUILD),
    Mutant("screen-keyed-per-config", "src/giasim/harness.py",
           '"screen", None, lambda:', '"screen", cfg, lambda:',
           (f"{SHARING}::test_centralized_cells_of_a_draw_share_one_screen",), AT_BUILD),
    Mutant("fixed-only-build-forms-every-pair", "src/giasim/harness.py",
           'not in ("fixed", "rb", "fdma")', 'not in ("rb", "fdma")',
           (f"{PIECES}::test_fixed_only_build_forms_the_ring_once",), AT_BUILD),
    # a Potentials holds exactly its pairs, and the errors of their pieces
    Mutant("rows-in-sorted-pair-order", "src/giasim/gia.py",
           "self._rows = {pair: row for row, pair in enumerate(pairs)}",
           "self._rows = {pair: row for row, pair in enumerate(sorted(pairs))}",
           (f"{PIECES}::test_pieces_formed_in_any_batches_are_the_same_bits",), BUILT),
    Mutant("alignment-null-space-unchecked", "src/giasim/gia.py",
           "np.flatnonzero(null_dim < d_s)", "np.flatnonzero(null_dim < 0)",
           (f"{PIECES}::test_narrow_alignment_null_space_raises_at_a_read_of_every_piece",), BUILT),
    Mutant("misalignment-raised-at-patterns", "src/giasim/gia.py",
           'errors["aligned", j] = AlignmentFailure(', 'errors["patterns", j] = AlignmentFailure(',
           (f"{PIECES}::test_misaligned_pairs_are_the_pairs_the_per_pair_oracle_flags",), BUILT),
    # the prose mutants of earlier changes, ported to today's code
    Mutant("direct-channels-cell-major", "src/giasim/gia.py",
           'return np.einsum("ikkab->ikab", ch.H)', 'return np.einsum("ikkab->kiab", ch.H)',
           ("tests/test_gia.py::test_rate_paths_agree",), "array-shaped trial evaluation"),
    Mutant("throughput-keeps-own-term", "src/giasim/harness.py",
           "others = np.where(own, 0.0, cov)", "others = cov",
           ("tests/test_harness.py::TestThroughput",), "array-shaped trial evaluation"),
    Mutant("receiver-preferences-without-noise", "src/giasim/assignment.py",
           "per_config(configs, lambda c: c.P / (c.d_s * c.sigma2),",
           "per_config(configs, lambda c: c.P / c.d_s,",
           ("tests/test_harness.py::test_rates_depend_on_powers_only_through_snr",),
           "array-shaped trial evaluation"),
    Mutant("confirm-sums-users", "src/giasim/assignment.py",
           "user_rates(candidate(c)).T.tolist()", "user_rates(candidate(c)).tolist()",
           (f"{CENTRAL}::test_search_equals_fresh_build_per_candidate[reference_k4]",),
           "array-shaped trial evaluation"),
    Mutant("cell-receivers-are-providers", "src/giasim/gia.py",
           "receivers = np.argsort(providers, axis=-1)", "receivers = np.asarray(providers)",
           (GRAMS,), "pair pieces in stacked calls"),
    Mutant("take-ignores-failed-pieces", "src/giasim/gia.py",
           "for p, r in pairs if self._errors else ():", "for p, r in ():",
           (f"{PIECES}::test_failed_piece_raises_at_its_read_only",),
           "pair pieces in stacked calls"),
    Mutant("frame-draws-reversed", "src/giasim/feedback.py",
           "self.E = [rng.exponential() for rng in rngs]",
           "self.E = [rng.exponential() for rng in rngs][::-1]",
           (f"{QUANTIZATION}::test_stacked_quantization_equals_per_user_oracle{REFERENCE_SHAPE}",),
           "quantize users, not cells"),
    Mutant("leakage-receivers-reversed", "src/giasim/harness.py",
           "np.argsort(tset.assignment.providers)  # provider order",
           "np.argsort(tset.assignment.providers)[::-1]  # provider order",
           (f"{QUANTIZATION}::test_stacked_quantization_equals_per_user_oracle{REFERENCE_SHAPE}",),
           "quantize users, not cells"),
    Mutant("nulling-provider-block-of-another-cell", "src/giasim/gia.py",
           "[K * L * K + i * K + k]", "[K * L * K + i * K + (K - 1 - k)]",
           (GATHERED,), "quantize users, not cells"),
    Mutant("search-result-unconjugated", "src/giasim/feedback.py",
           "return idx, cb.words_h[idx].conj().T,", "return idx, cb.words_h[idx].T,",
           ("tests/test_feedback.py::TestQuantize::test_exact_member_wins",),
           "quantize users, not cells"),
    Mutant("screen-embedding-sign", "src/giasim/feedback.py",
           "np.concatenate((V, 1j * V), axis=1)", "np.concatenate((V, -1j * V), axis=1)",
           (f"{QUANTIZATION}::test_screened_search_equals_einsum_search",),
           "faster feedback quantization with the same bits"),
    Mutant("screen-users-swapped", "src/giasim/gia.py",
           "gains[certified[:, k], k] = _gram_eigvals(Z.reshape(-1, L, d_s, own))",
           "gains[certified[:, k], k] = _gram_eigvals(Z.reshape(-1, L, d_s, own))[..., ::-1, :]",
           (f"{CENTRAL}::test_screened_rates_equal_user_rates",),
           "one inverse per cell, not one QR per user"),
    Mutant("template-without-provider-block", "src/giasim/gia.py",
           "+ [(p, L)] + [(k, m)", "+ [(k, m)",
           (GRAMS,), "one inverse per cell, not one QR per user"),
    Mutant("certificate-skips-finiteness", "src/giasim/gia.py",
           "n, certified = gram.shape[-1], np.array(finite)",
           "n, certified = gram.shape[-1], np.ones(np.shape(finite), bool)",
           (f"{CERTIFICATE}[non_finite]",), "one inverse per cell, not one QR per user"),
    Mutant("certificate-without-fallback", "src/giasim/gia.py",
           "factor, refused = _each(np.linalg.cholesky, gram)",
           "factor, refused = np.linalg.cholesky(gram), {}",
           (f"{CERTIFICATE}[tight_rank_deficient]",), "one inverse per cell, not one QR per user"),
    Mutant("certificate-without-conditioning-bound", "src/giasim/gia.py",
           "    diagonal -= (CERTIFIED_RATIO", "    diagonal -= 0 * (CERTIFIED_RATIO",
           (f"{CENTRAL}::test_certificate_sees_ill_conditioning_off_the_diagonal",),
           "one inverse per cell, not one QR per user"),
    Mutant("quantize-screen-without-margin", "src/giasim/feedback.py",
           "return 6 * N ** 2 * (3 * M + N + 4) * 2.0 ** -53", "return 0.0",
           (f"{QUANTIZATION}::test_screen_keeps_every_exact_minimizer",),
           "feed back every budget of a draw at once"),
    Mutant("feedback-entry-off-by-one", "src/giasim/harness.py",
           "tuple(stack[position] for stack", "tuple(stack[position - 1] for stack",
           (f"{QUANTIZATION}::test_batched_feedback_equals_per_entry_feedback{REFERENCE_SHAPE}",),
           "feed back every budget of a draw at once"),
    Mutant("assignment-without-memo", "src/giasim/harness.py",
           'return self._once("assignment", key, lambda: self._choose(cfg, scheme))',
           "return self._choose(cfg, scheme)",
           (f"{SHARING}::test_each_draw_matches_once_per_rule_and_forms_pairs_once",),
           "feed back every budget of a draw at once"),
    Mutant("aggregate-without-contiguous-copy", "src/giasim/harness.py",
           "records = np.ascontiguousarray(records)", "records = records",
           ("tests/test_harness.py::TestAggregation::test_stacked_aggregate_equals_per_cell_oracle",),
           "one rate pass per draw"),
    Mutant("sweep-without-draw-fit-check", "src/giasim/harness.py",
           "    require_draw_fits(cfg)\n", "",
           ("tests/test_cli.py::test_oversized_draw_is_an_error_line",),
           "a cell returns its five summary numbers"),
    Mutant("certified-ratio-1e-7", "src/giasim/gia.py",
           "CERTIFIED_RATIO = 1e-6", "CERTIFIED_RATIO = 1e-7",
           (f"{CENTRAL}::test_candidates_in_the_certificate_band_take_the_exact_path",),
           "the centralized screen from a Cholesky factor of each cell's Gram"),
    Mutant("station-index-receiver-swapped", "src/giasim/gia.py",
           "(l * (K - 1) + r - (r > l)) * L + m", "(r * (K - 1) + l - (l > r)) * L + m",
           (GRAMS,), STATION_GRAM),
    Mutant("aligned-basis-at-the-providers-station", "src/giasim/gia.py",
           "aligned[r, p] = B.swapaxes(-1, -2)", "aligned[p, r] = B.swapaxes(-1, -2)",
           (GRAMS,), STATION_GRAM),
    Mutant("station-column-finiteness-ignored", "src/giasim/gia.py",
           "finite[k, blocks].all(-1), []", "np.ones(n, bool), []",
           (f"{CENTRAL}::test_failed_pairs_leave_exactly_their_candidates_uncertified",),
           STATION_GRAM),
    Mutant("station-grams-held-at-once", "src/giasim/gia.py",
           "gram = (table[k].conj() @ table[k].T)",
           "gram = ((table.conj() @ table.swapaxes(-1, -2))[k])",
           (f"{CENTRAL}::test_screen_memory_stays_within_five_chunks",), STATION_GRAM),
    Mutant("certificate-factor-held-with-the-kept-one", "src/giasim/gia.py",
           "shifted = _each(np.linalg.cholesky, gram)[1]",
           "held = _each(np.linalg.cholesky, gram); shifted = held[1]",
           (f"{CENTRAL}::test_certificate_holds_one_factor_at_a_time",), STATION_GRAM),
    Mutant("screen-certifies-wide-cells", "src/giasim/gia.py",
           "        if not square:", "        if False:",
           (f"{CENTRAL}::test_wider_null_space_evaluates_every_candidate_exactly",), STATION_GRAM),
    Mutant("station-tail-with-another-stations-mask", "src/giasim/gia.py",
           "gains[certified[:, k], k]", "gains[certified[:, k - 1], k]",
           (f"{PER_CHUNK}[failed_pairs]",), PLAN),
    Mutant("own-block-from-the-wrong-corner", "src/giasim/gia.py",
           "owns.append(factor[ok, -own:, -own:])", "owns.append(factor[ok, :own, :own])",
           (f"{PER_CHUNK}[tight_k6]",), PLAN),
    Mutant("chunk-factor-held-into-the-next-chunk", "src/giasim/gia.py",
           "                del factor  #", "                factor  #",
           (f"{CENTRAL}::test_each_chunk_factors_with_the_previous_chunks_factor_freed",), PLAN),
    # one derangement table, and a gather plan and screen memo keyed by (K, L) alone
    Mutant("derangements-keep-fixed-points", "src/giasim/gia.py",
           "        free[:, k] = False  # no cell provides for itself\n", "",
           ("tests/test_assignment.py::TestDerangements::test_equal_the_filter_of_every_permutation",),
           TABLE),
    Mutant("derangements-writable", "src/giasim/gia.py",
           "    rows.flags.writeable = False\n", "",
           ("tests/test_assignment.py::TestDerangements::test_equal_the_filter_of_every_permutation",),
           TABLE),
    Mutant("plan-cache-keeps-every-shape", "src/giasim/gia.py",
           "@functools.lru_cache(maxsize=1)  # one (K, L) per sweep",
           "@functools.lru_cache(maxsize=8)  # one (K, L) per sweep",
           (f"{CENTRAL}::test_gather_plan_cache_holds_the_one_plan_the_guard_counts",), TABLE),
    Mutant("log-base-takes-the-integer-two", "src/giasim/harness.py",
           'if log_base == "2":', 'if log_base in (2, "2"):',
           ("tests/test_harness.py::TestSweep::test_unsupported_log_base_rejected_at_construction",),
           TABLE),
    # one lockstep bisection for every emulated user, and a guard that counts the candidates
    Mutant("lockstep-stops-at-the-first-row", "src/giasim/feedback.py",
           "if ((mid == lo) | (mid == hi)).all():", "if ((mid == lo) | (mid == hi)).any():",
           (LOCKSTEP,), ONE_BISECTION),
    Mutant("edge-row-bisected", "src/giasim/feedback.py",
           "np.where(spread(top) <= dist_sq, top,", "np.where(spread(top) < dist_sq, top,",
           (LOCKSTEP,), ONE_BISECTION),
    Mutant("zero-distance-row-bisected", "src/giasim/feedback.py",
           "top = np.where(dist_sq > 0.0, np.pi / 2.0 / sig[:, 0], 0.0)",
           "top = np.pi / 2.0 / sig[:, 0]",
           (LOCKSTEP,), ONE_BISECTION),
    Mutant("screen-guard-without-the-candidates", "src/giasim/gia.py",
           "size = n * K * (8 * own + 8 + square", "size = n * K * (8 * own + square",
           (f"{CENTRAL}::test_search_over_the_byte_guard_forms_no_candidates",), ONE_BISECTION),
    Mutant("candidates-formed-before-the-screen", "src/giasim/assignment.py",
           "    count = gia.derangement_count(cfg.K)\n",
           "    count = len(gia.derangements(cfg.K))\n",
           (f"{CENTRAL}::test_search_over_the_byte_guard_forms_no_candidates",), ONE_BISECTION),
)


def pytest_exit(tests, mutant: Mutant | None = None) -> subprocess.CompletedProcess:
    """``pytest -x`` of ``tests`` on a temporary copy of the tree, with ``mutant``
    applied if one is given."""
    with tempfile.TemporaryDirectory(prefix="giasim-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
        if mutant is not None:
            target = copy / mutant.file
            target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                              encoding="utf-8")
        # the named tests need no third-party plugin, whose import can outweigh a row's test
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
                   PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True, timeout=600)


def verdict(mutant: Mutant) -> str:
    """"killed", "survived" or "broken: <why>" for one row."""
    count = (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)
    if count != 1:
        return f"broken: the old string occurs {count} times in {mutant.file}"
    done = pytest_exit(mutant.tests, mutant)
    # 1: a test failed; 2: collection failed, as an import of a broken module does
    if done.returncode in (1, 2):
        return "killed"
    if done.returncode == 0:
        return "survived"
    return f"broken: pytest exited {done.returncode}: {done.stdout.strip()[-300:]}"


def timed(fn, *args):
    """fn(*args) and the seconds it took."""
    t0 = time.perf_counter()
    return fn(*args), time.perf_counter() - t0


def main(rows=MUTANTS, names=()) -> int:
    unknown = set(names) - {m.name for m in rows}
    if unknown:
        print(f"unknown mutant names: {sorted(unknown)}")
        return 1
    rows = [m for m in rows if not names or m.name in names]
    start = time.perf_counter()
    with ThreadPoolExecutor(WORKERS) as pool:
        # a kill counts only if the same tests pass on the unmutated tree
        clean = pool.submit(timed, pytest_exit, list(dict.fromkeys(t for m in rows for t in m.tests)))
        verdicts = [pool.submit(timed, verdict, mutant) for mutant in rows]
        done, seconds = clean.result()
        if done.returncode != 0:
            pool.shutdown(cancel_futures=True)
            print(f"the named tests fail on the unmutated tree:\n{done.stdout[-2000:]}")
            return 1
        print(f"the named tests pass on the unmutated tree ({seconds:.1f} s)")
        bad = 0
        for mutant, future in zip(rows, verdicts):
            outcome, seconds = future.result()
            if outcome == "killed" and seconds > ROW_CEILING_S:
                outcome = f"killed, but slow: over the {ROW_CEILING_S:.0f} s ceiling"
            bad += outcome != "killed"
            print(f"{mutant.name:<40} {outcome} ({seconds:.1f} s)", flush=True)
    print(f"{len(rows) - bad} of {len(rows)} mutants killed in {time.perf_counter() - start:.0f} s "
          f"({WORKERS} at a time)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(names=sys.argv[1:]))
