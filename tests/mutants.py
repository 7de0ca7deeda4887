"""The mutation gate: every recorded mutant of the source, run again.

Each row of ``MUTANTS`` names a mutant and gives the file it changes, an exact
string that must occur in that file exactly once, its replacement, the tests
that must fail on the mutant, and the change that recorded it (its title in
CHANGES.md). The runner applies each row to a fresh temporary copy of
``src/``, ``tests/`` and ``pyproject.toml`` and runs the row's tests there with
``pytest -x``. It exits 1 if a mutant survives (its tests pass) or if a row's
string no longer occurs exactly once: a change that moves the mutated code
re-anchors the row instead of dropping it. A row that takes over
``ROW_CEILING_S`` fails too, so that the gate stays cheap as it grows.

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
ROW_CEILING_S = 10.0  # a row that takes longer fails: a slow row is fixed when it is added

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
           "H_eff = tset.decoders.conj().swapaxes(-1, -2) @ direct_channels(ch) @ slices",
           "H_eff = tset.decoders.swapaxes(-1, -2) @ direct_channels(ch) @ slices",
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
           "gia.cell_pairs(self.cfg.K) if self._all_pairs else []",
           "gia.cell_pairs(self.cfg.K)",
           (f"{SHARING}::test_each_draw_matches_once_per_rule_and_forms_pairs_once",),
           ONE_READER),
    Mutant("leakage-gram-without-conj", "src/giasim/feedback.py",
           "omega = core.conj().swapaxes(-1, -2) @ P_perp @ core",
           "omega = core.swapaxes(-1, -2) @ P_perp @ core",
           ("tests/test_invariance.py::"
            "test_station_rotations_move_no_bit_split_distance_or_explicit_pick",),
           ONE_READER),
    Mutant("full-row-rank-unnamed", "src/giasim/gia.py",
           '        if rank == m:\n'
           '            raise InfeasibleConfig(f"interference stack has no null space, need {d_s}")\n',
           "",
           ("tests/test_lazy_decoders.py::test_infeasible_ideal_stack_raises_at_first_read",),
           ONE_READER),
    Mutant("take-index-provider-receiver-swapped", "src/giasim/gia.py",
           "[p * self.cfg.K + r for p, r in pairs]",
           "[r * self.cfg.K + p for p, r in pairs]",
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
    Mutant("bisection-anchor-below-zero", "src/giasim/feedback.py",
           "0.0 < b < hi and spread(b)",
           "b < hi and spread(b)",
           ("tests/test_feedback.py::TestBisection::test_nan_and_far_off_guides_give_the_walks_time",),
           "faster feedback quantization with the same bits"),
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
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
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


def main(rows=MUTANTS, names=()) -> int:
    unknown = set(names) - {m.name for m in rows}
    if unknown:
        print(f"unknown mutant names: {sorted(unknown)}")
        return 1
    rows = [m for m in rows if not names or m.name in names]
    start = time.perf_counter()
    # a kill counts only if the same tests pass on the unmutated tree
    clean = pytest_exit(list(dict.fromkeys(t for m in rows for t in m.tests)))
    if clean.returncode != 0:
        print(f"the named tests fail on the unmutated tree:\n{clean.stdout[-2000:]}")
        return 1
    print(f"the named tests pass on the unmutated tree ({time.perf_counter() - start:.1f} s)")
    bad = 0
    for mutant in rows:
        t0 = time.perf_counter()
        outcome = verdict(mutant)
        if outcome == "killed" and time.perf_counter() - t0 > ROW_CEILING_S:
            outcome = f"killed, but slow: over the {ROW_CEILING_S:.0f} s ceiling"
        bad += outcome != "killed"
        print(f"{mutant.name:<34} {outcome} ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{len(rows) - bad} of {len(rows)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(names=sys.argv[1:]))
