"""Trial-major sweeps against the grid-major reference.

``run_sweep`` builds each trial once and shares the power-free work across
every grid point and scheme. The reference below is the plain grid-major
loop: one fresh ``oracles.run_trial`` per (grid point, scheme, trial)
cell, aggregated with ``oracles.aggregate_metrics``. The unformatted row
floats must be equal with ``==``: the golden CSVs print 12 significant
digits and would miss a change in the last bits.
"""

import ast
import inspect
from dataclasses import replace

import numpy as np
import pytest

import giasim.harness as hmod
from giasim.assignment import fixed_cyclic
from giasim.errors import ContractViolation, DegenerateChannel
from giasim.harness import (
    ASSIGNMENT_SCHEMES,
    SchemeSpec,
    SweepSpec,
    log_scale,
    run_sweep,
)
from giasim.system import SystemConfig, draw_channels, trial_rng
from oracles import aggregate_metrics, receiver_preferences, run_trial, sweep_cells

CFG = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2, P=10 ** 2.5, sigma2=1.0)


def grid_major_reference(spec: SweepSpec, cfg: SystemConfig) -> list:
    unit = log_scale(spec.log_base)
    rows = []
    for value in spec.grid:
        for scheme in spec.schemes:
            point_cfg = cfg.at_snr_db(value) if spec.variable == "snr_db" else cfg
            point_scheme = (
                replace(scheme, bits_budget=int(value)) if spec.variable == "B" else scheme
            )
            agg = aggregate_metrics(
                [run_trial(point_cfg, point_scheme, t, spec.seed) for t in range(spec.trials)]
            )
            rows.append(
                {
                    "variable": spec.variable,
                    "value": value,
                    "scheme": point_scheme.label,
                    "r_sum": agg["r_sum"] * unit,
                    "r_sum_stderr": agg["r_sum_stderr"] * unit,
                    "r_min": agg["r_min"] * unit,
                    "r_min_stderr": agg["r_min_stderr"] * unit,
                    "rinr_db": agg["rinr_db"],
                    "bound_db": agg["bound_db"],
                    "trials": agg["trials"],
                    "resamples": agg["resamples"],
                }
            )
    return rows


def test_snr_sweep_bit_identical_to_grid_major_loop():
    schemes = tuple(SchemeSpec(assignment=name) for name in ASSIGNMENT_SCHEMES) + (
        SchemeSpec(assignment="two_sided", proposer="providers"),
    )
    spec = SweepSpec(
        variable="snr_db", grid=(-30.0, 10.0, 50.0), trials=3, schemes=schemes, seed=41
    )
    # trial 1 ranks receivers differently at the two ends of the grid, so the
    # power-keyed receiver side is exercised, not only its first entry, and its
    # two-sided matchings differ across the grid, so every planned config rates
    # an assignment that some of them do not run
    build = hmod.TrialBuild(CFG, spec.seed, 1, 0, sweep_cells(spec, CFG))
    ends = [[receiver_preferences(build.ch, CFG.at_snr_db(v), k, build.potentials())[0]
             for k in range(CFG.K)] for v in (-30.0, 50.0)]
    assert ends[0] != ends[1]
    matched = {build.assignment(CFG.at_snr_db(v), schemes[2]).providers for v in spec.grid}
    assert schemes[2] == SchemeSpec(assignment="two_sided") and len(matched) > 1
    rows = run_sweep(spec, CFG)
    assert [row["scheme"] for row in rows[: len(schemes)]] == [s.label for s in schemes]
    assert rows == grid_major_reference(spec, CFG)


def test_bit_sweep_bit_identical_to_grid_major_loop():
    spec = SweepSpec(
        variable="B",
        grid=(40, 100, 300),
        trials=3,
        schemes=(
            SchemeSpec(assignment="two_sided", bit_alloc="dba"),
            SchemeSpec(assignment="two_sided", bit_alloc="eba"),
            SchemeSpec(assignment="fixed", bit_alloc="dba"),
        ),
        seed=42,
        log_base="2",
    )
    rows = run_sweep(spec, CFG)
    assert all(row["rinr_db"] is not None for row in rows)
    assert rows == grid_major_reference(spec, CFG)


def test_degenerate_cell_resamples_alone(monkeypatch):
    schemes = (
        SchemeSpec(assignment="fixed"),
        SchemeSpec(assignment="one_sided"),
        SchemeSpec(assignment="rb"),
    )
    spec = SweepSpec(variable="snr_db", grid=(20.0, 30.0), trials=1, schemes=schemes, seed=31)
    clean = run_sweep(spec, CFG)

    real = hmod._evaluate_trial
    seen = []

    def flaky(build, cfg, scheme, resamples):
        seen.append((scheme.assignment, resamples, build))
        if scheme.assignment == "one_sided" and resamples == 0:
            raise DegenerateChannel("synthetic rank collapse")
        return real(build, cfg, scheme, resamples)

    monkeypatch.setattr(hmod, "_evaluate_trial", flaky)
    rows = run_sweep(spec, CFG)

    for row, ref in zip(rows, clean):
        if row["scheme"] == "one_sided":
            assert row["resamples"] == 1
        else:
            assert row == ref  # untouched cells stay on the first draw
    first = {b for name, attempt, b in seen if attempt == 0}
    resampled = {b for name, attempt, b in seen if attempt == 1}
    assert len(first) == 1 and len(resampled) == 1  # one build per attempt, shared
    assert [name for name, attempt, _ in seen if attempt == 1] == ["one_sided", "one_sided"]
    build = resampled.pop()
    assert np.array_equal(build.ch.H, draw_channels(CFG, trial_rng(31, 0, stream=1)).H)
    for row in rows:
        if row["scheme"] == "one_sided":
            point = CFG.at_snr_db(row["value"])
            fresh = hmod.TrialBuild(CFG, 31, 0, 1, [(point, schemes[1])])
            expected = real(fresh, point, schemes[1], 1)
            assert row["r_sum"] == expected[0]  # the sum rate


def test_failed_assignment_resamples_only_its_grid_points(monkeypatch):
    # trial 1 of seed 41 matches two-sided differently at -30 dB than at 10 and
    # 50 dB: a transceiver set that fails on the first draw resamples the -30 dB
    # cell alone, though each set's rates are evaluated at every grid point
    spec = SweepSpec("snr_db", (-30.0, 10.0, 50.0), 2, (SchemeSpec(assignment="two_sided"),),
                     seed=41)
    clean = run_sweep(spec, CFG)
    build = hmod.TrialBuild(CFG, spec.seed, 1, 0, sweep_cells(spec, CFG))
    chosen = [build.assignment(CFG.at_snr_db(v), spec.schemes[0]).providers for v in spec.grid]
    assert chosen[0] != chosen[1] == chosen[2]
    real = hmod.gia.build_transceivers
    first_draw = draw_channels(CFG, trial_rng(spec.seed, 1)).H

    def failing(ch, cfg, assignment, potentials=None):
        if np.array_equal(ch.H, first_draw) and assignment.providers == chosen[0]:
            raise DegenerateChannel("synthetic rank collapse")
        return real(ch, cfg, assignment, potentials)

    monkeypatch.setattr(hmod.gia, "build_transceivers", failing)
    rows = run_sweep(spec, CFG)
    assert rows[0]["resamples"] == 1 and rows[0] != clean[0]
    assert rows[1:] == clean[1:]


def test_snr_sweep_at_fixed_budget_bit_identical_to_grid_major_loop():
    # 100 bits over 8 users puts users on both sides of the explicit-search limit
    spec = SweepSpec(
        variable="snr_db",
        grid=(10.0, 20.0, 30.0),
        trials=3,
        schemes=(
            SchemeSpec(assignment="two_sided", bit_alloc="dba", bits_budget=100),
            SchemeSpec(assignment="fixed", bit_alloc="eba", bits_budget=100),
        ),
        seed=43,
    )
    rows = run_sweep(spec, CFG)
    assert all(row["rinr_db"] is not None for row in rows)
    assert rows == grid_major_reference(spec, CFG)


def test_snr_sweep_quantizes_each_user_once_per_trial(monkeypatch):
    # users, not calls: one search per explicit user, one call per cell for
    # all of its emulated users
    users = {"explicit": 0, "emulated": 0}
    quantize, model_quantize = hmod.fb.quantize, hmod.fb.model_quantize

    def counted_quantize(V, cb):
        users["explicit"] += 1
        return quantize(V, cb)

    def counted_model_quantize(frame, emulated, bits):
        users["emulated"] += len(emulated)
        return model_quantize(frame, emulated, bits)

    monkeypatch.setattr(hmod.fb, "quantize", counted_quantize)
    monkeypatch.setattr(hmod.fb, "model_quantize", counted_model_quantize)
    trials = 2
    spec = SweepSpec(
        variable="snr_db",
        grid=(10.0, 20.0, 30.0),
        trials=trials,
        schemes=(SchemeSpec(assignment="fixed", bit_alloc="dba", bits_budget=100),),
        seed=44,
    )
    run_sweep(spec, CFG)
    assert users["explicit"] > 0 and users["emulated"] > 0
    assert users["explicit"] + users["emulated"] == trials * CFG.user_count


def test_snr_sweep_forms_baseline_pieces_once_per_trial(monkeypatch):
    # the rb patterns, decoders and images and the fdma eigenvalues do not
    # depend on P: each trial forms them once for all five grid points (the
    # patterns of all users from one draw, orthonormalized in one call), and
    # evaluates the rb rates of all five in one call
    calls = {}

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((hmod, "orthonormalize"),
                         (hmod.gia, "link_images"), (hmod, "psd_eigvals")):
        count(module, name)
    trials, grid = 3, (15.0, 20.0, 25.0, 30.0, 35.0)
    spec = SweepSpec(
        variable="snr_db",
        grid=grid,
        trials=trials,
        schemes=(SchemeSpec(assignment="rb"), SchemeSpec(assignment="fdma")),
        seed=45,
    )
    rows = run_sweep(spec, CFG)
    assert calls == {
        "orthonormalize": 2 * trials,  # every user's pattern, then every decoder, stacked
        "link_images": trials,
        # the fdma eigenvalues once, and two stacked calls in the one
        # throughput that serves every grid point
        "psd_eigvals": trials + 2 * trials,
    }
    assert rows == grid_major_reference(spec, CFG)


def test_each_draw_matches_once_per_rule_and_forms_pairs_once(monkeypatch):
    calls = {}

    def count(module, name, record=lambda *args: None):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls.setdefault(name, []).append(record(*args))
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("fca_match", "gale_shapley", "is_stable"):
        count(hmod.asg, name)
    count(hmod.gia, "build_potentials", lambda ch, cfg, pairs: len(pairs))
    trials = 2
    # the matchings read only P-free pieces at a fixed config: one per draw
    spec = SweepSpec(
        variable="B",
        grid=(40, 100, 300),
        trials=trials,
        schemes=(
            SchemeSpec(assignment="fixed", bit_alloc="eba"),
            SchemeSpec(assignment="two_sided", bit_alloc="dba"),
            SchemeSpec(assignment="two_sided", bit_alloc="eba"),
            SchemeSpec(assignment="one_sided", bit_alloc="eba"),
        ),
        seed=46,
    )
    rows = run_sweep(spec, CFG)
    assert {name: len(seen) for name, seen in calls.items()} == {
        "fca_match": trials, "gale_shapley": trials, "is_stable": 2 * trials,
        "build_potentials": trials}
    # a matching in the sweep makes the build form every pair, at once
    assert calls["build_potentials"] == [CFG.K * (CFG.K - 1)] * trials
    assert rows == grid_major_reference(spec, CFG)
    # a fixed-only sweep keeps to its K pairs, formed at build
    calls.clear()
    run_sweep(SweepSpec("snr_db", (10.0, 30.0), trials, (SchemeSpec(),), seed=46), CFG)
    assert calls == {"build_potentials": [CFG.K] * trials}


def test_rules_that_pick_one_assignment_share_its_feedback_pass(monkeypatch):
    # on trial 0 of seed 3 the one-sided match is the ring that fixed runs, on
    # trial 1 it is not; both rules list the same budgets, so the feedback pass
    # is keyed by assignment, not by rule, and serves both on trial 0
    calls = []
    decoder = hmod.fb.quantized_decoder

    def counted(ch, *args):
        calls.append(ch)
        return decoder(ch, *args)

    monkeypatch.setattr(hmod.fb, "quantized_decoder", counted)
    schemes = (SchemeSpec(assignment="fixed", bit_alloc="dba"),
               SchemeSpec(assignment="one_sided", bit_alloc="dba"))
    spec = SweepSpec("B", (40, 100, 300), 2, schemes, seed=3)
    rows = run_sweep(spec, CFG)
    ring = fixed_cyclic(CFG.K).providers
    cells = sweep_cells(spec, CFG)
    assert [hmod.TrialBuild(CFG, spec.seed, t, 0, cells).assignment(CFG, schemes[1]).providers
            == ring for t in range(spec.trials)] == [True, False]
    draws = list(dict.fromkeys(map(id, calls)))  # calls keeps every draw alive
    assert [sum(id(c) == ch for c in calls) for ch in draws] == [1, 2]
    assert rows == grid_major_reference(spec, CFG)
    # the pass itself, run by the feedback rates of each rule on a build of the
    # sweep's cells: the second rule reads the first one's
    build = hmod.TrialBuild(CFG, spec.seed, 0, 0, cells)
    fixed, one_sided = (replace(s, bits_budget=spec.grid[0]) for s in schemes)
    tset = build.transceivers(build.assignment(CFG, one_sided))
    calls.clear()
    first, again = (build.feedback_rates(CFG, s, tset) for s in (fixed, one_sided))
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert len(calls) == 1


def test_rules_that_pick_one_assignment_share_its_transceivers():
    # the same draw as above: on trial 0 of seed 3 the one-sided match is the
    # ring, a record of its own but equal to fixed's, and the two rules read one
    # transceiver set, kept under the ring's providers
    schemes = (SchemeSpec(assignment="fixed"), SchemeSpec(assignment="one_sided"))
    build = hmod.TrialBuild(CFG, 3, 0, 0, [(CFG, s) for s in schemes])
    fixed, one_sided = (build.assignment(CFG, s) for s in schemes)
    assert fixed is not one_sided and fixed == one_sided
    assert build.transceivers(fixed) is build.transceivers(one_sided)
    assert [key for key in build._pieces if key[0] == "transceivers"] == [
        ("transceivers", fixed_cyclic(CFG.K).providers)]


def test_each_feedback_entry_is_formed_once_per_assignment_and_seed(monkeypatch):
    # on some draws of seed 20 the two-sided match is the ring that fixed runs,
    # so the fixed group's dba entries, and (user, bits) searches of its eba
    # entries, are the two-sided group's too: whichever group runs first forms them
    calls = []
    quantize = hmod.fb.quantize

    def counted(V, cb):
        calls.append(cb.B)
        return quantize(V, cb)

    monkeypatch.setattr(hmod.fb, "quantize", counted)
    fixed, *two_sided = (SchemeSpec(assignment="fixed", bit_alloc="dba"),
                         SchemeSpec(assignment="two_sided", bit_alloc="dba"),
                         SchemeSpec(assignment="two_sided", bit_alloc="eba"))
    counts = []
    for schemes in ((fixed, *two_sided), (*two_sided, fixed)):
        spec = SweepSpec("B", (40, 100, 300), 2, schemes, seed=20)
        calls.clear()
        rows = run_sweep(spec, CFG)
        counts.append(len(calls))
        assert rows == grid_major_reference(spec, CFG)
    assert counts[0] == counts[1]


def test_centralized_cell_builds_each_confirmed_candidate_once(monkeypatch):
    # the search builds and rates the candidates it confirms through the
    # trial's build, so the winner's transceiver set is built and rated once,
    # by the search, and the cell reads those rates: one build per confirmed
    # candidate, where a confirm is one user_rate call
    calls = {"build_transceivers": [], "user_rate": []}

    def count(name):
        inner = getattr(hmod.gia, name)

        def counted(ch, cfg, *args):
            calls[name].append(ch)
            return inner(ch, cfg, *args)

        monkeypatch.setattr(hmod.gia, name, counted)

    count("build_transceivers")
    count("user_rate")
    trials = 3
    spec = SweepSpec("snr_db", (25.0,), trials, (SchemeSpec(assignment="centralized_sum"),),
                     seed=47)
    rows = run_sweep(spec, CFG)
    draws = list(dict.fromkeys(map(id, calls["user_rate"])))  # calls keeps every draw alive
    assert len(draws) == trials
    for ch in draws:
        confirms = sum(id(c) == ch for c in calls["user_rate"])
        assert sum(id(c) == ch for c in calls["build_transceivers"]) == confirms >= 1
    assert rows == grid_major_reference(spec, CFG)


def test_centralized_cells_of_a_draw_share_one_screen(monkeypatch):
    # the screen's P-free part (certificates, factors, inverse gains) is kept in
    # the build's "screen" stage, so the three searches at each of three grid points
    # all read one: a draw screens once, and factors its D(4) = 9 candidates' cells
    # at each of its K base stations in one chunk, where a screen per search
    # would take 9 screens and 9 K factorizations per draw
    screens, calls = [], []
    screen, factor = hmod.gia.Potentials.inverse_gains, hmod.gia.certified_factor
    monkeypatch.setattr(hmod.gia.Potentials, "inverse_gains",
                        lambda self, providers: screens.append(self) or screen(self, providers))
    monkeypatch.setattr(hmod.gia, "certified_factor",
                        lambda G, finite: calls.append(len(G)) or factor(G, finite))
    trials = 2
    schemes = tuple(SchemeSpec(assignment=rule)
                    for rule in ("centralized_sum", "centralized_min", "worst_sum"))
    spec = SweepSpec("snr_db", (10.0, 25.0, 40.0), trials, schemes, seed=48)
    rows = run_sweep(spec, CFG)
    assert len(screens) == len(set(map(id, screens))) == trials
    assert calls == [9] * (CFG.K * trials)
    assert hmod.gia.SCREEN_CHUNK_BYTES // (16 * CFG.N_B ** 2) >= 9
    assert rows == grid_major_reference(spec, CFG)


def test_feedback_pass_runs_once_per_draw_assignment_and_group(monkeypatch):
    # a cell whose rates are kept reads them at its entry's position: it neither
    # forms its group's entries nor asks for the feedback pass, so the pass count
    # does not grow with the budgets, and a 10,000-budget grid stays linear
    calls = []
    feedback = hmod.TrialBuild.feedback

    def counted(self, scheme, tset):
        calls.append((id(self), tset.assignment.providers,
                      scheme.assignment, scheme.proposer, scheme.codebook_seed))
        return feedback(self, scheme, tset)

    monkeypatch.setattr(hmod.TrialBuild, "feedback", counted)
    schemes = (SchemeSpec(assignment="two_sided", bit_alloc="dba"),
               SchemeSpec(assignment="fixed", bit_alloc="eba"))
    spec = SweepSpec("B", tuple(range(300, 500)), 2, schemes, seed=5)
    rows = run_sweep(spec, CFG)
    assert len(rows) == 400
    assert len(calls) == len(set(calls)) == 2 * spec.trials  # one per group of each draw


def test_scheme_outside_the_builds_cells_is_refused():
    # the matching cell without feedback makes the build form every pair, so each
    # scheme below reaches the feedback read that refuses it
    cells = [(CFG, SchemeSpec(assignment="fixed", bit_alloc="dba", bits_budget=100)),
             (CFG, SchemeSpec(assignment="two_sided"))]
    build = hmod.TrialBuild(CFG, 6, 0, 0, cells)
    assert hmod._evaluate_trial(build, CFG, cells[0][1], 0)[-1] == 0
    for scheme in (SchemeSpec(assignment="fixed", bit_alloc="dba", bits_budget=200),
                   SchemeSpec(assignment="fixed", bit_alloc="eba", bits_budget=100),
                   SchemeSpec(assignment="fixed", bit_alloc="dba", bits_budget=100,
                              codebook_seed=2),
                   SchemeSpec(assignment="two_sided", bit_alloc="dba", bits_budget=100)):
        with pytest.raises(ContractViolation, match="not among the cells"):
            hmod._evaluate_trial(build, CFG, scheme, 0)


def test_rule_that_reads_pairs_a_fixed_only_build_did_not_form_is_refused():
    # a fixed-only build forms the ring's K pairs: a matching is refused at its read
    build = hmod.TrialBuild(CFG, 6, 0, 0, [(CFG, SchemeSpec(assignment="fixed"))])
    for rule in ("one_sided", "two_sided"):
        with pytest.raises(ContractViolation, match="not formed"):
            hmod._evaluate_trial(build, CFG, SchemeSpec(assignment=rule), 0)


def test_config_outside_the_builds_cells_is_refused():
    # every value that depends on P is kept at the build's planned configs only:
    # a cell at another config is refused, whatever its scheme, and its planned
    # neighbours still read their values
    planned = (CFG.at_snr_db(10.0), CFG.at_snr_db(30.0))
    schemes = [SchemeSpec(assignment=rule) for rule in ASSIGNMENT_SCHEMES] + [
        SchemeSpec(assignment="fixed", bit_alloc="dba", bits_budget=100)]
    build = hmod.TrialBuild(CFG, 6, 0, 0, [(c, s) for c in planned for s in schemes])
    for scheme in schemes:
        with pytest.raises(ContractViolation, match="not among the cells"):
            hmod._evaluate_trial(build, CFG.at_snr_db(20.0), scheme, 0)
        expected = run_trial(planned[1], scheme, 0, seed=6)
        assert hmod._evaluate_trial(build, planned[1], scheme, 0)[:2] == (
            expected.sum_rate, expected.min_cell_rate)


def test_centralized_schemes_that_differ_in_proposer_search_once_per_config(monkeypatch):
    # a centralized search does not read the proposer: it is kept per (rule, config)
    calls = []
    search = hmod.asg.centralized_search
    monkeypatch.setattr(hmod.asg, "centralized_search",
                        lambda cfg, *args: calls.append(cfg.P) or search(cfg, *args))
    schemes = tuple(SchemeSpec(assignment=rule, proposer=side)
                    for rule in ("centralized_sum", "worst_min")
                    for side in ("receivers", "providers"))
    trials, grid = 2, (10.0, 30.0)
    spec = SweepSpec("snr_db", grid, trials, schemes, seed=49)
    rows = run_sweep(spec, CFG)
    assert sorted(calls) == sorted([CFG.at_snr_db(v).P for v in grid] * 2 * trials)
    assert rows[0::2] == rows[1::2]  # grid-major: each rule's two proposers side by side
    assert rows == grid_major_reference(spec, CFG)


def test_rules_that_pick_one_assignment_share_its_feedback_rates(monkeypatch):
    # the draws of the test above: on trial 0 of seed 3 fixed and one-sided pick
    # the ring with the same entries, so they read one set of feedback rates, all
    # budgets and grid points from one throughput call; on trial 1 they do not
    calls = []
    real = hmod.throughput
    monkeypatch.setattr(hmod, "throughput", lambda *args: calls.append(1) or real(*args))
    schemes = (SchemeSpec(assignment="fixed", bit_alloc="dba"),
               SchemeSpec(assignment="one_sided", bit_alloc="dba"))
    spec = SweepSpec("B", (40, 100, 300), 2, schemes, seed=3)
    cells = sweep_cells(spec, CFG)
    for trial, expected in ((0, 1), (1, 2)):
        build = hmod.TrialBuild(CFG, spec.seed, trial, 0, cells)
        calls.clear()
        for cfg, scheme in cells:
            hmod._evaluate_trial(build, cfg, scheme, 0)
        assert len(calls) == expected


# Every stage of a build's memo, each holding one kind of value (README, "How a
# sweep runs"); the last five are kept one value per planned config.
MEMO_STAGES = {"potentials", "provider side", "assignment", "screen", "transceivers",
               "leakage", "frame", "quantized", "receiver side", "user rates", "feedback rates",
               "rb rates", "fdma rates"}


def test_memo_pieces_are_read_and_written_only_by_its_entry_point():
    # a second reader or writer of the memo would go around the one seam that
    # sees every stage
    module = ast.parse(inspect.getsource(hmod))
    users = {fn.name for fn in ast.walk(module) if isinstance(fn, ast.FunctionDef)
             and any(isinstance(node, ast.Attribute) and node.attr == "_pieces"
                     for node in ast.walk(fn))}
    assert users == {"__init__", "_each"}


def test_two_sided_assignment_is_matched_at_its_own_config(monkeypatch):
    # the receiver sides of both planned configs come in one call, but the
    # matching runs only at the config whose cell asks for it
    calls = []
    match = hmod.asg.gale_shapley
    monkeypatch.setattr(hmod.asg, "gale_shapley",
                        lambda prefs, side: calls.append(side) or match(prefs, side))
    planned = (CFG.at_snr_db(10.0), CFG.at_snr_db(30.0))
    scheme = SchemeSpec(assignment="two_sided")
    build = hmod.TrialBuild(CFG, 41, 1, 0, [(c, scheme) for c in planned])
    chosen = build.assignment(planned[1], scheme)
    assert calls == ["receivers"]
    assert build.assignment(planned[1], scheme) is chosen and calls == ["receivers"]
    expected = run_trial(planned[1], scheme, 1, seed=41)
    assert hmod._evaluate_trial(build, planned[1], scheme, 0)[:2] == (
        expected.sum_rate, expected.min_cell_rate)


def test_each_memo_stage_holds_one_documented_kind_of_value(monkeypatch):
    stages = set()
    each = hmod.TrialBuild._each
    monkeypatch.setattr(hmod.TrialBuild, "_each",
                        lambda self, stage, *args: stages.add(stage) or each(self, stage, *args))
    run_sweep(SweepSpec("snr_db", (10.0, 30.0), 1,
                        tuple(SchemeSpec(assignment=rule) for rule in ASSIGNMENT_SCHEMES),
                        seed=50), CFG)
    run_sweep(SweepSpec("B", (40, 300), 1,
                        (SchemeSpec(assignment="two_sided", bit_alloc="dba"),
                         SchemeSpec(assignment="fixed", bit_alloc="eba")), seed=50), CFG)
    assert stages == MEMO_STAGES and "rates" not in stages
