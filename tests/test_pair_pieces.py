"""Stacked pair pieces against the per-pair loop they replaced.

``gia.build_potentials`` forms every requested (provider, receiver) pair's inner
precoder, patterns, aligned basis and whiteners in one stacked call per kind,
and nothing changes them after: a read of a pair it did not form is refused.
``oracles.pair_pieces`` is the per-pair construction, one small call per pair
and per user, so the two must agree with ``np.array_equal`` on every shape of
``test_dimension_fuzz``. A pair whose piece fails a check keeps its exception
and raises it at a read of that piece only, as the per-pair construction did.
"""

import numpy as np
import pytest

import giasim.harness as hmod
import oracles
from giasim import gia
from giasim.assignment import fixed_cyclic
from giasim.errors import (AlignmentFailure, ContractViolation, DegenerateChannel, GiaSimError,
                           InfeasibleConfig)
from giasim.gia import build_potentials, cell_pairs
from giasim.harness import ASSIGNMENT_SCHEMES, SchemeSpec, SweepSpec, TrialBuild, run_sweep
from giasim.linalg import herm_inv_sqrt
from giasim.system import SystemConfig, draw_channels, trial_rng
from oracles import (
    aligned_interference_basis,
    feasible_configs,
    pair_pieces,
    stack_alignment_matrix,
    user_pattern,
)

SEED = 2718
CFG = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2, P=10 ** 2.5, sigma2=1.0)


@pytest.mark.parametrize("n", range(18))
def test_stacked_pieces_equal_per_pair_oracle(n):
    cfg = feasible_configs(SEED)[n]
    ch = draw_channels(cfg, trial_rng(SEED, n))
    potentials = build_potentials(ch, cfg, cell_pairs(cfg.K))
    pairs = cell_pairs(cfg.K)
    assert potentials._rows.keys() == set(pairs)
    for name in ("inner", "patterns", "aligned", "whiteners"):
        stacked = potentials.take(name, pairs)
        for (p, r), piece in zip(pairs, stacked):
            assert np.array_equal(piece, pair_pieces(ch, cfg, p, r)[name]), (cfg, p, r, name)


def test_pieces_formed_in_any_batches_are_the_same_bits():
    # builds of different pair lists, in any order and batch, form each pair's
    # pieces with the same bits as the build of every pair
    ch = draw_channels(CFG, trial_rng(SEED, 0))
    pairs = cell_pairs(CFG.K)
    full = build_potentials(ch, CFG, pairs)
    rest = [pr for pr in pairs if pr not in ((2, 1), (0, 1), (3, 0))]
    for batch in ([(2, 1)], [(0, 1), (2, 1), (3, 0)], [(0, 1), (3, 0)], rest, pairs[::-1]):
        part = build_potentials(ch, CFG, batch)
        assert part._rows.keys() == set(batch)
        for name in ("inner", "patterns", "aligned", "whiteners"):
            assert np.array_equal(part.take(name, batch), full.take(name, batch)), (batch, name)
    twice = build_potentials(ch, CFG, pairs=[(1, 2), (1, 2)])
    assert twice._rows == {(1, 2): 0}
    assert twice.take("aligned", []).shape == (0, CFG.N_B, CFG.d_s)
    for refused in ([], [(2, 2)], [(1, 2), (2, 2)]):  # no pair, or a cell paired with itself
        with pytest.raises(ContractViolation):
            build_potentials(ch, CFG, refused)


def test_take_of_a_pair_the_build_did_not_form_is_refused():
    ch = draw_channels(CFG, trial_rng(SEED, 1))
    ring = gia.assignment_pairs(fixed_cyclic(CFG.K))
    potentials = build_potentials(ch, CFG, ring)
    missing = [pr for pr in cell_pairs(CFG.K) if pr not in ring]
    for name in ("inner", "patterns", "aligned", "whiteners"):
        assert potentials.take(name, ring).shape[0] == CFG.K
        for pair in missing:
            with pytest.raises(ContractViolation, match="not formed"):
                potentials.take(name, ring + [pair])
    assert potentials._rows.keys() == set(ring)  # the refused reads formed nothing


def test_fixed_only_build_forms_the_ring_once(monkeypatch):
    # one build_potentials per draw, which forms the ring's K pairs and no more
    built = []
    build = gia.build_potentials

    def recorded(ch, cfg, pairs):
        potentials = build(ch, cfg, pairs)
        built.append(list(potentials._rows))
        return potentials

    monkeypatch.setattr(gia, "build_potentials", recorded)
    schemes = (SchemeSpec(), SchemeSpec(bit_alloc="dba", bits_budget=40),
               SchemeSpec(assignment="rb"), SchemeSpec(assignment="fdma"))
    trials = 3
    run_sweep(SweepSpec("snr_db", (10.0, 20.0, 30.0), trials, schemes, seed=5), CFG)
    ring = gia.assignment_pairs(fixed_cyclic(CFG.K))
    assert len(ring) == CFG.K and built == [ring] * trials


def _state(potentials) -> dict:
    """Every attribute of ``potentials``, arrays copied, dicts item by item."""
    def copy(value):
        if isinstance(value, dict):
            return {key: copy(item) for key, item in value.items()}
        return value.copy() if isinstance(value, np.ndarray) else value
    return {name: copy(value) for name, value in vars(potentials).items()}


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):  # a failed piece holds NaN
        return isinstance(b, np.ndarray) and np.array_equal(a, b, equal_nan=True)
    return a is b or a == b


def test_potentials_do_not_change_after_the_build(monkeypatch):
    # every read of a sweep, the centralized screen's among them, leaves the
    # build's pair pieces as build_potentials returned them
    kept = []
    build = gia.build_potentials

    def recorded(ch, cfg, pairs):
        potentials = build(ch, cfg, pairs)
        kept.append((potentials, _state(potentials)))
        return potentials

    monkeypatch.setattr(gia, "build_potentials", recorded)
    every = tuple(SchemeSpec(assignment=rule) for rule in ASSIGNMENT_SCHEMES) + (
        SchemeSpec(assignment="two_sided", bit_alloc="dba", bits_budget=40),)
    run_sweep(SweepSpec("snr_db", (10.0, 30.0), 2, every, seed=7), CFG)
    central = (SchemeSpec(assignment="centralized_sum"), SchemeSpec(assignment="worst_min"))
    run_sweep(SweepSpec("snr_db", (10.0, 30.0), 2, central, seed=8), CFG)
    assert len(kept) == 4
    for potentials, state in kept:
        assert potentials._rows.keys() == set(cell_pairs(CFG.K))
        now = _state(potentials)
        assert now.keys() == state.keys()
        for name in state:
            assert _same(now[name], state[name]), name


BAD = (0, 2)  # fixed aligns each cell toward its successor, so it never reads this pair


def _deficient_on_first_draw(monkeypatch):
    """Zero user 1's slice of BAD's inner precoder on the first draw of trial 0,
    seed 31: that pair's patterns, aligned image and whiteners then fail their
    checks, as the per-pair construction's would. Returns the pair counts of the
    formations, and how many of them held BAD on that draw; the other SVDs that
    read ``gia.svd`` (the null bases) pass through unrecorded."""
    real, formed = gia.svd, []
    n = CFG.L * CFG.N_U
    target = stack_alignment_matrix(draw_channels(CFG, trial_rng(31, 0)), *BAD)

    def deficient(A, full_matrices):
        U, s, Vh = real(A, full_matrices)
        if A.shape[-2:] != target.shape:  # not a stack of alignment systems
            return U, s, Vh
        hit = [j for j in range(len(A)) if np.array_equal(A[j], target)]
        for j in hit:
            Vh = Vh.copy()
            Vh[j, n - CFG.d_s:, CFG.N_U:2 * CFG.N_U] = 0.0
        formed.append((len(A), len(hit)))
        return U, s, Vh

    monkeypatch.setattr(gia, "svd", deficient)
    return formed


def _outcome(fn):
    try:
        fn()
    except GiaSimError as exc:
        return type(exc), str(exc)
    return None


def test_failed_piece_raises_at_its_read_only(monkeypatch):
    formed = _deficient_on_first_draw(monkeypatch)
    schemes = (SchemeSpec(assignment="fixed"), SchemeSpec(assignment="one_sided"))
    build = TrialBuild(CFG, 31, 0, 0, [(CFG, s) for s in schemes])
    potentials = build.potentials()
    V = potentials.take("inner", [BAD])[0]
    assert not V[CFG.N_U:].any() and formed == [(12, 1)]
    # the per-pair construction on the same inner precoder gives each read's error
    oracle = {
        "patterns": lambda: user_pattern(V, 1, CFG.N_U),
        "aligned": lambda: aligned_interference_basis(build.ch, *BAD, V),
        "whiteners": lambda: herm_inv_sqrt(V[CFG.N_U:].conj().T @ V[CFG.N_U:]),
    }
    for name, fn in oracle.items():
        expected = _outcome(fn)
        assert expected is not None
        assert _outcome(lambda: potentials.take(name, [(1, 2), BAD])) == expected, name
    assert potentials.take("inner", [BAD]).shape == (1, CFG.L * CFG.N_U, CFG.d_s)
    # the fixed cell reads other pairs only; the one-sided cell reads every
    # aligned basis and raises the per-pair construction's error
    fixed = hmod._evaluate_trial(build, CFG, schemes[0], 0)
    assert fixed[-1] == 0  # resamples
    with pytest.raises(DegenerateChannel) as caught:
        hmod._evaluate_trial(build, CFG, schemes[1], 0)
    assert (type(caught.value), str(caught.value)) == _outcome(oracle["aligned"])


def test_narrow_alignment_null_space_raises_at_a_read_of_every_piece():
    # L N_U <= (L - 1) N_B: each pair's alignment system has full column rank,
    # so no pair has an inner precoder; built directly, past require_feasible
    cfg = SystemConfig(K=3, L=2, N_B=8, N_U=4, d_s=1)
    ch = draw_channels(cfg, trial_rng(SEED, 0))
    potentials = build_potentials(ch, cfg, cell_pairs(cfg.K))
    for pair in cell_pairs(cfg.K):
        expected = _outcome(lambda: pair_pieces(ch, cfg, *pair))
        assert expected == (InfeasibleConfig, "alignment system null space has dimension 0 < d_s=1")
        for name in ("inner", "patterns", "aligned", "whiteners"):
            assert _outcome(lambda: potentials.take(name, [pair])) == expected, (pair, name)


def test_misaligned_pairs_are_the_pairs_the_per_pair_oracle_flags(monkeypatch):
    # at a zero tolerance the rounding of the images, about 4e-16 off user 0's
    # span, flags some users; each raises at a read of its pair's aligned basis
    # alone, naming the first flagged user as the per-pair construction does
    monkeypatch.setattr(gia, "ALIGN_TOL", 0.0)
    monkeypatch.setattr(oracles, "ALIGN_TOL", 0.0)
    ch = draw_channels(CFG, trial_rng(SEED, 0))
    potentials = build_potentials(ch, CFG, cell_pairs(CFG.K))
    raised, flagged = {}, {}
    for pair in cell_pairs(CFG.K):
        raised[pair] = _outcome(lambda: potentials.take("aligned", [pair]))
        V = potentials.take("inner", [pair])[0]
        flagged[pair] = _outcome(lambda: aligned_interference_basis(ch, *pair, V))
        assert potentials.take("patterns", [pair]).shape == (1, CFG.L, CFG.N_U, CFG.d_s)
    assert raised == flagged
    assert {outcome for outcome in raised.values() if outcome} and all(
        outcome is None or outcome[0] is AlignmentFailure for outcome in raised.values())


def test_failed_piece_resamples_only_the_cells_that_read_it(monkeypatch):
    schemes = (SchemeSpec(assignment="fixed"), SchemeSpec(assignment="one_sided"))
    spec = SweepSpec("snr_db", (10.0, 30.0), 1, schemes, seed=31)
    clean = run_sweep(spec, CFG)
    assert BAD not in [(p, r) for r, p in enumerate(fixed_cyclic(CFG.K).providers)]
    formed = _deficient_on_first_draw(monkeypatch)
    rows = run_sweep(spec, CFG)
    # the sweep runs a matching, so the fixed cell's first request forms every
    # pair of the first draw; the resampled draw serves the one-sided cell alone
    assert formed == [(12, 1), (12, 0)]
    for row, ref in zip(rows, clean):
        if row["scheme"] == "fixed":
            assert row == ref
        else:
            assert row["resamples"] == 1
            point = CFG.at_snr_db(row["value"])
            fresh = TrialBuild(CFG, 31, 0, 1, [(point, schemes[1])])
            expected = hmod._evaluate_trial(fresh, point, schemes[1], 1)
            assert row["r_sum"] == expected[0]  # the sum rate
