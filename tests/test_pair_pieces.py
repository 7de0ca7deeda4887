"""Stacked pair pieces against the per-pair loop they replaced.

``gia.Potentials`` forms every requested (provider, receiver) pair's inner
precoder, patterns, aligned basis and whiteners in one stacked call per kind.
``oracles.pair_pieces`` is the per-pair construction, one small call per pair
and per user, so the two must agree with ``np.array_equal`` on every shape of
``test_dimension_fuzz``. A pair whose piece fails a check keeps its exception
and raises it at a read of that piece only, as the per-pair construction did.
"""

import numpy as np
import pytest

import giasim.harness as hmod
from giasim import gia
from giasim.assignment import fixed_cyclic
from giasim.errors import ContractViolation, DegenerateChannel, GiaSimError
from giasim.gia import build_potentials, cell_pairs
from giasim.harness import SchemeSpec, SweepSpec, TrialBuild, run_sweep
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
    assert potentials._formed == set(pairs)
    for name in ("inner", "patterns", "aligned", "whiteners"):
        stacked = potentials.take(name, pairs)
        for (p, r), piece in zip(pairs, stacked):
            assert np.array_equal(piece, pair_pieces(ch, cfg, p, r)[name]), (cfg, p, r, name)


def test_pieces_formed_in_any_batches_are_the_same_bits():
    # an empty build forms pairs at their first read, one batch per read
    ch = draw_channels(CFG, trial_rng(SEED, 0))
    empty = build_potentials(ch, CFG, pairs=[])
    assert empty._formed == set()
    full = build_potentials(ch, CFG, cell_pairs(CFG.K))
    pairs = cell_pairs(CFG.K)
    for batch in ([(2, 1)], [(0, 1), (2, 1), (3, 0)], pairs):
        for name in ("inner", "patterns", "aligned", "whiteners"):
            assert np.array_equal(empty.take(name, batch), full.take(name, batch)), (batch, name)
    assert empty._formed == set(pairs)
    twice = build_potentials(ch, CFG, pairs=[(1, 2), (1, 2)])
    assert twice._formed == {(1, 2)}
    assert twice.take("aligned", []).shape == (0, CFG.N_B, CFG.d_s)
    with pytest.raises(ContractViolation):
        build_potentials(ch, CFG, pairs=[(2, 2)])


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
