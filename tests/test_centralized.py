"""The centralized search against a from-scratch reference, and the stacked
null basis behind its decoders.

The search reads per-pair pieces (patterns, aligned bases, whiteners) shared
across candidates and calls. It screens every candidate with one R-only QR of
each user's [F | G], gathered from a per-draw pair table, and evaluates
exactly, through ``build_transceivers`` and ``user_rate``, only the candidates
the screen cannot certify and those near the best screened value. The
reference below is the plain loop: for every derangement a fresh
``build_transceivers`` with no potentials, so each builds its own and nothing
is shared between candidates, and its rates user by user through
``oracles.user_rate``. Both must agree with ``==``.
"""

import warnings

import numpy as np
import pytest

from giasim import gia
from giasim.assignment import (
    SCREEN_MARGIN,
    Assignment,
    breaking_step,
    build_preferences,
    centralized_search,
    enumerate_derangements,
    fca_match,
    fixed_cyclic,
    gale_shapley,
)
from giasim.errors import ContractViolation, GiaSimError
from giasim.gia import (
    build_potentials,
    build_transceivers,
    certified_null_image,
    nulling_stacks,
    rate_logdet,
    select_null_basis,
    user_rate,
    zf_decoder,
)
from giasim.linalg import complex_gaussian
from giasim.system import ChannelRealization, SystemConfig, draw_channels, trial_rng
from oracles import feasible_configs, user_rate as per_user_rate

REFERENCE = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2).at_snr_db(25.0)
TIGHT_K5 = SystemConfig(K=5, L=2, N_B=18, N_U=10, d_s=2).at_snr_db(25.0)
TIGHT_K6 = SystemConfig(K=6, L=2, N_B=22, N_U=12, d_s=2).at_snr_db(25.0)  # central_k6
SEARCHES = [(o, s) for o in ("sum_rate", "min_cell_rate") for s in ("best", "worst")]


def reference_candidates(ch, cfg):
    """Each derangement's cell rates, from a fresh build per candidate."""
    out = []
    for perm in enumerate_derangements(cfg.K):
        assignment = Assignment(provider_of={k: perm[k] for k in range(cfg.K)})
        tset = build_transceivers(ch, cfg, assignment)
        cell_rates = [
            sum(per_user_rate(ch, tset, i, k, cfg) for i in range(cfg.L))
            for k in range(cfg.K)
        ]
        out.append((assignment, cell_rates))
    return out


def reference_pick(candidates, objective, sense):
    """The search's selection rule: strict comparisons in enumeration order."""
    best_assignment = best_value = None
    for assignment, cell_rates in candidates:
        value = sum(cell_rates) if objective == "sum_rate" else min(cell_rates)
        if best_value is None or (sense == "best" and value > best_value) or (
            sense == "worst" and value < best_value
        ):
            best_value, best_assignment = value, assignment
    return best_assignment, best_value


@pytest.mark.parametrize("cfg, seed, draws",
                         [(REFERENCE, 41, 20), (TIGHT_K5, 42, 5), (TIGHT_K6, 47, 2)],
                         ids=["reference_k4", "tight_k5", "tight_k6"])
def test_search_equals_fresh_build_per_candidate(cfg, seed, draws):
    for t in range(draws):
        ch = draw_channels(cfg, trial_rng(seed, t))
        potentials = build_potentials(ch, cfg)  # shared by all four searches
        candidates = reference_candidates(ch, cfg)
        for objective, sense in SEARCHES:
            chosen, value = centralized_search(ch, cfg, objective, sense, potentials)
            ref_chosen, ref_value = reference_pick(candidates, objective, sense)
            assert chosen.provider_of == ref_chosen.provider_of, (t, objective, sense)
            assert value == ref_value, (t, objective, sense)


def test_search_equals_fresh_build_on_fuzz_shapes():
    # every shape of test_dimension_fuzz: L in {1, 2, 3}, d_s in {1, 2}, K in
    # {3, 4}, tight and slack; the slack shapes take the exact path throughout
    for n, cfg in enumerate(feasible_configs(2718)):
        for t in (2 * n, 2 * n + 1):
            ch = draw_channels(cfg, trial_rng(2718, t))
            potentials = build_potentials(ch, cfg)
            candidates = reference_candidates(ch, cfg)
            for objective, sense in SEARCHES:
                chosen, value = centralized_search(ch, cfg, objective, sense, potentials)
                ref_chosen, ref_value = reference_pick(candidates, objective, sense)
                assert chosen.provider_of == ref_chosen.provider_of, (cfg, t, objective, sense)
                assert value == ref_value, (cfg, t, objective, sense)


def _count_calls(monkeypatch, name):
    """Count the calls of gia.<name> from here on."""
    calls = []
    inner = getattr(gia, name)

    def counted(*args, **kwargs):
        calls.append(args[2])  # the assignment
        return inner(*args, **kwargs)

    monkeypatch.setattr(gia, name, counted)
    return calls


def test_search_confirms_few_candidates(monkeypatch):
    # every candidate of these draws is certified: only the near-best ones,
    # usually the winner alone, go through build_transceivers
    builds = _count_calls(monkeypatch, "build_transceivers")
    for t in range(5):
        ch = draw_channels(REFERENCE, trial_rng(41, t))
        potentials = build_potentials(ch, REFERENCE)
        for objective, sense in SEARCHES:
            builds.clear()
            chosen, _ = centralized_search(ch, REFERENCE, objective, sense, potentials)
            assert 1 <= len(builds) <= 3, (t, objective, sense)  # of D(4) = 9
            assert chosen.provider_of in [a.provider_of for a in builds]


def test_wider_null_space_evaluates_every_candidate_exactly(monkeypatch):
    # N_B = 16 leaves each decoder a 4-dimensional null space for d_s = 2:
    # which 2 directions the SVD picks is part of the output, so no screen
    cfg = SystemConfig(K=4, L=2, N_B=16, N_U=9, d_s=2).at_snr_db(25.0)
    ch = draw_channels(cfg, trial_rng(48, 0))
    builds = _count_calls(monkeypatch, "build_transceivers")
    chosen, value = centralized_search(ch, cfg)
    assert len(builds) == 9
    ref_chosen, ref_value = reference_pick(reference_candidates(ch, cfg), "sum_rate", "best")
    assert chosen.provider_of == ref_chosen.provider_of
    assert value == ref_value


def test_screen_error_falls_back_to_every_candidate(monkeypatch):
    ch = draw_channels(REFERENCE, trial_rng(41, 0))
    potentials = build_potentials(ch, REFERENCE)
    ref_chosen, ref_value = reference_pick(reference_candidates(ch, REFERENCE), "sum_rate", "best")
    screen = gia.screen_rates

    def low_on_winner(ch, cfg, assignment, potentials):
        rates = screen(ch, cfg, assignment, potentials)
        if assignment.provider_of == ref_chosen.provider_of:
            return rates * (1 - 10 * SCREEN_MARGIN)
        return rates

    monkeypatch.setattr(gia, "screen_rates", low_on_winner)
    builds = _count_calls(monkeypatch, "build_transceivers")
    chosen, value = centralized_search(ch, REFERENCE, "sum_rate", "best", potentials)
    assert len(builds) == 9  # the self-check sent every candidate down the exact path
    assert chosen.provider_of == ref_chosen.provider_of
    assert value == ref_value


def test_rank_deficient_candidates_warn_as_in_the_plain_loop(monkeypatch):
    # cell 0's aligned basis from cell 1 gets two equal columns, so the three
    # candidates with 1 -> 0 have rank-deficient stacks at cell 0: the screen
    # cannot certify them and the exact path warns for each. None of them is
    # near the best, so only the certificate sends them down the exact path.
    take = gia.Potentials.take

    def repeated_column(self, name, pairs):
        pieces = take(self, name, pairs)
        if name == "aligned" and (1, 0) in pairs:
            pieces[pairs.index((1, 0))] = pieces[pairs.index((1, 0))][:, [0, 0]]
        return pieces

    monkeypatch.setattr(gia.Potentials, "take", repeated_column)
    ch = draw_channels(REFERENCE, trial_rng(41, 1))

    def run(fn):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn()
        return result, [(w.category, str(w.message)) for w in caught]

    candidates, ref_warnings = run(lambda: reference_candidates(ch, REFERENCE))
    (chosen, value), search_warnings = run(lambda: centralized_search(ch, REFERENCE))
    assert len(ref_warnings) == 6  # both users of cell 0, three candidates
    assert {c for c, _ in ref_warnings} == {RuntimeWarning}
    assert search_warnings == ref_warnings
    ref_chosen, ref_value = reference_pick(candidates, "sum_rate", "best")
    assert chosen.provider_of == ref_chosen.provider_of
    assert value == ref_value


def test_certified_null_basis_gives_the_svd_rate():
    # R22 of the QR of [F | A] is A seen through an orthonormal basis of F's
    # left null space: the rate through the SVD's null basis is the same
    rng = np.random.default_rng(8)
    F = complex_gaussian(rng, (3, 2, 14, 12))
    U_svd = select_null_basis(F, 2)
    assert U_svd.shape == (3, 2, 14, 2)
    A = complex_gaussian(rng, (3, 2, 14, 2))
    R22 = certified_null_image(np.concatenate([F, A], axis=-1), 2)
    assert R22.shape == (3, 2, 2, 2)
    assert np.allclose(U_svd.conj().swapaxes(-1, -2) @ U_svd, np.eye(2), rtol=0, atol=1e-13)
    qr_rates = rate_logdet(R22, 300.0)
    for idx in np.ndindex(3, 2):
        exact = rate_logdet(U_svd[idx].conj().T @ A[idx], 300.0)
        assert abs(qr_rates[idx] - exact) <= 1e-12 * exact


def _derangements(cfg):
    return [Assignment(dict(enumerate(perm))) for perm in enumerate_derangements(cfg.K)]


TIGHT_L1 = SystemConfig(K=4, L=1, N_B=8, N_U=2, d_s=2).at_snr_db(25.0)
TIGHT_L3 = SystemConfig(K=3, L=3, N_B=14, N_U=10, d_s=2).at_snr_db(25.0)
TIGHT_D1 = SystemConfig(K=4, L=2, N_B=7, N_U=4, d_s=1).at_snr_db(25.0)


@pytest.mark.parametrize("cfg, seed", [(REFERENCE, 41), (TIGHT_K5, 49), (TIGHT_L1, 50),
                                       (TIGHT_L3, 51), (TIGHT_D1, 52)],
                         ids=["k4", "tight_k5", "tight_l1", "tight_l3", "tight_d1"])
def test_gathered_stacks_equal_nulling_stacks(cfg, seed):
    # the pair table holds the very products nulling_stacks forms, so the
    # gather must reproduce its stacks bit for bit, in its block order
    ch = draw_channels(cfg, trial_rng(seed, 0))
    potentials = build_potentials(ch, cfg)
    for assignment in _derangements(cfg):
        tset = build_transceivers(ch, cfg, assignment, potentials)
        blocks = {(i, k): tset.aligned[assignment.provider(k)]
                  for i in range(cfg.L) for k in range(cfg.K)}
        F = nulling_stacks(ch, assignment, tset.patterns, blocks)
        FG = potentials.stacks(assignment)
        n = F.shape[-1]
        assert FG.shape == (cfg.L, cfg.K, cfg.N_B, n + cfg.d_s)
        assert np.array_equal(FG[..., :n], F.reshape(cfg.L, cfg.K, cfg.N_B, n)), assignment
        for i, k in np.ndindex(cfg.L, cfg.K):  # G: the direct link through the inner slice
            slice_ik = tset.inner[k][i * cfg.N_U:(i + 1) * cfg.N_U]
            assert np.array_equal(FG[i, k, :, n:], ch.H[i, k, k] @ slice_ik), (assignment, i, k)


@pytest.mark.parametrize("cfg, seed", [(REFERENCE, 53), (TIGHT_L3, 54), (TIGHT_D1, 55)],
                         ids=["k4", "tight_l3", "tight_d1"])
def test_cell_relabeling_maps_assignments(cfg, seed):
    # relabel cell k as perm[k] in H's user-cell and station axes: on a tight
    # shape every decoder's null space is exactly d_s wide, so the rates do not
    # depend on the block order of the stacks, and every assignment rule must
    # pick the relabeled assignment. Index slips in the pair table, the template
    # or the pair pieces break this, though a same-operand == oracle reads them
    # on both sides.
    perm = np.array({3: [2, 0, 1], 4: [2, 3, 1, 0]}[cfg.K])  # no cell keeps its label
    inv = np.argsort(perm)
    relabel = lambda a: {int(perm[r]): int(perm[p]) for r, p in a.provider_of.items()}
    for t in range(2):
        ch = draw_channels(cfg, trial_rng(seed, t))
        moved = ChannelRealization(H=ch.H[:, inv][:, :, inv], eta=ch.eta[:, inv][:, :, inv])
        for objective, sense in SEARCHES:
            chosen, value = centralized_search(ch, cfg, objective, sense)
            chosen_moved, value_moved = centralized_search(moved, cfg, objective, sense)
            assert chosen_moved.provider_of == relabel(chosen), (t, objective, sense)
            assert abs(value_moved - value) <= 1e-12 * abs(value), (t, objective, sense)
        prefs, prefs_moved = (build_preferences(c, cfg, build_potentials(c, cfg), two_sided=True)
                              for c in (ch, moved))
        for match in (lambda pr: fca_match(pr)[0], lambda pr: gale_shapley(pr)[0]):
            strict, strict_moved = (breaking_step(match(pr), pr) for pr in (prefs, prefs_moved))
            assert strict_moved.provider_of == relabel(strict), t


def test_screened_rates_equal_user_rates():
    ch = draw_channels(TIGHT_K5, trial_rng(49, 0))
    potentials = build_potentials(ch, TIGHT_K5)
    for assignment in _derangements(TIGHT_K5):  # all 44
        screened = gia.screen_rates(ch, TIGHT_K5, assignment, potentials)
        tset = build_transceivers(ch, TIGHT_K5, assignment, potentials)
        assert screened.shape == (TIGHT_K5.L, TIGHT_K5.K)
        for (i, k), rate in np.ndenumerate(screened):
            exact = user_rate(ch, tset, TIGHT_K5)[i, k]
            assert abs(rate - exact) <= 1e-12 * exact, (assignment, i, k)


@pytest.mark.parametrize("m, n, clean_rank, bad_rank", [
    (6, 3, 3, 2),     # the rank-deficient case below: a wider null space than d_s
    (6, 4, 4, 3),     # rank deficient with m - n == d_s: R cannot prove full rank
    (6, 4, 4, None),  # non-finite entries
    (8, 4, 4, 4),     # full column rank, but a wider null space than d_s
], ids=["rank_deficient", "tight_rank_deficient", "non_finite", "wide_null"])
def test_certificate_refuses(m, n, clean_rank, bad_rank):
    rng = np.random.default_rng(6)
    stack = np.stack([_low_rank(rng, m, n, clean_rank) for _ in range(4)])
    if bad_rank is None:
        stack[2, 1, 1] = np.nan
    else:
        stack[2] = _low_rank(rng, m, n, bad_rank)
    links = complex_gaussian(rng, (4, m, 2))  # G, the columns after the stack
    assert certified_null_image(np.concatenate([stack, links], axis=-1), 2) is None
    clean = np.delete(np.concatenate([stack, links], axis=-1), 2, axis=0)
    assert (certified_null_image(clean, 2) is not None) == (m - n == 2)  # where tight


@pytest.mark.parametrize("coupling, certified", [(1.0, True), (1e5, False)])
def test_certificate_sees_ill_conditioning_off_the_diagonal(coupling, certified):
    # R11 = [[I, cJ], [0, I]] (J all ones) has identity diagonal blocks; its
    # condition number grows as c^2 and shows only in the off-diagonal block
    # of R11^-1. At c = 1e5, sigma_min / sigma_max is about 6e-12.
    rng = np.random.default_rng(7)
    n, d_s = 8, 2
    R11 = np.eye(n, dtype=complex)
    R11[:n // 2, n // 2:] = coupling
    Q, _ = np.linalg.qr(complex_gaussian(rng, (n + d_s, n + d_s)))
    FG = np.concatenate([Q[:, :n] @ R11, complex_gaussian(rng, (n + d_s, d_s))], axis=-1)
    assert (certified_null_image(FG, d_s) is not None) == certified


def test_potentials_of_another_draw_are_refused():
    ch_a, ch_b = (draw_channels(REFERENCE, trial_rng(44, t)) for t in (0, 1))
    with pytest.raises(ContractViolation):
        build_transceivers(ch_b, REFERENCE, fixed_cyclic(REFERENCE.K), build_potentials(ch_a, REFERENCE))


def _outcome(F, d_s):
    """What select_null_basis does with F: (result or (error type, message), warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = select_null_basis(F, d_s)
        except GiaSimError as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def test_stacked_null_basis_equals_each_slice():
    rng = np.random.default_rng(5)
    F = complex_gaussian(rng, (3, 2, 14, 10))
    stacked = select_null_basis(F, 2)
    assert stacked.shape == (3, 2, 14, 2)
    for idx in np.ndindex(3, 2):
        assert np.array_equal(stacked[idx], select_null_basis(F[idx], 2))


def test_stacked_decoders_equal_single_user_decoders():
    ch = draw_channels(REFERENCE, trial_rng(43, 0))
    tset = build_transceivers(ch, REFERENCE, fixed_cyclic(REFERENCE.K))
    prov = tset.assignment.provider
    for k in range(REFERENCE.K):
        for i in range(REFERENCE.L):
            single = zf_decoder(
                ch, tset.assignment, tset.patterns, {(i, k): tset.aligned[prov(k)]}, REFERENCE.d_s
            )
            assert np.array_equal(single[0], tset.decoders[i, k])


def _low_rank(rng, m, n, r):
    return complex_gaussian(rng, (m, r)) @ complex_gaussian(rng, (r, n))


@pytest.mark.parametrize("n, clean_rank, bad_rank", [
    (3, 3, 2),     # rank deficient: warns, still picks the canonical directions
    (6, 4, 6),     # full row rank: no null space at all
    (5, 4, 5),     # a 1-dimensional null space, narrower than d_s
    (3, 3, None),  # non-finite entries
], ids=["rank_deficient", "full_row_rank", "null_too_small", "non_finite"])
def test_one_bad_slice_behaves_as_alone(n, clean_rank, bad_rank):
    # clean slices leave exactly d_s null directions or have generic rank, so
    # that on their own they neither raise nor warn
    rng = np.random.default_rng(6)
    m, d_s = 6, 2
    stack = np.stack([_low_rank(rng, m, n, clean_rank) for _ in range(4)])
    if bad_rank is None:
        bad = stack[2].copy()
        bad[1, 1] = np.nan
    else:
        bad = _low_rank(rng, m, n, bad_rank)
    stack[2] = bad
    alone, alone_warnings = _outcome(bad, d_s)
    together, together_warnings = _outcome(stack, d_s)
    assert together_warnings == alone_warnings
    if isinstance(alone, tuple):  # raised: same error type and message
        assert together == alone
    else:
        assert len(alone_warnings) == 1
        assert np.array_equal(together[2], alone)
