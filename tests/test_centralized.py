"""The centralized search against a from-scratch reference, and the stacked
null basis behind its decoders.

The search reads per-pair pieces (patterns, aligned bases, whiteners) shared
across candidates and calls. It screens every candidate in one call, from a
Cholesky factor of the Gram of each of their cell matrices, gathered from one
Gram of every column a cell matrix can hold at each base station and factored
in chunks, and evaluates
exactly, through ``build_transceivers`` and ``user_rate``, only the
candidates the screen cannot certify and those near
the best screened value. The searches below confirm through
``oracles.centralized_search``, a fresh ``build_transceivers`` and ``user_rate``
per confirmed candidate. The reference is the plain loop: for every
derangement a fresh ``build_transceivers`` with no potentials, so each builds
its own and nothing is shared between candidates, and its rates user by user
through ``oracles.user_rate``. Both must agree with ``==``.
"""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from giasim import assignment as asg
from giasim import gia
from giasim.assignment import (
    SCREEN_MARGIN,
    Assignment,
    breaking_step,
    build_preferences,
    enumerate_derangements,
    fca_match,
    fixed_cyclic,
    gale_shapley,
)
from giasim.errors import CapacityExceeded, ContractViolation, GiaSimError
from giasim.gia import (
    assignment_pairs,
    build_potentials,
    build_transceivers,
    cell_pairs,
    certified_factor,
    nulling_stacks,
    rate_logdet,
    select_null_basis,
    user_rate,
)
from giasim.harness import SchemeSpec, SweepSpec, run_sweep
from giasim.linalg import complex_gaussian
from giasim.system import SNR_CEILING, ChannelRealization, SystemConfig, draw_channels, trial_rng
from oracles import (cell_matrices, centralized_search, decoders, feasible_configs,
                     inverse_gains as per_chunk_inverse_gains, user_rate as per_user_rate,
                     zf_decoder)

REFERENCE = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2).at_snr_db(25.0)
TIGHT_K5 = SystemConfig(K=5, L=2, N_B=18, N_U=10, d_s=2).at_snr_db(25.0)
TIGHT_K6 = SystemConfig(K=6, L=2, N_B=22, N_U=12, d_s=2).at_snr_db(25.0)  # central_k6
SEARCHES = [(o, s) for o in ("sum_rate", "min_cell_rate") for s in ("best", "worst")]


def gram(M):
    """M^H M of each slice of a stack."""
    return M.conj().swapaxes(-1, -2) @ M


def reference_candidates(ch, cfg):
    """Each derangement's cell rates, from a fresh build per candidate."""
    out = []
    for perm in enumerate_derangements(cfg.K):
        assignment = Assignment(perm)
        tset = build_transceivers(ch, cfg, assignment)
        U = decoders(ch, tset)
        cell_rates = [
            sum(per_user_rate(ch, tset, U, i, k, cfg) for i in range(cfg.L))
            for k in range(cfg.K)
        ]
        out.append((assignment, cell_rates))
    return out


def screened_rates(cfg, potentials, providers):
    """Every user's screened rate in nats, (n, L, K), at ``cfg``'s power, of the
    candidates ``providers``, as ``centralized_search`` forms it from the inverse gains."""
    scale = cfg.P / (cfg.d_s * cfg.sigma2)
    return np.log1p(scale / potentials.inverse_gains(providers)).sum(-1).swapaxes(-1, -2)


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
        potentials = build_potentials(ch, cfg, cell_pairs(cfg.K))  # shared by all four searches
        candidates = reference_candidates(ch, cfg)
        for objective, sense in SEARCHES:
            chosen, value = centralized_search(ch, cfg, objective, sense, potentials)
            ref_chosen, ref_value = reference_pick(candidates, objective, sense)
            assert chosen.providers == ref_chosen.providers, (t, objective, sense)
            assert value == ref_value, (t, objective, sense)


def test_search_equals_fresh_build_on_fuzz_shapes():
    # every shape of test_dimension_fuzz: L in {1, 2, 3}, d_s in {1, 2}, K in
    # {3, 4}, tight and slack; the slack shapes take the exact path throughout
    for n, cfg in enumerate(feasible_configs(2718)):
        for t in (2 * n, 2 * n + 1):
            ch = draw_channels(cfg, trial_rng(2718, t))
            potentials = build_potentials(ch, cfg, cell_pairs(cfg.K))
            candidates = reference_candidates(ch, cfg)
            for objective, sense in SEARCHES:
                chosen, value = centralized_search(ch, cfg, objective, sense, potentials)
                ref_chosen, ref_value = reference_pick(candidates, objective, sense)
                assert chosen.providers == ref_chosen.providers, (cfg, t, objective, sense)
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
    # usually the winner alone, go through build_transceivers. The screen
    # rates at the search's power, also on potentials that a sweep built at
    # another grid point
    builds = _count_calls(monkeypatch, "build_transceivers")
    for t, built_at in zip(range(5), [REFERENCE, REFERENCE.at_snr_db(0.0)] * 3):
        ch = draw_channels(REFERENCE, trial_rng(41, t))
        potentials = build_potentials(ch, built_at, cell_pairs(built_at.K))
        for objective, sense in SEARCHES:
            builds.clear()
            chosen, _ = centralized_search(ch, REFERENCE, objective, sense, potentials)
            assert 1 <= len(builds) <= 3, (t, objective, sense)  # of D(4) = 9
            assert chosen.providers in [a.providers for a in builds]


def test_wider_null_space_evaluates_every_candidate_exactly(monkeypatch):
    # N_B = 16 leaves each decoder a 4-dimensional null space for d_s = 2:
    # which 2 directions the SVD picks is part of the output, so no screen.
    # The cell matrices are 16 x 14 and their Grams positive definite: the
    # screen refuses them for their shape, before it forms any Gram
    cfg = SystemConfig(K=4, L=2, N_B=16, N_U=9, d_s=2).at_snr_db(25.0)
    ch = draw_channels(cfg, trial_rng(48, 0))
    potentials = build_potentials(ch, cfg, cell_pairs(cfg.K))
    monkeypatch.setattr(gia, "certified_factor", None)  # a call would raise
    assert np.isnan(potentials.inverse_gains(np.array(list(enumerate_derangements(4))))).all()
    monkeypatch.undo()
    builds = _count_calls(monkeypatch, "build_transceivers")
    chosen, value = centralized_search(ch, cfg)
    assert len(builds) == 9
    ref_chosen, ref_value = reference_pick(reference_candidates(ch, cfg), "sum_rate", "best")
    assert chosen.providers == ref_chosen.providers
    assert value == ref_value


def test_screen_error_falls_back_to_every_candidate(monkeypatch):
    ch = draw_channels(REFERENCE, trial_rng(41, 0))
    potentials = build_potentials(ch, REFERENCE, cell_pairs(REFERENCE.K))
    ref_chosen, ref_value = reference_pick(reference_candidates(ch, REFERENCE), "sum_rate", "best")
    scale = REFERENCE.P / (REFERENCE.d_s * REFERENCE.sigma2)

    def low_on_winner(providers):  # the winner's every screened rate term times 1 - 10 margin
        gains = potentials.inverse_gains(providers)
        for row, lam in zip(providers.tolist(), gains):
            if tuple(row) == ref_chosen.providers:
                lam[...] = scale / np.expm1(np.log1p(scale / lam) * (1 - 10 * SCREEN_MARGIN))
        return gains

    builds = _count_calls(monkeypatch, "build_transceivers")
    chosen, value = asg.centralized_search(
        REFERENCE, low_on_winner,
        lambda a: user_rate(ch, gia.build_transceivers(ch, REFERENCE, a, potentials), REFERENCE),
        "sum_rate", "best")
    assert len(builds) == 9  # the self-check sent every candidate down the exact path
    assert chosen.providers == ref_chosen.providers
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
    assert chosen.providers == ref_chosen.providers
    assert value == ref_value


def test_candidates_in_the_certificate_band_take_the_exact_path(monkeypatch):
    # cell 0's aligned basis from cell 1 gets the columns b0 and b0 + 2e-5 b1,
    # so the three candidates with 1 -> 0 have sigma_min / sigma_max between
    # 1e-9 and 1e-6 at cell 0 (6.9e-7 to 8.4e-7): the bound
    # 1 / (|M|_F |M^-1|_F) > 1e-9 of the inverse-based certificate accepted
    # them, the Cholesky certificate with CERTIFIED_RATIO = 1e-6 refuses them
    # (at 1e-7 it would not). The search evaluates them exactly at their place
    # in the enumeration, before any near-best candidate, and the SVD path
    # rates them without a warning (pytest turns a RuntimeWarning into a failure)
    take = gia.Potentials.take

    def tilted(self, name, pairs):
        pieces = take(self, name, pairs)
        if name == "aligned" and (1, 0) in pairs:
            b = pieces[pairs.index((1, 0))]
            pieces[pairs.index((1, 0))] = np.stack([b[:, 0], b[:, 0] + 2e-5 * b[:, 1]], axis=-1)
        return pieces

    monkeypatch.setattr(gia.Potentials, "take", tilted)
    ch = draw_channels(REFERENCE, trial_rng(41, 5))
    potentials = build_potentials(ch, REFERENCE, cell_pairs(REFERENCE.K))
    providers = np.array(list(enumerate_derangements(REFERENCE.K)))
    band = providers[:, 0] == 1
    M = cell_matrices(ch, REFERENCE, potentials, providers)[band, 0]
    s = np.linalg.svd(M, compute_uv=False)
    assert ((1e-9 < s[:, -1] / s[:, 0]) & (s[:, -1] / s[:, 0] < 1e-6)).all()
    norms = np.linalg.norm(M, axis=(-2, -1)) * np.linalg.norm(np.linalg.inv(M), axis=(-2, -1))
    assert (1 / norms > 1e-9).all()  # the inverse-based bound
    assert not certified_factor(gram(M), np.ones(len(M), bool))[1].any()
    builds = _count_calls(monkeypatch, "build_transceivers")
    chosen, value = centralized_search(ch, REFERENCE, potentials=potentials)
    band_candidates = [tuple(p) for p in providers[band].tolist()]
    assert [a.providers for a in builds[:3]] == band_candidates
    ref_chosen, ref_value = reference_pick(reference_candidates(ch, REFERENCE), "sum_rate", "best")
    assert chosen.providers == ref_chosen.providers
    assert value == ref_value


def _screened_rate(factor, d_s, scale):
    """Each user's rate from the trailing d_s x d_s block C_oo of the Cholesky factor
    of M^H M, its own block last: C_oo^-H has the Gram of the own rows of M^-1."""
    Z = np.linalg.inv(factor[..., -d_s:, -d_s:].conj().swapaxes(-1, -2))
    return np.sum(np.log1p(scale / np.linalg.eigvalsh(Z @ Z.conj().swapaxes(-1, -2))), axis=-1)


def test_certified_null_basis_gives_the_svd_rate():
    # the last d_s rows Z of [F | A]^-1 null F and map A to I, so Z^H spans
    # F's left null space, and the trailing block C_oo of the Cholesky factor
    # of the Gram has C_oo C_oo^H = (Z Z^H)^-1: the rate through the SVD's
    # null basis is the same
    rng = np.random.default_rng(8)
    F = complex_gaussian(rng, (3, 2, 14, 12))
    U_svd = select_null_basis(F, 2)
    assert U_svd.shape == (3, 2, 14, 2)
    A = complex_gaussian(rng, (3, 2, 14, 2))
    factor, certified = certified_factor(gram(np.concatenate([F, A], axis=-1)),
                                         np.ones((3, 2), bool))
    assert factor.shape == (3, 2, 14, 14) and certified.all()
    assert np.allclose(U_svd.conj().swapaxes(-1, -2) @ U_svd, np.eye(2), rtol=0, atol=1e-13)
    screened = _screened_rate(factor, 2, 300.0)
    for idx in np.ndindex(3, 2):
        exact = rate_logdet(U_svd[idx].conj().T @ A[idx], 300.0)
        assert abs(screened[idx] - exact) <= 1e-12 * exact


def _derangements(cfg):
    return [Assignment(perm) for perm in enumerate_derangements(cfg.K)]


TIGHT_L1 = SystemConfig(K=4, L=1, N_B=8, N_U=2, d_s=2).at_snr_db(25.0)
TIGHT_L3 = SystemConfig(K=3, L=3, N_B=14, N_U=10, d_s=2).at_snr_db(25.0)
TIGHT_D1 = SystemConfig(K=4, L=2, N_B=7, N_U=4, d_s=1).at_snr_db(25.0)


@pytest.mark.parametrize("cfg, seed", [(REFERENCE, 41), (TIGHT_K5, 49), (TIGHT_L1, 50),
                                       (TIGHT_L3, 51), (TIGHT_D1, 52)],
                         ids=["k4", "tight_k5", "tight_l1", "tight_l3", "tight_d1"])
def test_gathered_stacks_equal_nulling_stacks(cfg, seed):
    # the oracle's cell matrices hold the very products nulling_stacks forms, so
    # a cell matrix without user (i, k)'s own block must be that user's nulling stack
    # bit for bit, in its block order once the other own users, which the cell
    # matrix puts last, come first, and the own block the user's image
    ch = draw_channels(cfg, trial_rng(seed, 0))
    potentials = build_potentials(ch, cfg, cell_pairs(cfg.K))
    L, K, N_B, d_s = cfg.L, cfg.K, cfg.N_B, cfg.d_s
    cells = cell_matrices(ch, cfg, potentials, np.array(list(enumerate_derangements(K))))
    assert cells.shape == (len(_derangements(cfg)), K, N_B, N_B)  # tight: square
    first_own = N_B - L * d_s
    for assignment, M in zip(_derangements(cfg), cells):
        tset = build_transceivers(ch, cfg, assignment, potentials)
        blocks = potentials.take("aligned", [(p, k) for k, p in enumerate(assignment.providers)])
        F = nulling_stacks(ch, assignment, tset.patterns, blocks)
        assert F.shape == (L, K, N_B, N_B - d_s)
        for i, k in np.ndindex(L, K):
            own = np.arange(first_own + i * d_s, first_own + (i + 1) * d_s)
            others = [first_own + m * d_s + c for m in range(L) if m != i for c in range(d_s)]
            stack = M[k][:, others + list(range(first_own))]
            assert np.array_equal(stack, F[i, k]), (assignment, i, k)
            image = ch.H[i, k, k] @ tset.patterns[i, k]
            assert np.array_equal(M[k][:, own], image), (assignment, i, k)


def tight_fuzz_shapes():
    """Every tight shape of test_dimension_fuzz with its draw's stream: 11, since the slack
    draws with no spare antenna are tight too."""
    shapes = [(cfg, trial_rng(2718, n)) for n, cfg in enumerate(feasible_configs(2718))
              if (cfg.L * (cfg.K - 1) + 1) * cfg.d_s == cfg.N_B]
    assert len(shapes) == 11
    return shapes


def _screened_grams(monkeypatch, potentials, providers):
    """Every cell Gram that the screen of ``providers`` factors, (n, K, c, c), as it gathered
    them, and the finiteness it hands the certificate with them, (n, K)."""
    grams, finite, factor = [], [], gia.certified_factor

    def kept(G, f):
        grams.append(G.copy())
        finite.append(f.copy())
        return factor(G, f)

    monkeypatch.setattr(gia, "certified_factor", kept)
    potentials.inverse_gains(providers)
    monkeypatch.setattr(gia, "certified_factor", factor)
    K = potentials.cfg.K  # the screen factors station by station
    G = np.concatenate(grams).reshape((K, len(providers)) + grams[0].shape[1:]).swapaxes(0, 1)
    return G, np.concatenate(finite).reshape(K, -1).T


def test_gathered_grams_are_within_the_certificates_rounding_bound(monkeypatch):
    # every gathered entry is a length-N_B inner product of two columns of one
    # station, as the entry of M^H M of the oracle's cell matrix is, so README's
    # rounding bound for the certificate, ||G^ - M^H M||_2 <= sqrt(2) (n + 2) u
    # ||M||_F^2, holds for it. M^H M is formed in extended precision. TIGHT_K6's
    # 265 candidates, then every tight fuzz shape
    shapes = [(TIGHT_K6, trial_rng(47, 0))] + tight_fuzz_shapes()
    for cfg, rng in shapes:
        ch = draw_channels(cfg, rng)
        potentials = build_potentials(ch, cfg, cell_pairs(cfg.K))
        providers = np.array(list(enumerate_derangements(cfg.K)))
        grams, finite = _screened_grams(monkeypatch, potentials, providers)
        M = cell_matrices(ch, cfg, potentials, providers)
        assert grams.shape == M.shape and finite.all()
        error = np.linalg.norm((grams - gram(M.astype(np.clongdouble))).astype(complex), 2,
                               axis=(-2, -1))
        bound = np.sqrt(2) * (cfg.N_B + 2) * 2.0 ** -53 * np.linalg.norm(M, axis=(-2, -1)) ** 2
        assert (error <= bound).all(), cfg


def test_failed_pairs_leave_exactly_their_candidates_uncertified(monkeypatch):
    # at a zero alignment tolerance the rounding of the images flags 12 of this
    # draw's 30 pairs, whose columns are NaN at every station. Exactly the
    # candidates that read one of them are not certified, LAPACK never sees a
    # non-finite Gram, every other candidate's certificate is the oracle cell
    # matrices', and a search that screens on these pieces and rates on the
    # same pieces, unflagged, evaluates the uncertified ones exactly and
    # returns the reference pick
    cfg = TIGHT_K6
    ch = draw_channels(cfg, trial_rng(47, 0))
    potentials = build_potentials(ch, cfg, cell_pairs(cfg.K))
    monkeypatch.setattr(gia, "ALIGN_TOL", 0.0)
    failing = build_potentials(ch, cfg, cell_pairs(cfg.K))
    monkeypatch.undo()
    failed = {(p, r) for _, p, r in failing._errors}
    assert len(failed) == 12
    providers = np.array(list(enumerate_derangements(cfg.K)))
    reads = np.array([bool(failed & {*assignment_pairs(Assignment(tuple(row)))})
                      for row in providers.tolist()])
    assert 0 < reads.sum() < len(providers)
    cholesky, seen = np.linalg.cholesky, []
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda A: seen.append(np.isfinite(A).all()) or cholesky(A))
    uncertified = np.isnan(failing.inverse_gains(providers)).any(axis=(1, 2, 3))
    assert seen and all(seen)
    assert uncertified.tolist() == reads.tolist()
    M = cell_matrices(ch, cfg, potentials, providers[~reads])
    _, certified = certified_factor(gram(M), np.isfinite(M).all(axis=(-2, -1)))
    assert certified.all(axis=-1).tolist() == (~uncertified[~reads]).tolist()
    monkeypatch.undo()
    builds = _count_calls(monkeypatch, "build_transceivers")
    chosen, value = asg.centralized_search(
        cfg, failing.inverse_gains,
        lambda a: user_rate(ch, gia.build_transceivers(ch, cfg, a, potentials), cfg),
        "sum_rate", "best")
    assert {a.providers for a in builds} >= {tuple(p) for p in providers[reads].tolist()}
    ref_chosen, ref_value = reference_pick(reference_candidates(ch, cfg), "sum_rate", "best")
    assert chosen.providers == ref_chosen.providers
    assert value == ref_value


def test_screen_memory_stays_within_five_chunks():
    # beside the inverse gains it returns, the screen holds the station table,
    # one station's Gram, one chunk of cell Grams and one Cholesky factor: 3.0
    # chunks of SCREEN_CHUNK_BYTES on TIGHT_K6, and 4.0 while the station table
    # forms. All K stations' Grams held at once take 7.4, and such a temporary,
    # which the allocator hands back to the system, costs page faults at every
    # draw (740 per screen)
    ch = draw_channels(TIGHT_K6, trial_rng(47, 0))
    potentials = build_potentials(ch, TIGHT_K6, cell_pairs(TIGHT_K6.K))
    providers = np.array(list(enumerate_derangements(TIGHT_K6.K)))
    potentials.inverse_gains(providers)  # the cached gather plan forms outside the count
    tracemalloc.start()
    try:
        potentials.inverse_gains(providers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * gia.SCREEN_CHUNK_BYTES


def test_certificate_holds_one_factor_at_a_time():
    # the factor of G - tau I that certifies is freed before the kept factor of G
    # forms, so the certificate holds one chunk-sized factor beside its input,
    # where two at once grew the heap of a K=6 screen by 0.36 MB past the
    # allocator's trim threshold: 684 page faults per draw. The diagonal goes
    # back bit for bit, so the kept factor is the one of G itself
    rng = np.random.default_rng(7)
    G = gram(complex_gaussian(rng, (67, 22, 22)))
    expected = np.linalg.cholesky(G)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        factor, certified = certified_factor(G, np.ones(len(G), bool))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert certified.all() and np.array_equal(factor, expected)
    assert np.array_equal(G, gram(complex_gaussian(np.random.default_rng(7), (67, 22, 22))))
    assert peak <= 1.25 * G.nbytes


@pytest.mark.parametrize("case", ["tight_k6", "fuzz", "failed_pairs", "subset"])
def test_screen_equals_the_per_chunk_oracle(monkeypatch, case):
    # the gather plan and the one tail per station change which calls do the
    # work, not the work: LAPACK factors and inverts each slice alone and the
    # eigenvalues are elementwise, so every inverse gain, NaN included, is the
    # per-chunk path's to the bit. Two TIGHT_K6 draws; every tight fuzz shape;
    # a draw whose 12 failed pairs (ALIGN_TOL = 0) leave a candidate uncertified
    # at some stations and not at others; every other derangement as the list
    shapes = (tight_fuzz_shapes() if case == "fuzz" else
              [(TIGHT_K6, trial_rng(47, t)) for t in ((0, 1) if case == "tight_k6" else (0,))])
    for cfg, rng in shapes:
        ch = draw_channels(cfg, rng)
        if case == "failed_pairs":
            monkeypatch.setattr(gia, "ALIGN_TOL", 0.0)
        potentials = build_potentials(ch, cfg, cell_pairs(cfg.K))
        monkeypatch.undo()
        providers = np.array(list(enumerate_derangements(cfg.K)))[::2 if case == "subset" else 1]
        gains = potentials.inverse_gains(providers)
        assert gains.shape == (len(providers), cfg.K, cfg.L, cfg.d_s)
        assert np.array_equal(gains, per_chunk_inverse_gains(potentials, providers),
                              equal_nan=True), cfg
        uncertified = np.isnan(gains).any(axis=(1, 2, 3)).sum()  # not a NaN-only comparison
        assert 0 < uncertified < len(providers) if case == "failed_pairs" else uncertified == 0


def test_gather_plan_is_formed_once_per_candidate_list():
    # the plan depends on (K, L) and the candidates only. Another list of the
    # same shape (the derangements reversed) gets a plan of its own, and an
    # int32 copy of the candidates reads the plan of their intp values. Three
    # draws of the four centralized searches form one plan
    ch = draw_channels(REFERENCE, trial_rng(41, 0))
    potentials = build_potentials(ch, REFERENCE, cell_pairs(REFERENCE.K))
    providers = np.array(list(enumerate_derangements(REFERENCE.K)))
    gains = potentials.inverse_gains(providers)
    assert np.array_equal(potentials.inverse_gains(providers[::-1]), gains[::-1])
    assert np.array_equal(potentials.inverse_gains(providers.astype(np.int32)), gains)
    gia._gather_plan.cache_clear()
    schemes = tuple(SchemeSpec(assignment=rule) for rule in
                    ("centralized_sum", "centralized_min", "worst_sum", "worst_min"))
    run_sweep(SweepSpec("snr_db", (10.0, 25.0), 3, schemes, seed=41), REFERENCE)
    assert gia._gather_plan.cache_info().misses == 1
    potentials.inverse_gains(providers[::-1])
    potentials.inverse_gains(providers.astype(np.int32))
    assert gia._gather_plan.cache_info().misses == 2


def test_gather_plan_forms_one_station_at_a_time():
    # the plan keeps D(K) K (L (K-1) + 1) block indices in one byte each up to
    # K = 9; it is formed station by station in that dtype. Formed for every
    # station at once through intp temporaries, its peak was 50 plans at K=8
    # (88 MB for a 1.8 MB plan) and 1.0 GB at K=9; station by station, 2.6
    K, L = 8, 2
    providers = np.array(list(enumerate_derangements(K)))
    index = np.min_scalar_type(K * (K - 1) * L + K - 2)
    gia._gather_plan.cache_clear()
    tracemalloc.start()
    try:
        plan = gia._gather_plan(K, L, providers.tobytes(), providers.shape, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.shape == (K, len(providers), L * (K - 1) + 1) and plan.dtype == np.uint8
    assert peak <= 3 * plan.nbytes


def test_each_chunk_factors_with_the_previous_chunks_factor_freed(monkeypatch):
    # a chunk keeps a small copy of its certified C_oo for the station's tail
    # and frees its factor before the next chunk's Grams are gathered. Every
    # factorization of a TIGHT_K6 screen starts with at most 2.6 chunks of
    # SCREEN_CHUNK_BYTES held by the screen (station table, one station's Gram
    # and columns, the chunk's Grams, the C_oo copies so far); with the previous
    # factor still held it is 3.5, which grew the heap past the allocator's trim
    # threshold: 730 page faults per central_k6 draw
    ch = draw_channels(TIGHT_K6, trial_rng(47, 0))
    potentials = build_potentials(ch, TIGHT_K6, cell_pairs(TIGHT_K6.K))
    providers = np.array(list(enumerate_derangements(TIGHT_K6.K)))
    potentials.inverse_gains(providers)  # the cached gather plan forms outside the count
    held, factor = [], gia.certified_factor
    monkeypatch.setattr(gia, "certified_factor",
                        lambda G, f: held.append(tracemalloc.get_traced_memory()[0]) or factor(G, f))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        potentials.inverse_gains(providers)
    finally:
        tracemalloc.stop()
    assert len(held) == TIGHT_K6.K * 4  # 265 candidates in chunks of 67
    assert max(held) - start <= 3 * gia.SCREEN_CHUNK_BYTES


def two_sided_profile(ch, cfg):
    potentials = build_potentials(ch, cfg, cell_pairs(cfg.K))
    return build_preferences(ch, (cfg,), potentials, build_preferences(ch, cfg, potentials))[0]


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
    # cell perm[r] takes perm[p] for provider where cell r took p
    relabel = lambda a: tuple(int(perm[a.providers[r]]) for r in inv)
    for t in range(2):
        ch = draw_channels(cfg, trial_rng(seed, t))
        moved = ChannelRealization(H=ch.H[:, inv][:, :, inv])
        for objective, sense in SEARCHES:
            chosen, value = centralized_search(ch, cfg, objective, sense)
            chosen_moved, value_moved = centralized_search(moved, cfg, objective, sense)
            assert chosen_moved.providers == relabel(chosen), (t, objective, sense)
            assert abs(value_moved - value) <= 1e-12 * abs(value), (t, objective, sense)
        prefs, prefs_moved = map(two_sided_profile, (ch, moved), (cfg, cfg))
        for match in (lambda pr: fca_match(pr)[0], lambda pr: gale_shapley(pr, "receivers")[0]):
            strict, strict_moved = (breaking_step(match(pr), pr) for pr in (prefs, prefs_moved))
            assert strict_moved.providers == relabel(strict), t


def test_screened_rates_equal_user_rates():
    # user by user, not cell by cell: swapping two users' diagonal blocks of
    # C_oo^-H C_oo^-1 leaves every cell's sum unchanged. TIGHT_K5's 44
    # derangements, then every tight fuzz shape (L in {1, 2, 3}, d_s in
    # {1, 2}) and two tight d_s = 3 shapes, each screened in one call: the
    # eigenvalues of Z Z^H come in closed form at d_s = 2 and from eigvalsh else
    shapes = [(TIGHT_K5, trial_rng(49, 0))] + [
        (cfg, trial_rng(2718, 6 * n)) for n, cfg in enumerate(feasible_configs(2718)[::3])] + [
        (SystemConfig(K=3, L=L, N_B=N_B, N_U=N_U, d_s=3).at_snr_db(25.0), trial_rng(50, L))
        for L, N_B, N_U in ((1, 9, 4), (2, 15, 9))]
    assert {cfg.d_s for cfg, _ in shapes} == {1, 2, 3}
    for cfg, rng in shapes:
        ch = draw_channels(cfg, rng)
        potentials = build_potentials(ch, cfg, cell_pairs(cfg.K))
        providers = np.array(list(enumerate_derangements(cfg.K)))
        screened = screened_rates(cfg, potentials, providers)
        assert screened.shape == (len(_derangements(cfg)), cfg.L, cfg.K)
        for assignment, rates in zip(_derangements(cfg), screened):
            exact = user_rate(ch, build_transceivers(ch, cfg, assignment, potentials), cfg)
            for (i, k), rate in np.ndenumerate(rates):
                assert abs(rate - exact[i, k]) <= 1e-12 * exact[i, k], (cfg, assignment, i, k)


def test_screen_over_the_byte_guard_is_refused_before_any_factorization(monkeypatch):
    # the screen keeps 8 K L d_s bytes of inverse gains per candidate in the
    # trial's memo, and its cached gather plan K (L (K-1) + 1) block indices per
    # candidate, one byte each here; it counts both before it gathers or factors
    # a cell's Gram, and factors the cells of one base station at a time
    ch = draw_channels(REFERENCE, trial_rng(41, 0))
    potentials = build_potentials(ch, REFERENCE, cell_pairs(REFERENCE.K))
    providers = np.array(list(enumerate_derangements(REFERENCE.K)))
    factored = []
    factor = gia.certified_factor
    monkeypatch.setattr(gia, "certified_factor",
                        lambda G, finite: factored.append(len(G)) or factor(G, finite))
    K, L, d_s = REFERENCE.K, REFERENCE.L, REFERENCE.d_s
    values = 8 * len(providers) * K * L * d_s
    size = values + len(providers) * K * (L * (K - 1) + 1)
    monkeypatch.setattr(gia, "SCREEN_TABLE_BYTES", size - 1)
    with pytest.raises(CapacityExceeded, match=f"{size} bytes"):
        screened_rates(REFERENCE, potentials, providers)
    assert factored == []
    monkeypatch.setattr(gia, "SCREEN_TABLE_BYTES", size)
    assert np.isfinite(screened_rates(REFERENCE, potentials, providers)).all()
    assert factored == [len(providers)] * REFERENCE.K
    plan = gia._gather_plan(K, L, providers.astype(np.intp).tobytes(), providers.shape,
                            np.dtype(np.uint8))
    assert plan.dtype == np.uint8 and plan.nbytes == size - values


def test_screen_is_finite_at_the_snr_ceiling():
    # the largest P/sigma2 a config takes, on TIGHT_K6's 265 candidates, whose
    # inverse gains come from the d_s = 2 closed form
    ch = draw_channels(TIGHT_K6, trial_rng(47, 0))
    potentials = build_potentials(ch, TIGHT_K6, cell_pairs(TIGHT_K6.K))
    providers = np.array(list(enumerate_derangements(TIGHT_K6.K)))
    for cfg in (replace(TIGHT_K6, P=SNR_CEILING), replace(TIGHT_K6, P=1.0, sigma2=1 / SNR_CEILING)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(screened_rates(cfg, potentials, providers)).all()


@pytest.mark.parametrize("bad", [
    "low_rank",    # numerically rank deficient: M^H M - tau I is indefinite
    "singular",    # exactly singular, a zero column: LAPACK refuses the whole stack
    "non_finite",  # NaN and infinite entries, which the caller flags
], ids=["rank_deficient", "tight_rank_deficient", "non_finite"])
def test_certificate_refuses(monkeypatch, bad):
    # a null space wider than d_s (a non-square cell matrix) is refused before
    # any Gram is formed: test_wider_null_space_evaluates_every_candidate_exactly
    rng = np.random.default_rng(6)
    stack = complex_gaussian(rng, (4, 6, 6))
    if bad == "low_rank":
        stack[2] = _low_rank(rng, 6, 6, 5)
    elif bad == "singular":
        stack[2, :, 1] = 0.0
    elif bad == "non_finite":
        stack[2, 1, 1], stack[2, 3, 0] = np.nan, np.inf
    cholesky, seen = np.linalg.cholesky, []
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda A: seen.append(np.isfinite(A).all()) or cholesky(A))
    with np.errstate(invalid="ignore"):  # inf times 0 in the Gram of the non-finite slice
        grams = gram(stack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no LinAlgError and no numpy warning escapes
        _, certified = certified_factor(grams, np.isfinite(stack).all(axis=(-2, -1)))
        _, clean = certified_factor(gram(np.delete(stack, 2, axis=0)), np.ones(3, bool))
    assert certified.tolist() == [True, True, False, True]
    assert clean.tolist() == [True] * 3
    assert all(seen)  # LAPACK never sees a non-finite slice


@pytest.mark.parametrize("coupling, certified", [(1.0, True), (1e5, False)])
def test_certificate_sees_ill_conditioning_off_the_diagonal(coupling, certified):
    # M = Q R with R = [[I, cJ], [0, I]] (J all ones): its diagonal blocks are
    # the identity, its condition number grows as c^2 and shows only in the
    # off-diagonal block of M^-1. At c = 1e5, sigma_min / sigma_max is 4e-12.
    rng = np.random.default_rng(7)
    n = 10
    R = np.eye(n, dtype=complex)
    R[:n // 2, n // 2:] = coupling
    Q, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
    assert certified_factor(gram((Q @ R)[None]), np.ones(1, bool))[1].tolist() == [certified]


def test_potentials_of_another_draw_are_refused():
    ch_a, ch_b = (draw_channels(REFERENCE, trial_rng(44, t)) for t in (0, 1))
    with pytest.raises(ContractViolation):
        build_transceivers(ch_b, REFERENCE, fixed_cyclic(REFERENCE.K),
                           build_potentials(ch_a, REFERENCE, cell_pairs(REFERENCE.K)))


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
    potentials = build_potentials(ch, REFERENCE, assignment_pairs(fixed_cyclic(REFERENCE.K)))
    tset = build_transceivers(ch, REFERENCE, fixed_cyclic(REFERENCE.K), potentials)
    prov, stacked = tset.assignment.providers, decoders(ch, tset)
    for k in range(REFERENCE.K):
        for i in range(REFERENCE.L):
            aligned = potentials.take("aligned", [(prov[k], k)])[0]
            single = zf_decoder(ch, tset.assignment, tset.patterns, i, k, aligned, REFERENCE.d_s)
            assert np.array_equal(single, stacked[i, k])


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
