import math

import numpy as np
import pytest

from giasim.assignment import Assignment, fixed_cyclic
from giasim.errors import (
    AlignmentFailure,
    ContractViolation,
    DegenerateChannel,
    InfeasibleConfig,
)
from giasim.gia import (
    assignment_pairs,
    build_potentials,
    build_transceivers,
    cell_pairs,
    full_precoder,
    link_images,
    rate_logdet,
    select_null_basis,
    user_rate,
    verify_alignment,
)
from giasim.linalg import complex_gaussian, orthonormalize
from giasim.system import SystemConfig, draw_channels, trial_rng
from oracles import (
    aligned_interference_basis,
    chordal_distance_sq,
    decoders,
    effective_link_gains,
    inner_precoder,
    is_semi_unitary,
    per_user,
    stack_alignment_matrix,
    user_pattern,
)

CFG = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2, P=10 ** 2.5, sigma2=1.0)


@pytest.fixture(scope="module")
def realization():
    return draw_channels(CFG, trial_rng(2024, 0))


@pytest.fixture(scope="module")
def potentials(realization):
    return build_potentials(realization, CFG, assignment_pairs(fixed_cyclic(CFG.K)))


@pytest.fixture(scope="module")
def transceivers(realization, potentials):
    return build_transceivers(realization, CFG, fixed_cyclic(CFG.K), potentials)


def test_stack_layout_two_users(realization):
    A = stack_alignment_matrix(realization, 0, 1)
    assert A.shape == (CFG.N_B, 2 * CFG.N_U)
    assert np.array_equal(A[:, : CFG.N_U], realization.H[0, 0, 1])
    assert np.array_equal(A[:, CFG.N_U :], -realization.H[1, 0, 1])


def test_stack_single_user_cell():
    cfg1 = SystemConfig(K=3, L=1, N_B=3, N_U=1, d_s=1)
    ch = draw_channels(cfg1, trial_rng(5, 0))
    A = stack_alignment_matrix(ch, 0, 1)
    assert A.shape == (0, 1)
    V = inner_precoder(A, cfg1.d_s)
    assert V.shape == (1, 1) and is_semi_unitary(V)
    # single-user cell: the pattern is the (orthonormalized) precoder itself
    assert np.allclose(user_pattern(V, 0, cfg1.N_U), V)
    # and the aligned subspace is just the span of that user's image
    basis = aligned_interference_basis(ch, 0, 1, V)
    assert chordal_distance_sq(basis, orthonormalize(ch.H[0, 0, 1] @ V)) < 1e-12


def test_stack_rejects_self_pair(realization):
    with pytest.raises(ContractViolation):
        stack_alignment_matrix(realization, 2, 2)


def test_inner_precoder_worst_case_dimensions(realization):
    A = stack_alignment_matrix(realization, 0, 1)
    assert A.shape == ((CFG.L - 1) * CFG.N_B, CFG.L * CFG.N_U)  # 14 x 16
    V = inner_precoder(A, CFG.d_s)
    assert V.shape == (16, 2)
    assert np.linalg.norm(A @ V) < 1e-8
    assert is_semi_unitary(V)
    # null space is exactly d_s-dimensional here: asking for more must fail
    with pytest.raises(InfeasibleConfig):
        inner_precoder(A, CFG.d_s + 1)


def test_inner_precoder_zero_matrix():
    V = inner_precoder(np.zeros((4, 6), dtype=complex), 2)
    assert V.shape == (6, 2) and is_semi_unitary(V)


def test_user_pattern_gram_and_degenerate(realization):
    V_in = inner_precoder(stack_alignment_matrix(realization, 1, 2), CFG.d_s)
    pat = user_pattern(V_in, 1, CFG.N_U)
    assert is_semi_unitary(pat, tol=1e-10)
    broken = V_in.copy()
    broken[CFG.N_U :, :] = 0.0
    with pytest.raises(DegenerateChannel):
        user_pattern(broken, 1, CFG.N_U)


def test_full_precoder_scaling():
    pat = orthonormalize(complex_gaussian(np.random.default_rng(3), (8, 2)))
    assert np.allclose(full_precoder(pat, P=2.0, d_s=2), pat)
    V = full_precoder(pat, P=4.0, d_s=2)
    assert np.allclose(V, math.sqrt(2.0) * pat)
    assert np.trace(V.conj().T @ V).real == pytest.approx(4.0, rel=1e-12)
    assert chordal_distance_sq(pat, orthonormalize(V)) < 1e-12


def test_aligned_basis_common_span(realization):
    V_in = inner_precoder(stack_alignment_matrix(realization, 0, 1), CFG.d_s)
    basis = aligned_interference_basis(realization, 0, 1, V_in)
    assert is_semi_unitary(basis)
    for i in range(CFG.L):
        img = realization.H[i, 0, 1] @ V_in[i * CFG.N_U : (i + 1) * CFG.N_U, :]
        assert chordal_distance_sq(basis, orthonormalize(img)) < 1e-8


def test_aligned_basis_negative_control(realization):
    bogus = orthonormalize(complex_gaussian(np.random.default_rng(8), (16, 2)))
    with pytest.raises(AlignmentFailure):
        aligned_interference_basis(realization, 0, 1, bogus)


def test_decoder_dimensions_and_nulling(realization, potentials, transceivers):
    assignment, stacked = transceivers.assignment, decoders(realization, transceivers)
    for k in range(CFG.K):
        for i in range(CFG.L):
            U = stacked[(i, k)]
            assert U.shape == (CFG.N_B, CFG.d_s)
            assert is_semi_unitary(U)
            blocks = []
            for j in range(CFG.L):
                if j != i:
                    blocks.append(realization.H[j, k, k] @ transceivers.patterns[(j, k)])
            for l in range(CFG.K):
                if l in (k, assignment.providers[k]):
                    continue
                for m in range(CFG.L):
                    blocks.append(realization.H[m, l, k] @ transceivers.patterns[(m, l)])
            blocks.append(potentials.take("aligned", [(assignment.providers[k], k)])[0])
            F = np.concatenate(blocks, axis=1)
            assert F.shape == (CFG.N_B, (CFG.K - 1) * CFG.L * CFG.d_s)  # 14 x 12
            assert np.linalg.norm(U.conj().T @ F) < 1e-8


def test_link_images_equal_per_pair_products(realization, transceivers):
    stacked = decoders(realization, transceivers)
    stack = link_images(realization, stacked, transceivers.patterns)
    assert stack.shape == (CFG.L, CFG.K, CFG.L, CFG.K, CFG.d_s, CFG.d_s)
    for k in range(CFG.K):
        for i in range(CFG.L):
            U = stacked[i, k]
            images = stack[i, k]
            for m in range(CFG.L):
                for l in range(CFG.K):
                    pair = U.conj().T @ realization.H[m, l, k] @ transceivers.patterns[m, l]
                    assert np.array_equal(images[m, l], pair)


def test_per_user_layout_and_call_order():
    calls = []

    def fn(i, k):
        calls.append((i, k))
        return np.full((1, 2), 10 * i + k)

    stacked = per_user(CFG, fn)
    assert stacked.shape == (CFG.L, CFG.K, 1, 2)
    assert calls == [(i, k) for k in range(CFG.K) for i in range(CFG.L)]
    assert all(stacked[i, k, 0, 1] == 10 * i + k for i, k in calls)


def test_select_null_basis_infeasible():
    F = complex_gaussian(np.random.default_rng(0), (4, 4))
    with pytest.raises(InfeasibleConfig):
        select_null_basis(F, 1)


def test_rate_paths_agree(realization, transceivers):
    # the effective-channel rate and the raw transceiver rate are two routes
    # to the same quantity
    stacked = decoders(realization, transceivers)
    for k in range(CFG.K):
        for i in range(CFG.L):
            r_eff = user_rate(realization, transceivers, CFG)[i, k]
            U = stacked[(i, k)]
            slice_ik = transceivers.inner[k][i * CFG.N_U:(i + 1) * CFG.N_U, :]
            H_eff = U.conj().T @ realization.H[i, k, k] @ slice_ik
            assert H_eff.shape == (CFG.d_s, CFG.d_s)
            V_full = full_precoder(transceivers.patterns[(i, k)], CFG.P, CFG.d_s)
            r_raw = rate_logdet(U.conj().T @ realization.H[i, k, k] @ V_full, 1.0 / CFG.sigma2)
            assert r_raw == pytest.approx(r_eff, rel=1e-9)
            gains = effective_link_gains(realization, transceivers, stacked, i, k)
            r_gain = float(np.sum(np.log1p(CFG.P / (CFG.d_s * CFG.sigma2) * gains)))
            assert r_gain == pytest.approx(r_eff, rel=1e-9)


def test_precoder_power_is_tight(transceivers):
    for pattern in transceivers.patterns.reshape(-1, CFG.N_U, CFG.d_s):
        V = full_precoder(pattern, CFG.P, CFG.d_s)
        assert np.trace(V.conj().T @ V).real == pytest.approx(CFG.P, rel=1e-9)


def test_rate_zero_direct_channel(realization, transceivers):
    ch = draw_channels(CFG, trial_rng(2024, 0))
    ch.H[0, 0, 0] = 0.0
    # the decoders are formed on the zeroed draw, whose nulling stacks lose rank
    with pytest.warns(RuntimeWarning, match="rank deficient"):
        rate = user_rate(ch, transceivers, CFG)[0, 0]
    assert rate == pytest.approx(0.0, abs=1e-12)


def test_rate_noise_dominated(realization):
    quiet = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2, P=1.0, sigma2=1e12)
    tset = build_transceivers(realization, quiet, fixed_cyclic(quiet.K))
    rate = user_rate(realization, tset, quiet)[0, 0]
    assert 0.0 <= rate < 1e-9


def test_verify_alignment_perfect_and_corrupted(realization, transceivers):
    report = verify_alignment(realization, transceivers, CFG)
    assert report.max_residual < 1e-8 * math.sqrt(CFG.P)
    assert report.min_desired_sv > 0
    assert report.min_desired_ratio > 1e-8
    # negative control: random patterns break every nulling condition
    rng = np.random.default_rng(77)
    corrupted = build_transceivers(realization, CFG, fixed_cyclic(CFG.K))
    for i, k in np.ndindex(corrupted.patterns.shape[:2]):
        corrupted.patterns[i, k] = orthonormalize(complex_gaussian(rng, (CFG.N_U, CFG.d_s)))
    bad = verify_alignment(realization, corrupted, CFG)
    assert bad.max_residual > 1e3 * report.max_residual


def test_potentials_cover_requested_pairs(realization):
    pots = build_potentials(realization, CFG, pairs=[(0, 1), (2, 3)])
    assert pots._rows.keys() == {(0, 1), (2, 3)}
    full = build_potentials(realization, CFG, cell_pairs(CFG.K))
    assert full._rows.keys() == set(cell_pairs(CFG.K))
    assert len(cell_pairs(CFG.K)) == CFG.K * (CFG.K - 1)
    for name in ("inner", "patterns", "aligned", "whiteners"):
        assert np.array_equal(pots.take(name, [(0, 1), (2, 3)]), full.take(name, [(0, 1), (2, 3)]))


def test_build_transceivers_rejects_weak(realization):
    weak = Assignment((0, 3, 1, 2))  # cell 0 lone, the others one 3-cycle
    assert weak.lone == 0
    with pytest.raises(ContractViolation):
        build_transceivers(realization, CFG, weak)


def test_high_snr_slope_shared_across_assignments(realization):
    # on one fixed realization, every strict assignment climbs at the same
    # high-SNR slope even though absolute rates differ
    from giasim.assignment import enumerate_derangements

    pots = build_potentials(realization, CFG, cell_pairs(CFG.K))
    slopes, rates_30 = [], []
    for perm in enumerate_derangements(CFG.K):
        a = Assignment(perm)
        tset = build_transceivers(realization, CFG, a, pots)
        U, totals = decoders(realization, tset), []
        for snr in (1e3, 1e4):
            total = 0.0
            for k in range(CFG.K):
                for i in range(CFG.L):
                    gains = effective_link_gains(realization, tset, U, i, k)
                    total += float(np.sum(np.log1p(snr / CFG.d_s * gains)))
            totals.append(total)
        slopes.append((totals[1] - totals[0]) / math.log(10.0))
        rates_30.append(totals[0])
    slopes = np.array(slopes)
    target = CFG.K * CFG.L * CFG.d_s
    assert np.all(np.abs(slopes - target) / target < 0.10)
    assert (slopes.max() - slopes.min()) / slopes.min() < 0.10
    assert np.ptp(rates_30) > 0.0  # assignments are not rate-equivalent
