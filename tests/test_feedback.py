import itertools
import math
import tracemalloc

import numpy as np
import pytest

import giasim.feedback as fb
from giasim.assignment import fixed_cyclic
from giasim.errors import CapacityExceeded, ContractViolation, DegenerateChannel, NumericalFailure
from giasim.feedback import (
    codebook_bytes,
    dba_allocate,
    dump_codebook,
    eba_allocate,
    generate_codebook,
    geodesic_points,
    model_quantize,
    omega_matrix,
    quantize,
    quantized_decoder,
    rinr,
    rinr_upper_bound,
)
from giasim.gia import build_transceivers, link_images
from giasim.linalg import complex_gaussian, orthonormalize
from giasim.system import SystemConfig, draw_channels, trial_rng
from oracles import (
    allocation_objective,
    bisection_walk,
    chordal_distance_sq,
    codebook_of,
    dba_active_count,
    frame_of,
    is_semi_unitary,
    leakage,
    left_null_space,
    omega,
    read_codebook,
    sample_min_distortion,
    subspace_at_distance_80_steps,
)

CFG = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2, P=10 ** 2.5, sigma2=1.0)

rng = np.random.default_rng(55)


def random_subspace(m, n, generator=rng):
    return orthonormalize(complex_gaussian(generator, (m, n)))


class TestCodebook:
    def test_zero_bits_single_codeword(self):
        cb = generate_codebook(8, 2, 0, np.random.default_rng(1))
        assert len(cb) == 1

    def test_codewords_semi_unitary(self):
        cb = generate_codebook(8, 2, 5, np.random.default_rng(2))
        assert len(cb) == 32
        for word in cb.codewords:
            assert is_semi_unitary(word)

    def test_guard(self):
        with pytest.raises(CapacityExceeded):
            generate_codebook(8, 2, 25, np.random.default_rng(0))

    @pytest.mark.parametrize("B", [-1, 2.5, True, np.float64(2.0)],
                             ids=["negative", "fractional", "boolean", "numpy_float"])
    def test_bit_count_is_a_whole_nonnegative_number(self, B):
        # checked before the byte guard: -1 would read as a 2^-1-entry book over
        # it, 2.5 fails inside 2 ** B with a TypeError and True passes as 1
        with pytest.raises(ContractViolation, match="bit count"):
            generate_codebook(8, 2, B, np.random.default_rng(0))

    def test_byte_guard_refuses_4gib_book_before_drawing(self, monkeypatch):
        # G(8,2) at 24 bits is 2^24 * 8 * 2 * 16 bytes = 4 GiB of codewords, and
        # generating 20 bits holds four times its 256 MiB at the peak
        assert codebook_bytes(8, 2, 24) is None
        assert codebook_bytes(8, 2, 20) == 2 ** 30
        assert codebook_bytes(8, 2, 21) is None

        def no_draw(*args):
            raise AssertionError("the guard let the codeword draw start")

        monkeypatch.setattr("giasim.feedback.complex_gaussian", no_draw)
        with pytest.raises(CapacityExceeded):
            generate_codebook(8, 2, 24, np.random.default_rng(0))

    def test_generation_holds_at_most_the_bytes_the_guard_counts(self):
        # the guard bounds what generation holds at its peak, not only the book it
        # returns; a first call in a process also allocates numpy's one-time state
        generate_codebook(8, 2, 2, np.random.default_rng(0))
        tracemalloc.start()
        try:
            generate_codebook(8, 2, 12, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= codebook_bytes(8, 2, 12)

    def test_deterministic(self):
        a = generate_codebook(8, 2, 4, np.random.default_rng(9))
        b = generate_codebook(8, 2, 4, np.random.default_rng(9))
        assert np.array_equal(a.codewords, b.codewords)

    def test_mean_pairwise_distance_in_range(self):
        cb = generate_codebook(8, 2, 6, np.random.default_rng(3))
        dists = [
            chordal_distance_sq(cb.codewords[i], cb.codewords[j])
            for i, j in itertools.combinations(range(0, 64, 7), 2)
        ]
        assert 0.0 < float(np.mean(dists)) < 2.0

    def test_dump_load_roundtrip(self, tmp_path):
        cb = generate_codebook(6, 2, 3, np.random.default_rng(4))
        path = tmp_path / "book.bin"
        dump_codebook(cb, str(path))
        back = read_codebook(str(path))
        assert back.M == 6 and back.N == 2 and back.B == 3
        assert np.array_equal(back.codewords, cb.codewords)


class TestQuantize:
    def test_exact_member_wins(self):
        cb = generate_codebook(8, 2, 4, np.random.default_rng(5))
        words = cb.codewords.copy()
        target = random_subspace(8, 2)
        words[11] = target
        cb = codebook_of(words)
        idx, V_hat, d = quantize(target, cb)
        assert idx == 11
        assert d < 1e-12
        assert np.array_equal(V_hat, target)

    def test_single_codeword_book(self):
        cb = generate_codebook(8, 2, 0, np.random.default_rng(6))
        idx, _, _ = quantize(random_subspace(8, 2), cb)
        assert idx == 0

    def test_distance_matches_recomputation(self):
        cb = generate_codebook(8, 2, 5, np.random.default_rng(7))
        for _ in range(100):
            V = random_subspace(8, 2)
            idx, V_hat, d = quantize(V, cb)
            assert d == pytest.approx(chordal_distance_sq(V, V_hat), abs=1e-12)

    def test_dimension_mismatch(self):
        cb = generate_codebook(8, 2, 2, np.random.default_rng(8))
        with pytest.raises(ContractViolation):
            quantize(random_subspace(6, 2), cb)

    def test_distortion_shrinks_with_bits(self):
        # empirical mean distortion decreases as the codebook doubles
        means = []
        for B in (2, 4, 6, 8):
            cb = generate_codebook(8, 2, B, np.random.default_rng(100 + B))
            g = np.random.default_rng(200 + B)
            d = [quantize(random_subspace(8, 2, g), cb)[2] for _ in range(500)]
            means.append(float(np.mean(d)))
        assert all(a > b for a, b in zip(means, means[1:]))


class TestOmega:
    def test_identity_channel(self):
        H = np.eye(8, dtype=complex)
        pattern = np.eye(8, dtype=complex)[:, :2]
        Omega, lam1 = omega(H, pattern, left_null_space(pattern)), omega_matrix(
            H, pattern, left_null_space(pattern))
        assert Omega.shape == (6, 6)
        assert np.allclose(Omega, np.eye(6), atol=1e-10)
        assert lam1 == pytest.approx(1.0, abs=1e-10)

    def test_psd(self):
        g = np.random.default_rng(31)
        for _ in range(100):
            H = complex_gaussian(g, (14, 8))
            pattern = random_subspace(8, 2, g)
            Omega = omega(H, pattern, left_null_space(pattern))
            lam1 = omega_matrix(H, pattern, left_null_space(pattern))
            assert np.linalg.eigvalsh(Omega).min() >= -1e-10
            assert lam1 >= 0.0

    def test_rotation_invariant(self):
        g = np.random.default_rng(32)
        H = complex_gaussian(g, (14, 8))
        pat = random_subspace(8, 2, g)
        Q = orthonormalize(complex_gaussian(g, (2, 2)))
        lam_a = omega_matrix(H, pat, left_null_space(pat))
        lam_b = omega_matrix(H, pat @ Q, left_null_space(pat @ Q))
        assert lam_a == pytest.approx(lam_b, rel=1e-9)

    def test_ill_conditioned_image(self):
        # an image of condition number about 2e5 passes the rank check, and the
        # product through its complement projector is Hermitian only to about
        # 1e-6 relative: the largest eigenvalue is still that of its Hermitian part
        g = np.random.default_rng(5)
        H = complex_gaussian(g, (14, 8))
        H[:, 1] = H[:, 0] + 1e-5 * complex_gaussian(g, (14,))
        pattern = np.eye(8, dtype=complex)[:, :2]
        Omega = omega(H, pattern, left_null_space(pattern))
        assert np.linalg.cond(H @ pattern) > 1e5
        assert omega_matrix(H, pattern, left_null_space(pattern)) == pytest.approx(
            np.linalg.eigvalsh((Omega + Omega.conj().T) / 2).max(), rel=1e-9)

    def test_degenerate_image(self):
        pattern = np.eye(8, dtype=complex)[:, :2]
        with pytest.raises(DegenerateChannel):
            omega_matrix(np.zeros((14, 8), dtype=complex), pattern, left_null_space(pattern))


@pytest.fixture(scope="module")
def pipeline():
    ch = draw_channels(CFG, trial_rng(808, 0))
    tset = build_transceivers(ch, CFG, fixed_cyclic(CFG.K))
    return ch, tset


def quantize_all(tset, B, seed):
    q = np.empty_like(tset.patterns)
    dist = np.empty((CFG.L, CFG.K))
    for i, k in np.ndindex(dist.shape):
        cb = generate_codebook(CFG.N_U, CFG.d_s, B, np.random.default_rng([seed, i, k]))
        _, q[i, k], dist[i, k] = quantize(tset.patterns[i, k], cb)
    return q, dist


def decoders_for(ch, tset, q):
    return quantized_decoder(ch, tset.assignment, q, tset.patterns)


class TestQuantizedDecoder:
    def test_perfect_feedback_limit(self, pipeline):
        ch, tset = pipeline
        decoders = decoders_for(ch, tset, tset.patterns)
        per_cell = rinr(tset.assignment, link_images(ch, decoders, tset.patterns), CFG)
        assert all(v < 1e-12 for v in per_cell)

    def test_dimensions_and_nulling(self, pipeline):
        ch, tset = pipeline
        q, _ = quantize_all(tset, B=6, seed=17)
        decoders = quantized_decoder(ch, tset.assignment, q, tset.patterns)
        assert decoders.shape == (CFG.L, CFG.K, 14, 2)
        for k in range(CFG.K):
            prov = tset.assignment.providers[k]
            for i in range(CFG.L):
                U = decoders[i, k]
                blocks = [ch.H[j, k, k] @ q[(j, k)] for j in range(CFG.L) if j != i]
                for l in range(CFG.K):
                    if l in (k, prov):
                        continue
                    blocks.extend(ch.H[m, l, k] @ q[(m, l)] for m in range(CFG.L))
                blocks.append(ch.H[i, prov, k] @ tset.patterns[(i, prov)])
                F = np.concatenate(blocks, axis=1)
                assert F.shape == (14, 12)
                assert np.linalg.norm(U.conj().T @ F) < 1e-8


class TestRinrAndBound:
    def test_nonnegative_and_bounded(self, pipeline):
        ch, tset = pipeline
        for B in (4, 8):
            q, dist = quantize_all(tset, B=B, seed=23)
            decoders = decoders_for(ch, tset, q)
            per_cell = rinr(tset.assignment, link_images(ch, decoders, q), CFG)
            bound = rinr_upper_bound(tset.assignment, CFG, dist, leakage(ch, tset, CFG))
            for k in range(CFG.K):
                assert per_cell[k] >= 0.0
                assert per_cell[k] <= bound[k] * (1 + 1e-9) + 1e-12

    def test_rinr_matches_residual_covariance_path(self, pipeline):
        # independent route: the trace of each user's residual covariance,
        # summed per cell, with every interferer image formed pair by pair
        ch, tset = pipeline
        q, _ = quantize_all(tset, B=5, seed=29)
        decoders = decoders_for(ch, tset, q)
        per_cell = rinr(tset.assignment, link_images(ch, decoders, q), CFG)
        scale = CFG.P / (CFG.d_s * CFG.sigma2)
        for k in range(CFG.K):
            trace_sum = 0.0
            for i in range(CFG.L):
                U = decoders[i, k]
                for l in range(CFG.K):
                    for j in range(CFG.L):
                        if (j, l) != (i, k):
                            X = U.conj().T @ ch.H[j, l, k] @ q[j, l]
                            trace_sum += scale * float(np.trace(X @ X.conj().T).real)
            assert trace_sum == pytest.approx(per_cell[k], rel=1e-9, abs=1e-9)

    def test_perfect_feedback_bound_zero(self, pipeline):
        ch, tset = pipeline
        dist = np.zeros((CFG.L, CFG.K))
        bound = rinr_upper_bound(tset.assignment, CFG, dist, leakage(ch, tset, CFG))
        assert all(v == 0.0 for v in bound)


def exhaustive_optimum(lam, budget, m):
    # independent integer oracle: dynamic program over (user, bits spent)
    n = len(lam)
    INF = float("inf")
    best = [0.0] + [INF] * budget
    for u in range(n):
        new = [INF] * (budget + 1)
        for used in range(budget + 1):
            if best[used] == INF:
                continue
            for b in range(budget + 1 - used):
                v = best[used] + lam[u] * 2.0 ** (-b / m)
                if v < new[used + b]:
                    new[used + b] = v
        best = new
    return best[budget]


class TestBitAllocation:
    def test_symmetric_instance(self):
        alloc = dba_allocate(np.full(6, 3.3), budget=30, d_s=1, N_U=4)
        assert np.array_equal(alloc, np.full(6, 5))
        assert dba_active_count(np.full(6, 3.3), budget=30, d_s=1, N_U=4) == 6

    def test_budget_zero(self):
        alloc = dba_allocate(np.array([1.0, 2.0, 4.0]), budget=0, d_s=1, N_U=4)
        assert np.array_equal(alloc, np.zeros(3, dtype=int))

    def test_negative_budget_rejected(self):
        with pytest.raises(ContractViolation):
            dba_allocate(np.array([1.0]), budget=-1, d_s=1, N_U=4)

    def test_scale_invariance(self):
        g = np.random.default_rng(41)
        lam = g.uniform(0.1, 10.0, size=8)
        a = dba_allocate(lam, 64, d_s=2, N_U=8)
        b = dba_allocate(lam * 531.0, 64, d_s=2, N_U=8)
        assert np.array_equal(a, b)

    def test_beats_or_ties_equal_split(self):
        g = np.random.default_rng(42)
        for _ in range(50):
            lam = g.uniform(0.05, 20.0, size=6)
            dba = dba_allocate(lam, 30, d_s=1, N_U=4)
            eba = eba_allocate(30, 6)
            assert dba.sum() == 30
            f_dba = allocation_objective(lam, dba, 1, 4)
            f_eba = allocation_objective(lam, eba, 1, 4)
            assert f_dba <= f_eba * (1 + 1e-12)

    def test_within_one_move_of_integer_optimum(self):
        g = np.random.default_rng(43)
        m = 3
        for _ in range(25):
            lam = g.uniform(0.05, 20.0, size=6)
            dba = dba_allocate(lam, 30, d_s=1, N_U=4)
            opt = exhaustive_optimum(lam, 30, m)
            neighborhood = [allocation_objective(lam, dba, 1, 4)]
            for u in range(6):
                if dba[u] == 0:
                    continue
                for v in range(6):
                    if v == u:
                        continue
                    moved = dba.copy()
                    moved[u] -= 1
                    moved[v] += 1
                    neighborhood.append(allocation_objective(lam, moved, 1, 4))
            assert min(neighborhood) <= opt * (1 + 1e-9)

    def test_eba_remainder_rule(self):
        alloc = eba_allocate(300, 8)
        assert list(alloc) == [38, 38, 38, 38, 37, 37, 37, 37]
        assert alloc.sum() == 300
        assert np.all(eba_allocate(32, 8) == 4)

    def test_eba_sums_to_budget(self):
        for budget in (0, 1, 7, 100, 301):
            assert eba_allocate(budget, 8).sum() == budget


class TestEmulatedQuantization:
    def test_synthesis_hits_exact_distance(self):
        g = np.random.default_rng(51)
        ds = (0.0, 0.05, 0.4, 1.1)
        V = np.array([random_subspace(8, 2, g) for _ in ds])
        V_hat = geodesic_points(frame_of(V, [g] * len(ds)), range(len(ds)), ds)
        assert np.array_equal(V_hat[0], V[0])
        for j, d in enumerate(ds):
            assert is_semi_unitary(V_hat[j])
            assert chordal_distance_sq(V[j], V_hat[j]) == pytest.approx(d, abs=1e-9)

    def test_frame_svd_that_does_not_converge_is_a_numerical_failure(self, monkeypatch):
        # the frame's SVD goes through the package's one SVD wrapper, so LAPACK's
        # non-convergence is NumericalFailure (CLI exit 3), not a bare LinAlgError
        g = np.random.default_rng(53)
        V = np.array([random_subspace(8, 2, g)])
        null_bases = np.array([left_null_space(v) for v in V])

        def unconverged(M, full_matrices=True):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", unconverged)
        with pytest.raises(NumericalFailure):
            fb.GeodesicFrame(V, null_bases, [g])

    def test_sampled_distortion_decreases_in_bits(self):
        g = np.random.default_rng(52)
        means = []
        for B in (14, 20, 26, 32):
            means.append(np.mean([sample_min_distortion(8, 2, B, g) for _ in range(300)]))
        assert all(a > b for a, b in zip(means, means[1:]))
        # the law loses half the distortion every N(M-N) bits
        assert means[0] / means[2] == pytest.approx(2.0, rel=0.25)

    def test_model_consistent_with_explicit_search_at_boundary(self):
        # emulated minima at 12 bits continue the explicit codebook law
        g = np.random.default_rng(53)
        cb = generate_codebook(8, 2, 12, np.random.default_rng(54))
        explicit = np.mean(
            [quantize(random_subspace(8, 2, g), cb)[2] for _ in range(150)]
        )
        emulated = np.mean([sample_min_distortion(8, 2, 12, g) for _ in range(600)])
        assert emulated == pytest.approx(explicit, rel=0.12)

    def test_model_quantize_reports_true_distance(self):
        g = np.random.default_rng(56)
        V = random_subspace(8, 2, g)
        V_hat, d = model_quantize(frame_of(V[None], [g]), [0], [30])
        assert d[0] == pytest.approx(chordal_distance_sq(V, V_hat[0]), abs=1e-12)
        assert is_semi_unitary(V_hat[0])

    def test_model_extrapolates_beyond_calibration_bits(self):
        # the constant is fitted at 8-12 bits; explicit search at 14 bits is
        # still tractable and must agree with the extrapolated law
        g = np.random.default_rng(57)
        explicit = []
        for _ in range(60):
            V = random_subspace(8, 2, g)
            words = np.linalg.svd(
                complex_gaussian(g, (2 ** 14, 8, 2)), full_matrices=False
            )
            words = words[0] @ words[2]
            inner = np.einsum("nmk,ml->nkl", words.conj(), V)
            explicit.append(float((2 - np.sum(np.abs(inner) ** 2, axis=(1, 2))).min()))
        emulated = [sample_min_distortion(8, 2, 14, g) for _ in range(2000)]
        assert np.mean(emulated) == pytest.approx(np.mean(explicit), rel=0.10)

    def test_model_distribution_shape_matches_explicit(self):
        # quartiles, not just means: the sampled law should track the real
        # minimum-distortion distribution of a 2^10-word random book
        g = np.random.default_rng(58)
        cb = generate_codebook(8, 2, 10, np.random.default_rng(59))
        explicit = np.sort(
            [quantize(random_subspace(8, 2, g), cb)[2] for _ in range(300)]
        )
        emulated = np.sort([sample_min_distortion(8, 2, 10, g) for _ in range(3000)])
        for q in (0.25, 0.5, 0.75):
            e = float(np.quantile(explicit, q))
            m = float(np.quantile(emulated, q))
            assert m == pytest.approx(e, rel=0.15), f"quantile {q}"


def bisection_cases(M, N, count, seed):
    """(V, dist_sq, generator seed) triples: uniform distances, distances
    near 0, dist_sq = N, and both sides of the spread(hi) = dist_sq edge."""
    g = np.random.default_rng([seed, M, N])
    for c in range(count):
        V = random_subspace(M, N, g)
        draw_seed = [seed, M, N, c]
        kind = c % 5
        if kind == 0:
            d = float(g.uniform(0.0, N))
        elif kind == 1:
            d = float(10.0 ** g.uniform(-320.0, -1.0))
        elif kind == 2:
            d = float(N) if c % 2 else float(g.uniform(0.9 * N, N))
        else:
            # the spread the synthesis will meet at the top of its bracket
            G = complex_gaussian(after_exponential(draw_seed), (M - N, N))
            sig = np.linalg.svd(G, full_matrices=False)[1]
            sig = sig / np.linalg.norm(sig)
            edge = float(np.sum(np.sin(sig * (np.pi / 2.0 / sig[0])) ** 2))
            d = edge if kind == 3 else float(np.nextafter(edge, 0.0))
        yield V, d, draw_seed


def after_exponential(seed):
    """The generator of ``seed`` after the frame's exponential draw, where the
    frame draws G."""
    rng = np.random.default_rng(seed)
    rng.exponential()
    return rng


def stacked_points(cases):
    """``geodesic_points`` of every (V, dist_sq, generator seed) case in one
    call on one frame."""
    V = np.array([V for V, _, _ in cases])
    frame = frame_of(V, [np.random.default_rng(s) for _, _, s in cases])
    return geodesic_points(frame, list(range(len(V))), [d for _, d, _ in cases])


BISECTION_SHAPES = [(8, 2, 700), (6, 2, 600), (10, 2, 600), (5, 1, 600), (6, 3, 600), (16, 8, 50)]


def timed_bisections(monkeypatch):
    """Record (sig, dist_sq, guide, t) of every ``_geodesic_time`` call."""
    calls, real = [], fb._geodesic_time

    def timed(sig, dist_sq, guide):
        calls.append((sig, dist_sq, guide, real(sig, dist_sq, guide)))
        return calls[-1][-1]

    monkeypatch.setattr(fb, "_geodesic_time", timed)
    return calls


def count_sin(monkeypatch):
    """A list that grows by one at every ``math.sin`` call from now on."""
    sins, real = [], math.sin
    monkeypatch.setattr(math, "sin", lambda x: (sins.append(x), real(x))[1])
    return sins


class TestBisection:
    @pytest.mark.parametrize("M, N, count", BISECTION_SHAPES)
    def test_early_stop_matches_80_step_numpy_bisection(self, M, N, count):
        cases = list(bisection_cases(M, N, count, seed=61))
        for new, (V, d, draw_seed) in zip(stacked_points(cases), cases):
            old = subspace_at_distance_80_steps(V, d, after_exponential(draw_seed))
            assert np.array_equal(new, old), (M, N, d)

    def test_step_cap_binds_as_in_80_step_bisection(self):
        # at this distance the interval is still shrinking after 80 steps, so
        # the cap, not the early stop, ends the bisection
        V = np.eye(8, dtype=complex)[:, :2]
        new = stacked_points([(V, 1e-60, 67)])[0]
        old = subspace_at_distance_80_steps(V, 1e-60, after_exponential(67))
        assert np.array_equal(new, old)

    @pytest.mark.parametrize("M, N, count", BISECTION_SHAPES)
    def test_time_equals_the_unanchored_walk(self, M, N, count, monkeypatch):
        calls = timed_bisections(monkeypatch)
        cases = list(bisection_cases(M, N, count, seed=61))
        stacked_points(cases)
        assert len(calls) == sum(d > 0.0 for _, d, _ in cases)
        for sig, d, guide, t in calls:
            assert float.hex(t) == float.hex(bisection_walk(sig, d)), (M, N, d, guide)

    @pytest.mark.parametrize("sig, dist_sq, guide", [
        # a lands past hi, where spread falls again and is below dist_sq there
        ((1.0,), 0.5, 2.5),
        ((0.8, 0.6), 1.5, 3.0),
    ])
    def test_anchor_past_the_bracket_is_refused(self, sig, dist_sq, guide):
        sig = np.array(sig)
        hi = math.pi / 2.0 / sig[0]
        a = guide * (1.0 - 2.0 ** -44)
        assert a > hi and np.sum(np.sin(sig * a) ** 2) < dist_sq
        assert fb._geodesic_time(sig, dist_sq, guide) == bisection_walk(sig, dist_sq)

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_anchor_inside_the_roundoff_band_is_refused(self, side, monkeypatch):
        # dist_sq within 2^-47 of the anchor's spread: the float spread there is
        # on the anchor's side of dist_sq, but inside the 4 eps band, so the
        # anchor certifies nothing and the midpoints on its side are evaluated
        sig, guide = np.array([0.8, 0.6]), 0.5
        anchor = guide * (1.0 + side * 2.0 ** -44)
        d = sum(math.sin(s * anchor) * math.sin(s * anchor) for s in sig) * (1.0 - side * 2.0 ** -47)
        sins = count_sin(monkeypatch)
        t, anchored_sins = fb._geodesic_time(sig, d, guide), len(sins)
        assert t == bisection_walk(sig, d)
        assert anchored_sins > 40, anchored_sins  # about 25 with both anchors kept

    def test_nan_and_far_off_guides_give_the_walks_time(self):
        g = np.random.default_rng(62)
        for N in (1, 2, 3, 8):
            s = np.linalg.svd(complex_gaussian(g, (N + 2, N)), compute_uv=False)
            sig = s / np.linalg.norm(s)
            hi = math.pi / 2.0 / sig[0]
            for d in (1e-20, 0.3 * N, float(np.sum(np.sin(sig * hi) ** 2)) * (1 - 1e-12)):
                t = bisection_walk(sig, d)
                for guide in (math.nan, math.inf, -math.inf, 0.0, 5e-324, -t, -2.0 * t,
                              t * (1 - 1e-3), t * (1 + 1e-3), hi, 10.0 * hi, t):
                    assert fb._geodesic_time(sig, d, guide) == t, (N, d, guide)

    def test_step_cap_counts_skipped_steps(self):
        # the guide is right, so all 80 steps are skipped, and the cap ends them
        sig = np.array([0.8, 0.6])
        t = fb._geodesic_time(sig, 1e-60, 1e-30)
        assert t == bisection_walk(sig, 1e-60) == 0.5 * (math.pi / 1.6) * 2.0 ** -80

    def test_anchors_stay_off_at_the_underflow_guard(self, monkeypatch):
        sig = np.array([0.8, 0.6])
        sins = count_sin(monkeypatch)
        for d, anchored in ((2.0 ** -900, False), (2.0 ** -899, True)):
            t, anchored_sins = fb._geodesic_time(sig, d, math.sqrt(d)), len(sins)
            assert t == bisection_walk(sig, d)
            walk_sins = len(sins) - anchored_sins
            assert anchored_sins < walk_sins if anchored else anchored_sins == walk_sins
            sins.clear()

    def test_anchors_skip_most_steps_on_a_bit_sweep_case(self, monkeypatch):
        # the reference shape G(8, 2) at the per-user counts of 300 to 500 bits
        g = np.random.default_rng(63)
        V = np.array([random_subspace(8, 2, g) for _ in range(16)])
        bits = [int(b) for b in g.integers(30, 70, len(V))]
        anchored = fb._geodesic_time
        calls = timed_bisections(monkeypatch)
        model_quantize(frame_of(V, [g] * len(V)), list(range(len(V))), bits)
        sins = count_sin(monkeypatch)
        for sig, d, guide, _ in calls:
            anchored(sig, d, guide)
            assert len(sins) <= 30, (d, guide)
            sins.clear()
            bisection_walk(sig, d)
            assert len(sins) > 90, d
            sins.clear()

    def test_cheapest_table_entry_recomputes_exactly(self):
        M, N = min(fb._SMALL_BALL, key=lambda shape: shape[0] * shape[1])
        assert fb._calibrate_small_ball.__wrapped__(M, N) == fb._SMALL_BALL[(M, N)]

    def test_table_shapes_admit_geodesic_synthesis(self):
        for M, N in fb._SMALL_BALL:
            assert 1 <= N and M >= 2 * N, (M, N)
