"""Subspace quantization and feedback-bit allocation.

Precoder patterns are quantized on the Grassmann manifold against random
subspace codebooks. Residual interference after zero-forcing with quantized
patterns is measured and bounded, and the per-user feedback bit split is
optimized by a closed-form water-filling rule.

Explicit codebooks are only practical up to a couple dozen bits. Above the
constant ``harness.EXPLICIT_BIT_LIMIT`` of bits per user, quantization is
emulated by sampling the minimum chordal distortion a random codebook of
that size would achieve (the small-ball law on the manifold, calibrated
against explicit searches, with the constants of the common shapes checked
in) and synthesizing a codeword at exactly that distance along a random
geodesic. The emulated "codeword" is still a genuine semi-unitary matrix,
so every downstream quantity is computed, not modeled.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityExceeded, ContractViolation, DegenerateChannel, RankDeficient
from .gia import zf_decoder
from .linalg import complement_projector, complex_gaussian, herm_eig, norm_sq, orthonormalize, svd
from .system import ChannelRealization, check_whole, per_config

CODEBOOK_BYTE_GUARD = 2 ** 30  # most bytes that generating one codebook may hold
# what generation holds at its peak, in codeword array sizes: the draw, the SVD's
# factors and their product are alive at once (tracemalloc reads 3.2-3.3 on G(8, 2)
# from 10 to 18 bits and on G(12, 2) at 14)
CODEBOOK_GENERATION_PEAK = 4
BITS_BUDGET_CAP = 2 ** 53  # largest bit budget that float64, and so the bit split, holds exactly
_CALIBRATION_SEED = 0x5EED


@dataclass(frozen=True)
class Codebook:
    """2^B random subspace codewords on G(M, N), deterministic given the rng."""

    M: int
    N: int
    B: int
    words_h: np.ndarray  # (2^B, N, M) C-contiguous conjugate transposes, as the search reads them

    @property
    def codewords(self) -> np.ndarray:
        """The (2^B, M, N) semi-unitary codewords."""
        return self.words_h.conj().swapaxes(-1, -2)

    def __len__(self) -> int:
        return self.words_h.shape[0]


def codebook_bytes(M: int, N: int, B: int) -> int | None:
    """Bytes that generating 2^B complex128 codewords of shape (M, N) holds at its peak,
    CODEBOOK_GENERATION_PEAK times the codewords' own, or None when that exceeds the
    byte guard."""
    # B is bounded first so that an outside value cannot make 2**B huge
    if not 0 <= B < CODEBOOK_BYTE_GUARD.bit_length():
        return None
    size = CODEBOOK_GENERATION_PEAK * 16 * M * N * 2 ** B
    return size if size <= CODEBOOK_BYTE_GUARD else None


def generate_codebook(M: int, N: int, B: int, rng: np.random.Generator) -> Codebook:
    check_whole(B, "bit count")
    if B < 0:
        raise ContractViolation(f"negative bit count {B}")
    if not 1 <= N < M:
        raise ContractViolation(f"codeword dimension {N} must be positive and below ambient {M}")
    if codebook_bytes(M, N, B) is None:
        raise CapacityExceeded(
            f"codebook of 2^{B} entries on G({M},{N}) exceeds the {CODEBOOK_BYTE_GUARD}-byte guard"
        )
    words = orthonormalize(complex_gaussian(rng, (2 ** B, M, N)))
    return Codebook(M=M, N=N, B=B, words_h=np.ascontiguousarray(words.conj().swapaxes(-1, -2)))


def quantize(V: np.ndarray, cb: Codebook) -> tuple[int, np.ndarray, float]:
    """Closest codeword in chordal distance; lowest index wins ties. One real
    GEMM of the words' float view and a real embedding of V screens every
    codeword, then the exact ``einsum`` search runs, in index order, on those
    within ``_screen_margin`` of the best screened overlap (README)."""
    if V.shape != (cb.M, cb.N):
        raise ContractViolation(f"pattern {V.shape} does not fit codebook ({cb.M}, {cb.N})")
    # the float views of v and iv per antenna, rows (Re v, Im v) and (-Im v, Re v):
    # a word row's (Re, Im) pairs times them give its inner products' (Re, Im) pairs
    embed = np.ascontiguousarray(np.concatenate((V, 1j * V), axis=1), complex)
    embed = embed.view(float).reshape(2 * cb.M, 2 * cb.N)
    words = np.ascontiguousarray(cb.words_h, complex).view(float)  # no copy for a generated book
    G = (words.reshape(-1, 2 * cb.M) @ embed).reshape(len(cb), -1)
    overlap = np.einsum("ij,ij->i", G, G)
    near = np.flatnonzero(overlap >= overlap.max() - _screen_margin(cb.M, cb.N))
    inner = np.einsum("nkm,ml->nkl", cb.words_h[near], V)
    dist = cb.N - np.sum(np.abs(inner) ** 2, axis=(1, 2))
    best = int(np.argmin(dist))
    idx = int(near[best])
    return idx, cb.words_h[idx].conj().T, float(min(max(dist[best], 0.0), cb.N))


def _screen_margin(M: int, N: int) -> float:
    """6 N^2 (3M + N + 4) roundoffs: twice the screened and the exact overlap's
    worst errors, so every exact minimizer passes the screen (README)."""
    return 6 * N ** 2 * (3 * M + N + 4) * 2.0 ** -53


def dump_codebook(cb: Codebook, path: str) -> None:
    """Binary dump: little-endian int32 header (M, N, B), then the codewords
    row-major with interleaved real/imag float64 (native complex128 layout)."""
    try:
        with open(path, "wb") as fh:
            fh.write(struct.pack("<3i", cb.M, cb.N, cb.B))
            fh.write(np.ascontiguousarray(cb.codewords, dtype="<c16").tobytes())
    except OSError as exc:
        raise ContractViolation(f"cannot write codebook to {path}: {exc}") from exc


def omega_matrix(H: np.ndarray, pattern: np.ndarray, V_perp: np.ndarray) -> np.ndarray:
    """Leakage curvature of a user: how strongly quantization error couples
    into the receiver subspace that zero-forcing cannot protect.

    Omega = (V_perp)^H H^H P_perp H V_perp with V_perp the left null basis
    of the pattern and P_perp projecting away the ideally aligned image
    span(H pattern). Returns the largest eigenvalue of Omega's Hermitian part, which
    ``herm_eig`` would refuse for an ill-conditioned image; stacks of channels
    (..., N_B, M), patterns and null bases give one per slice, from one call each.
    """
    try:
        P_perp = complement_projector(H @ pattern)
    except RankDeficient as exc:
        raise DegenerateChannel("aligned image H @ pattern is rank deficient") from exc
    core = H @ V_perp
    omega = core.conj().swapaxes(-1, -2) @ P_perp @ core
    return herm_eig((omega + omega.conj().swapaxes(-1, -2)) / 2.0)[0][..., 0]


def quantized_decoder(
    ch: ChannelRealization, assignment, q_patterns: np.ndarray, ideal_patterns: np.ndarray
) -> np.ndarray:
    """Zero-forcing decoders of every user built from quantized patterns, as
    one (..., L, K, N_B, d_s) array from one stacked SVD of (..., L, K, N_U, d_s)
    ``q_patterns``.

    Everything except the provider cell is nulled using the quantized
    patterns the base station knows exactly; the provider's contribution is
    nulled along its ideal aligned direction, so only that cell's
    quantization error leaks through.
    """
    prov = list(assignment.providers)
    ideal_images = ch.H[:, prov, range(len(prov))] @ ideal_patterns[:, prov]  # (L, K, N_B, d_s)
    return zf_decoder(ch, assignment, q_patterns, ideal_images)


def check_budget(budget) -> None:
    """A feedback bit budget is a whole number (not a bool) in [0, BITS_BUDGET_CAP]."""
    check_whole(budget, "bit budget")
    if not 0 <= budget <= BITS_BUDGET_CAP:
        raise ContractViolation(f"negative bit budget {budget}" if budget < 0 else
                                f"bit budget {budget} exceeds the cap 2^53 = {BITS_BUDGET_CAP}")


def dba_allocate(lambda1: np.ndarray, budget: int, d_s: int, N_U: int) -> np.ndarray:
    """Water-filling feedback-bit split minimizing the residual-interference bound:
    the per-user bit counts, in the order of ``lambda1``.

    Sorts users by log2 of their leakage eigenvalue, finds the active set via
    the bracket condition, evaluates the closed-form real allocation, rounds
    to integers and repairs the budget greedily by marginal benefit.
    """
    lam = np.asarray(lambda1, dtype=float)
    check_budget(budget)
    if np.any(lam <= 0):
        raise ContractViolation("leakage eigenvalues must be positive")
    n = lam.size
    m = d_s * (N_U - d_s)
    a = np.log2(lam)
    order = np.argsort(-a, kind="stable")
    a_sorted = a[order]
    target = budget / m
    active_count = None
    for cand in range(1, n + 1):
        head = a_sorted[:cand].sum()
        lo = head - cand * a_sorted[cand - 1]
        hi = head - cand * (a_sorted[cand] if cand < n else -math.inf)
        if lo <= target <= hi:
            active_count = cand
            break
    if active_count is None:  # numerically unreachable: brackets tile [0, inf)
        active_count = n
    active = order[:active_count]
    mean_active = float(a_sorted[:active_count].mean())
    bits = np.zeros(n, dtype=int)
    bits[active] = np.maximum(
        0, np.rint(m * (a[active] - mean_active) + budget / active_count).astype(int)
    )
    # repair rounding drift one bit at a time by current marginal benefit
    while bits.sum() < budget:
        marginal = lam * np.power(2.0, -bits / m)
        bits[int(np.argmax(marginal))] += 1
    while bits.sum() > budget:
        marginal = lam * np.power(2.0, -(bits - 1) / m)
        marginal[bits == 0] = math.inf
        bits[int(np.argmin(marginal))] -= 1
    return bits


def eba_allocate(budget: int, user_count: int) -> np.ndarray:
    """Equal split of the per-user bit counts; the remainder goes one bit each to
    the first users in order."""
    check_budget(budget)
    base, extra = divmod(budget, user_count)
    bits = np.full(user_count, base, dtype=int)
    bits[:extra] += 1
    return bits


def rinr(assignment, images: np.ndarray, cfg) -> np.ndarray:
    """Measured residual interference-to-noise of every cell, as a (..., K) array.

    Only the provider cell's users can leak through the quantized-pattern
    decoder; each user's term sums their residual powers over the noise.
    ``images`` is the (..., L, K, L, K, d_s, d_s) ``link_images`` stack of the
    quantized-pattern decoders and the quantized patterns, as the rate
    evaluation reads it; a tuple of configs puts a config axis in front. Each
    power-free squared norm is ``linalg.norm_sq``'s, and every config's scale
    is applied term by term in the per-user order.
    """
    L, K = images.shape[-6:-4]
    X = images.swapaxes(-4, -3)[..., range(K), list(assignment.providers), :, :, :]
    sq = norm_sq(X)  # [..., i, k, j]: user j of k's provider
    scale = per_config(cfg, lambda c: c.P / (c.d_s * c.sigma2), sq.ndim - 2)
    total = 0.0
    for i in range(L):
        leak = 0.0
        for j in range(L):
            leak = leak + scale * sq[..., i, :, j]
        total = total + leak
    return total


def rinr_upper_bound(assignment, cfg, dist_sq: np.ndarray, lambda1: np.ndarray) -> np.ndarray:
    """Ceiling on the residual interference of every cell, as a (..., K) array.

    Uses each user's actual squared quantization distance ``dist_sq``, an
    (..., L, K) array, so it holds pathwise for any codebook, and each user's
    leakage eigenvalue ``lambda1`` (L, K) at its receiver; a tuple of configs
    puts a config axis in front.
    """
    L, prov = dist_sq.shape[-2], list(assignment.providers)
    scale = per_config(cfg, lambda c: c.P / (c.sigma2 * c.d_s), dist_sq.ndim - 1)
    acc = 0.0
    for j in range(L):
        acc = acc + scale * lambda1[j, prov] * dist_sq[..., j, prov]
    return L * acc


# ---------------------------------------------------------------------------
# Large-codebook emulation
# ---------------------------------------------------------------------------

def _min_distortion_samples(M: int, N: int, B: int, reps: int, rng) -> np.ndarray:
    """Distortions of ``reps`` random patterns, each searched in a fresh 2^B book."""
    return np.array([
        quantize(orthonormalize(complex_gaussian(rng, (M, N))), generate_codebook(M, N, B, rng))[2]
        for _ in range(reps)
    ])


# Small-ball constants of the shapes the tests and the benchmark emulate, as
# _calibrate_small_ball computes them; other shapes calibrate on first use.
_SMALL_BALL = {
    (4, 1): 1.0176268981488252,
    (5, 1): 1.0250248889385962,
    (6, 2): 0.07331273659088479,
    (8, 2): 0.007310881008178275,
    (9, 2): 0.0020513574832774456,
    (10, 2): 0.000613534108670145,
    (12, 2): 5.775205751565953e-05,
}


@lru_cache(maxsize=None)
def _calibrate_small_ball(M: int, N: int) -> float:
    """Effective constant C in P(d^2 <= x) ~ C x^T, fitted so the emulated
    minimum distortion continues the measured random-codebook law."""
    T = N * (M - N)
    rng = np.random.default_rng([_CALIBRATION_SEED, M, N])
    consts = []
    for B in (8, 10, 12):
        mean = _min_distortion_samples(M, N, B, reps=48, rng=rng).mean()
        # E[min] = Gamma(1 + 1/T) (2^-B / C)^(1/T)
        consts.append((math.gamma(1.0 + 1.0 / T) / mean) ** T * 2.0 ** (-B))
    return float(np.exp(np.mean(np.log(consts))))


def _small_ball_constant(M: int, N: int) -> float:
    C = _SMALL_BALL.get((M, N))
    return _calibrate_small_ball(M, N) if C is None else C


class GeodesicFrame:
    """What emulated quantization of the patterns (n, M, N) needs at any bit
    count, in their order: their left null bases and, from each one's own
    generator in ``rngs``, an exponential draw E (the quantile of its
    distortion), then a Gaussian geodesic direction G (M - N, N), kept as one
    stacked SVD Sg diag(sig) Rgh with each sig scaled to unit norm alone."""

    def __init__(self, patterns: np.ndarray, null_bases: np.ndarray, rngs: list):
        M, N = patterns.shape[-2:]
        if M < 2 * N:
            raise ContractViolation("geodesic synthesis needs M >= 2N")
        self.patterns, self.null_bases = patterns, null_bases
        self.E = [rng.exponential() for rng in rngs]
        G = np.array([complex_gaussian(rng, (M - N, N)) for rng in rngs])
        self.Sg, sig, self.Rgh = svd(G, full_matrices=False)
        self.sig = np.array([s / np.linalg.norm(s) for s in sig])


def _geodesic_time(sig: np.ndarray, dist_sq: float, guide: float) -> float:
    """The t at which sum_j sin^2(sig_j t) reaches dist_sq on [0, pi / (2 sig_0)],
    by bisection; the upper end when even that falls short. Certified anchors
    just below and above ``guide`` set every midpoint outside them unevaluated,
    to what its evaluation would give (README)."""
    if sig.size < 8:
        # numpy sums fewer than 8 elements in order, so this loop gives the
        # same bits as the numpy expression below, without its call overhead
        sig_list = sig.tolist()

        def spread(t: float) -> float:
            acc = 0.0
            for s in sig_list:
                x = math.sin(s * t)
                acc += x * x
            return acc
    else:
        def spread(t: float) -> float:
            return float(np.sum(np.sin(sig * t) ** 2))

    # invariant: spread(lo) < dist_sq <= spread(hi). Once the midpoint rounds
    # onto an end, no later step can move either end, so stopping there
    # gives the same t as running all 80 steps. spread increases on [0, hi]
    # and, above 2^-900, its float value is within 2^-48 of it, relative:
    # every midpoint at most a certified a has its float spread below
    # dist_sq, and every one at least a certified b, hi included, above
    lo, hi = 0.0, math.pi / 2.0 / float(sig[0])
    a, b = guide * (1.0 - 2.0 ** -44), guide * (1.0 + 2.0 ** -44)
    certify = dist_sq > 2.0 ** -900 and sig.size <= 64
    if not (certify and 0.0 < b < hi and spread(b) > dist_sq * (1.0 + 2.0 ** -46)):
        b = math.inf
        if spread(hi) <= dist_sq:
            return hi
    if not (certify and 0.0 < a < hi and spread(a) < dist_sq * (1.0 - 2.0 ** -46)):
        a = -1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid <= a or (mid < b and spread(mid) < dist_sq):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def geodesic_points(frame: GeodesicFrame, users: list, dist_sq: list) -> np.ndarray:
    """Semi-unitary matrices at exactly the squared chordal distances ``dist_sq``
    from the frame's patterns ``users``, reached along each one's random
    geodesic (isotropic error direction), as one (n, M, N) stack; distance 0
    gives a copy of the pattern. Each bisection is guided by four numpy Newton
    steps on all users at once from t = sqrt(dist_sq), clipped to the bracket;
    a guide only saves evaluations, so its bits do not matter."""
    N = frame.patterns.shape[-1]
    sig, d = frame.sig[users], np.array(dist_sq, dtype=float)
    sig_t = sig.T
    hi = np.pi / 2.0 / sig_t[0]
    guide = np.minimum(np.sqrt(d), hi)
    with np.errstate(all="ignore"):  # a NaN guide only turns its anchors off
        for _ in range(4):
            x = sig_t * guide
            sin_x = np.sin(x)
            step = (np.add.reduce(sin_x * sin_x) - d) / np.add.reduce(sig_t * np.sin(x + x))
            guide = np.minimum(np.maximum(guide - step, 0.0), hi)
    angles = np.array([
        s * (_geodesic_time(s, dist, g) if dist else 0.0)
        for s, dist, g in zip(sig, dist_sq, guide.tolist())
    ]).reshape(len(users), N)
    scale = np.zeros((2, len(users), N, N))
    scale[:, :, range(N), range(N)] = np.cos(angles), np.sin(angles)
    V, V_perp, Sg, Rgh = (a[users] for a in (frame.patterns, frame.null_bases, frame.Sg, frame.Rgh))
    out = V @ Rgh.conj().swapaxes(-1, -2) @ scale[0] @ Rgh + V_perp @ Sg @ scale[1] @ Rgh
    return np.where(np.equal(dist_sq, 0.0)[:, None, None], V, out)


def model_quantize(frame: GeodesicFrame, users: list, bits: list) -> tuple[np.ndarray, list]:
    """Emulated random-codebook quantization, beyond the guard, of the frame's
    patterns ``users`` at ``bits`` each: the (n, M, N) quantized patterns and
    their squared chordal distances. A 2^B book's minimum distortion has
    P(min > x) = (1 - C x^T)^(2^B); at the quantile of a user's E it is
    ((1 - exp(-E 2^-B)) / C)^(1/T), capped at N, and the pattern moves that
    far along its geodesic."""
    M, N = frame.patterns.shape[-2:]
    T, C = N * (M - N), _small_ball_constant(M, N)
    dist = []
    for u, B in zip(users, bits):
        q = -math.expm1(-frame.E[u] * 2.0 ** (-B))  # 1 - (1-p)^(2^-B) for p = 1 - e^-E
        dist.append(min((q / C) ** (1.0 / T), float(N)))
    V_hat = geodesic_points(frame, users, dist)
    sq = norm_sq(frame.patterns[users].conj().swapaxes(-1, -2) @ V_hat).tolist()
    return V_hat, [float(min(max(N - s, 0.0), N)) for s in sq]
