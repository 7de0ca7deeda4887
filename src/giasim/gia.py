"""Closed-form grouped-alignment transceivers.

The construction works per provider/receiver cell pair: all users of the
provider cell solve one stacked linear system so their interference at the
receiver's base station collapses into a common d_s-dimensional subspace,
after which zero-forcing decoders remove everything in closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentFailure,
    ContractViolation,
    DegenerateChannel,
    EmptySubspace,
    InfeasibleConfig,
    RankDeficient,
)
from .linalg import (
    RANK_REL_TOL,
    chordal_distance_sq,
    full_svd,
    herm_inv_sqrt,
    left_null_space,
    matrix_rank,
    orthonormalize,
    psd_eigvals,
)
from .system import ChannelRealization, SystemConfig

ALIGN_TOL = 1e-8


def rate_logdet(M: np.ndarray, scale: float):
    """log det(I + scale * M M^H) in nats, evaluated through Hermitian eigenvalues:
    a float for one matrix, an array of one value per slice for a (..., r, c) stack."""
    terms = np.log1p(scale * psd_eigvals(M @ M.conj().swapaxes(-1, -2)))
    return float(np.sum(terms)) if M.ndim == 2 else np.sum(terms, axis=-1)


@dataclass
class TransceiverSet:
    """All per-cell and per-user filters for one assignment on one realization.

    Per-user arrays have the user axes (L, K) of ``ChannelRealization.H`` in
    front, so ``[i, k]`` is user i of cell k.
    """

    assignment: object
    inner: dict              # cell k -> (L*N_U, d_s) joint precoder
    patterns: np.ndarray     # (L, K, N_U, d_s) semi-unitary precoder patterns
    decoders: np.ndarray     # (L, K, N_B, d_s) semi-unitary zero-forcing decoders
    aligned: dict            # provider cell -> aligned-interference basis at its receiver
    whiteners: np.ndarray    # (L, K, d_s, d_s) (slice^H slice)^(-1/2) of each inner-precoder slice


def stack_alignment_matrix(ch: ChannelRealization, provider: int, receiver: int) -> np.ndarray:
    """Block system whose null space aligns all provider-cell users at the receiver.

    Row block j pins user j+1's image to user 0's image:
    [H_1 .. -H_{j+1} .. 0]. Shape (L-1)N_B x L N_U; empty for L = 1.
    """
    if provider == receiver:
        raise ContractViolation("a cell cannot align interference to itself")
    L, N_B, N_U = ch.H.shape[0], ch.H.shape[3], ch.H.shape[4]
    A = np.zeros(((L - 1) * N_B, L * N_U), dtype=complex)
    for j in range(L - 1):
        A[j * N_B:(j + 1) * N_B, 0:N_U] = ch.H[0, provider, receiver]
        A[j * N_B:(j + 1) * N_B, (j + 1) * N_U:(j + 2) * N_U] = -ch.H[j + 1, provider, receiver]
    return A


def inner_precoder(A: np.ndarray, d_s: int) -> np.ndarray:
    """d_s orthonormal null-space directions of the stacked alignment system.

    Deterministic: the right singular vectors belonging to the d_s smallest
    singular values, ties resolved by index.
    """
    n = A.shape[1]
    if A.shape[0] == 0:
        return np.eye(n, dtype=complex)[:, :d_s]
    _, s, Vh = full_svd(A)
    null_dim = n - matrix_rank(s)
    if null_dim < d_s:
        raise InfeasibleConfig(
            f"alignment system null space has dimension {null_dim} < d_s={d_s}"
        )
    return Vh[n - d_s:, :].conj().T


def user_pattern(V_in: np.ndarray, i: int, n_user_antennas: int) -> np.ndarray:
    """Semi-unitary pattern of user i: orthonormalized slice of the joint precoder."""
    block = V_in[i * n_user_antennas:(i + 1) * n_user_antennas, :]
    try:
        return orthonormalize(block)
    except RankDeficient as exc:
        raise DegenerateChannel(f"user {i} precoder slice is rank deficient") from exc


def full_precoder(pattern: np.ndarray, P: float, d_s: int) -> np.ndarray:
    """Uniform power loading: sqrt(P/d_s) times the pattern."""
    return math.sqrt(P / d_s) * pattern


def aligned_interference_basis(
    ch: ChannelRealization,
    provider: int,
    receiver: int,
    V_in: np.ndarray,
) -> np.ndarray:
    """Orthonormal basis of the common interference span at the receiver.

    Verifies that every provider-cell user lands in the same subspace and
    raises :class:`AlignmentFailure` otherwise (numerical breakdown).
    """
    L, N_U = ch.H.shape[0], ch.H.shape[4]
    try:
        basis = orthonormalize(ch.H[0, provider, receiver] @ V_in[0:N_U, :])
        for i in range(1, L):
            image = ch.H[i, provider, receiver] @ V_in[i * N_U:(i + 1) * N_U, :]
            dist = chordal_distance_sq(basis, orthonormalize(image))
            if dist > ALIGN_TOL:
                raise AlignmentFailure(
                    f"user {i} of cell {provider} misaligned at cell {receiver}: "
                    f"chordal distance^2 {dist:.3e}"
                )
    except RankDeficient as exc:
        raise DegenerateChannel("aligned interference image is rank deficient") from exc
    return basis


def select_null_basis(F: np.ndarray, d_s: int) -> np.ndarray:
    """Deterministic d_s-dimensional left-null basis of an interference stack.

    Picks the left singular vectors of the d_s smallest singular values. When
    the stack is rank deficient beyond its generic rank the pick is still the
    canonical one, with a warning. A (..., m, n) array of stacks takes one SVD
    call, and every slice is checked as it would be alone.
    """
    try:
        nulls = left_null_space(F)
    except EmptySubspace as exc:
        raise InfeasibleConfig(f"interference stack has no null space, need {d_s}") from exc
    m, n = np.shape(F)[-2:]
    picks = []
    for null in nulls if np.ndim(F) > 2 else [nulls]:
        null_dim = null.shape[1]
        if null_dim < d_s:
            raise InfeasibleConfig(
                f"interference stack leaves a {null_dim}-dimensional null space, need {d_s}"
            )
        rank = m - null_dim
        if rank < min(m, n) and null_dim > d_s:
            warnings.warn(
                f"interference stack unexpectedly rank deficient ({rank} < {min(m, n)}); "
                f"using canonical smallest-singular-value directions",
                RuntimeWarning,
            )
        picks.append(null[:, null_dim - d_s:])
    return np.array(picks).reshape(np.shape(F)[:-2] + (m, d_s))


def per_user(cfg: SystemConfig, fn) -> np.ndarray:
    """fn(i, k) of every user as one (L, K, ...) array, called cell by cell."""
    out = [[None] * cfg.K for _ in range(cfg.L)]
    for k in range(cfg.K):
        for i in range(cfg.L):
            out[i][k] = fn(i, k)
    return np.array(out)


def link_images(
    ch: ChannelRealization, decoders: np.ndarray, patterns: np.ndarray
) -> np.ndarray:
    """Every transmitter's image through every user's decoder, (L, K, L, K, d_s, d_s):
    ``[i, k, m, l]`` is U^H H[m, l, k] X[m, l] with U the decoder of user (i, k).

    The one place where patterns are carried through the channels and the
    receive filters; rates and residual interference only read it. Each
    user's stack is one product, associated as (U^H H) X for every pair.
    """
    return np.array([
        [U.conj().T @ ch.H[:, :, k] @ patterns for k, U in enumerate(row)] for row in decoders
    ])


def nulling_stacks(
    ch: ChannelRealization, assignment, patterns: np.ndarray, provider_blocks: dict
) -> np.ndarray:
    """What the decoders of the users (i, k) keyed in ``provider_blocks`` must
    null, in key order, as one (n, N_B, columns) array.

    User (i, k)'s stack holds, in order: same-cell interference from other
    users, per-user interference from every cell that is neither k nor k's
    provider, and ``provider_blocks[(i, k)]``, the span through which k's
    provider cell arrives (its aligned basis under perfect feedback). Each
    cell's images ``ch.H[:, :, k] @ patterns`` are formed once.
    """
    L, K = ch.H.shape[0], ch.H.shape[1]
    images = {k: ch.H[:, :, k] @ patterns for k in {k for _, k in provider_blocks}}
    stacks = []
    for (i, k), provider_block in provider_blocks.items():
        prov = assignment.provider(k)
        blocks = [images[k][j, k] for j in range(L) if j != i]
        blocks += [images[k][m, l] for l in range(K) if l not in (k, prov) for m in range(L)]
        blocks.append(provider_block)
        stacks.append(np.concatenate(blocks, axis=1))
    return np.array(stacks)


def zf_decoder(
    ch: ChannelRealization, assignment, patterns: np.ndarray, provider_blocks: dict, d_s: int
) -> np.ndarray:
    """Zero-forcing decoders of the users (i, k) keyed in ``provider_blocks``, in
    key order, as one (n, N_B, d_s) array from one SVD of their ``nulling_stacks``."""
    return select_null_basis(nulling_stacks(ch, assignment, patterns, provider_blocks), d_s)


def certified_null_basis(F: np.ndarray, d_s: int) -> np.ndarray | None:
    """Left-null bases Q[..., n:] of a (..., m, n) stack from one complete QR, or
    None unless every slice is finite, m - n == d_s and 1 / (|R|_F |R^-1|_F), a
    lower bound on sigma_min / sigma_max, exceeds 10 * RANK_REL_TOL. A slice
    that passes has exactly d_s null directions on the SVD path as well, where
    ``select_null_basis`` neither raises nor warns, and any basis of them gives
    the same rate."""
    m, n = F.shape[-2:]
    if m - n != d_s or not np.all(np.isfinite(F)):
        return None
    Q, R = np.linalg.qr(F, mode="complete")
    R = R[..., :n, :]
    try:
        inv_norm = np.linalg.norm(np.linalg.inv(R), axis=(-2, -1))
    except np.linalg.LinAlgError:  # an exactly singular R
        return None
    bound = 1.0 / (np.linalg.norm(R, axis=(-2, -1)) * inv_norm)
    return Q[..., n:] if np.all(bound > 10 * RANK_REL_TOL) else None


def cell_pairs(K: int) -> list:
    """Every ordered (provider, receiver) pair of distinct cells, provider-major."""
    return [(p, r) for p in range(K) for r in range(K) if p != r]


class Potentials(dict):
    """Inner precoders keyed by (provider, receiver) pair, plus the pieces that
    depend on that pair alone, computed on first use and then shared by every
    assignment that uses the pair, at every transmit power."""

    def __init__(self, ch: ChannelRealization, cfg: SystemConfig):
        self.ch, self.cfg = ch, cfg
        self._pieces = {}

    def inner(self, p: int, r: int) -> np.ndarray:
        if (p, r) not in self:
            self[(p, r)] = inner_precoder(stack_alignment_matrix(self.ch, p, r), self.cfg.d_s)
        return self[(p, r)]

    def _piece(self, name: str, p: int, r: int, make):
        key = (name, p, r)
        if key not in self._pieces:
            self._pieces[key] = make(self.inner(p, r))
        return self._pieces[key]

    def patterns(self, p: int, r: int) -> np.ndarray:
        """(L, N_U, d_s) semi-unitary patterns of p's users."""
        return self._piece("patterns", p, r, lambda V: np.array(
            [user_pattern(V, i, self.cfg.N_U) for i in range(self.cfg.L)]
        ))

    def aligned(self, p: int, r: int) -> np.ndarray:
        return self._piece("aligned", p, r, lambda V: aligned_interference_basis(self.ch, p, r, V))

    def whiteners(self, p: int, r: int) -> np.ndarray:
        """(L, d_s, d_s) (slice^H slice)^(-1/2) of each user's inner-precoder slice."""
        return self._piece("whiteners", p, r, lambda V: np.array(
            [herm_inv_sqrt(s.conj().T @ s) for s in np.split(V, self.cfg.L)]
        ))


def build_potentials(
    ch: ChannelRealization, cfg: SystemConfig, pairs=None
) -> Potentials:
    """Inner precoders for candidate (provider, receiver) pairs.

    With pairs=None every ordered pair is computed, which is what the
    matching and centralized schemes consume.
    """
    potentials = Potentials(ch, cfg)
    for p, r in cell_pairs(cfg.K) if pairs is None else pairs:
        potentials.inner(p, r)
    return potentials


def _pieces_before_decoders(ch, cfg, assignment, potentials):
    """The checks of ``build_transceivers``, then its inner precoders, patterns
    and aligned bases, each over the sorted (cell, receiver) pairs: a set without
    decoders or whiteners, the decoders' provider blocks and the whiteners' reader."""
    if not assignment.is_strict(cfg.K):
        raise ContractViolation("transceiver construction needs a strict assignment")
    if potentials is None:
        potentials = Potentials(ch, cfg)
    if potentials.ch is not ch:
        raise ContractViolation("potentials were built on another channel draw")
    pairs = sorted(assignment.receivers().items())  # (k, receiver of k), cell order
    inner = {k: potentials.inner(k, r) for k, r in pairs}
    patterns = np.stack([potentials.patterns(k, r) for k, r in pairs], axis=1)
    aligned = {k: potentials.aligned(k, r) for k, r in pairs}
    provider_blocks = {
        (i, k): aligned[assignment.provider(k)] for i in range(cfg.L) for k in range(cfg.K)
    }
    tset = TransceiverSet(assignment, inner, patterns, None, aligned, None)
    return tset, provider_blocks, lambda: np.stack(
        [potentials.whiteners(k, r) for k, r in pairs], axis=1
    )


def build_transceivers(
    ch: ChannelRealization,
    cfg: SystemConfig,
    assignment,
    potentials: Potentials | None = None,
) -> TransceiverSet:
    """Complete transceiver set for a strict assignment on one realization.

    Gathers the assignment's pair pieces; only the decoders are computed here,
    in one stacked SVD. Nothing depends on P: ``user_rate`` applies it.
    """
    tset, provider_blocks, whiteners = _pieces_before_decoders(ch, cfg, assignment, potentials)
    decoders = zf_decoder(ch, assignment, tset.patterns, provider_blocks, cfg.d_s)
    tset.decoders = decoders.reshape(cfg.L, cfg.K, cfg.N_B, cfg.d_s)
    tset.whiteners = whiteners()
    return tset


def screen_rates(
    ch: ChannelRealization, cfg: SystemConfig, assignment, potentials: Potentials
) -> np.ndarray | None:
    """Every user's rate in nats as an (L, K) array, with the decoders of
    ``certified_null_basis``, or None where it does not certify the stacks.

    Reads the pair pieces in ``build_transceivers``' order, so a failing piece
    raises here as it would there. The rates equal ``user_rate``'s to rounding.
    """
    tset, provider_blocks, whiteners = _pieces_before_decoders(ch, cfg, assignment, potentials)
    F = nulling_stacks(ch, assignment, tset.patterns, provider_blocks)
    U = certified_null_basis(F, cfg.d_s)
    if U is None:
        return None
    U = U.reshape(cfg.L, cfg.K, cfg.N_B, cfg.d_s)
    cells = np.arange(cfg.K)
    slices = np.stack([tset.inner[k].reshape(cfg.L, cfg.N_U, cfg.d_s) for k in cells], axis=1)
    H_eff = U.conj().swapaxes(-1, -2) @ ch.H[:, cells, cells] @ slices
    V_out = math.sqrt(cfg.P / cfg.d_s) * whiteners()
    return rate_logdet(H_eff @ V_out, 1.0 / cfg.sigma2)


def user_rate(
    ch: ChannelRealization,
    tset: TransceiverSet,
    i: int,
    k: int,
    cfg: SystemConfig,
) -> float:
    """Achievable rate of user (i, k) in nats.

    Uses the effective-channel form: the decoder output channel composed
    with the uniform-power outer scaling. Numerically equal to evaluating
    the plain log-det rate on decoder, direct channel and full precoder.
    The power-free whitener comes from the transceiver set.
    """
    U = tset.decoders[(i, k)]
    slice_ik = tset.inner[k][i * cfg.N_U:(i + 1) * cfg.N_U, :]
    H_eff = U.conj().T @ ch.H[i, k, k] @ slice_ik
    V_out = math.sqrt(cfg.P / cfg.d_s) * tset.whiteners[(i, k)]
    return rate_logdet(H_eff @ V_out, 1.0 / cfg.sigma2)


@dataclass(frozen=True)
class AlignmentReport:
    """Worst-case leakage and desired-link conditioning over all users."""

    max_iui_residual: float
    max_ici_residual: float
    min_desired_sv: float      # smallest d_s-th singular value of U^H H V over users
    min_desired_ratio: float   # min over users of sigma_{d_s} / sigma_1

    @property
    def max_residual(self) -> float:
        return max(self.max_iui_residual, self.max_ici_residual)


def verify_alignment(
    ch: ChannelRealization, tset: TransceiverSet, cfg: SystemConfig
) -> AlignmentReport:
    """Measure every interference-nulling condition and the desired-link rank."""
    precoders = full_precoder(tset.patterns, cfg.P, cfg.d_s)
    images = link_images(ch, tset.decoders, precoders)
    max_iui = 0.0
    max_ici = 0.0
    min_sv = math.inf
    min_ratio = math.inf
    for k in range(cfg.K):
        for i in range(cfg.L):
            resid = np.linalg.norm(images[i, k], axis=(-2, -1))
            max_iui = max(max_iui, float(np.delete(resid[:, k], i).max(initial=0.0)))
            max_ici = max(max_ici, float(np.delete(resid, k, axis=1).max()))
            s = np.linalg.svd(images[i, k, i, k], compute_uv=False)
            min_sv = min(min_sv, float(s[cfg.d_s - 1]))
            min_ratio = min(min_ratio, float(s[cfg.d_s - 1] / s[0]))
    return AlignmentReport(
        max_iui_residual=max_iui,
        max_ici_residual=max_ici,
        min_desired_sv=min_sv,
        min_desired_ratio=min_ratio,
    )
