"""Closed-form grouped-alignment transceivers.

The construction works per provider/receiver cell pair: all users of the
provider cell solve one stacked linear system so their interference at the
receiver's base station collapses into a common d_s-dimensional subspace,
after which zero-forcing decoders remove everything in closed form.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentFailure,
    ContractViolation,
    DegenerateChannel,
    EmptySubspace,
    GiaSimError,
    InfeasibleConfig,
)
from .linalg import (
    RANK_REL_TOL,
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
    inner: np.ndarray        # (K, L*N_U, d_s) joint precoder of each cell
    patterns: np.ndarray     # (L, K, N_U, d_s) semi-unitary precoder patterns
    decoders: np.ndarray     # (L, K, N_B, d_s) semi-unitary zero-forcing decoders
    aligned: dict            # provider cell -> aligned-interference basis at its receiver
    whiteners: np.ndarray    # (L, K, d_s, d_s) (slice^H slice)^(-1/2) of each inner-precoder slice


def full_precoder(pattern: np.ndarray, P: float, d_s: int) -> np.ndarray:
    """Uniform power loading: sqrt(P/d_s) times the pattern."""
    return math.sqrt(P / d_s) * pattern


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


def direct_channels(ch: ChannelRealization) -> np.ndarray:
    """H[i, k, k] of every user (i, k), as an (L, K, N_B, N_U) view of ``ch.H``."""
    return np.einsum("ikkab->ikab", ch.H)


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
    cell's images ``ch.H[:, :, k] @ patterns`` are formed once, and every
    stack is gathered from them in one cached index.
    """
    L, K, _, N_B, _ = ch.H.shape
    users = tuple(provider_blocks)
    cells, rows = _nulling_index(K, L, users, tuple(assignment.provider(k) for _, k in users))
    images = np.moveaxis(ch.H[:, :, cells], 2, 0) @ patterns
    table = np.concatenate([images.reshape(-1, N_B, patterns.shape[-1]),
                            list(provider_blocks.values())])
    stacks = table[rows]  # (n, blocks, N_B, columns)
    return stacks.swapaxes(1, 2).reshape(len(rows), N_B, -1)


@functools.lru_cache(maxsize=1024)
def _nulling_index(K: int, L: int, users: tuple, providers: tuple) -> tuple[list, np.ndarray]:
    """``nulling_stacks``' cells, and each user's rows of its table of images."""
    cells = sorted({k for _, k in users})  # user (m, l) at cells[c]: row (c * L + m) * K + l
    return cells, np.array([[(cells.index(k) * L + m) * K + l
                             for l in [k] + [l for l in range(K) if l not in (k, p)]
                             for m in range(L) if (m, l) != (i, k)] + [len(cells) * L * K + n]
                            for n, ((i, k), p) in enumerate(zip(users, providers))])


def zf_decoder(
    ch: ChannelRealization, assignment, patterns: np.ndarray, provider_blocks: dict, d_s: int
) -> np.ndarray:
    """Zero-forcing decoders of the users (i, k) keyed in ``provider_blocks``, in
    key order, as one (n, N_B, d_s) array from one SVD of their ``nulling_stacks``."""
    return select_null_basis(nulling_stacks(ch, assignment, patterns, provider_blocks), d_s)


def certified_inverse(M: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """M^-1 of each slice of a (..., m, n) stack and which slices are certified, silently:
    finite, square (null spaces exactly d_s wide) and 1 / (|M|_F |M^-1|_F) > 10 *
    RANK_REL_TOL. That bounds sigma_min / sigma_max of every column subset of M, so
    the SVD path finds exactly d_s null directions of each nulling stack in M."""
    certified = np.isfinite(M).all(axis=(-2, -1)) & (M.shape[-2] == M.shape[-1])
    if not certified.any():
        return None, certified
    if not certified.all():  # LAPACK sees the identity in place of a refused slice
        M = np.where(certified[..., None, None], M, np.eye(M.shape[-1]))
    try:
        M_inv = np.linalg.inv(M)
    except np.linalg.LinAlgError:  # an exactly singular slice fails the whole stack:
        certified &= np.linalg.slogdet(M)[0] != 0  # the same LU finds it silently
        M_inv = np.linalg.inv(np.where(certified[..., None, None], M, np.eye(M.shape[-1])))
    cond = np.linalg.norm(M, axis=(-2, -1)) * np.linalg.norm(M_inv, axis=(-2, -1))
    return M_inv, certified & (cond < 0.1 / RANK_REL_TOL)


@functools.lru_cache(maxsize=None)
def _cell_template(K: int, L: int) -> np.ndarray:
    """(cell, block) in the pair table of each block of cell k's matrix when k's provider
    is p, at [:, k, p]: the images at k of k's users, then of those of every cell but k
    and p, then p's aligned basis; ``nulling_stacks``' order plus the own block."""
    def blocks(k, p):
        return ([(l, m * K + k) for l in [k] + [l for l in range(K) if l not in (k, p)]
                 for m in range(L)] + [(p, L * K)])
    return np.moveaxis(np.array([[blocks(k, p if p != k else (k + 1) % K) for p in range(K)]
                                 for k in range(K)]), -1, 0)


def cell_pairs(K: int) -> list:
    """Every ordered (provider, receiver) pair of distinct cells, provider-major."""
    return [(p, r) for p in range(K) for r in range(K) if p != r]


def _each(fn, stack: np.ndarray) -> tuple[np.ndarray, dict]:
    """fn of a stack of matrices in one call, and {slice index: exception} of the
    slices that fail its check. Then fn runs on each slice alone, so a failed slice
    keeps its own exception, and NaN in place of its result."""
    try:
        return fn(stack), {}
    except GiaSimError:
        out, errors = np.full(stack.shape, np.nan, complex), {}
        for idx in np.ndindex(stack.shape[:-2]):
            try:
                out[idx] = fn(stack[idx])
            except GiaSimError as exc:
                errors[idx] = exc
        return out, errors


def _caused(exc: Exception, cause: Exception) -> Exception:
    exc.__cause__ = cause
    return exc


class Potentials(dict):
    """Inner precoders keyed by (provider, receiver) pair, plus the pieces that
    depend on that pair alone, shared by every assignment that uses the pair, at
    every transmit power. Pieces are formed for many pairs at once, one stacked
    call per kind; a pair whose piece fails a check keeps the exception, and
    ``take`` raises it at a read of that piece."""

    def __init__(self, ch: ChannelRealization, cfg: SystemConfig):
        self.ch, self.cfg = ch, cfg
        K, L, N_U, d_s = cfg.K, cfg.L, cfg.N_U, cfg.d_s
        self._pieces = {name: np.empty((K * K,) + shape, complex) for name, shape in (
            ("inner", (L * N_U, d_s)), ("patterns", (L, N_U, d_s)),
            ("aligned", (cfg.N_B, d_s)), ("whiteners", (L, d_s, d_s)))}  # pair (p, r) at p * K + r
        self._errors = {}  # (name, p, r) -> what a read of that piece raises
        self._table = None  # the pair table of ``cell_matrices``

    def take(self, name: str, pairs: list) -> np.ndarray:
        """The pieces ``name`` of ``pairs``, one per pair along a leading axis: the
        inner precoder (L*N_U, d_s), the users' patterns (L, N_U, d_s) or whiteners
        (L, d_s, d_s), (slice^H slice)^(-1/2) of each inner-precoder slice, or the
        aligned basis (N_B, d_s) at the receiver. Formed first where missing; the
        first pair in order whose piece failed raises its exception."""
        self._form([pr for pr in dict.fromkeys(pairs) if pr not in self])
        for p, r in pairs if self._errors else ():
            if (name, p, r) in self._errors:
                raise self._errors[name, p, r]
        return self._pieces[name][[p * self.cfg.K + r for p, r in pairs]]

    def update(self, other: "Potentials") -> None:
        """Take in the pairs of ``other``, formed on the same draw, with their pieces."""
        index = [p * self.cfg.K + r for p, r in other]
        for name, pieces in self._pieces.items():
            pieces[index] = other._pieces[name][index]
        self._errors.update(other._errors)
        super().update(other)

    def _form(self, pairs: list) -> None:
        """Every piece of the distinct, new ``pairs`` in one stacked call per kind. A
        pair's exception for a piece is its first failing check in the order of the
        per-pair construction: the inner precoder's, then, user by user, the
        pattern's, the aligned image's and its span's, or the whitener's."""
        if not pairs:
            return
        if any(p == r for p, r in pairs):
            raise ContractViolation("a cell cannot align interference to itself")
        L, N_B, N_U, d_s, K = self.cfg.L, self.cfg.N_B, self.cfg.N_U, self.cfg.d_s, self.cfg.K
        n = L * N_U
        p, r = np.array(pairs).T
        H = self.ch.H[:, p, r].swapaxes(0, 1)  # [pair, i]: user i of the provider at the receiver
        if L == 1:
            V = np.broadcast_to(np.eye(n, d_s, dtype=complex), (len(p), n, d_s))
            null_dim = np.full(len(p), n)
        else:  # row block j of the alignment system pins user j+1's image to user 0's
            A = np.zeros((len(p), L - 1, N_B, L, N_U), complex)
            A[..., 0, :] = H[:, :1]
            for j in range(1, L):
                A[:, j - 1, :, j] = -H[:, j]
            _, s, Vh = full_svd(A.reshape(len(p), (L - 1) * N_B, n))
            # the right singular vectors of the d_s smallest singular values, ties by index
            V, null_dim = Vh[:, n - d_s:].conj().swapaxes(-1, -2), n - matrix_rank(s)
        slices = V.reshape(-1, L, N_U, d_s)
        patterns, pattern_errors = _each(orthonormalize, slices)
        bases, image_errors = _each(orthonormalize, H @ slices)
        overlap = np.linalg.norm(bases[:, :1].conj().swapaxes(-1, -2) @ bases, axis=(-2, -1))
        dist = np.clip(d_s - overlap ** 2, 0.0, d_s)  # chordal distance^2 to user 0's span
        dist[:, 0] = 0.0  # user 0's image is not checked against its own span
        whiteners, whitener_errors = _each(herm_inv_sqrt, slices.conj().swapaxes(-1, -2) @ slices)
        errors = {}  # (name, pair index) -> exception; written last user first, so the first wins
        for (j, i), exc in sorted(whitener_errors.items(), reverse=True):
            errors["whiteners", j] = exc
        for (j, i), exc in sorted(pattern_errors.items(), reverse=True):
            errors["patterns", j] = _caused(
                DegenerateChannel(f"user {i} precoder slice is rank deficient"), exc)
        for j, i in sorted({*image_errors, *zip(*np.nonzero(dist > ALIGN_TOL))}, reverse=True):
            if (j, i) in image_errors:  # the image's own check comes before its span's
                errors["aligned", j] = _caused(DegenerateChannel(
                    "aligned interference image is rank deficient"), image_errors[j, i])
            else:
                errors["aligned", j] = AlignmentFailure(
                    f"user {i} of cell {p[j]} misaligned at cell {r[j]}: "
                    f"chordal distance^2 {dist[j, i]:.3e}")
        for j in np.flatnonzero(null_dim < d_s):
            exc = InfeasibleConfig(
                f"alignment system null space has dimension {null_dim[j]} < d_s={d_s}")
            errors.update({(name, j): exc for name in self._pieces})
        for name, piece in zip(self._pieces, (V, patterns, bases[:, 0], whiteners)):
            self._pieces[name][p * K + r] = piece
        self._errors.update({(name, *pairs[j]): exc for (name, j), exc in errors.items()})
        super().update(zip(pairs, self._pieces["inner"][p * K + r]))

    def cell_matrices(self, providers: np.ndarray) -> np.ndarray:
        """Matrix of every cell of the strict assignments with providers ``providers``
        (n, K), (n, K, N_B, (L(K-1)+1) d_s): ``_cell_template``'s blocks in one gather
        from a table of every pair's images and aligned basis, written on first use."""
        L, K, N_B, d_s = self.cfg.L, self.cfg.K, self.cfg.N_B, self.cfg.d_s
        if self._table is None:  # transposed blocks; user m's image at station k is m * K + k
            self._form([pr for pr in cell_pairs(K) if pr not in self])
            failed = {(p, r) for _, p, r in self._errors}
            good = [pr for pr in cell_pairs(K) if pr not in failed]  # failed pairs stay NaN
            self._table = np.full((K, K, L * K + 1, d_s, N_B), np.nan, complex)
            p, r = np.array(good, int).reshape(-1, 2).T  # two columns even if no pair is good
            X, B = self.take("patterns", good), self.take("aligned", good)
            images = (self.ch.H[:, p].swapaxes(0, 1) @ X[:, :, None]).swapaxes(-1, -2)
            self._table[p, r, :L * K] = images.reshape(len(p), L * K, d_s, N_B)
            self._table[p, r, L * K] = B.swapaxes(-1, -2)
        cells, blocks = _cell_template(K, L)[:, range(K), providers]
        receivers = np.argsort(providers, axis=-1)[np.arange(len(providers))[:, None, None], cells]
        gathered = self._table[cells, receivers, blocks]
        return gathered.reshape(len(providers), K, -1, N_B).swapaxes(-1, -2)


def build_potentials(ch: ChannelRealization, cfg: SystemConfig, pairs=None) -> Potentials:
    """Every piece of the (provider, receiver) pairs ``pairs``, one stacked call
    per kind; with pairs=None every ordered pair, which is what the matching and
    centralized schemes read. A failed piece raises at its read (``take``)."""
    potentials = Potentials(ch, cfg)
    potentials._form(list(dict.fromkeys(cell_pairs(cfg.K) if pairs is None else pairs)))
    return potentials


def build_transceivers(
    ch: ChannelRealization, cfg: SystemConfig, assignment, potentials: Potentials | None = None
) -> TransceiverSet:
    """Complete transceiver set for a strict assignment on one realization.

    Gathers the assignment's pair pieces; only the decoders are computed here,
    in one stacked SVD. Nothing depends on P: ``user_rate`` applies it.
    """
    if not assignment.is_strict(cfg.K):
        raise ContractViolation("transceiver construction needs a strict assignment")
    potentials = Potentials(ch, cfg) if potentials is None else potentials
    if potentials.ch is not ch:
        raise ContractViolation("potentials were built on another channel draw")
    pairs = sorted(assignment.receivers().items())  # (k, receiver of k), cell order
    inner, patterns, aligned = (potentials.take(n, pairs) for n in ("inner", "patterns", "aligned"))
    patterns, aligned = patterns.swapaxes(0, 1), dict(enumerate(aligned))
    blocks = {(i, k): aligned[assignment.provider(k)] for i in range(cfg.L) for k in range(cfg.K)}
    decoders = zf_decoder(ch, assignment, patterns, blocks, cfg.d_s)
    return TransceiverSet(assignment, inner, patterns,
                          decoders.reshape(cfg.L, cfg.K, cfg.N_B, cfg.d_s), aligned,
                          potentials.take("whiteners", pairs).swapaxes(0, 1))


def screen_candidates(cfg: SystemConfig, potentials: Potentials, providers) -> np.ndarray:
    """Every user's rate in nats, (n, L, K), at ``cfg``'s power (the potentials may come
    from another power), of the strict assignments with providers the rows of the (n, K)
    array ``providers``, from one ``certified_inverse`` of their cell matrices; NaN,
    silently, if a cell is uncertified, as one reading a failed pair piece is. The rows
    Z of M_k^-1 at user (i, k)'s block null its stack and map its image H V W to I, so
    Z^H spans its decoders' space and its rate is log det(I + P/(d_s sigma^2) (Z Z^H)^-1)."""
    M_inv, certified = certified_inverse(potentials.cell_matrices(providers))
    ok = certified.all(axis=-1)
    rates = np.full((len(providers), cfg.L, cfg.K), np.nan)
    if ok.any():
        Z = M_inv[ok, :, :cfg.L * cfg.d_s].reshape(-1, cfg.K, cfg.L, cfg.d_s, M_inv.shape[-1])
        inv_gains = psd_eigvals(Z @ Z.conj().swapaxes(-1, -2))
        rates[ok] = np.log1p(cfg.P / (cfg.d_s * cfg.sigma2) / inv_gains).sum(-1).swapaxes(-1, -2)
    return rates


def user_rate(ch: ChannelRealization, tset: TransceiverSet, cfg: SystemConfig) -> np.ndarray:
    """Achievable rate of every user in nats, as an (L, K) array.

    Uses the effective-channel form: the decoder output channel U^H H[i, k, k]
    times the user's inner-precoder slice, composed with the uniform-power
    outer scaling of the power-free whitener, all users in one stack.
    Numerically equal to evaluating the plain log-det rate on decoder, direct
    channel and full precoder.
    """
    slices = tset.inner.reshape(cfg.K, cfg.L, cfg.N_U, cfg.d_s).swapaxes(0, 1)
    H_eff = tset.decoders.conj().swapaxes(-1, -2) @ direct_channels(ch) @ slices
    V_out = math.sqrt(cfg.P / cfg.d_s) * tset.whiteners
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
    images = link_images(ch, tset.decoders, full_precoder(tset.patterns, cfg.P, cfg.d_s))
    resid = np.linalg.norm(images, axis=(-2, -1))  # [i, k, m, l]: user (m, l) at user (i, k)
    i, k, m, l = np.ix_(range(cfg.L), range(cfg.K), range(cfg.L), range(cfg.K))
    s = np.linalg.svd(np.einsum("ikikab->ikab", images), compute_uv=False)  # desired links
    return AlignmentReport(
        max_iui_residual=float(np.where((l == k) & (m != i), resid, 0.0).max()),
        max_ici_residual=float(np.where(l != k, resid, 0.0).max()),
        min_desired_sv=float(s[..., cfg.d_s - 1].min()),
        min_desired_ratio=float((s[..., cfg.d_s - 1] / s[..., 0]).min()),
    )
