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
    CapacityExceeded,
    ContractViolation,
    DegenerateChannel,
    GiaSimError,
    InfeasibleConfig,
)
from .linalg import (
    RANK_REL_TOL,
    herm_inv_sqrt,
    matrix_rank,
    orthonormalize,
    psd_eigvals,
    svd,
)
from .system import ChannelRealization, SystemConfig, per_config

ALIGN_TOL = 1e-8
CERTIFIED_RATIO = 1e-6  # sigma_min(M) / |M|_F of a certified cell matrix, at least
SCREEN_CHUNK_BYTES = 2 ** 19  # cell matrices of the candidates one screen chunk holds
SCREEN_TABLE_BYTES = 2 ** 28  # most bytes of P-free screen values one candidate list keeps


def rate_logdet(M: np.ndarray, scale):
    """log det(I + scale * M M^H) in nats of each slice of a (..., r, c) stack, evaluated
    through Hermitian eigenvalues; ``scale`` may be an array that broadcasts over them."""
    return np.sum(np.log1p(scale * psd_eigvals(M @ M.conj().swapaxes(-1, -2))), axis=-1)


@dataclass(frozen=True)
class TransceiverSet:
    """The pair pieces of one strict assignment on one realization, gathered from its
    ``Potentials``; the rates that read the zero-forcing decoders form them
    (``zf_decoder`` of the assignment, patterns and blocks).

    Per-user arrays have the user axes (L, K) of ``ChannelRealization.H`` in
    front, so ``[i, k]`` is user i of cell k.
    """

    assignment: object
    inner: np.ndarray        # (K, L*N_U, d_s) joint precoder of each cell
    patterns: np.ndarray     # (L, K, N_U, d_s) semi-unitary precoder patterns
    blocks: np.ndarray       # (K, N_B, d_s) aligned basis through which cell k's provider arrives
    whiteners: np.ndarray    # (L, K, d_s, d_s) (slice^H slice)^(-1/2) of each inner-precoder slice


def full_precoder(pattern: np.ndarray, P, d_s: int) -> np.ndarray:
    """Uniform power loading: sqrt(P/d_s) times the pattern; an array of powers P
    that broadcasts over the pattern gives one loading per power."""
    return np.sqrt(P / d_s) * pattern


def select_null_basis(F: np.ndarray, d_s: int) -> np.ndarray:
    """Deterministic d_s-dimensional left-null basis of an interference stack.

    Picks the left singular vectors of the d_s smallest singular values. When
    the stack is rank deficient beyond its generic rank the pick is still the
    canonical one, with a warning. A (..., m, n) array of stacks takes one SVD
    call and one rank check, and each slice is checked, in C order, as if alone.
    """
    U, s, _ = svd(F, full_matrices=True)
    m, n = np.shape(F)[-2:]
    for rank in matrix_rank(s).ravel().tolist():
        if rank == m:
            raise InfeasibleConfig(f"interference stack has no null space, need {d_s}")
        if m - rank < d_s:
            raise InfeasibleConfig(f"interference stack leaves a {m - rank}-dimensional "
                                   f"null space, need {d_s}")
        if rank < min(m, n) and m - rank > d_s:
            warnings.warn(
                f"interference stack unexpectedly rank deficient ({rank} < {min(m, n)}); "
                f"using canonical smallest-singular-value directions",
                RuntimeWarning,
            )
    return U[..., m - d_s:]


def direct_channels(ch: ChannelRealization) -> np.ndarray:
    """H[i, k, k] of every user (i, k), as an (L, K, N_B, N_U) view of ``ch.H``."""
    return np.einsum("ikkab->ikab", ch.H)


def link_images(
    ch: ChannelRealization, decoders: np.ndarray, patterns: np.ndarray
) -> np.ndarray:
    """Every transmitter's image through every user's decoder, (..., L, K, L, K, d_s, d_s):
    ``[..., i, k, m, l]`` is U^H H[m, l, k] X[m, l] with U the decoder of user (i, k),
    for (..., L, K, N_B, d_s) decoders and (..., L, K, N_U, d_s) patterns X.

    The one place where patterns are carried through the channels and the
    receive filters; rates and residual interference only read it. It is one
    stacked product, associated as (U^H H) X for every pair.
    """
    U_h = decoders.conj().swapaxes(-1, -2)[..., None, None, :, :]
    return U_h @ np.moveaxis(ch.H, 2, 0) @ patterns[..., None, None, :, :, :, :]


def nulling_stacks(
    ch: ChannelRealization, assignment, patterns: np.ndarray, provider_blocks: np.ndarray
) -> np.ndarray:
    """What every user's decoders must null, as one (..., L, K, N_B, columns) array of
    (..., L, K, N_U, d_s) ``patterns``.

    User (i, k)'s stack holds, in order: same-cell interference from other
    users, per-user interference from every cell that is neither k nor k's
    provider, and its block of ``provider_blocks`` (which broadcasts to (..., L,
    K, N_B, d_s)), the span through which k's provider cell arrives (its aligned
    basis under perfect feedback). The images ``ch.H[:, :, k] @ patterns`` at
    every station k come from one product, and every stack is gathered from
    them in one cached index.
    """
    L, K, _, N_B, _ = ch.H.shape
    rows = _nulling_index(K, L, assignment.providers)
    lead, d_s = patterns.shape[:-4], patterns.shape[-1]
    images = np.moveaxis(ch.H, 2, 0) @ patterns[..., None, :, :, :, :]
    flat = lead + (-1, N_B, d_s)
    blocks = np.broadcast_to(provider_blocks, lead + (L, K, N_B, d_s)).reshape(flat)
    table = np.concatenate([images.reshape(flat), blocks], axis=-3)
    stacks = table[..., rows, :, :]  # (..., L K, blocks, N_B, columns)
    return stacks.swapaxes(-3, -2).reshape(lead + (L, K, N_B, -1))


@functools.lru_cache(maxsize=1024)
def _nulling_index(K: int, L: int, providers: tuple) -> np.ndarray:
    """Each user's rows of ``nulling_stacks``' table, users in (L, K) order: user (m, l)
    at station k is row (k * L + m) * K + l, and user (i, k)'s provider block row
    K * L * K + i * K + k."""
    return np.array([[(k * L + m) * K + l
                      for l in [k] + [l for l in range(K) if l not in (k, providers[k])]
                      for m in range(L) if (m, l) != (i, k)] + [K * L * K + i * K + k]
                     for i in range(L) for k in range(K)])


def zf_decoder(
    ch: ChannelRealization, assignment, patterns: np.ndarray, provider_blocks: np.ndarray
) -> np.ndarray:
    """Zero-forcing decoders of every user, as one (..., L, K, N_B, d_s) array from one
    SVD of their ``nulling_stacks``, d_s the patterns' column count."""
    return select_null_basis(nulling_stacks(ch, assignment, patterns, provider_blocks),
                             patterns.shape[-1])


def certified_factor(gram: np.ndarray, finite: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """Cholesky factor C C^H = G of each Gram G = M^H M of square M, (..., n, n), and which are
    certified, silently: those ``finite`` marks with G - tau I positive definite to LAPACK, tau =
    (CERTIFIED_RATIO^2 + 8 (n + 2) 2^-53) tr G. Past the rounding of G's length-n inner
    products and of the factorization, that bounds sigma_min / sigma_max of each column subset
    of M below by CERTIFIED_RATIO: the SVD path finds d_s null directions."""
    n, certified = gram.shape[-1], np.array(finite)
    if not certified.any():
        return None, certified
    if not certified.all():  # LAPACK sees the identity in place of a refused slice
        gram = np.where(certified[..., None, None], gram, np.eye(n))
    diagonal = np.einsum("...ii->...i", gram)  # a view: tau I comes off in place and goes back
    kept = diagonal.copy()
    diagonal -= (CERTIFIED_RATIO ** 2 + 8 * (n + 2) * 2.0 ** -53) * diagonal.real.sum(-1)[..., None]
    shifted = _each(np.linalg.cholesky, gram)[1]  # freed before the kept factor is formed
    diagonal[...] = kept
    factor, refused = _each(np.linalg.cholesky, gram)
    for idx in (*refused, *shifted):
        certified[idx] = False
    return factor, certified


@functools.lru_cache(maxsize=1)  # one (K, L) per sweep: the plan the screen's guard counts
def _gather_plan(K: int, L: int) -> np.ndarray:
    """The ``station_table`` block of each block of each cell matrix, (K, D(K), L (K-1) + 1) in
    the smallest integer type that holds them, of every strict assignment, ``derangements(K)``.
    Cell k's matrix, p its provider, holds the images at k of the users (slot m) of every cell
    but k and p, then p's aligned basis (slot L), then k's own users' images, which come last."""
    def slots(k, p):  # (cell, slot) of each block of cell k's matrix when p provides
        return ([(l, m) for l in range(K) if l not in (k, p) for m in range(L)]
                + [(p, L)] + [(k, m) for m in range(L)])
    providers, index = derangements(K), np.min_scalar_type(K * (K - 1) * L + K - 2)
    receivers = np.argsort(providers, axis=-1).astype(index)
    plan = np.empty((K, len(providers), L * (K - 1) + 1), index)
    for k in range(K):  # a station at a time, in ``index``: all at once in intp took 1 GB at K=9
        cells = np.array([slots(k, p if p != k else (k + 1) % K) for p in range(K)], index)
        l, m = np.moveaxis(cells[providers[:, k]], -1, 0)  # cell and slot of each block
        r = np.take_along_axis(receivers, l, -1)  # l's receiver
        plan[k] = np.where(m < L, (l * (K - 1) + r - (r > l)) * L + m,
                           K * (K - 1) * L + l - (l > r))
    return plan


def cell_pairs(K: int) -> list:
    """Every ordered (provider, receiver) pair of distinct cells, provider-major."""
    return [(p, r) for p in range(K) for r in range(K) if p != r]


def derangement_count(K: int) -> int:
    """D(K) via the inclusion-exclusion sum, computed in exact integers."""
    return sum((-1) ** j * math.factorial(K) // math.factorial(j) for j in range(K + 1))


@functools.lru_cache(maxsize=1)
def derangements(K: int) -> np.ndarray:
    """Every strict assignment of K cells: the (D(K), K) providers of each derangement of
    range(K), read-only, lexicographic as each prefix takes its free values in turn."""
    rows = np.zeros((1, 0), np.intp)
    for k in range(K):
        free = np.ones((len(rows), K), bool)
        free[np.arange(len(rows))[:, None], rows] = False
        free[:, k] = False  # no cell provides for itself
        prefix, value = np.nonzero(free)
        rows = np.column_stack([rows[prefix], value])
    rows.flags.writeable = False
    return rows


def _each(fn, stack: np.ndarray) -> tuple[np.ndarray, dict]:
    """fn of a stack of matrices in one call, and {slice index: exception} of the
    slices that fail its check (or LAPACK's). Then fn runs on each slice alone, so a
    failed slice keeps its own exception, and NaN in place of its result."""
    try:
        return fn(stack), {}
    except (GiaSimError, np.linalg.LinAlgError):
        out, errors = np.full(stack.shape, np.nan, complex), {}
        for idx in np.ndindex(stack.shape[:-2]):
            try:
                out[idx] = fn(stack[idx])
            except (GiaSimError, np.linalg.LinAlgError) as exc:
                errors[idx] = exc
        return out, errors


def _caused(exc: Exception, cause: Exception) -> Exception:
    exc.__cause__ = cause
    return exc


class Potentials:
    """The inner precoder of each (provider, receiver) pair of ``pairs``, plus the pieces
    that depend on that pair alone, shared by every assignment that uses the pair, at
    every transmit power. The constructor forms every piece of the distinct ``pairs`` in
    one stacked call per kind, and nothing changes them after; :class:`ContractViolation`
    for no pair or a cell paired with itself. A pair whose piece fails a check keeps the
    exception, and ``take`` raises it at a read of that piece: its first failing check in
    the order of the per-pair construction, the inner precoder's, then, user by user, the
    pattern's, the aligned image's and its span's, or the whitener's."""

    def __init__(self, ch: ChannelRealization, cfg: SystemConfig, pairs):
        pairs = list(dict.fromkeys(pairs))
        if not pairs:
            raise ContractViolation("potentials need at least one pair")
        if any(p == r for p, r in pairs):
            raise ContractViolation("a cell cannot align interference to itself")
        self.ch, self.cfg = ch, cfg
        self._rows = {pair: row for row, pair in enumerate(pairs)}  # pair -> its row of a piece
        L, N_B, N_U, d_s = cfg.L, cfg.N_B, cfg.N_U, cfg.d_s
        n = L * N_U
        p, r = np.array(pairs).T
        H = ch.H[:, p, r].swapaxes(0, 1)  # [pair, i]: user i of the provider at the receiver
        if L == 1:
            V = np.broadcast_to(np.eye(n, d_s, dtype=complex), (len(p), n, d_s))
            null_dim = np.full(len(p), n)
        else:  # row block j of the alignment system pins user j+1's image to user 0's
            A = np.zeros((len(p), L - 1, N_B, L, N_U), complex)
            A[..., 0, :] = H[:, :1]
            for j in range(1, L):
                A[:, j - 1, :, j] = -H[:, j]
            _, s, Vh = svd(A.reshape(len(p), (L - 1) * N_B, n), full_matrices=True)
            # the right singular vectors of the d_s smallest singular values, ties by index
            V, null_dim = Vh[:, n - d_s:].conj().swapaxes(-1, -2), n - matrix_rank(s)
        slices = V.reshape(-1, L, N_U, d_s)
        patterns, pattern_errors = _each(orthonormalize, slices)
        bases, image_errors = _each(orthonormalize, H @ slices)
        overlap = np.linalg.norm(bases[:, :1].conj().swapaxes(-1, -2) @ bases, axis=(-2, -1))
        dist = np.clip(d_s - overlap ** 2, 0.0, d_s)  # chordal distance^2 to user 0's span
        dist[:, 0] = 0.0  # user 0's image is not checked against its own span
        whiteners, whitener_errors = _each(herm_inv_sqrt, slices.conj().swapaxes(-1, -2) @ slices)
        self._pieces = {"inner": V, "patterns": patterns, "aligned": bases[:, 0],
                        "whiteners": whiteners}  # a pair's piece at its row
        errors = {}  # (name, row) -> exception; written last user first, so the first wins
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
        self._errors = {(name, *pairs[j]): exc for (name, j), exc in errors.items()}

    def take(self, name: str, pairs: list) -> np.ndarray:
        """The pieces ``name`` of ``pairs``, one per pair along a leading axis: the
        inner precoder (L*N_U, d_s), the users' patterns (L, N_U, d_s) or whiteners
        (L, d_s, d_s), (slice^H slice)^(-1/2) of each inner-precoder slice, or the
        aligned basis (N_B, d_s) at the receiver. :class:`ContractViolation` for a pair not
        formed at build; else the first pair in order whose piece failed raises it."""
        if not self._rows.keys() >= {*pairs}:
            raise ContractViolation(f"pairs {sorted({*pairs} - self._rows.keys())} were not formed")
        for p, r in pairs if self._errors else ():
            if (name, p, r) in self._errors:
                raise self._errors[name, p, r]
        return self._pieces[name][[self._rows[p, r] for p, r in pairs]]

    def station_table(self) -> np.ndarray:
        """Every column a cell matrix can hold, by base station, as (K, K (K-1) L + K - 1, d_s,
        N_B) transposed blocks: at [k], block j L + m is the image at k of user m of pair j's
        provider (``cell_pairs`` order) through pair j's patterns, and block K (K-1) L + p -
        (p > k) the aligned basis of pair (p, k); NaN for a pair whose piece failed."""
        L, K, N_B, d_s = self.cfg.L, self.cfg.K, self.cfg.N_B, self.cfg.d_s
        failed = {(p, r) for _, p, r in self._errors}
        good = [pr not in failed for pr in cell_pairs(K)]
        p, r = np.array(cell_pairs(K))[good].T
        images = np.full((K, K * (K - 1), L, d_s, N_B), np.nan, complex)  # [station, pair, m]
        aligned = np.full((K, K, d_s, N_B), np.nan, complex)  # [receiver, provider]
        X, B = (self.take(name, [*zip(p.tolist(), r.tolist())]) for name in ("patterns", "aligned"))
        images[:, good] = (self.ch.H[:, p].swapaxes(0, 1) @ X[:, :, None]).transpose(2, 0, 1, 4, 3)
        aligned[r, p] = B.swapaxes(-1, -2)
        return np.concatenate([images.reshape(K, -1, d_s, N_B),
                               aligned[~np.eye(K, dtype=bool)].reshape(K, K - 1, d_s, N_B)], axis=1)

    def inverse_gains(self) -> np.ndarray:
        """The eigenvalues of Z Z^H of every user, (D(K), K, L, d_s), of the strict assignments
        ``derangements(K)``, NaN in each row with an uncertified cell (every cell if they are
        not square): the P-free part of the centralized screen. Station by station, one Gram
        of its ``station_table`` columns; each cell matrix M_k's Gram is gathered from it by
        ``_gather_plan``, in chunks of SCREEN_CHUNK_BYTES, with one ``certified_factor`` C
        each. The rows Z of M_k^-1 at user (i, k)'s block span its decoders' space; the own
        blocks come last, so C_oo^-H of C's trailing block holds each user's Z up to a unitary
        on the right, one inverse per station. :class:`CapacityExceeded` when the gains, the
        candidates and the plan exceed SCREEN_TABLE_BYTES, before any of them forms."""
        K, L, N_B, d_s = self.cfg.K, self.cfg.L, self.cfg.N_B, self.cfg.d_s
        n, own, index = derangement_count(K), L * d_s, np.min_scalar_type(K * (K - 1) * L + K - 2)
        square = (L * (K - 1) + 1) * d_s == N_B  # else which directions the SVD picks is output
        size = n * K * (8 * own + 8 + square * (L * (K - 1) + 1) * index.itemsize)
        if size > SCREEN_TABLE_BYTES:
            raise CapacityExceeded(f"the screen of {n} candidates keeps {size} "
                                   f"bytes, over the {SCREEN_TABLE_BYTES}-byte guard")
        gains = np.full((n, K, L, d_s), np.nan)
        if not square:
            return gains
        plan = _gather_plan(K, L)
        table = self.station_table().reshape(K, -1, N_B)
        finite = np.isfinite(table).reshape(K, -1, d_s * N_B).all(-1)  # of each station block, once
        certified, chunk = np.zeros((n, K), bool), max(1, SCREEN_CHUNK_BYTES // (16 * N_B ** 2))
        for k in range(K):  # one station's Gram at a time, as [column, block] items of d_s entries
            gram = (table[k].conj() @ table[k].T).view(np.dtype((np.void, 16 * d_s)))
            blocks = plan[k].astype(np.intp)
            columns = (blocks[..., None] * d_s + np.arange(d_s)).reshape(n, -1)
            rows, cells, owns = columns * gram.shape[1], finite[k, blocks].all(-1), []
            for start in range(0, n, chunk):
                cut = slice(start, start + chunk)  # row c of a cell's Gram: item (c, b) per block b
                factor, ok = certified_factor(
                    np.take(gram, rows[cut, :, None] + blocks[cut, None]).view(complex), cells[cut])
                certified[cut, k] = ok
                if ok.any():  # a small copy per chunk: one station-long array faults pages
                    owns.append(factor[ok, -own:, -own:])
                del factor  # freed before the next chunk's Grams: two factors at once fault pages
            if owns:
                Z = np.linalg.inv(np.concatenate(owns).conj().swapaxes(-1, -2))
                gains[certified[:, k], k] = _gram_eigvals(Z.reshape(-1, L, d_s, own))
        gains[np.isnan(gains).any(axis=(1, 2, 3))] = np.nan
        return gains


def build_potentials(ch: ChannelRealization, cfg: SystemConfig, pairs) -> Potentials:
    """The ``Potentials`` of the (provider, receiver) pairs ``pairs``: the one place where
    pair pieces are formed. Matching and search read every ordered pair,
    ``cell_pairs(K)``; a failed piece raises at its read (``take``)."""
    return Potentials(ch, cfg, pairs)


def assignment_pairs(assignment) -> list:
    """The (provider, receiver) pair of each cell of a strict assignment, provider order."""
    return list(enumerate(np.argsort(assignment.providers).tolist()))


def build_transceivers(
    ch: ChannelRealization, cfg: SystemConfig, assignment, potentials: Potentials | None = None
) -> TransceiverSet:
    """Complete transceiver set for a strict assignment on one realization.

    Gathers the assignment's pair pieces from ``potentials``, or if None from one
    ``build_potentials`` of its pairs. Nothing depends on P: ``user_rate`` applies it.
    """
    if not assignment.is_strict(cfg.K):
        raise ContractViolation("transceiver construction needs a strict assignment")
    pairs = assignment_pairs(assignment)
    potentials = build_potentials(ch, cfg, pairs) if potentials is None else potentials
    if potentials.ch is not ch:
        raise ContractViolation("potentials were built on another channel draw")
    inner, patterns, aligned = (potentials.take(n, pairs) for n in ("inner", "patterns", "aligned"))
    blocks = aligned[list(assignment.providers)]
    return TransceiverSet(assignment, inner, patterns.swapaxes(0, 1), blocks,
                          potentials.take("whiteners", pairs).swapaxes(0, 1))


def _gram_eigvals(Z: np.ndarray) -> np.ndarray:
    """The eigenvalues of Z Z^H of each (d_s, n) slice of a stack; for d_s = 2 in closed
    form from its entries a, d and b: (a + d)/2 + sqrt((a - d)^2/4 + |b|^2), and the other
    as the determinant over it."""
    if Z.shape[-2] != 2:
        return psd_eigvals(Z @ Z.conj().swapaxes(-1, -2))
    a, d = np.moveaxis((Z.real ** 2 + Z.imag ** 2).sum(-1), -1, 0)
    b = (Z[..., 0, :] * Z[..., 1, :].conj()).sum(-1)
    b_sq = b.real ** 2 + b.imag ** 2
    top = (a + d) / 2 + np.sqrt(((a - d) / 2) ** 2 + b_sq)
    return np.stack([(a * d - b_sq) / top, top], axis=-1)


def user_rate(ch: ChannelRealization, tset: TransceiverSet, cfg) -> np.ndarray:
    """Achievable rate of every user in nats, as an (L, K) array; for a tuple of
    configs of one system, (configs, L, K).

    Forms the zero-forcing decoders U (``zf_decoder``) and uses the effective-channel
    form: the decoder output channel U^H H[i, k, k] times the user's inner-precoder
    slice, composed with the uniform-power outer scaling of the power-free whitener,
    all users in one stack. Numerically equal to evaluating the plain log-det rate on
    decoder, direct channel and full precoder. The power-free H_eff is formed once;
    only the outer scaling and what follows it are stacked over the configs.
    """
    L, K, N_U, d_s = tset.patterns.shape
    slices = tset.inner.reshape(K, L, N_U, d_s).swapaxes(0, 1)
    decoders = zf_decoder(ch, tset.assignment, tset.patterns, tset.blocks)
    H_eff = decoders.conj().swapaxes(-1, -2) @ direct_channels(ch) @ slices
    V_out = full_precoder(tset.whiteners, per_config(cfg, lambda c: c.P, 4), d_s)
    return rate_logdet(H_eff @ V_out, per_config(cfg, lambda c: 1.0 / c.sigma2, 3))


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
    decoders = zf_decoder(ch, tset.assignment, tset.patterns, tset.blocks)
    images = link_images(ch, decoders, full_precoder(tset.patterns, cfg.P, cfg.d_s))
    resid = np.linalg.norm(images, axis=(-2, -1))  # [i, k, m, l]: user (m, l) at user (i, k)
    i, k, m, l = np.ix_(range(cfg.L), range(cfg.K), range(cfg.L), range(cfg.K))
    s = svd(np.einsum("ikikab->ikab", images), full_matrices=False)[1]  # desired links
    return AlignmentReport(
        max_iui_residual=float(np.where((l == k) & (m != i), resid, 0.0).max()),
        max_ici_residual=float(np.where(l != k, resid, 0.0).max()),
        min_desired_sv=float(s[..., cfg.d_s - 1].min()),
        min_desired_ratio=float((s[..., cfg.d_s - 1] / s[..., 0]).min()),
    )
