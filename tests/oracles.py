"""Reference implementations and helpers that only the tests use.

The package keeps only what the simulator runs; what the tests compare
against, or use to drive the package one piece at a time, lives here.
"""

import copy
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from giasim import assignment as asg
from giasim import feedback as fb
from giasim import gia, harness
from giasim.assignment import derangement_count
from giasim.errors import (
    AlignmentFailure,
    ContractViolation,
    DegenerateChannel,
    InfeasibleConfig,
    RankDeficient,
)
from giasim.feedback import Codebook, omega_matrix
from giasim.gia import ALIGN_TOL, full_precoder, rate_logdet, select_null_basis
from giasim.linalg import (
    complex_gaussian,
    herm_inv_sqrt,
    matrix_rank,
    complement_projector,
    orthonormalize,
    psd_eigvals,
    svd,
)
from giasim.system import SystemConfig, draw_channels, require_feasible, trial_rng


def left_null_space(M):
    """Semi-unitary basis N of the left null space of M, i.e. N^H M = 0.

    For an m x n matrix of rank r this returns the m x (m - r) basis of the
    trailing left singular vectors; a (..., m, n) stack of one rank r gives the
    (..., m, m - r) stack from one SVD call, and :class:`ContractViolation` if
    its ranks differ or if a slice has full row rank (no left null space).
    """
    U, s, _ = svd(M, full_matrices=True)
    ranks = matrix_rank(s)
    if ranks.max() == U.shape[-1]:
        raise ContractViolation(f"matrix of shape {np.shape(M)[-2:]} has full row rank")
    if ranks.min() != ranks.max():
        raise ContractViolation(f"stack slices differ in rank ({ranks.min()} to {ranks.max()})")
    return U[..., int(ranks.max()):]


def projector(X):
    """The orthogonal projector P = X (X^H X)^-1 X^H onto span(X), formed as
    ``linalg.complement_projector`` forms it before it returns I - P."""
    X = np.asarray(X, dtype=complex)
    X_h = X.conj().swapaxes(-1, -2)
    return X @ np.linalg.solve(X_h @ X, X_h)


def omega(H, pattern, V_perp):
    """The leakage curvature Omega = V_perp^H H^H P_perp H V_perp of
    ``feedback.omega_matrix``, whose largest eigenvalue that function returns."""
    core = H @ V_perp
    return core.conj().swapaxes(-1, -2) @ complement_projector(H @ pattern) @ core


def chordal_distance_sq(V1, V2):
    """Squared chordal distance N - Tr(V1 V1^H V2 V2^H) between two subspaces,
    from the 2-D ``np.linalg.norm`` that ``feedback.model_quantize`` reproduces."""
    if V1.shape != V2.shape:
        raise ContractViolation(f"subspace shape mismatch: {V1.shape} vs {V2.shape}")
    N = V1.shape[1]
    overlap = np.linalg.norm(V1.conj().T @ V2) ** 2
    return float(min(max(N - overlap, 0.0), N))


def per_user(cfg, fn):
    """fn(i, k) of every user as one (L, K, ...) array, called cell by cell."""
    out = [[None] * cfg.K for _ in range(cfg.L)]
    for k in range(cfg.K):
        for i in range(cfg.L):
            out[i][k] = fn(i, k)
    return np.array(out)


def user_index(cfg, i, k):
    """Flat index of user (i, k) in (cell, user) order."""
    return k * cfg.L + i


def snr_db(cfg):
    return 10.0 * math.log10(cfg.P / cfg.sigma2)


@dataclass
class TrialRecord:
    """What the tests read of one cell of one trial, rates in nats."""

    user_rates: dict
    sum_rate: float
    min_cell_rate: float
    rinr_per_cell: dict | None = None
    bound_per_cell: dict | None = None
    bits: np.ndarray | None = None
    assignment: object = None
    resamples: int = 0


def record_of(rates, cfg, **fields):
    """The record of the (L, K) user rates ``rates``; cell and sum rates are
    Python sums over floats in (cell, user) order."""
    rows = rates.tolist()
    user_rates = {(i, k): rows[i][k] for k in range(cfg.K) for i in range(cfg.L)}
    cell_rates = {k: sum(user_rates[(i, k)] for i in range(cfg.L)) for k in range(cfg.K)}
    return TrialRecord(user_rates, sum(user_rates.values()), min(cell_rates.values()), **fields)


def feedback_bits(build, cfg, scheme, tset):
    """The per-user bit split ``harness.TrialBuild.feedback`` quantizes at, users
    in flat (cell, user) order."""
    if scheme.bit_alloc == "eba":
        return fb.eba_allocate(scheme.bits_budget, cfg.user_count)
    lam = build.leakage(tset)[0].T.ravel()
    return fb.dba_allocate(lam, scheme.bits_budget, cfg.d_s, cfg.N_U)


def sweep_cells(spec, cfg):
    """The (config, scheme) cells of ``spec`` that ``harness.run_sweep`` builds each
    trial for, grid-major."""
    return [(cfg.at_snr_db(value) if spec.variable == "snr_db" else cfg,
             replace(scheme, bits_budget=int(value)) if spec.variable == "B" else scheme)
            for value in spec.grid for scheme in spec.schemes]


def run_trial(cfg, scheme, trial_index, seed=0):
    """One fully seeded trial on a fresh build, rates in nats; a degenerate
    draw is resampled once, as in a sweep."""
    require_feasible(cfg)
    return run_cell([], cfg, scheme, trial_index, seed)


def run_cell(builds, cfg, scheme, trial_index, seed, cells=None):
    """``harness._run_cell`` on the trial's ``builds``, made for the (config, scheme)
    ``cells`` (this cell alone if None), as a ``TrialRecord`` read off the build
    the cell used."""
    cells = [(cfg, scheme)] if cells is None else cells
    resamples = harness._run_cell(builds, cfg, scheme, trial_index, seed, cells)[-1]
    build = builds[resamples]
    if scheme.assignment in ("rb", "fdma"):
        baseline = harness.baseline_rb if scheme.assignment == "rb" else harness.baseline_fdma
        return record_of(baseline(build, cfg), cfg, resamples=resamples)
    chosen = build.assignment(cfg, scheme)
    tset = build.transceivers(chosen)
    if scheme.bit_alloc == "none":
        return record_of(build.user_rates(cfg, tset), cfg, assignment=chosen, resamples=resamples)
    rates, rinr, bound = build.feedback_rates(cfg, scheme, tset)
    return record_of(rates, cfg, assignment=chosen, resamples=resamples,
                     rinr_per_cell=dict(enumerate(rinr.tolist())),
                     bound_per_cell=dict(enumerate(bound.tolist())),
                     bits=feedback_bits(build, cfg, scheme, tset))


def summary(record):
    """The five numbers ``harness._evaluate_trial`` gives of a cell, from its record:
    the interference and its bound summed over the cluster, NaN without feedback."""
    rinr = bound = math.nan
    if record.rinr_per_cell is not None:
        rinr = sum(record.rinr_per_cell.values())
        bound = sum(record.bound_per_cell.values())
    return record.sum_rate, record.min_cell_rate, rinr, bound, record.resamples


def failed_conditions(cfg):
    """The sides, of "users" and "stations", whose feasibility inequality
    ``system.require_feasible`` names as failed for ``cfg``: empty if it accepts."""
    try:
        require_feasible(cfg)
    except InfeasibleConfig as exc:
        return {side for side in ("users", "stations") if f"on {side}: " in str(exc)}
    return set()


def feasibility_limits(cfg):
    """The limits the two feasibility inequalities imply for ``cfg``: whether both
    are tight (minimum antennas), the largest d_s, the smallest N_U at minimal N_B,
    the most users per cell (None when N_B <= N_U) and the most cells."""
    K, L, N_B, N_U, d_s = cfg.K, cfg.L, cfg.N_B, cfg.N_U, cfg.d_s
    min_nu = -(-((L - 1) * N_B + d_s) // L)  # ceil over integers
    max_users = None  # the first constraint is vacuous when users match BS antennas
    if N_B > N_U:
        max_users = min((N_B - d_s) // (N_B - N_U), (N_B - d_s) // ((K - 1) * d_s))
    return {
        "worst_case": N_B == ((K - 1) * L + 1) * d_s and N_U == min_nu,
        "max_streams": min(L * N_U - (L - 1) * N_B, N_B // ((K - 1) * L + 1)),
        "min_user_antennas": ((L - 1) * (K - 1) + 1) * d_s,
        "max_users_per_cell": max_users,
        "max_cells": (N_B - d_s) // (L * d_s) + 1,
    }


def draw_with_path_loss(cfg, rng):
    """``system.draw_channels(cfg, rng)`` and its (L, K, K) path loss eta, replayed
    from a copy of the stream: the unit-variance channels Hbar, then eta, uniform
    on [0, 1) with 1 on direct links. Asserts H == sqrt(eta) Hbar exactly."""
    replay = copy.deepcopy(rng)
    ch = draw_channels(cfg, rng)
    Hbar = complex_gaussian(replay, (cfg.L, cfg.K, cfg.K, cfg.N_B, cfg.N_U))
    eta = replay.uniform(0.0, 1.0, size=(cfg.L, cfg.K, cfg.K))
    eta[:, range(cfg.K), range(cfg.K)] = 1.0
    assert np.array_equal(ch.H, np.sqrt(eta)[..., None, None] * Hbar)
    return ch, eta


def _mean_stderr(values):
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def aggregate_metrics(results):
    """The CSV columns ``r_sum`` to ``resamples`` of one cell from its trial
    results, rates in nats: the per-cell aggregation that ``harness._aggregate``
    stacks over every cell of a sweep."""
    if not results:
        raise ContractViolation("cannot aggregate zero trials")
    r_sum, se_sum = _mean_stderr([r.sum_rate for r in results])
    r_min, se_min = _mean_stderr([r.min_cell_rate for r in results])
    rinr_db = bound_db = None
    if all(r.rinr_per_cell is not None for r in results):
        mean_rinr = float(np.mean([sum(r.rinr_per_cell.values()) for r in results]))
        rinr_db = 10.0 * math.log10(mean_rinr) if mean_rinr > 0 else -math.inf
        mean_bound = float(np.mean([sum(r.bound_per_cell.values()) for r in results]))
        bound_db = 10.0 * math.log10(mean_bound) if mean_bound > 0 else -math.inf
    return {
        "r_sum": r_sum,
        "r_sum_stderr": se_sum,
        "r_min": r_min,
        "r_min_stderr": se_min,
        "rinr_db": rinr_db,
        "bound_db": bound_db,
        "trials": len(results),
        "resamples": sum(r.resamples for r in results),
    }


def stack_alignment_matrix(ch, provider, receiver):
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


def inner_precoder(A, d_s):
    """d_s orthonormal null-space directions of one stacked alignment system:
    the right singular vectors of the d_s smallest singular values."""
    n = A.shape[1]
    if A.shape[0] == 0:
        return np.eye(n, dtype=complex)[:, :d_s]
    _, s, Vh = svd(A, full_matrices=True)
    null_dim = n - matrix_rank(s)
    if null_dim < d_s:
        raise InfeasibleConfig(
            f"alignment system null space has dimension {null_dim} < d_s={d_s}"
        )
    return Vh[n - d_s:, :].conj().T


def user_pattern(V_in, i, n_user_antennas):
    """Semi-unitary pattern of user i: orthonormalized slice of the joint precoder."""
    block = V_in[i * n_user_antennas:(i + 1) * n_user_antennas, :]
    try:
        return orthonormalize(block)
    except RankDeficient as exc:
        raise DegenerateChannel(f"user {i} precoder slice is rank deficient") from exc


def aligned_interference_basis(ch, provider, receiver, V_in):
    """Orthonormal basis of the common interference span at the receiver; raises
    AlignmentFailure when a provider-cell user lands outside it."""
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


def pair_pieces(ch, cfg, p, r):
    """Pair (p, r)'s inner precoder, patterns, aligned basis and whiteners, one
    small call per user: the loop ``gia.Potentials`` forms in stacked calls."""
    V = inner_precoder(stack_alignment_matrix(ch, p, r), cfg.d_s)
    patterns = np.array([user_pattern(V, i, cfg.N_U) for i in range(cfg.L)])
    whiteners = np.array([herm_inv_sqrt(s.conj().T @ s) for s in np.split(V, cfg.L)])
    return {"inner": V, "patterns": patterns,
            "aligned": aligned_interference_basis(ch, p, r, V), "whiteners": whiteners}


def decoders(ch, tset):
    """The ideal zero-forcing decoders of a transceiver set on the draw ``ch`` it was
    built on, (L, K, N_B, d_s), as ``gia.user_rate`` forms them: once per set."""
    return gia.zf_decoder(ch, tset.assignment, tset.patterns, tset.blocks)


def user_rate(ch, tset, decoders, i, k, cfg):
    """Rate of user (i, k) in nats, user by user, on the set's ``decoders``: the loop
    ``gia.user_rate`` stacks, with the same products in the same association."""
    U = decoders[(i, k)]
    slice_ik = tset.inner[k][i * cfg.N_U:(i + 1) * cfg.N_U, :]
    H_eff = U.conj().T @ ch.H[i, k, k] @ slice_ik
    V_out = math.sqrt(cfg.P / cfg.d_s) * tset.whiteners[(i, k)]
    return rate_logdet(H_eff @ V_out, 1.0 / cfg.sigma2)


def zf_decoder(ch, assignment, patterns, i, k, block, d_s):
    """User (i, k)'s zero-forcing decoder from its own nulling stack: its cell's
    other users, then every cell but k and k's provider user by user, each image
    ``H[m, l, k] @ patterns[m, l]`` formed alone, then ``block``, the span
    through which k's provider arrives. The user-by-user form of ``gia.zf_decoder``."""
    L, K = patterns.shape[:2]
    cells = [k] + [l for l in range(K) if l not in (k, assignment.providers[k])]
    images = [ch.H[m, l, k] @ patterns[m, l] for l in cells for m in range(L) if (m, l) != (i, k)]
    return select_null_basis(np.concatenate(images + [block], axis=1), d_s)


def centralized_search(ch, cfg, objective="sum_rate", sense="best", potentials=None):
    """``assignment.centralized_search`` on ``potentials`` (fresh ones if None) with
    the plain screen and confirm: ``Potentials.inverse_gains`` formed at the call, and
    each candidate it confirms gets its own ``gia.build_transceivers`` and
    ``gia.user_rate``, nothing kept between them."""
    if potentials is None:
        potentials = gia.build_potentials(ch, cfg, gia.cell_pairs(cfg.K))
    return asg.centralized_search(
        cfg, potentials.inverse_gains,
        lambda a: gia.user_rate(ch, gia.build_transceivers(ch, cfg, a, potentials), cfg),
        objective, sense)


def throughput(images, i, k, cfg):
    """Rate of user (i, k) in nats with residual interference as noise, user by
    user: C sums the other transmitters' covariances in cell-major order."""
    X = images[i, k]
    cov = (cfg.P / (cfg.d_s * cfg.sigma2)) * (X @ X.conj().swapaxes(-1, -2))
    C = sum(cov[j, l] for l in range(cfg.K) for j in range(cfg.L) if (j, l) != (i, k))
    A = cov[i, k]
    eye = np.eye(cfg.d_s)
    full = float(np.sum(np.log(psd_eigvals(eye + C + A))))
    return full - float(np.sum(np.log(psd_eigvals(eye + C))))


def rb_images(cfg, seed, trial_index):
    """The power-free images of the rb baseline on the first draw of trial
    ``trial_index``, user by user: each pattern one ``complex_gaussian`` call on the
    stream after the channel draw, in flat (cell, user) order, orthonormalized alone,
    through its own matched-filter decoder."""
    rng = trial_rng(seed, trial_index)
    ch = draw_channels(cfg, rng)
    patterns = np.empty((cfg.L, cfg.K, cfg.N_U, cfg.d_s), complex)
    for k in range(cfg.K):
        for i in range(cfg.L):
            patterns[i, k] = orthonormalize(complex_gaussian(rng, (cfg.N_U, cfg.d_s)))
    decoders = per_user(cfg, lambda i, k: orthonormalize(ch.H[i, k, k] @ patterns[i, k]))
    return gia.link_images(ch, decoders, patterns)


def rank_by_utility(scores):
    """Candidates of a {candidate: utility} dict in decreasing utility, ties broken
    by ascending index."""
    return [c for c, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))]


def _logdet2_eye_plus(psd):
    return float(np.sum(np.log1p(psd_eigvals(psd)))) / math.log(2.0)


def provider_preferences(ch, cfg, k, potentials):
    """Cell k's ranked candidate providers and their utilities, candidate by
    candidate and user by user."""
    scores = {}
    for cand in range(cfg.K):
        if cand == k:
            continue
        P_perp = complement_projector(potentials.take("aligned", [(cand, k)])[0])
        u = 0.0
        for i in range(cfg.L):
            Hd = ch.H[i, k, k]
            u += _logdet2_eye_plus(Hd.conj().T @ P_perp @ Hd)
        scores[cand] = u
    return rank_by_utility(scores), scores


def receiver_preferences(ch, cfg, k, potentials):
    """Cell k's ranked candidate receivers and their utilities at P / sigma2,
    candidate by candidate and user by user."""
    scores = {}
    for cand in range(cfg.K):
        if cand == k:
            continue
        patterns = potentials.take("patterns", [(k, cand)])[0]
        u = 0.0
        for i in range(cfg.L):
            V = full_precoder(patterns[i], cfg.P / cfg.sigma2, cfg.d_s)
            Hd = ch.H[i, k, k]
            u += _logdet2_eye_plus(V.conj().T @ Hd.conj().T @ Hd @ V)
        scores[cand] = u
    return rank_by_utility(scores), scores


def feasible_configs(seed):
    """Three draws for every (L, d_s) in {1, 2, 3} x {1, 2}: the first with
    tight antenna counts, the others with up to two spare antennas on each side."""
    rng = np.random.default_rng(seed)
    out = []
    for L in (1, 2, 3):
        for d_s in (1, 2):
            for slack in (False, True, True):
                K = int(rng.integers(3, 5))
                N_B = ((K - 1) * L + 1) * d_s + (int(rng.integers(0, 3)) if slack else 0)
                N_U = -(-((L - 1) * N_B + d_s) // L) + (int(rng.integers(0, 3)) if slack else 0)
                out.append(SystemConfig(K=K, L=L, N_B=N_B, N_U=N_U, d_s=d_s).at_snr_db(25.0))
    return out


def effective_link_gains(ch, tset, decoders, i, k):
    """Eigenvalues of (U^H H pattern)(...)^H, U user (i, k)'s of the set's ``decoders``:
    rate at power P is sum(log1p(P/(d_s sigma2) * gains))."""
    M0 = decoders[(i, k)].conj().T @ ch.H[i, k, k] @ tset.patterns[(i, k)]
    return psd_eigvals(M0 @ M0.conj().T)


def leakage(ch, tset, cfg):
    """Largest leakage eigenvalue of every user at its receiver, (L, K), as
    the harness computes it for the bit split and the RINR bound."""
    receiver_of = {p: r for r, p in enumerate(tset.assignment.providers)}
    return per_user(cfg, lambda i, k: omega_matrix(
        ch.H[i, k, receiver_of[k]], tset.patterns[i, k], left_null_space(tset.patterns[i, k])))


def allocation_objective(lambda1, bits, d_s, N_U):
    """The bound-shaped objective the bit split minimizes."""
    m = d_s * (N_U - d_s)
    return float(np.sum(np.asarray(lambda1) * np.power(2.0, -np.asarray(bits) / m)))


def strict_count_formula(K):
    """The closed-form strict-assignment count as the paper states it: D(K) - 1,
    one below the true derangement count."""
    if K < 3:
        raise ContractViolation("the closed-form count is stated for K >= 3")
    return derangement_count(K) - 1


def assignment_utility(assignment, utility):
    """Sum of the provider-side utilities ``utility[receiver][provider]`` of an
    assignment; a lone cell, its own provider, contributes its self utility."""
    return sum(utility[r].get(p, 0.0) if r == p else utility[r][p]
               for r, p in enumerate(assignment.providers))


def validate_assignment(assignment):
    """Raise ContractViolation unless the (possibly weak) assignment is a
    valid partial matching: injective, and at most one cell, the lone one, its
    own provider."""
    providers = assignment.providers
    fixed = [k for k, p in enumerate(providers) if p == k]
    if len(fixed) > 1:
        raise ContractViolation(f"cells {fixed} assigned to themselves")
    if sorted(providers) != list(range(len(providers))):
        raise ContractViolation("provider map is not injective")
    if assignment.lone != (fixed[0] if fixed else None):
        raise ContractViolation("lone cell participates in the matching")


def assignment_cycles(assignment):
    """Provider cycles of the matched cells, each starting from its smallest member."""
    seen = {assignment.lone}
    out = []
    for start in range(len(assignment.providers)):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        node = assignment.providers[start]
        while node != start:
            cyc.append(node)
            seen.add(node)
            node = assignment.providers[node]
        out.append(cyc)
    return out


# The assignment algorithms in the dict form the package once used: a
# {receiver: provider} map of the matched cells and the lone cell apart.

def dict_profile(prefs):
    """A ``PreferenceProfile`` in the dict form: {cell: ranking} on each side."""
    return asg.PreferenceProfile(*(None if side is None else dict(enumerate(side))
                                   for side in (prefs.provider, prefs.receiver)))


def dict_is_strict(provider_of, lone, K):
    """A strict assignment in dict form: K matched cells, a derangement."""
    if lone is not None or len(provider_of) != K:
        return False
    providers = set(provider_of.values())
    return len(providers) == K and all(p != r for r, p in provider_of.items())


def dict_fca_match(prefs):
    """``assignment.fca_match`` in dict form: (provider_of, lone, cycle count)."""
    remaining = set(prefs.provider.keys())
    provider_of, lone, n_cycles = {}, None, 0
    while remaining:
        point = {c: next((p for p in prefs.provider[c] if p in remaining), c)
                 for c in sorted(remaining)}
        state = {c: 0 for c in remaining}
        assigned = set()
        for start in sorted(remaining):
            if state[start]:
                continue
            path, node = [], start
            while state[node] == 0:
                state[node] = 1
                path.append(node)
                node = point[node]
            if state[node] == 1:
                n_cycles += 1
                for c in path[path.index(node):]:
                    if point[c] == c:
                        lone = c
                    else:
                        provider_of[c] = point[c]
                    assigned.add(c)
            for c in path:
                state[c] = 2
        remaining -= assigned
    return provider_of, lone, n_cycles


def dict_breaking_step(provider_of, lone, prefs):
    """``assignment.breaking_step`` in dict form: the strict provider_of."""
    if lone is None:
        return provider_of
    p = prefs.provider[lone][0]
    displaced = next(r for r, pr in provider_of.items() if pr == p)
    return {**provider_of, lone: p, displaced: lone}


def dict_gale_shapley(prefs, proposer):
    """``assignment.gale_shapley`` in dict form: (provider_of, lone, proposals)."""
    propose_lists, accept_lists = ((prefs.provider, prefs.receiver) if proposer == "receivers"
                                   else (prefs.receiver, prefs.provider))
    accept_rank = {c: {cand: pos for pos, cand in enumerate(lst)}
                   for c, lst in accept_lists.items()}
    next_choice = {c: 0 for c in propose_lists}
    held, free, proposals = {}, sorted(propose_lists), 0
    while free:
        a = free.pop(0)
        while next_choice[a] < len(propose_lists[a]):
            target = propose_lists[a][next_choice[a]]
            next_choice[a] += 1
            proposals += 1
            if target not in held:
                held[target] = a
                break
            if accept_rank[target][a] < accept_rank[target][held[target]]:
                free.insert(0, held[target])
                held[target] = a
                break
    provider_of = {r: p for p, r in held.items()} if proposer == "receivers" else dict(held)
    unmatched = set(propose_lists) - set(provider_of)
    return provider_of, next(iter(unmatched)) if unmatched else None, proposals


def is_semi_unitary(V, tol=1e-10):
    V = np.asarray(V)
    gram = V.conj().T @ V
    return bool(np.linalg.norm(gram - np.eye(V.shape[1])) <= tol * max(1.0, V.shape[1]))


def read_codebook(path):
    """Read a ``feedback.dump_codebook`` file: int32 header (M, N, B), then
    the codewords as little-endian complex128."""
    data = Path(path).read_bytes()
    M, N, B = struct.unpack("<3i", data[:12])
    return codebook_of(np.frombuffer(data[12:], dtype="<c16").reshape(2 ** B, M, N))


def codebook_of(words):
    """The ``Codebook`` of the (2^B, M, N) codewords ``words``."""
    _, M, N = words.shape
    words_h = np.ascontiguousarray(words.astype(complex).conj().swapaxes(-1, -2))
    return Codebook(M=M, N=N, B=words.shape[0].bit_length() - 1, words_h=words_h)


def dba_active_count(lambda1, budget, d_s, N_U):
    """Size of the active set ``feedback.dba_allocate`` water-fills: the first
    count whose bracket holds budget / (d_s (N_U - d_s))."""
    a = np.sort(np.log2(np.asarray(lambda1, dtype=float)))[::-1]
    target = budget / (d_s * (N_U - d_s))
    for cand in range(1, a.size + 1):
        head = a[:cand].sum()
        upper = head - cand * a[cand] if cand < a.size else math.inf
        if head - cand * a[cand - 1] <= target <= upper:
            return cand
    return a.size


def search_codewords(V, codewords):
    """The explicit search of ``feedback.quantize`` on the (2^B, M, N)
    codewords: closest index, its codeword and the squared chordal distance."""
    N = codewords.shape[2]
    inner = np.einsum("nmk,ml->nkl", codewords.conj(), V)
    dist = N - np.sum(np.abs(inner) ** 2, axis=(1, 2))
    idx = int(np.argmin(dist))
    return idx, codewords[idx], float(min(max(dist[idx], 0.0), N))


def search_words_h(V, cb):
    """``feedback.quantize`` without its screen: the ``einsum`` search over every
    word of the book's search layout."""
    inner = np.einsum("nkm,ml->nkl", cb.words_h, V)
    dist = cb.N - np.sum(np.abs(inner) ** 2, axis=(1, 2))
    idx = int(np.argmin(dist))
    return idx, cb.words_h[idx].conj().T, float(min(max(dist[idx], 0.0), cb.N))


def sample_min_distortion(M, N, B, rng):
    """One draw of the minimum squared chordal distance a 2^B random codebook
    achieves: ``feedback.min_distortion`` at a fresh exponential draw."""
    T = N * (M - N)
    C = fb._small_ball_constant(M, N)
    E = rng.exponential()
    u = -math.expm1(-E * 2.0 ** (-B))  # 1 - (1-q)^(2^-B) for q = 1 - e^-E
    return min((u / C) ** (1.0 / T), float(N))


def bisection_walk(sig, dist_sq):
    """``feedback._geodesic_time`` without its anchors: every midpoint's spread
    is evaluated, until the midpoint rounds onto an end or 80 steps pass."""
    sig_list = sig.tolist()

    def spread(t):
        if sig.size >= 8:
            return float(np.sum(np.sin(sig * t) ** 2))
        acc = 0.0
        for s in sig_list:
            x = math.sin(s * t)
            acc += x * x
        return acc

    lo, hi = 0.0, math.pi / 2.0 / float(sig[0])
    if spread(hi) <= dist_sq:
        return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if spread(mid) < dist_sq:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def subspace_at_distance(V, dist_sq, rng):
    """Semi-unitary matrix at exactly the given squared chordal distance from V,
    reached along a random geodesic drawn from ``rng``: one user's form of
    ``feedback.geodesic_points``, with its own null space, SVD and bisection."""
    M, N = V.shape
    if M < 2 * N:
        raise ContractViolation("geodesic synthesis needs M >= 2N")
    if not 0.0 <= dist_sq <= N:
        raise ContractViolation(f"squared chordal distance {dist_sq} outside [0, {N}]")
    if dist_sq == 0.0:
        return V.copy()
    V_perp = left_null_space(V)
    G = complex_gaussian(rng, (M - N, N))
    Sg, sig, Rgh = np.linalg.svd(G, full_matrices=False)
    sig = sig / np.linalg.norm(sig)
    t = bisection_walk(sig, dist_sq)
    theta = sig * t
    Rg = Rgh.conj().T
    return (
        V @ Rg @ np.diag(np.cos(theta)) @ Rg.conj().T
        + V_perp @ Sg @ np.diag(np.sin(theta)) @ Rg.conj().T
    )


def model_quantize(V, B, rng):
    """One user's emulated quantization at B bits from its own stream ``rng``
    (E, then G): the per-user form of ``feedback.model_quantize``."""
    d = sample_min_distortion(V.shape[0], V.shape[1], B, rng)
    V_hat = subspace_at_distance(V, d, rng)
    return V_hat, chordal_distance_sq(V, V_hat)


def frame_of(patterns, rngs):
    """``feedback.GeodesicFrame`` of the (n, M, N) patterns, each with its own
    generator in ``rngs``."""
    return fb.GeodesicFrame(patterns, np.array([left_null_space(V) for V in patterns]), rngs)


def quantize_patterns(cfg, scheme, tset, trial_index, bits):
    """``harness.TrialBuild.quantized`` user by user in (cell, user) order:
    explicit search on the codewords up to the limit, else the per-user
    emulation from the stream [codebook_seed, 211, trial, user]."""
    q = np.empty_like(tset.patterns)
    dist = np.empty(tset.patterns.shape[:2])
    for k in range(cfg.K):
        for i in range(cfg.L):
            user = user_index(cfg, i, k)
            V = tset.patterns[i, k]
            if bits[user] <= harness.EXPLICIT_BIT_LIMIT:
                cb = harness._cached_codebook(
                    cfg.N_U, cfg.d_s, bits[user], user, scheme.codebook_seed)
                _, q[i, k], dist[i, k] = search_codewords(V, cb.codewords)
            else:
                rng = np.random.default_rng([scheme.codebook_seed, 211, trial_index, user])
                q[i, k], dist[i, k] = model_quantize(V, bits[user], rng)
    return q, dist


def subspace_at_distance_80_steps(V, dist_sq, rng):
    """``subspace_at_distance`` as a fixed 80-step bisection with the spread
    evaluated in numpy; the package stops as soon as the interval cannot
    shrink, which must give the same bits."""
    M, N = V.shape
    if M < 2 * N:
        raise ContractViolation("geodesic synthesis needs M >= 2N")
    if not 0.0 <= dist_sq <= N:
        raise ContractViolation(f"squared chordal distance {dist_sq} outside [0, {N}]")
    if dist_sq == 0.0:
        return V.copy()
    V_perp = left_null_space(V)
    G = complex_gaussian(rng, (M - N, N))
    Sg, sig, Rgh = np.linalg.svd(G, full_matrices=False)
    sig = sig / np.linalg.norm(sig)

    def spread(t):
        return float(np.sum(np.sin(sig * t) ** 2))

    lo, hi = 0.0, math.pi / 2.0 / sig[0]
    if spread(hi) <= dist_sq:
        t = hi
    else:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if spread(mid) < dist_sq:
                lo = mid
            else:
                hi = mid
        t = 0.5 * (lo + hi)
    theta = sig * t
    Rg = Rgh.conj().T
    return (
        V @ Rg @ np.diag(np.cos(theta)) @ Rg.conj().T
        + V_perp @ Sg @ np.diag(np.sin(theta)) @ Rg.conj().T
    )
