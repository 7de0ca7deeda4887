"""Provider/receiver cell matching.

A strict assignment is a derangement: every cell simultaneously aligns its
interference toward exactly one other cell and absorbs exactly one other
cell's aligned interference. Three ways to pick one are implemented: a
one-sided trading-cycle matching on local preferences, a two-sided deferred
acceptance, and a centralized brute-force search over all derangements.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import gia
from .errors import CapacityExceeded, ContractViolation
from .linalg import projectors, psd_eigvals
from .system import ChannelRealization, SystemConfig, per_config

ENUMERATION_CAP = 10 ** 6  # most derangements centralized_search enumerates
COALITION_CAP = 8          # largest K whose one-sided coalitions is_stable searches
SCREEN_MARGIN = 1e-9       # screened values this near the best (relative) are confirmed exactly


@dataclass
class Assignment:
    """Map from each receiver cell to the cell providing it aligned interference.

    ``lone`` marks the single cell (if any) left unmatched by a weak
    assignment; it appears neither as a key nor as a value of provider_of.
    """

    provider_of: dict = field(default_factory=dict)
    lone: int | None = None

    def provider(self, k: int) -> int:
        return self.provider_of[k]

    def receivers(self) -> dict:
        return {p: r for r, p in self.provider_of.items()}

    def is_strict(self, K: int) -> bool:
        if self.lone is not None or len(self.provider_of) != K:
            return False
        providers = set(self.provider_of.values())
        return len(providers) == K and all(p != r for r, p in self.provider_of.items())


def fixed_cyclic(K: int) -> Assignment:
    """The conventional ring: each cell aligns toward its index successor."""
    return Assignment(provider_of={k: (k - 1) % K for k in range(K)})


@dataclass
class PreferenceProfile:
    """Ranked candidate lists per cell; a cell never lists itself.

    provider[k] ranks who cell k wants as its interference provider;
    receiver[k] ranks toward whom cell k wants to align.
    """

    provider: dict
    receiver: dict | None = None

    @property
    def K(self) -> int:
        return len(self.provider)

    def provider_rank(self, cell: int) -> dict:
        """Candidate -> position; the cell itself ranks strictly last."""
        ranks = {cand: pos for pos, cand in enumerate(self.provider[cell])}
        ranks[cell] = len(self.provider[cell])
        return ranks


def rank_by_utility(scores: dict) -> list:
    """Candidates in decreasing utility, ties broken by ascending index."""
    return [c for c, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))]


def _rank_cells(cfg, grams: np.ndarray):
    """Rankings and utilities of every cell from the (L, K(K-1), n, n) PSD stack
    of its users' terms, candidates in ``gia.cell_pairs`` order (k, candidate):
    each term is log2 det(I + G) from one eigenvalue call, and each utility
    sums its L terms in user order. For a tuple of configs the stack has a
    leading config axis, and the pairs come one per config in a list."""
    terms = np.sum(np.log1p(psd_eigvals(grams)), axis=-1) / math.log(2.0)
    K = (cfg if isinstance(cfg, SystemConfig) else cfg[0]).K

    def rank(cell_terms):
        scores = {k: {} for k in range(K)}
        for (k, cand), row in zip(gia.cell_pairs(K), cell_terms.T.tolist()):
            scores[k][cand] = sum(row)
        return {k: rank_by_utility(s) for k, s in scores.items()}, scores

    return rank(terms) if isinstance(cfg, SystemConfig) else [rank(t) for t in terms]


def _cell_direct_channels(ch: ChannelRealization, cfg: SystemConfig) -> np.ndarray:
    """The direct channels of cell k's users at each (k, candidate) pair, (L, K(K-1), N_B, N_U)."""
    return gia.direct_channels(ch)[:, [k for k, _ in gia.cell_pairs(cfg.K)]]


def provider_preferences(
    ch: ChannelRealization, cfg: SystemConfig, potentials: gia.Potentials
) -> tuple[dict, dict]:
    """Rank every cell's candidate providers by projected direct-channel capacity.

    Each candidate's aligned subspace is projected away from the direct
    channels; larger residual capacity means the candidate's interference
    costs cell k fewer useful dimensions.
    """
    perps = projectors(potentials.take("aligned", [(c, k) for k, c in gia.cell_pairs(cfg.K)]))[1]
    Hd = _cell_direct_channels(ch, cfg)
    return _rank_cells(cfg, Hd.conj().swapaxes(-1, -2) @ perps @ Hd)


def receiver_preferences(ch: ChannelRealization, cfg, potentials: gia.Potentials):
    """Rank every cell's candidate receivers of its alignment by own-cell rate
    proxy, at the signal-to-noise ratio P / sigma2. A tuple of configs of one
    system gives one (ranks, utilities) pair per config in a list, from one
    stacked evaluation of the same products."""
    dims = potentials.cfg
    patterns = potentials.take("patterns", gia.cell_pairs(dims.K)).swapaxes(0, 1)
    snr = per_config(cfg, lambda c: c.P / c.sigma2, patterns.ndim)
    V = gia.full_precoder(patterns, snr, dims.d_s)
    Hd = _cell_direct_channels(ch, dims)
    V_h = V.conj().swapaxes(-1, -2)
    return _rank_cells(cfg, V_h @ Hd.conj().swapaxes(-1, -2) @ Hd @ V)


def build_preferences(
    ch: ChannelRealization,
    cfg,
    potentials: gia.Potentials,
    two_sided: bool = False,
    provider_side: PreferenceProfile | None = None,
):
    """Preference profile of every cell on one realization.

    The provider side does not depend on the transmit power; a profile built
    earlier on the same realization may be passed as ``provider_side`` so
    that only the receiver side is computed. Two-sided, a tuple of configs of
    one system gives one profile per config in a list, their receiver sides
    from one stacked call.
    """
    provider = (provider_preferences(ch, potentials.cfg, potentials)[0] if provider_side is None
                else provider_side.provider)
    profile = lambda receiver: PreferenceProfile(provider, receiver)
    if not two_sided:
        return profile(None)
    sides = receiver_preferences(ch, cfg, potentials)
    return profile(sides[0]) if isinstance(cfg, SystemConfig) else [profile(r) for r, _ in sides]


def fca_match(prefs: PreferenceProfile) -> tuple[Assignment, int]:
    """Trading-cycle matching on the provider preference lists.

    Every unassigned cell points at its most preferred remaining provider
    (itself as the implicit last resort); all pointer cycles are resolved and
    removed, and the process repeats. A self-cycle leaves that cell lone; at
    most one can occur. Returns the weak assignment and the cycle count.
    """
    remaining = set(prefs.provider.keys())
    provider_of = {}
    lone = None
    n_cycles = 0
    while remaining:
        point = {
            c: next((p for p in prefs.provider[c] if p in remaining), c)
            for c in sorted(remaining)
        }
        state = {c: 0 for c in remaining}  # 0 unvisited, 1 on current walk, 2 done
        assigned = set()
        for start in sorted(remaining):
            if state[start]:
                continue
            path, node = [], start
            while state[node] == 0:
                state[node] = 1
                path.append(node)
                node = point[node]
            if state[node] == 1:  # walk closed a new cycle
                n_cycles += 1
                for c in path[path.index(node):]:
                    if point[c] == c:
                        lone = c
                    else:
                        provider_of[c] = point[c]
                    assigned.add(c)
            for c in path:
                state[c] = 2
        remaining -= assigned  # a functional graph always has a cycle: progress
    return Assignment(provider_of=provider_of, lone=lone), n_cycles


def breaking_step(weak: Assignment, prefs: PreferenceProfile) -> Assignment:
    """Insert the lone cell next to its favourite provider, extending that cycle.

    The lone cell takes its top-ranked provider p and inherits p's former
    receiver, leaving every other edge untouched. Already-strict input passes
    through unchanged.
    """
    if weak.lone is None:
        return weak
    lone = weak.lone
    p = prefs.provider[lone][0]
    displaced = next(r for r, pr in weak.provider_of.items() if pr == p)
    provider_of = dict(weak.provider_of)
    provider_of[lone] = p
    provider_of[displaced] = lone
    return Assignment(provider_of=provider_of, lone=None)


def gale_shapley(
    prefs: PreferenceProfile, proposer: str = "receivers"
) -> tuple[Assignment, int]:
    """Deferred acceptance between the receiver and provider roles of the cells.

    With proposer="receivers" each cell walks down its provider list making
    offers; each cell in the provider role keeps the offer it ranks best on
    its receiver list. A cell is unacceptable to itself on both sides, so at
    most one cell ends up unmatched. Returns the matching and the number of
    proposals made.
    """
    if prefs.receiver is None:
        raise ContractViolation("two-sided matching needs receiver preferences")
    if proposer == "receivers":
        propose_lists, accept_lists = prefs.provider, prefs.receiver
    elif proposer == "providers":
        propose_lists, accept_lists = prefs.receiver, prefs.provider
    else:
        raise ContractViolation(f"unknown proposer side {proposer!r}")

    accept_rank = {
        c: {cand: pos for pos, cand in enumerate(lst)} for c, lst in accept_lists.items()
    }
    next_choice = {c: 0 for c in propose_lists}
    held = {}     # acceptor -> proposer currently held
    free = sorted(propose_lists.keys())
    proposals = 0
    while free:
        a = free.pop(0)
        while next_choice[a] < len(propose_lists[a]):
            target = propose_lists[a][next_choice[a]]
            next_choice[a] += 1
            proposals += 1
            if target not in held:
                held[target] = a
                break
            rival = held[target]
            if accept_rank[target][a] < accept_rank[target][rival]:
                held[target] = a
                free.insert(0, rival)
                break
        # an exhausted list leaves the proposer unmatched

    if proposer == "receivers":
        provider_of = {r: p for p, r in held.items()}
    else:
        provider_of = dict(held)
    cells = set(propose_lists)
    unmatched_r = cells - set(provider_of)
    unmatched_p = cells - set(provider_of.values())
    if unmatched_r != unmatched_p or len(unmatched_r) > 1:
        raise ContractViolation(
            f"deferred acceptance ended inconsistently: receivers {unmatched_r} "
            f"vs providers {unmatched_p} unmatched"
        )
    lone = next(iter(unmatched_r)) if unmatched_r else None
    return Assignment(provider_of=provider_of, lone=lone), proposals


def enumerate_derangements(K: int):
    """All fixed-point-free permutations of range(K), lexicographic order."""
    if K < 2:
        raise ContractViolation("derangements need at least two elements")
    for perm in itertools.permutations(range(K)):
        if all(perm[i] != i for i in range(K)):
            yield perm


@functools.lru_cache(maxsize=None)
def _derangements(K: int) -> np.ndarray:
    """The (D(K), K) providers of ``enumerate_derangements(K)``, read-only."""
    providers = np.array(list(enumerate_derangements(K)))
    providers.flags.writeable = False
    return providers


def derangement_count(K: int) -> int:
    """D(K) via the inclusion-exclusion sum, computed in exact integers."""
    return sum((-1) ** j * math.factorial(K) // math.factorial(j) for j in range(K + 1))


def centralized_search(
    cfg: SystemConfig, potentials: gia.Potentials, user_rates, objective: str, sense: str
) -> tuple[Assignment, float]:
    """Brute-force over all strict assignments using exact per-user rates.

    ``gia.screen_candidates`` screens every candidate in one call. It raises and
    warns nothing, and a candidate it cannot certify is evaluated exactly first,
    in enumeration order, so warnings and errors come as from a plain loop.
    Certified candidates within SCREEN_MARGIN of the best screened value are
    evaluated exactly, and all are if one of those was screened off by over a
    quarter of the margin. Ties resolve to the lexicographically smallest
    assignment: the enumeration is lexicographic and the exact values are
    compared strictly. ``user_rates(assignment)`` gives a candidate's exact (L, K)
    user rates at ``cfg``, ``gia.user_rate`` of its ``gia.build_transceivers`` on
    ``potentials``; a caller that keeps the sets it builds and their rates reads
    the winner's without building or rating it again.
    """
    if objective not in ("sum_rate", "min_cell_rate"):
        raise ContractViolation(f"unknown objective {objective!r}")
    if sense not in ("best", "worst"):
        raise ContractViolation(f"unknown sense {sense!r}")
    if derangement_count(cfg.K) > ENUMERATION_CAP:
        raise CapacityExceeded(
            f"{derangement_count(cfg.K)} assignments exceed the enumeration cap {ENUMERATION_CAP}"
        )
    reduce = sum if objective == "sum_rate" else min
    providers = _derangements(cfg.K)
    candidate = lambda c: Assignment(dict(enumerate(providers[c].tolist())))
    exact = {}

    def confirm(c):  # exact user rates of the candidate's full transceiver set
        if c not in exact:
            exact[c] = reduce([sum(cell) for cell in user_rates(candidate(c)).T.tolist()])

    cell_rates = gia.screen_candidates(cfg, potentials, providers).sum(1)  # (D(K), K)
    certified = np.isfinite(cell_rates).all(axis=-1)
    for c in np.flatnonzero(~certified).tolist():
        confirm(c)
    ok = np.flatnonzero(certified)
    # each cell in turn, as the Python sum of a candidate's cell rates adds them
    screened = sum(cell_rates[ok].T) if objective == "sum_rate" else cell_rates[ok].min(-1)
    edge = (screened.max() if sense == "best" else screened.min()) if len(ok) else 0.0
    close = np.abs(screened - edge) <= SCREEN_MARGIN * abs(edge)
    near = ok[close].tolist()
    for c in near:
        confirm(c)
    if not all(abs(v - exact[c]) <= SCREEN_MARGIN / 4 * abs(exact[c])
               for c, v in zip(near, screened[close].tolist())):
        for c in range(len(providers)):
            confirm(c)
    best = best_value = None
    for c in sorted(exact):
        value = exact[c]
        if best_value is None or (value > best_value if sense == "best" else value < best_value):
            best, best_value = c, value
    return candidate(best), best_value


def is_stable(
    assignment: Assignment,
    prefs: PreferenceProfile,
    mode: str = "one_sided",
) -> bool:
    """Exhaustive stability oracle.

    one_sided: searches every coalition and every reallocation of the
    members' own alignments for a deviation that helps someone and hurts
    nobody. two_sided: searches for a provider/receiver pair preferring each
    other over their current partners.
    """
    K = prefs.K
    if mode == "one_sided":
        if K > COALITION_CAP:
            raise CapacityExceeded(f"coalition search is exhaustive only up to K={COALITION_CAP}")
        ranks = {c: prefs.provider_rank(c) for c in range(K)}
        holding = {c: assignment.provider_of.get(c, c) for c in range(K)}
        cells = list(range(K))
        for size in range(2, K + 1):
            for S in itertools.combinations(cells, size):
                current = [ranks[c][holding[c]] for c in S]
                for perm in itertools.permutations(S):
                    better = False
                    worse = False
                    for c, new_p, cur in zip(S, perm, current):
                        r = ranks[c][new_p]
                        if r < cur:
                            better = True
                        elif r > cur:
                            worse = True
                            break
                    if better and not worse:
                        return False
        return True
    if mode == "two_sided":
        if prefs.receiver is None:
            raise ContractViolation("two-sided stability needs receiver preferences")
        p_rank = {c: prefs.provider_rank(c) for c in range(K)}
        r_rank = {
            c: {cand: pos for pos, cand in enumerate(prefs.receiver[c])} for c in range(K)
        }
        for c in range(K):
            r_rank[c][c] = len(prefs.receiver[c])
        receiver_of = assignment.receivers()
        for r in range(K):
            for p in range(K):
                if p == r:
                    continue
                cur_p = assignment.provider_of.get(r)
                cur_r = receiver_of.get(p)
                r_prefers = cur_p is None or p_rank[r][p] < p_rank[r][cur_p]
                p_prefers = cur_r is None or r_rank[p][r] < r_rank[p][cur_r]
                if r_prefers and p_prefers:
                    return False
        return True
    raise ContractViolation(f"unknown stability mode {mode!r}")
