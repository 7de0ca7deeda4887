"""Provider/receiver cell matching.

A strict assignment is a derangement: every cell simultaneously aligns its
interference toward exactly one other cell and absorbs exactly one other
cell's aligned interference. Three ways to pick one are implemented: a
one-sided trading-cycle matching on local preferences, a two-sided deferred
acceptance, and a centralized brute-force search over all derangements.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import gia
from .errors import CapacityExceeded, ContractViolation
from .linalg import projectors, psd_eigvals
from .system import ChannelRealization, SystemConfig

ENUMERATION_CAP = 10 ** 6  # most derangements centralized_search enumerates
COALITION_CAP = 8          # largest K whose one-sided coalitions is_stable searches
SCREEN_MARGIN = 1e-9       # screened values this near the best (relative) are confirmed exactly
SCREEN_CHUNK_BYTES = 2 ** 19  # cell matrices of the candidates one screen call holds


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
    receiver[k] ranks toward whom cell k wants to align. Utility maps are
    kept for reporting and stability checks.
    """

    provider: dict
    receiver: dict | None = None
    provider_utility: dict | None = None
    receiver_utility: dict | None = None

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


def _rank_cells(cfg: SystemConfig, grams: np.ndarray) -> tuple[dict, dict]:
    """Rankings and utilities of every cell from the (L, K(K-1), n, n) PSD stack
    of its users' terms, candidates in ``gia.cell_pairs`` order (k, candidate):
    each term is log2 det(I + G) from one eigenvalue call, and each utility
    sums its L terms in user order."""
    terms = (np.sum(np.log1p(psd_eigvals(grams)), axis=-1) / math.log(2.0)).T.tolist()
    scores = {k: {} for k in range(cfg.K)}
    for (k, cand), row in zip(gia.cell_pairs(cfg.K), terms):
        scores[k][cand] = sum(row)
    return {k: rank_by_utility(s) for k, s in scores.items()}, scores


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


def receiver_preferences(
    ch: ChannelRealization, cfg: SystemConfig, potentials: gia.Potentials
) -> tuple[dict, dict]:
    """Rank every cell's candidate receivers of its alignment by own-cell rate
    proxy, at the signal-to-noise ratio P / sigma2."""
    patterns = potentials.take("patterns", gia.cell_pairs(cfg.K))
    V = gia.full_precoder(patterns.swapaxes(0, 1), cfg.P / cfg.sigma2, cfg.d_s)
    Hd = _cell_direct_channels(ch, cfg)
    V_h = V.conj().swapaxes(-1, -2)
    return _rank_cells(cfg, V_h @ Hd.conj().swapaxes(-1, -2) @ Hd @ V)


def build_preferences(
    ch: ChannelRealization,
    cfg: SystemConfig,
    potentials: gia.Potentials,
    two_sided: bool = False,
    provider_side: PreferenceProfile | None = None,
) -> PreferenceProfile:
    """Preference profile of every cell on one realization.

    The provider side does not depend on the transmit power; a profile built
    earlier on the same realization may be passed as ``provider_side`` so
    that only the receiver side is computed.
    """
    if provider_side is None:
        provider, p_util = provider_preferences(ch, cfg, potentials)
    else:
        provider, p_util = provider_side.provider, provider_side.provider_utility
    receiver, r_util = None, None
    if two_sided:
        receiver, r_util = receiver_preferences(ch, cfg, potentials)
    return PreferenceProfile(
        provider=provider,
        receiver=receiver,
        provider_utility=p_util,
        receiver_utility=r_util,
    )


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


def derangement_count(K: int) -> int:
    """D(K) via the inclusion-exclusion sum, computed in exact integers."""
    return sum((-1) ** j * math.factorial(K) // math.factorial(j) for j in range(K + 1))


def centralized_search(
    ch: ChannelRealization,
    cfg: SystemConfig,
    objective: str = "sum_rate",
    sense: str = "best",
    potentials: gia.Potentials | None = None,
) -> tuple[Assignment, float]:
    """Brute-force over all strict assignments using exact per-user rates.

    ``gia.screen_candidates`` screens chunks of SCREEN_CHUNK_BYTES of cell
    matrices. It raises and warns nothing, and a candidate it cannot certify is
    evaluated exactly at its place in the enumeration, so warnings and errors
    come as from a plain loop. Certified candidates within SCREEN_MARGIN of the
    best screened value are evaluated exactly, and all are if one of those was
    screened off by over a quarter of the margin. Ties resolve to the
    lexicographically smallest assignment: the enumeration is lexicographic and
    the exact values are compared strictly.
    """
    if objective not in ("sum_rate", "min_cell_rate"):
        raise ContractViolation(f"unknown objective {objective!r}")
    if sense not in ("best", "worst"):
        raise ContractViolation(f"unknown sense {sense!r}")
    if derangement_count(cfg.K) > ENUMERATION_CAP:
        raise CapacityExceeded(
            f"{derangement_count(cfg.K)} assignments exceed the enumeration cap {ENUMERATION_CAP}"
        )
    potentials = gia.build_potentials(ch, cfg) if potentials is None else potentials
    reduce = sum if objective == "sum_rate" else min
    providers = np.array(list(enumerate_derangements(cfg.K)))
    candidates = [Assignment(dict(enumerate(perm))) for perm in providers.tolist()]
    exact, screened = {}, {}

    def confirm(c):  # exact user rates of the candidate's full transceiver set
        if c not in exact:
            tset = gia.build_transceivers(ch, cfg, candidates[c], potentials)
            exact[c] = reduce([sum(cell) for cell in gia.user_rate(ch, tset, cfg).T.tolist()])

    chunk = max(1, SCREEN_CHUNK_BYTES // (16 * cfg.K * cfg.N_B ** 2))  # N_B^2 bounds a cell matrix
    for start in range(0, len(candidates), chunk):
        cell_rates = gia.screen_candidates(cfg, potentials, providers[start:start + chunk]).sum(1)
        for c, rates in enumerate(cell_rates.tolist(), start):
            if all(map(math.isfinite, rates)):
                screened[c] = reduce(rates)
            else:
                confirm(c)
    edge = (max if sense == "best" else min)(screened.values(), default=0.0)
    near = [c for c, v in screened.items() if abs(v - edge) <= SCREEN_MARGIN * abs(edge)]
    for c in near:
        confirm(c)
    if not all(abs(screened[c] - exact[c]) <= SCREEN_MARGIN / 4 * abs(exact[c]) for c in near):
        for c in range(len(candidates)):
            confirm(c)
    best_assignment = best_value = None
    for c in sorted(exact):
        value = exact[c]
        if best_value is None or (value > best_value if sense == "best" else value < best_value):
            best_assignment, best_value = candidates[c], value
    return best_assignment, best_value


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
