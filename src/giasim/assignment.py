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
from dataclasses import dataclass

import numpy as np

from . import gia
from .errors import CapacityExceeded, ContractViolation
from .linalg import complement_projector, psd_eigvals
from .system import ChannelRealization, SystemConfig, per_config

ENUMERATION_CAP = 10 ** 6  # most derangements centralized_search enumerates
COALITION_CAP = 8          # largest K whose one-sided coalitions is_stable searches
SCREEN_MARGIN = 1e-9       # screened values this near the best (relative) are confirmed exactly


@dataclass(frozen=True)
class Assignment:
    """The provider of every cell: ``providers[k]`` is the cell whose aligned
    interference cell k absorbs. A weak assignment leaves one cell, ``lone``, as
    its own provider; a strict one is a derangement of range(K)."""

    providers: tuple

    def __post_init__(self):
        if not isinstance(self.providers, tuple):  # a memo key: hashable, fixed
            raise ContractViolation(f"providers must be a tuple, got {self.providers!r}")

    @property
    def lone(self) -> int | None:
        return next((k for k, p in enumerate(self.providers) if k == p), None)

    def is_strict(self, K: int) -> bool:
        return sorted(self.providers) == list(range(K)) and self.lone is None


def fixed_cyclic(K: int) -> Assignment:
    """The conventional ring: each cell aligns toward its index successor."""
    return Assignment(tuple((k - 1) % K for k in range(K)))


@dataclass(frozen=True)
class PreferenceProfile:
    """Every cell's ranked candidates, in the format of an assignment: indexed by
    cell, ``provider[k]`` ranks who cell k wants as its interference provider and
    ``receiver[k]`` toward whom cell k wants to align (None on a one-sided
    profile). A cell never lists itself."""

    provider: list
    receiver: list | None

    @property
    def K(self) -> int:
        return len(self.provider)


def _positions(rankings: list) -> list:
    """``[k][c]``, where cell k ranks candidate c, the cell itself strictly last."""
    K = len(rankings)
    table = [[K - 1] * K for _ in range(K)]  # a cell is absent from its own ranking
    for row, ranking in zip(table, rankings):
        for pos, c in enumerate(ranking):
            row[c] = pos
    return table


def _rank_cells(K: int, grams: np.ndarray) -> list:
    """The rankings of every cell, ``[k]`` cell k's candidates best first, of each
    (L, K(K-1), n, n) PSD stack of its users' terms in ``grams`` (..., L, K(K-1), n, n),
    nested as the leading axes by ``tolist``, candidates in ``gia.cell_pairs`` order
    (k, candidate): each term is log2 det(I + G), all from one eigenvalue call, each
    utility adds its L terms in user order, and equal utilities rank by ascending
    candidate."""
    terms = np.sum(np.log1p(psd_eigvals(grams)), axis=-1) / math.log(2.0)
    utility = np.add.reduce(terms, axis=-2).reshape(terms.shape[:-2] + (K, K - 1))
    candidates = np.array([c for _, c in gia.cell_pairs(K)]).reshape(K, K - 1)
    order = np.argsort(-utility, axis=-1, kind="stable")
    return candidates[np.arange(K)[:, None], order].tolist()


def _cell_direct_channels(ch: ChannelRealization, cfg: SystemConfig) -> np.ndarray:
    """The direct channels of cell k's users at each (k, candidate) pair, (L, K(K-1), N_B, N_U)."""
    return gia.direct_channels(ch)[:, [k for k, _ in gia.cell_pairs(cfg.K)]]


def provider_preferences(ch: ChannelRealization, cfg: SystemConfig,
                         potentials: gia.Potentials) -> list:
    """Rank every cell's candidate providers by projected direct-channel capacity.

    Each candidate's aligned subspace is projected away from the direct
    channels; larger residual capacity means the candidate's interference
    costs cell k fewer useful dimensions.
    """
    perps = complement_projector(potentials.take("aligned", [(c, k) for k, c
                                                             in gia.cell_pairs(cfg.K)]))
    Hd = _cell_direct_channels(ch, cfg)
    return _rank_cells(cfg.K, Hd.conj().swapaxes(-1, -2) @ perps @ Hd)


def receiver_preferences(ch: ChannelRealization, configs: tuple,
                         potentials: gia.Potentials) -> list:
    """Rank every cell's candidate receivers of its alignment by own-cell rate
    proxy, at the signal-to-noise ratio P / sigma2 of each config of the tuple
    ``configs`` (one system at several powers): one set of rankings per config.
    The power-free Gram X^H Hd^H Hd X of every user's pattern X through its
    direct channel is formed once and scaled by P/(d_s sigma2) per config."""
    dims = potentials.cfg
    patterns = potentials.take("patterns", gia.cell_pairs(dims.K)).swapaxes(0, 1)
    images = _cell_direct_channels(ch, dims) @ patterns
    gram = images.conj().swapaxes(-1, -2) @ images
    return _rank_cells(dims.K, per_config(configs, lambda c: c.P / (c.d_s * c.sigma2),
                                          gram.ndim) * gram)


def build_preferences(ch: ChannelRealization, configs, potentials: gia.Potentials,
                      provider_side: PreferenceProfile | None = None):
    """Preference profiles of every cell on one realization.

    Without ``provider_side``, the one-sided profile: the provider side, which
    does not depend on the transmit power. With the one-sided profile of the
    same realization as ``provider_side``, one two-sided profile per config of
    the tuple ``configs`` (one system at several powers) in a list, their
    receiver sides from one stacked call.
    """
    if provider_side is None:
        return PreferenceProfile(provider_preferences(ch, potentials.cfg, potentials), None)
    return [PreferenceProfile(provider_side.provider, receiver)
            for receiver in receiver_preferences(ch, configs, potentials)]


def fca_match(prefs: PreferenceProfile) -> tuple[Assignment, int]:
    """Trading-cycle matching on the provider preference lists.

    Every unassigned cell points at its most preferred remaining provider
    (itself as the implicit last resort); all pointer cycles are resolved and
    removed, and the process repeats. A self-cycle leaves that cell lone; at
    most one can occur. Returns the weak assignment and the cycle count.
    """
    providers = [None] * prefs.K  # None until the cell's cycle is resolved
    n_cycles = 0
    while None in providers:  # a functional graph always has a cycle: progress
        free = [p is None for p in providers]
        point = [next((p for p in ranking if free[p]), c) if free[c] else c
                 for c, ranking in enumerate(prefs.provider)]
        state = [0 if f else 2 for f in free]  # 0 unvisited, 1 on current walk, 2 done
        for start in range(prefs.K):
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
                    providers[c] = point[c]  # a self-cycle's cell is its own provider
            for c in path:
                state[c] = 2
    return Assignment(tuple(providers)), n_cycles


def breaking_step(weak: Assignment, prefs: PreferenceProfile) -> Assignment:
    """Insert the lone cell next to its favourite provider, extending that cycle.

    The lone cell takes its top-ranked provider p and inherits p's former
    receiver, leaving every other edge untouched. Already-strict input passes
    through unchanged.
    """
    lone = weak.lone
    if lone is None:
        return weak
    p = prefs.provider[lone][0]
    providers = list(weak.providers)
    displaced = providers.index(p)  # before the lone cell takes p, which index would find
    providers[lone], providers[displaced] = p, lone
    return Assignment(tuple(providers))


def gale_shapley(prefs: PreferenceProfile, proposer: str) -> tuple[Assignment, int]:
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

    K = prefs.K
    accept_rank = _positions(accept_lists)
    next_choice = [0] * K
    held = [None] * K  # acceptor -> proposer currently held
    free = list(range(K))
    proposals = 0
    while free:
        a = free.pop(0)
        while next_choice[a] < len(propose_lists[a]):
            target = propose_lists[a][next_choice[a]]
            next_choice[a] += 1
            proposals += 1
            if held[target] is None:
                held[target] = a
                break
            rival = held[target]
            if accept_rank[target][a] < accept_rank[target][rival]:
                held[target] = a
                free.insert(0, rival)
                break
        # an exhausted list leaves the proposer unmatched

    idle = [c for c, h in enumerate(held) if h is None]
    unheld = sorted(set(range(K)) - set(held))
    if idle != unheld or len(idle) > 1:
        raise ContractViolation(
            f"deferred acceptance ended inconsistently: acceptors {idle} vs "
            f"proposers {unheld} unmatched"
        )
    matched = [c if h is None else h for c, h in enumerate(held)]  # an idle cell holds itself
    if proposer == "receivers":  # held by each provider: its receiver
        matched = np.argsort(matched).tolist()
    return Assignment(tuple(matched)), proposals


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


def centralized_search(cfg: SystemConfig, screen, user_rates, objective: str,
                       sense: str) -> tuple[Assignment, float]:
    """Brute-force over all strict assignments using exact per-user rates.

    ``screen(providers)`` gives the P-free inverse gains lambda of the (D(K), K)
    candidate ``providers``, ``gia.Potentials.inverse_gains``; a user's screened rate
    at ``cfg`` sums log1p(P/(d_s sigma^2) / lambda), NaN in an uncertified cell. The
    screen raises and warns nothing, and a candidate it cannot certify is evaluated
    exactly first, in enumeration order, so warnings and errors come as from a plain
    loop. Certified candidates within SCREEN_MARGIN of the best screened value are
    evaluated exactly, and all are if one of those was screened off by over a
    quarter of the margin. Ties resolve to the lexicographically smallest
    assignment: the enumeration is lexicographic and the exact values are compared
    strictly. ``user_rates(assignment)`` gives a candidate's exact (L, K) user rates
    at ``cfg``, ``gia.user_rate`` of its ``gia.build_transceivers``; a caller that
    keeps the screen, the sets it builds and their rates forms the screen once per
    draw and reads the winner's rates without building or rating it again.
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
    candidate = lambda c: Assignment(tuple(providers[c].tolist()))
    exact = {}

    def confirm(c):  # exact user rates of the candidate's full transceiver set
        if c not in exact:
            exact[c] = reduce([sum(cell) for cell in user_rates(candidate(c)).T.tolist()])

    scale = cfg.P / (cfg.d_s * cfg.sigma2)
    cell_rates = np.log1p(scale / screen(providers)).sum(-1).swapaxes(-1, -2).sum(1)  # (D(K), K)
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


def is_stable(assignment: Assignment, prefs: PreferenceProfile, mode: str) -> bool:
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
        ranks = _positions(prefs.provider)
        holding = assignment.providers
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
        p_rank, r_rank = _positions(prefs.provider), _positions(prefs.receiver)
        providers = assignment.providers  # an unmatched cell is its own partner, ranked last
        receiver_of = np.argsort(providers).tolist()
        for r in range(K):
            for p in range(K):
                if (p != r and p_rank[r][p] < p_rank[r][providers[r]]
                        and r_rank[p][r] < r_rank[p][receiver_of[p]]):
                    return False
        return True
    raise ContractViolation(f"unknown stability mode {mode!r}")
