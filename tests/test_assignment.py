import itertools

import numpy as np
import pytest

from giasim import assignment as asg
from giasim.assignment import (
    Assignment,
    PreferenceProfile,
    breaking_step,
    build_preferences,
    fca_match,
    fixed_cyclic,
    gale_shapley,
    is_stable,
    provider_preferences,
    receiver_preferences,
)
from giasim.errors import CapacityExceeded, ContractViolation
from giasim.gia import (build_potentials, build_transceivers, cell_pairs, derangement_count,
                        derangements, user_rate)
from giasim.linalg import complex_gaussian, psd_eigvals
from giasim.system import SystemConfig, draw_channels, trial_rng
from oracles import (
    assignment_cycles,
    assignment_utility,
    centralized_search,
    dict_breaking_step,
    dict_fca_match,
    dict_gale_shapley,
    dict_is_strict,
    dict_profile,
    enumerate_derangements,
    rank_by_utility,
    strict_count_formula,
    validate_assignment,
)
from oracles import provider_preferences as provider_oracle
from oracles import receiver_preferences as receiver_oracle


def recurrence_derangements(n: int) -> int:
    # independent oracle: D(n) = (n-1)(D(n-1) + D(n-2))
    if n == 1:
        return 0
    if n == 2:
        return 1
    a, b = 0, 1
    for m in range(3, n + 1):
        a, b = b, (m - 1) * (b + a)
    return b


def random_profile(K: int, rng, two_sided: bool = False) -> PreferenceProfile:
    provider, receiver = [], []
    for c in range(K):
        others = [x for x in range(K) if x != c]
        provider.append(rng.permutation(others).tolist())
        receiver.append(rng.permutation(others).tolist())
    return PreferenceProfile(provider, receiver if two_sided else None)


# the 4-cell toy example: ranked providers with utilities 3/2/1 and 0 for self
TABLE_PROVIDERS = [[2, 1, 3], [0, 2, 3], [1, 0, 3], [0, 1, 2]]


def table_profile() -> PreferenceProfile:
    return PreferenceProfile(TABLE_PROVIDERS, None)


def table_utility() -> dict:
    utility = {
        c: {p: 3 - pos for pos, p in enumerate(lst)} for c, lst in enumerate(TABLE_PROVIDERS)
    }
    for c in utility:
        utility[c][c] = 0
    return utility


class TestDerangements:
    def test_three_cells_exact(self):
        assert derangements(3).tolist() == [[1, 2, 0], [2, 0, 1]]

    @pytest.mark.parametrize("K", [3, 4, 5, 6])
    def test_counts_match_recurrence(self, K):
        assert len(derangements(K)) == recurrence_derangements(K)

    def test_lexicographic_order(self):
        perms = derangements(4).tolist()
        assert perms == sorted(perms)
        assert len(perms) == 9

    @pytest.mark.parametrize("K", range(2, 9))
    def test_equal_the_filter_of_every_permutation(self, K):
        # the prefix extension gives the rows of the K! filter, row for row, and
        # the table every search shares cannot be written through
        rows = derangements(K)
        assert rows.tolist() == [list(p) for p in enumerate_derangements(K)]
        assert rows.shape == (derangement_count(K), K) and rows.dtype == np.intp
        with pytest.raises(ValueError):
            rows[0, 0] = rows[0, 1]

    def test_closed_form_count_off_by_one(self):
        # the stated closed form undercounts the enumeration by exactly one
        assert strict_count_formula(3) == 1
        assert strict_count_formula(4) == 8
        assert strict_count_formula(5) == 43
        assert strict_count_formula(6) == 264
        for K in range(3, 9):
            assert strict_count_formula(K) == derangement_count(K) - 1
            assert derangement_count(K) == recurrence_derangements(K)


class TestToyExampleRegression:
    def test_trading_cycles_on_table(self):
        prefs = table_profile()
        weak, n_cycles = fca_match(prefs)
        assert weak.providers == (2, 0, 1, 3)
        assert weak.lone == 3
        assert n_cycles == 2
        assert assignment_utility(weak, table_utility()) == 9

    def test_breaking_step_on_table(self):
        prefs = table_profile()
        weak, _ = fca_match(prefs)
        strict = breaking_step(weak, prefs)
        validate_assignment(strict)
        assert strict.is_strict(4)
        assert assignment_utility(strict, table_utility()) == 10
        # the repaired matching is one 4-cycle through the lone cell
        assert sorted(len(c) for c in assignment_cycles(strict)) == [4]

    def test_weak_fca_output_is_core_stable(self):
        prefs = table_profile()
        weak, _ = fca_match(prefs)
        assert is_stable(weak, prefs, mode="one_sided")

    def test_breaking_output_verdict_is_recorded(self):
        # repaired assignments trade stability for coverage; just record it
        prefs = table_profile()
        strict = breaking_step(fca_match(prefs)[0], prefs)
        verdict = is_stable(strict, prefs, mode="one_sided")
        assert isinstance(verdict, bool)


def matched_dict(assignment):
    """The {receiver: provider} map of the matched cells of an assignment."""
    return {r: p for r, p in enumerate(assignment.providers) if r != assignment.lone}


class TestProvidersFormat:
    @pytest.mark.parametrize("K", [3, 4, 5, 6])
    def test_derangements_agree_with_dict_form(self, K):
        for perm in map(tuple, derangements(K).tolist()):
            provider_of = {k: perm[k] for k in range(K)}
            a = Assignment(perm)
            assert a.providers == perm and a.lone is None
            assert matched_dict(a) == provider_of
            assert a.is_strict(K) == dict_is_strict(provider_of, None, K) is True

    @pytest.mark.parametrize("K", [3, 4, 5, 6])
    def test_weak_matchings_agree_with_dict_form(self, K):
        # the matchings' outputs, lone cell and repair against the algorithms
        # as they ran on the dict form, over 30 seeded profiles
        rng = np.random.default_rng(60 + K)
        lone_cells = 0
        for _ in range(30):
            prefs = random_profile(K, rng, two_sided=True)
            as_dicts = dict_profile(prefs)
            runs = [(fca_match(prefs), dict_fca_match(as_dicts))] + [
                (gale_shapley(prefs, side), dict_gale_shapley(as_dicts, side))
                for side in ("receivers", "providers")]
            for (weak, count), (provider_of, lone, ref_count) in runs:
                assert matched_dict(weak) == provider_of and weak.lone == lone
                assert count == ref_count
                assert weak.is_strict(K) == dict_is_strict(provider_of, lone, K)
                strict = breaking_step(weak, prefs)
                repaired = dict_breaking_step(provider_of, lone, as_dicts)
                assert strict.providers == tuple(repaired[k] for k in range(K))
                assert strict.is_strict(K) == dict_is_strict(repaired, None, K) is True
                lone_cells += lone is not None
        assert lone_cells > 0

    @pytest.mark.parametrize("weak, top, strict", [
        ((0, 3, 1, 2), 1, (1, 3, 0, 2)),  # lone cell 0 before the displaced receiver 2
        ((2, 0, 1, 3), 0, (2, 3, 1, 0)),  # lone cell 3 after the displaced receiver 1
    ])
    def test_breaking_step_on_either_side_of_the_displaced_receiver(self, weak, top, strict):
        lone = Assignment(weak).lone
        provider = [[x for x in range(4) if x != c] for c in range(4)]
        provider[lone] = [top] + [x for x in range(4) if x not in (lone, top)]
        prefs = PreferenceProfile(provider, None)
        repaired = breaking_step(Assignment(weak), prefs)
        assert repaired.providers == strict and repaired.is_strict(4)
        ref = dict_breaking_step({r: p for r, p in enumerate(weak) if r != lone}, lone,
                                 dict_profile(prefs))
        assert strict == tuple(ref[k] for k in range(4))

    def test_is_strict_rejects_a_fixed_point_a_repeat_and_a_wrong_length(self):
        assert Assignment((1, 2, 3, 0)).is_strict(4)
        assert not Assignment((0, 2, 3, 1)).is_strict(4)  # cell 0 is its own provider
        assert not Assignment((1, 0, 0)).is_strict(3)     # provider 0 twice, none fixed
        assert not Assignment((1, 2, 0)).is_strict(4)     # a derangement of 3 cells
        assert not Assignment((1, 2, 3, 0)).is_strict(3)

    def test_providers_must_be_a_tuple(self):
        # a list or an array would reach the memos unhashable
        for providers in ([1, 2, 0], np.array([1, 2, 0]), {0: 1, 1: 2, 2: 0}):
            with pytest.raises(ContractViolation):
                Assignment(providers)


class TestTradingCycles:
    def test_unanimous_cycle(self):
        prefs = PreferenceProfile([[1, 2], [2, 0], [0, 1]], None)
        weak, n_cycles = fca_match(prefs)
        assert n_cycles == 1
        assert weak.lone is None
        assert weak.providers == (1, 2, 0)

    def test_at_most_one_lone_cell(self):
        rng = np.random.default_rng(11)
        for t in range(400):
            K = 4 + t % 3
            prefs = random_profile(K, rng)
            weak, _ = fca_match(prefs)
            unmatched = [c for c, p in enumerate(weak.providers) if p == c]
            assert len(unmatched) <= 1
            assert weak.lone == (unmatched[0] if unmatched else None)
            validate_assignment(weak)

    def test_core_stability_random_profiles(self):
        rng = np.random.default_rng(12)
        for t in range(120):
            prefs = random_profile(4 + t % 2, rng)
            weak, _ = fca_match(prefs)
            assert is_stable(weak, prefs, mode="one_sided")

    def test_breaking_yields_derangement(self):
        rng = np.random.default_rng(13)
        for t in range(200):
            K = 4 + t % 3
            prefs = random_profile(K, rng)
            weak, _ = fca_match(prefs)
            strict = breaking_step(weak, prefs)
            validate_assignment(strict)
            assert strict.is_strict(K)

    def test_pass_through_when_already_strict(self):
        prefs = PreferenceProfile([[1, 2], [2, 0], [0, 1]], None)
        weak, _ = fca_match(prefs)
        assert breaking_step(weak, prefs) is weak


class TestDeferredAcceptance:
    def test_mutual_first_choices(self):
        prefs = PreferenceProfile([[1, 2], [2, 0], [0, 1]], [[2, 1], [0, 2], [1, 0]])
        matched, proposals = gale_shapley(prefs, "receivers")
        assert matched.lone is None
        assert matched.providers == (1, 2, 0)
        assert proposals == 3

    def test_requires_receiver_side(self):
        prefs = PreferenceProfile([[1, 2], [2, 0], [0, 1]], None)
        with pytest.raises(ContractViolation):
            gale_shapley(prefs, "receivers")

    def test_random_profiles_bounded_and_stable(self):
        rng = np.random.default_rng(21)
        full_matches = 0
        for t in range(1000):
            K = 4 + t % 3
            prefs = random_profile(K, rng, two_sided=True)
            matched, proposals = gale_shapley(prefs, "receivers")
            assert proposals <= K * (K - 1) + 1
            if matched.lone is None:
                full_matches += 1
                assert is_stable(matched, prefs, mode="two_sided")
            else:
                strict = breaking_step(matched, prefs)
                assert strict.is_strict(K)
        assert full_matches > 0

    def test_provider_proposing_side(self):
        rng = np.random.default_rng(22)
        prefs = random_profile(5, rng, two_sided=True)
        matched, _ = gale_shapley(prefs, proposer="providers")
        if matched.lone is None:
            assert is_stable(matched, prefs, mode="two_sided")
        with pytest.raises(ContractViolation):
            gale_shapley(prefs, proposer="sideways")


class TestStabilityOracle:
    def test_unanimous_single_cycle_is_stable(self):
        prefs = PreferenceProfile([[1, 2], [2, 0], [0, 1]], None)
        assignment = Assignment((1, 2, 0))
        assert is_stable(assignment, prefs, mode="one_sided")

    def test_detects_blocking_swap(self):
        # 0 and 1 top-rank each other but are matched elsewhere
        prefs = PreferenceProfile([[1, 2], [0, 2], [0, 1]], None)
        ring = Assignment((2, 0, 1))
        assert not is_stable(ring, prefs, mode="one_sided")

    def test_capacity_guard(self):
        K = 9
        prefs = PreferenceProfile([[x for x in range(K) if x != c] for c in range(K)], None)
        assignment = fixed_cyclic(K)
        with pytest.raises(CapacityExceeded):
            is_stable(assignment, prefs, mode="one_sided")

    def test_two_sided_blocking_pair(self):
        prefs = PreferenceProfile([[1, 2], [0, 2], [0, 1]], [[1, 2], [0, 2], [0, 1]])
        ring = Assignment((2, 0, 1))
        assert not is_stable(ring, prefs, mode="two_sided")


CFG = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2, P=10 ** 2.5, sigma2=1.0)


@pytest.fixture(scope="module")
def realization():
    return draw_channels(CFG, trial_rng(314, 0))


@pytest.fixture(scope="module")
def potentials(realization):
    return build_potentials(realization, CFG, cell_pairs(CFG.K))


def _handmade_channels(H_entries, cfg):
    """ChannelRealization with prescribed links; everything else random."""
    from giasim.system import ChannelRealization

    g = np.random.default_rng(99)
    H = (g.standard_normal((cfg.L, cfg.K, cfg.K, cfg.N_B, cfg.N_U))
         + 1j * g.standard_normal((cfg.L, cfg.K, cfg.K, cfg.N_B, cfg.N_U))) / np.sqrt(2)
    for (i, k, l), value in H_entries.items():
        H[i, k, l] = value
    return ChannelRealization(H=H)


class TestPreferenceOrdering:
    CFG1 = SystemConfig(K=3, L=1, N_B=3, N_U=1, d_s=1)

    def test_orthogonal_interference_ranked_above_in_span(self):
        # candidate 1 aligns into a direction orthogonal to the direct
        # channel, candidate 2 lands right on top of it
        e1 = np.array([[1.0], [0.0], [0.0]], dtype=complex)
        e2 = np.array([[0.0], [1.0], [0.0]], dtype=complex)
        ch = _handmade_channels(
            {(0, 0, 0): 3.0 * e2, (0, 1, 0): 2.0 * e1, (0, 2, 0): e2}, self.CFG1
        )
        pots = build_potentials(ch, self.CFG1, cell_pairs(self.CFG1.K))
        ranked, utils = provider_oracle(ch, self.CFG1, 0, pots)
        assert provider_preferences(ch, self.CFG1, pots)[0] == ranked == [1, 2]
        assert utils[1] == pytest.approx(np.log2(1.0 + 9.0), rel=1e-9)
        assert utils[2] == pytest.approx(0.0, abs=1e-9)

    def test_zero_direct_channels_give_index_order(self):
        zero = np.zeros((3, 1), dtype=complex)
        ch = _handmade_channels({(0, 1, 1): zero}, self.CFG1)
        pots = build_potentials(ch, self.CFG1, cell_pairs(self.CFG1.K))
        ranked, utils = receiver_oracle(ch, self.CFG1, 1, pots)
        assert receiver_preferences(ch, (self.CFG1,), pots)[0][1] == ranked == [0, 2]
        assert all(u == pytest.approx(0.0, abs=1e-12) for u in utils.values())


    def test_stacked_ranking_breaks_exact_ties_by_ascending_candidate(self):
        # (config, user, pair) Grams; cell 1 sees candidates 0 and 3 through
        # one Gram stack, and cell 2 all three of its candidates
        K, L, n, configs = 4, 3, 2, 3
        A = complex_gaussian(np.random.default_rng(8), (configs, L, K * (K - 1), n, n))
        grams = A @ A.conj().swapaxes(-1, -2)
        at = {pair: j for j, pair in enumerate(cell_pairs(K))}
        grams[:, :, at[1, 3]] = grams[:, :, at[1, 0]]
        for cand in (1, 3):
            grams[:, :, at[2, cand]] = grams[:, :, at[2, 0]]
        ranked = asg._rank_cells(K, grams)
        for c in range(configs):
            for k in range(K):
                utility = {cand: sum(float(np.sum(np.log1p(psd_eigvals(grams[c, i, at[k, cand]]))))
                                     / np.log(2.0) for i in range(L))
                           for cand in range(K) if cand != k}
                assert ranked[c][k] == rank_by_utility(utility), (c, k)
            assert ranked[c][2] == [0, 1, 3]
            assert ranked[c][1].index(0) + 1 == ranked[c][1].index(3)


class TestChannelPreferences:
    def test_list_cardinality_and_nonneg(self, realization, potentials):
        one_sided = build_preferences(realization, CFG, potentials)
        (prefs,) = build_preferences(realization, (CFG,), potentials, one_sided)
        for k in range(CFG.K):
            assert len(prefs.provider[k]) == CFG.K - 1
            assert len(prefs.receiver[k]) == CFG.K - 1
            assert k not in prefs.provider[k]
            for oracle, ranked in ((provider_oracle, prefs.provider[k]),
                                   (receiver_oracle, prefs.receiver[k])):
                oracle_ranked, utility = oracle(realization, CFG, k, potentials)
                assert ranked == oracle_ranked
                assert all(u >= 0.0 for u in utility.values())

    def test_provider_utility_prefers_orthogonal_interference(self, realization, potentials):
        # a candidate whose aligned subspace is orthogonal to the direct
        # channels beats one that eats into them; engineered via projector
        # monotonicity: utility of zero interference equals the no-projection
        # capacity, an upper bound for every candidate
        ranked = provider_preferences(realization, CFG, potentials)
        for k in range(CFG.K):
            oracle_ranked, utility = provider_oracle(realization, CFG, k, potentials)
            assert ranked[k] == oracle_ranked
            free = 0.0
            for i in range(CFG.L):
                Hd = realization.H[i, k, k]
                g = Hd.conj().T @ Hd
                ev = np.clip(np.linalg.eigvalsh((g + g.conj().T) / 2).real, 0, None)
                free += float(np.sum(np.log1p(ev))) / np.log(2.0)
            for cand, util in utility.items():
                assert util <= free + 1e-9

    def test_receiver_utilities_match_recomputation(self, realization, potentials):
        from giasim.gia import full_precoder as fp
        from oracles import user_pattern as up

        k = 2
        ranked, receiver_utility = receiver_oracle(realization, CFG, k, potentials)
        assert receiver_preferences(realization, (CFG,), potentials)[0][k] == ranked
        for cand in range(CFG.K):
            if cand == k:
                continue
            expected = 0.0
            for i in range(CFG.L):
                V = fp(up(potentials.take("inner", [(k, cand)])[0], i, CFG.N_U), CFG.P, CFG.d_s)
                Hd = realization.H[i, k, k]
                M = np.eye(CFG.d_s) + V.conj().T @ Hd.conj().T @ Hd @ V
                expected += float(np.linalg.slogdet(M)[1]) / np.log(2.0)
            assert receiver_utility[cand] == pytest.approx(expected, rel=1e-9)


class TestCentralizedSearch:
    def test_dominance_over_fixed_and_worst(self, realization, potentials):
        best, best_val = centralized_search(realization, CFG, "sum_rate", "best", potentials)
        worst, worst_val = centralized_search(realization, CFG, "sum_rate", "worst", potentials)
        assert best.is_strict(CFG.K) and worst.is_strict(CFG.K)
        tset = build_transceivers(realization, CFG, fixed_cyclic(CFG.K), potentials)
        fixed_val = sum(
            user_rate(realization, tset, CFG)[i, k]
            for k in range(CFG.K)
            for i in range(CFG.L)
        )
        assert best_val >= fixed_val >= worst_val

    def test_min_rate_objective_orders(self, realization, potentials):
        best, bval = centralized_search(realization, CFG, "min_cell_rate", "best", potentials)
        _, wval = centralized_search(realization, CFG, "min_cell_rate", "worst", potentials)
        assert bval >= wval

    def test_enumeration_cap(self):
        big = SystemConfig(K=10, L=1, N_B=10, N_U=10, d_s=1)
        with pytest.raises(CapacityExceeded):
            asg.centralized_search(big, None, None, "sum_rate", "best")

    def test_rejects_unknown_objective(self, realization, potentials):
        with pytest.raises(ContractViolation):
            centralized_search(realization, CFG, "median_rate", "best", potentials)
        with pytest.raises(ContractViolation):
            centralized_search(realization, CFG, "sum_rate", "median", potentials)


def test_fixed_cyclic_structure():
    a = fixed_cyclic(5)
    validate_assignment(a)
    assert a.is_strict(5)
    assert a.providers == (4, 0, 1, 2, 3)
    assert len(assignment_cycles(a)) == 1


def test_exhaustive_core_check_matches_bruteforce_definition():
    # cross-validate is_stable against a direct enumeration on a tiny case
    rng = np.random.default_rng(5)
    for _ in range(40):
        K = 4
        prefs = random_profile(K, rng)
        assignment, _ = fca_match(prefs)
        ranks = [{**{p: pos for pos, p in enumerate(lst)}, c: K - 1}  # itself last
                 for c, lst in enumerate(prefs.provider)]
        holding = dict(enumerate(assignment.providers))  # a lone cell holds itself
        blocked = False
        for size in range(2, K + 1):
            for S in itertools.combinations(range(K), size):
                for perm in itertools.permutations(S):
                    gains = [ranks[c][p] - ranks[c][holding[c]] for c, p in zip(S, perm)]
                    if all(g <= 0 for g in gains) and any(g < 0 for g in gains):
                        blocked = True
        assert is_stable(assignment, prefs, mode="one_sided") == (not blocked)
