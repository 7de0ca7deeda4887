"""The centralized search against a from-scratch reference, and the stacked
null basis behind its decoders.

The search reads per-pair pieces (patterns, aligned bases, whiteners) shared
across candidates and calls, and finds each candidate's decoders in one
stacked SVD. The reference below is the plain loop: for every derangement a
fresh ``build_transceivers`` with no potentials, so each builds its own and
nothing is shared between candidates. Both must agree with ``==``.
"""

import warnings

import numpy as np
import pytest

from giasim.assignment import (
    Assignment,
    centralized_search,
    enumerate_derangements,
    fixed_cyclic,
)
from giasim.errors import ContractViolation, GiaSimError
from giasim.gia import (
    build_potentials,
    build_transceivers,
    select_null_basis,
    user_rate,
    zf_decoder,
)
from giasim.linalg import complex_gaussian
from giasim.system import SystemConfig, draw_channels, trial_rng

REFERENCE = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2).at_snr_db(25.0)
TIGHT_K5 = SystemConfig(K=5, L=2, N_B=18, N_U=10, d_s=2).at_snr_db(25.0)
SEARCHES = [(o, s) for o in ("sum_rate", "min_cell_rate") for s in ("best", "worst")]


def reference_candidates(ch, cfg):
    """Each derangement's cell rates, from a fresh build per candidate."""
    out = []
    for perm in enumerate_derangements(cfg.K):
        assignment = Assignment(provider_of={k: perm[k] for k in range(cfg.K)})
        tset = build_transceivers(ch, cfg, assignment)
        cell_rates = [
            sum(user_rate(ch, tset, i, k, cfg) for i in range(cfg.L))
            for k in range(cfg.K)
        ]
        out.append((assignment, cell_rates))
    return out


def reference_pick(candidates, objective, sense):
    """The search's selection rule: strict comparisons in enumeration order."""
    best_assignment = best_value = None
    for assignment, cell_rates in candidates:
        value = sum(cell_rates) if objective == "sum_rate" else min(cell_rates)
        if best_value is None or (sense == "best" and value > best_value) or (
            sense == "worst" and value < best_value
        ):
            best_value, best_assignment = value, assignment
    return best_assignment, best_value


@pytest.mark.parametrize("cfg, seed, draws", [(REFERENCE, 41, 20), (TIGHT_K5, 42, 5)],
                         ids=["reference_k4", "tight_k5"])
def test_search_equals_fresh_build_per_candidate(cfg, seed, draws):
    for t in range(draws):
        ch = draw_channels(cfg, trial_rng(seed, t))
        potentials = build_potentials(ch, cfg)  # shared by all four searches
        candidates = reference_candidates(ch, cfg)
        for objective, sense in SEARCHES:
            chosen, value = centralized_search(ch, cfg, objective, sense, potentials)
            ref_chosen, ref_value = reference_pick(candidates, objective, sense)
            assert chosen.provider_of == ref_chosen.provider_of, (t, objective, sense)
            assert value == ref_value, (t, objective, sense)


def test_potentials_of_another_draw_are_refused():
    ch_a, ch_b = (draw_channels(REFERENCE, trial_rng(44, t)) for t in (0, 1))
    with pytest.raises(ContractViolation):
        build_transceivers(ch_b, REFERENCE, fixed_cyclic(REFERENCE.K), build_potentials(ch_a, REFERENCE))


def _outcome(F, d_s):
    """What select_null_basis does with F: (result or (error type, message), warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = select_null_basis(F, d_s)
        except GiaSimError as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def test_stacked_null_basis_equals_each_slice():
    rng = np.random.default_rng(5)
    F = complex_gaussian(rng, (3, 2, 14, 10))
    stacked = select_null_basis(F, 2)
    assert stacked.shape == (3, 2, 14, 2)
    for idx in np.ndindex(3, 2):
        assert np.array_equal(stacked[idx], select_null_basis(F[idx], 2))


def test_stacked_decoders_equal_single_user_decoders():
    ch = draw_channels(REFERENCE, trial_rng(43, 0))
    tset = build_transceivers(ch, REFERENCE, fixed_cyclic(REFERENCE.K))
    prov = tset.assignment.provider
    for k in range(REFERENCE.K):
        for i in range(REFERENCE.L):
            single = zf_decoder(
                ch, tset.assignment, tset.patterns, {(i, k): tset.aligned[prov(k)]}, REFERENCE.d_s
            )
            assert np.array_equal(single[0], tset.decoders[i, k])


def _low_rank(rng, m, n, r):
    return complex_gaussian(rng, (m, r)) @ complex_gaussian(rng, (r, n))


@pytest.mark.parametrize("n, clean_rank, bad_rank", [
    (3, 3, 2),     # rank deficient: warns, still picks the canonical directions
    (6, 4, 6),     # full row rank: no null space at all
    (5, 4, 5),     # a 1-dimensional null space, narrower than d_s
    (3, 3, None),  # non-finite entries
], ids=["rank_deficient", "full_row_rank", "null_too_small", "non_finite"])
def test_one_bad_slice_behaves_as_alone(n, clean_rank, bad_rank):
    # clean slices leave exactly d_s null directions or have generic rank, so
    # that on their own they neither raise nor warn
    rng = np.random.default_rng(6)
    m, d_s = 6, 2
    stack = np.stack([_low_rank(rng, m, n, clean_rank) for _ in range(4)])
    if bad_rank is None:
        bad = stack[2].copy()
        bad[1, 1] = np.nan
    else:
        bad = _low_rank(rng, m, n, bad_rank)
    stack[2] = bad
    alone, alone_warnings = _outcome(bad, d_s)
    together, together_warnings = _outcome(stack, d_s)
    assert together_warnings == alone_warnings
    if isinstance(alone, tuple):  # raised: same error type and message
        assert together == alone
    else:
        assert len(alone_warnings) == 1
        assert np.array_equal(together[2], alone)
