"""Seeded fuzz over feasible system dimensions.

Draws (K, L, N_B, N_U, d_s) that ``require_feasible`` accepts, tight
(worst-case) antenna counts among them, and checks two acceptance criteria on
each draw: perfect alignment (criterion 1, ``verify_alignment`` on the
stacked-SVD decoders) and the pathwise interference bound under quantized
feedback (criterion 7). The benchmark and the other tests run few shapes;
these cover d_s = 1, L = 1 and L = 3 as well.
"""

import math

from giasim.assignment import Assignment, enumerate_derangements, fixed_cyclic
from giasim.gia import build_potentials, build_transceivers, cell_pairs, verify_alignment
from giasim.harness import SchemeSpec
from giasim.system import draw_channels, trial_rng
from oracles import failed_conditions, feasibility_limits, feasible_configs, run_trial

SEED = 2718


def test_drawn_configs_are_feasible_and_cover_tight_counts():
    cfgs = feasible_configs(SEED)
    assert all(failed_conditions(cfg) == set() for cfg in cfgs)
    assert sum(feasibility_limits(cfg)["worst_case"] for cfg in cfgs) >= len(cfgs) // 3
    assert {cfg.d_s for cfg in cfgs} == {1, 2} and {cfg.L for cfg in cfgs} == {1, 2, 3}


def test_alignment_and_pathwise_bound_on_feasible_draws():
    for t, cfg in enumerate(feasible_configs(SEED)):
        ch = draw_channels(cfg, trial_rng(SEED, t))
        potentials = build_potentials(ch, cfg, cell_pairs(cfg.K))
        derangements = list(enumerate_derangements(cfg.K))
        last = Assignment(derangements[-1])
        for assignment in (fixed_cyclic(cfg.K), last):
            rep = verify_alignment(ch, build_transceivers(ch, cfg, assignment, potentials), cfg)
            assert rep.max_residual < 1e-8 * math.sqrt(cfg.P), (cfg, rep)
            assert rep.min_desired_ratio > 1e-8, (cfg, rep)
        if cfg.N_U == cfg.d_s:
            continue  # square patterns: nothing to quantize
        for scheme in (
            SchemeSpec(assignment="fixed", bit_alloc="eba", bits_budget=4 * cfg.user_count),
            SchemeSpec(assignment="two_sided", bit_alloc="dba", bits_budget=3 * cfg.user_count),
        ):
            result = run_trial(cfg, scheme, t, seed=SEED)
            for k in range(cfg.K):
                bound = result.bound_per_cell[k]
                assert result.rinr_per_cell[k] <= bound * (1 + 1e-9) + 1e-12, (cfg, scheme, k)
