"""Acceptance suite.

Each test exercises one exit criterion at desk scale, the 4-cell 2-user
worst-case antenna configuration with unit noise power, and prints a
PASS/FAIL line so the whole gate can be read off `pytest -s`.
Run with: pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from giasim.assignment import (
    Assignment,
    PreferenceProfile,
    breaking_step,
    fca_match,
    fixed_cyclic,
    gale_shapley,
    is_stable,
)
from giasim.feedback import (
    dba_allocate,
    eba_allocate,
    quantized_decoder,
)
from giasim.gia import (
    build_potentials,
    build_transceivers,
    cell_pairs,
    derangement_count,
    derangements,
    full_precoder,
    link_images,
    rate_logdet,
    user_rate,
    verify_alignment,
)
from giasim.harness import SchemeSpec, SweepSpec, backhaul_overhead, run_sweep, throughput
from giasim.system import SystemConfig, draw_channels, trial_rng
from oracles import (
    allocation_objective,
    assignment_utility,
    decoders,
    effective_link_gains,
    run_trial,
    strict_count_formula,
)

CFG = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2, P=10 ** 2.5, sigma2=1.0)
SEED = 20250808


def report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" :: {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def all_strict_assignments(K):
    return [Assignment(tuple(p)) for p in derangements(K).tolist()]


def test_01_perfect_alignment_invariant():
    t0 = time.perf_counter()
    assignments = all_strict_assignments(CFG.K)
    worst_residual = 0.0
    worst_ratio = math.inf
    for t in range(100):
        ch = draw_channels(CFG, trial_rng(SEED, t))
        potentials = build_potentials(ch, CFG, cell_pairs(CFG.K))
        for a in assignments:
            tset = build_transceivers(ch, CFG, a, potentials)
            rep = verify_alignment(ch, tset, CFG)
            worst_residual = max(worst_residual, rep.max_residual)
            worst_ratio = min(worst_ratio, rep.min_desired_ratio)
    elapsed = time.perf_counter() - t0
    ok = worst_residual < 1e-8 * math.sqrt(CFG.P) and worst_ratio > 1e-8 and elapsed < 60.0
    report(
        "criterion 1: perfect alignment, 100 realizations x 9 assignments",
        ok,
        f"max residual {worst_residual:.2e} (tol {1e-8 * math.sqrt(CFG.P):.2e}), "
        f"min sv ratio {worst_ratio:.2e}, {elapsed:.1f}s",
    )


def test_02_rate_path_equivalence():
    worst = 0.0
    for t in range(100):
        ch = draw_channels(CFG, trial_rng(SEED + 1, t))
        tset = build_transceivers(ch, CFG, fixed_cyclic(CFG.K))
        U = decoders(ch, tset)
        for k in range(CFG.K):
            for i in range(CFG.L):
                r_eff = user_rate(ch, tset, CFG)[i, k]
                V_full = full_precoder(tset.patterns[(i, k)], CFG.P, CFG.d_s)
                r_raw = rate_logdet(
                    U[(i, k)].conj().T @ ch.H[i, k, k] @ V_full, 1.0 / CFG.sigma2
                )
                worst = max(worst, abs(r_eff - r_raw) / max(r_raw, 1e-30))
    report(
        "criterion 2: effective-channel and raw rate paths agree",
        worst < 1e-9,
        f"worst relative gap {worst:.2e}",
    )


def test_03_derangement_machinery():
    def recurrence(n):
        a, b = 0, 1
        if n == 1:
            return 0
        for m in range(3, n + 1):
            a, b = b, (m - 1) * (b + a)
        return b if n >= 2 else 0

    enum_counts = [len(derangements(K)) for K in (3, 4, 5, 6)]
    formula_vals = [strict_count_formula(K) for K in (3, 4, 5, 6)]
    ok = (
        enum_counts == [2, 9, 44, 265]
        and enum_counts == [recurrence(K) for K in (3, 4, 5, 6)]
        and formula_vals == [1, 8, 43, 264]
        and strict_count_formula(4) == 8
        and strict_count_formula(6) == 264
        and all(strict_count_formula(K) == derangement_count(K) - 1 for K in range(3, 8))
    )
    report(
        "criterion 3: derangement counts and closed-form discrepancy",
        ok,
        f"enumerated {enum_counts}, formula {formula_vals} (off by one from the true counts)",
    )


def test_04_toy_example_regression():
    provider = [[2, 1, 3], [0, 2, 3], [1, 0, 3], [0, 1, 2]]
    utility = {c: {p: 3 - pos for pos, p in enumerate(lst)} for c, lst in enumerate(provider)}
    for c in utility:
        utility[c][c] = 0
    prefs = PreferenceProfile(provider, None)
    weak, n_cycles = fca_match(prefs)
    strict = breaking_step(weak, prefs)
    ok = (
        weak.providers == (2, 0, 1, 3)
        and weak.lone == 3
        and assignment_utility(weak, utility) == 9
        and strict.is_strict(4)
        and assignment_utility(strict, utility) == 10
    )
    report(
        "criterion 4: toy 4-cell regression",
        ok,
        f"weak utility {assignment_utility(weak, utility)} (cycles {n_cycles}), "
        f"strict utility {assignment_utility(strict, utility)}",
    )


def test_05_stability_on_random_profiles():
    rng = np.random.default_rng(SEED + 2)
    fca_pass = gs_checked = gs_pass = 0
    total = 500
    for t in range(total):
        K = 4 if t % 2 == 0 else 5
        provider, receiver = [], []
        for c in range(K):
            others = [x for x in range(K) if x != c]
            provider.append(rng.permutation(others).tolist())
            receiver.append(rng.permutation(others).tolist())
        prefs = PreferenceProfile(provider, receiver)
        weak, _ = fca_match(prefs)
        if is_stable(weak, prefs, mode="one_sided"):
            fca_pass += 1
        matched, _ = gale_shapley(prefs, "receivers")
        if matched.lone is None:
            gs_checked += 1
            if is_stable(matched, prefs, mode="two_sided"):
                gs_pass += 1
    ok = fca_pass == total and gs_checked > 0 and gs_pass == gs_checked
    report(
        "criterion 5: stability oracles on 500 random profiles",
        ok,
        f"trading-cycle stable {fca_pass}/{total}, "
        f"deferred-acceptance stable {gs_pass}/{gs_checked} fully matched",
    )


def test_06_bit_allocation_optimality():
    # exhaustive integer optimum by dynamic programming over (user, bits)
    def dp_optimum(lam, budget, m):
        best = [0.0] + [math.inf] * budget
        for u in range(len(lam)):
            new = [math.inf] * (budget + 1)
            for used in range(budget + 1):
                if best[used] == math.inf:
                    continue
                for b in range(budget + 1 - used):
                    v = best[used] + lam[u] * 2.0 ** (-b / m)
                    if v < new[used + b]:
                        new[used + b] = v
            best = new
        return best[budget]

    rng = np.random.default_rng(SEED + 3)
    d_s, N_U, budget = 1, 4, 30
    m = d_s * (N_U - d_s)
    users = 6  # three cells, two users each
    within_one_move = beats_eba = 0
    for _ in range(50):
        lam = rng.uniform(0.05, 20.0, size=users)
        alloc = dba_allocate(lam, budget, d_s, N_U)
        opt = dp_optimum(lam, budget, m)
        objective = allocation_objective(lam, alloc, d_s, N_U)
        neighborhood = [objective]
        for u in range(users):
            if alloc[u] == 0:
                continue
            for v in range(users):
                if v == u:
                    continue
                moved = alloc.copy()
                moved[u] -= 1
                moved[v] += 1
                neighborhood.append(allocation_objective(lam, moved, d_s, N_U))
        if min(neighborhood) <= opt * (1 + 1e-9):
            within_one_move += 1
        if objective <= allocation_objective(lam, eba_allocate(budget, users), d_s, N_U) * (1 + 1e-12):
            beats_eba += 1
    ok = within_one_move == 50 and beats_eba == 50
    report(
        "criterion 6: dynamic allocation vs exhaustive integer optimum",
        ok,
        f"within one bit move {within_one_move}/50, never worse than equal split {beats_eba}/50",
    )


def test_07_pathwise_interference_bound():
    violations = 0
    trials = 0
    for per_user_bits in (4, 8):
        budget = per_user_bits * CFG.user_count
        for t in range(100):
            result = run_trial(
                CFG,
                SchemeSpec(assignment="fixed", bit_alloc="eba", bits_budget=budget),
                t,
                seed=SEED + 4,
            )
            trials += 1
            for k in range(CFG.K):
                if result.rinr_per_cell[k] > result.bound_per_cell[k] * (1 + 1e-9) + 1e-12:
                    violations += 1
    report(
        "criterion 7: measured interference never exceeds the deterministic bound",
        violations == 0,
        f"{trials} quantized trials, {violations} violations",
    )


def test_08_dof_slope_per_assignment():
    t0 = time.perf_counter()
    assignments = all_strict_assignments(CFG.K)
    trials = 200
    snr_lo, snr_hi = 10 ** 3.0, 10 ** 4.0  # 30 and 40 dB
    sums = np.zeros((len(assignments), 2))
    for t in range(trials):
        ch = draw_channels(CFG, trial_rng(SEED + 5, t))
        potentials = build_potentials(ch, CFG, cell_pairs(CFG.K))
        for a_idx, a in enumerate(assignments):
            tset = build_transceivers(ch, CFG, a, potentials)
            U = decoders(ch, tset)
            for k in range(CFG.K):
                for i in range(CFG.L):
                    gains = effective_link_gains(ch, tset, U, i, k)
                    sums[a_idx, 0] += np.sum(np.log1p(snr_lo / CFG.d_s * gains))
                    sums[a_idx, 1] += np.sum(np.log1p(snr_hi / CFG.d_s * gains))
    means = sums / trials
    slopes = (means[:, 1] - means[:, 0]) / math.log(snr_hi / snr_lo)
    target = CFG.K * CFG.L * CFG.d_s
    elapsed = time.perf_counter() - t0
    ok = (
        np.all(np.abs(slopes - target) / target < 0.10)
        and (slopes.max() - slopes.min()) / slopes.min() < 0.10
        and elapsed < 600.0
    )
    report(
        "criterion 8: high-SNR slope equals the full multiplexing gain",
        ok,
        f"slopes in [{slopes.min():.2f}, {slopes.max():.2f}] nats/ln-SNR "
        f"(target {target}), {elapsed:.1f}s",
    )


def test_09_limited_feedback_figure_shapes():
    budgets = (100, 200, 300, 400, 500)
    spec = SweepSpec(
        variable="B",
        grid=budgets,
        trials=200,
        schemes=tuple(SchemeSpec(assignment="fixed", bit_alloc=a) for a in ("dba", "eba")),
        seed=SEED + 6,
    )
    rows = run_sweep(spec, CFG)  # 25 dB transmit SNR, rates in nats
    r_sum = {"dba": [], "eba": []}
    rinr_db = {"dba": [], "eba": []}
    for row in rows:  # grid-major: budgets in order
        alloc = row["scheme"].split("+")[1]
        r_sum[alloc].append(row["r_sum"])
        rinr_db[alloc].append(row["rinr_db"])
    dba_wins = all(d >= e for d, e in zip(r_sum["dba"], r_sum["eba"]))
    slope = float(np.polyfit(budgets, r_sum["dba"], 1)[0])
    slope_ok = 0.03 <= slope <= 0.15
    rinr_decreasing = all(
        a > b for a, b in zip(rinr_db["dba"], rinr_db["dba"][1:])
    ) and all(a > b for a, b in zip(rinr_db["eba"], rinr_db["eba"][1:]))
    dba_quieter = all(d <= e for d, e in zip(rinr_db["dba"], rinr_db["eba"]))
    ok = dba_wins and slope_ok and rinr_decreasing and dba_quieter
    report(
        "criterion 9: limited-feedback curve shapes",
        ok,
        f"dynamic>=equal at all budgets: {dba_wins}; rate slope {slope:.4f} nats/bit; "
        f"interference decreasing: {rinr_decreasing}; dynamic quieter: {dba_quieter}",
    )


def test_10_perfect_feedback_limit():
    worst = 0.0
    for t in range(50):
        ch = draw_channels(CFG, trial_rng(SEED + 7, t))
        tset = build_transceivers(ch, CFG, fixed_cyclic(CFG.K))
        decoders = quantized_decoder(ch, tset.assignment, tset.patterns, tset.patterns)
        images = link_images(ch, decoders, tset.patterns)
        for k in range(CFG.K):
            for i in range(CFG.L):
                limited = throughput(images, CFG)[i, k]
                unlimited = user_rate(ch, tset, CFG)[i, k]
                worst = max(worst, abs(limited - unlimited) / max(unlimited, 1e-30))
    report(
        "criterion 10: lossless feedback reproduces unlimited-feedback rates",
        worst < 1e-9,
        f"worst relative gap {worst:.2e} over 50 trials",
    )


def test_11_backhaul_accounting():
    cfg = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2)
    one = backhaul_overhead("one_sided", cfg, B=300, N_C=1)
    two = backhaul_overhead("two_sided", cfg, B=300, N_C=1)
    cen = backhaul_overhead("centralized", cfg, B=300, N_C=1)
    fix = backhaul_overhead("fixed", cfg, B=300, N_C=1)
    ok = (
        (one.before_cc, one.assignment_bits, one.after_cc, one.after_bits)
        == (0, (16, 16), 128, 900)
        and (two.before_cc, two.assignment_bits, two.after_cc, two.after_bits)
        == (384, (16, 52), 0, 900)
        and (cen.before_cc, cen.assignment_bits, cen.after_cc, cen.after_bits)
        == (960, (0, 0), 96, 900)
        and (fix.before_cc, fix.assignment_bits, fix.after_cc, fix.after_bits)
        == (0, None, 128, 0)
    )
    report("criterion 11: backhaul overhead table reproduced exactly", ok)


def test_12_sweep_determinism(tmp_path):
    spec = SweepSpec(
        variable="B",
        grid=(32, 64),
        trials=4,
        schemes=(
            SchemeSpec(assignment="fixed", bit_alloc="dba"),
            SchemeSpec(assignment="fixed", bit_alloc="eba"),
        ),
        seed=SEED + 8,
    )
    p1, p2 = tmp_path / "first.csv", tmp_path / "second.csv"
    run_sweep(spec, CFG, out_path=str(p1))
    run_sweep(spec, CFG, out_path=str(p2))
    ok = p1.read_bytes() == p2.read_bytes()
    report("criterion 12: identical seed reruns are byte-identical CSV", ok)
