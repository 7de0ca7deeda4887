"""Stacked quantization against the per-user path.

``TrialBuild.quantized`` searches explicit users one by one on the search
layout of the codebooks and emulates the new (user, bit count) pairs of each
call in one ``model_quantize`` call on the draw's geodesic frame, keeping
every quantization once per (assignment, codebook seed). The oracles do each
user alone, as the per-user loop did: the explicit search on the (2^B, M, N)
codewords and the emulation from the user's own stream. Quantized patterns
and distances must be equal with ``==``. ``feedback.quantize`` screens its
book with one real GEMM before the exact search, and ``TrialBuild.feedback``
forms every entry of a plan in one pass: both are checked with ``==``
against their unscreened and one-entry forms.
"""

from dataclasses import replace

import numpy as np
import pytest

import giasim.harness as hmod
from giasim.assignment import fixed_cyclic
from giasim.errors import ContractViolation
from giasim.harness import SchemeSpec, SweepSpec, run_sweep
from giasim.linalg import complex_gaussian, orthonormalize
from giasim.system import SystemConfig
from oracles import (codebook_of, feasible_configs, feedback_bits, leakage, quantize_patterns,
                     search_words_h, user_index)

SEED = 2718
CFG = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2).at_snr_db(25.0)

# per-user bit counts, cycled over the users: explicit (0, 12, 5), emulated
# (13, 300, 40) and beyond 1074 bits, where 2^-B is 0 and the distortion is 0
EDGE_BITS = (13, 0, 1075, 12, 300, 9000, 5, 40)


@pytest.mark.parametrize(
    "t, cfg",
    [(t, cfg) for t, cfg in enumerate(feasible_configs(SEED)) if cfg.N_U >= 2 * cfg.d_s],
    ids=lambda v: str(v) if isinstance(v, int) else f"K{v.K}L{v.L}NB{v.N_B}NU{v.N_U}d{v.d_s}",
)
def test_stacked_quantization_equals_per_user_oracle(t, cfg, monkeypatch):
    # both paths read one small-ball constant; a fixed one spares calibrating
    # the shapes that are not checked in, about 7 s
    monkeypatch.setattr(hmod.fb, "_calibrate_small_ball", lambda M, N: 0.01)
    scheme = SchemeSpec(assignment="fixed", bit_alloc="eba", codebook_seed=3)
    build = hmod.TrialBuild(cfg, SEED, t, 0, [(cfg, scheme)])
    tset = build.transceivers(fixed_cyclic(cfg.K))
    assert np.array_equal(build.leakage(tset)[0], leakage(build.ch, tset, cfg))
    bits = [EDGE_BITS[u % len(EDGE_BITS)] for u in range(cfg.user_count)]
    for shift in (0, 1):  # the second split reuses the frame the first one built
        split = bits[shift:] + bits[:shift]
        (q,), (dist,) = build.quantized(scheme, tset, [split])
        q_ref, dist_ref = quantize_patterns(cfg, scheme, tset, t, split)
        assert np.array_equal(q, q_ref)
        assert np.array_equal(dist, dist_ref)
        for i in range(cfg.L):
            for k in range(cfg.K):
                if split[user_index(cfg, i, k)] > 1074:
                    assert np.array_equal(q[i, k], tset.patterns[i, k])
    assert [stage for stage, _ in build._pieces].count("frame") == 1


def test_narrow_patterns_raise_only_when_a_user_is_emulated():
    # N_U < 2 d_s leaves no room for a geodesic, which explicit search never needs
    cfg = SystemConfig(K=3, L=1, N_B=6, N_U=3, d_s=2).at_snr_db(20.0)
    spec = SweepSpec(
        "B", (0, 12 * cfg.user_count), 2,
        (SchemeSpec(assignment="fixed", bit_alloc="eba"),
         SchemeSpec(assignment="two_sided", bit_alloc="eba")),
        seed=5,
    )
    assert all(row["rinr_db"] is not None for row in run_sweep(spec, cfg))
    with pytest.raises(ContractViolation, match=r"geodesic synthesis needs M >= 2N"):
        run_sweep(replace(spec, grid=(12 * cfg.user_count + 1,)), cfg)


def test_frame_is_built_once_per_draw_and_only_for_emulated_users(monkeypatch):
    built = []
    frame = hmod.fb.GeodesicFrame

    def counted(*args):
        built.append(args)
        return frame(*args)

    monkeypatch.setattr(hmod.fb, "GeodesicFrame", counted)
    trials = 2
    eba = SchemeSpec(assignment="fixed", bit_alloc="eba")
    dba = SchemeSpec(assignment="fixed", bit_alloc="dba")
    # 96 bits over 8 users is 12 each: every user is searched explicitly
    run_sweep(SweepSpec("B", (0, 40, 96), trials, (eba,), seed=8), CFG)
    assert built == []
    # both budgets and both splits of a trial share the fixed assignment's frame
    run_sweep(SweepSpec("B", (300, 400), trials, (eba, dba), seed=8), CFG)
    assert len(built) == trials


def _same_search(got, want):
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    assert float.hex(got[2]) == float.hex(want[2])


@pytest.mark.parametrize(
    "M, N", sorted({(c.N_U, c.d_s) for c in feasible_configs(SEED) if c.N_U > c.d_s}))
def test_screened_search_equals_einsum_search(M, N):
    rng = np.random.default_rng([SEED, M, N])
    for B in range(hmod.EXPLICIT_BIT_LIMIT + 1):
        cb = hmod.fb.generate_codebook(M, N, B, rng)
        for _ in range(3):
            V = orthonormalize(complex_gaussian(rng, (M, N)))
            _same_search(hmod.fb.quantize(V, cb), search_words_h(V, cb))


def test_screen_keeps_every_exact_minimizer():
    rng = np.random.default_rng(SEED)
    M, N = 8, 2
    for trial in range(120):
        words = hmod.fb.generate_codebook(M, N, 6, rng).codewords.copy()
        V = orthonormalize(complex_gaussian(rng, (M, N)))
        best = search_words_h(V, codebook_of(words))[0]
        other = int(rng.integers(len(words) - 1))
        other += other >= best
        if trial % 2:  # an exact copy: the lower index wins
            words[other] = words[best]
        else:  # the same subspace in another basis: equal distances up to roundoff
            words[other] = words[best] @ orthonormalize(complex_gaussian(rng, (N, N)))
        cb = codebook_of(words)
        got = hmod.fb.quantize(V, cb)
        _same_search(got, search_words_h(V, cb))
        if trial % 2:
            assert got[0] == min(best, other)
    # a pattern that is a codeword is found at distance 0 or within roundoff of it
    for k in (0, 17, len(words) - 1):
        got = hmod.fb.quantize(cb.codewords[k], cb)
        _same_search(got, search_words_h(cb.codewords[k], cb))
        assert got[2] < 1e-12


def test_screen_reads_a_book_in_any_layout():
    rng = np.random.default_rng(SEED)
    cb = hmod.fb.generate_codebook(8, 2, 8, rng)
    V = orthonormalize(complex_gaussian(rng, (8, 2)))
    fortran = hmod.fb.Codebook(M=8, N=2, B=8, words_h=np.asfortranarray(cb.words_h))
    _same_search(hmod.fb.quantize(V, fortran), search_words_h(V, cb))


def test_screen_margin_is_the_readme_bound():
    # README "Screened search": 6 N^2 (3M + N + 4) u, u = 2^-53
    for M, N in [(2, 1), (8, 2), (6, 3), (16, 8)]:
        assert hmod.fb._screen_margin(M, N) == 6 * N ** 2 * (3 * M + N + 4) * 2.0 ** -53


@pytest.mark.parametrize(
    "t, cfg",
    [(t, cfg) for t, cfg in enumerate(feasible_configs(SEED)) if cfg.N_U >= 2 * cfg.d_s],
    ids=lambda v: str(v) if isinstance(v, int) else f"K{v.K}L{v.L}NB{v.N_B}NU{v.N_U}d{v.d_s}",
)
def test_batched_feedback_equals_per_entry_feedback(t, cfg, monkeypatch):
    monkeypatch.setattr(hmod.fb, "_calibrate_small_ball", lambda M, N: 0.01)
    # five entries per chunk: the twelve below take two full chunks and a partial one
    monkeypatch.setattr(hmod.gia, "SCREEN_CHUNK_BYTES", 5 * 16 * cfg.user_count * cfg.N_B ** 2)
    calls = []
    decoder = hmod.fb.quantized_decoder

    def counted(ch, assignment, q, *args):
        calls.append(q.shape[0])
        return decoder(ch, assignment, q, *args)

    monkeypatch.setattr(hmod.fb, "quantized_decoder", counted)
    n = cfg.user_count
    # all explicit, explicit and emulated users mixed, all emulated, and copies
    budgets = (0, 4 * n, 12 * n, 12 * n + 1, 30 * n, 1075 * n)
    schemes = [SchemeSpec(assignment="fixed", bit_alloc=rule, bits_budget=b, codebook_seed=3)
               for b in budgets for rule in ("dba", "eba")]
    batched = hmod.TrialBuild(cfg, SEED, t, 0, [(cfg, s) for s in schemes])
    tset = batched.transceivers(fixed_cyclic(cfg.K))
    dist, images = batched.feedback(schemes[7], tset)  # the whole group, in the cells' order
    assert calls == [5, 5, 2]
    rates = [batched.feedback_rates(cfg, s, tset) for s in schemes]  # one more pass, for all
    assert calls == [5, 5, 2] * 2
    for e, scheme in enumerate(schemes):
        lone = hmod.TrialBuild(cfg, SEED, t, 0, [(cfg, scheme)])  # a one-entry group
        lone_tset = lone.transceivers(fixed_cyclic(cfg.K))
        want_dist, want_images = lone.feedback(scheme, lone_tset)
        assert np.array_equal(feedback_bits(batched, cfg, scheme, tset),
                              feedback_bits(lone, cfg, scheme, lone_tset))
        assert np.array_equal(dist[e], want_dist[0])
        assert np.array_equal(images[e], want_images[0])
        for got, want in zip(rates[e], lone.feedback_rates(cfg, scheme, lone_tset)):
            assert np.array_equal(got, want)
        again = batched.feedback_rates(cfg, scheme, tset)  # kept: no decoder is formed
        assert all(np.array_equal(a, b) for a, b in zip(again, rates[e]))
    assert calls == [5, 5, 2] * 2 + [1, 1] * len(schemes)


def test_each_emulated_user_and_count_is_synthesized_once_per_pass(monkeypatch):
    pairs = []
    model = hmod.fb.model_quantize

    def recorded(frame, users, bits):
        pairs.append(list(zip(users, bits)))
        return model(frame, users, bits)

    monkeypatch.setattr(hmod.fb, "model_quantize", recorded)
    n = CFG.user_count
    schemes = [SchemeSpec(assignment="fixed", bit_alloc=rule, bits_budget=b, codebook_seed=3)
               for b in (30 * n, 31 * n, 40 * n) for rule in ("dba", "eba")]
    build = hmod.TrialBuild(CFG, SEED, 0, 0, [(CFG, s) for s in schemes])
    tset = build.transceivers(fixed_cyclic(CFG.K))
    build.feedback(schemes[0], tset)
    emulated = [(u, b) for s in schemes
                for u, b in enumerate(feedback_bits(build, CFG, s, tset).tolist())
                if b > hmod.EXPLICIT_BIT_LIMIT]
    assert pairs == [list(dict.fromkeys(emulated))]
    assert len(pairs[0]) < len(emulated)  # some (user, bit count) is shared by entries


def synthesized(monkeypatch):
    """The (frame, [(user, bit count), ...]) of every ``model_quantize`` call."""
    calls, model = [], hmod.fb.model_quantize

    def recorded(frame, users, bits):
        calls.append((frame, list(zip(users, bits))))
        return model(frame, users, bits)

    monkeypatch.setattr(hmod.fb, "model_quantize", recorded)
    return calls


def per_frame(calls):
    """Every frame's synthesized (user, bit count) pairs, frames in first-call order."""
    frames = list(dict.fromkeys(frame for frame, _ in calls))
    return [[pair for f, pairs in calls if f is frame for pair in pairs] for frame in frames]


def same_rates_as_alone(build, seed, scheme, tset):
    """Whether ``scheme``'s feedback rates on ``build``, a build of draw 0 of ``seed``,
    equal those of a build of that one cell."""
    lone = hmod.TrialBuild(CFG, seed, 0, 0, [(CFG, scheme)])
    want = lone.feedback_rates(CFG, scheme, lone.transceivers(tset.assignment))
    return all(np.array_equal(a, b) for a, b in zip(build.feedback_rates(CFG, scheme, tset), want))


def test_emulated_pair_that_two_chunks_share_is_synthesized_once(monkeypatch):
    # one entry per chunk; at 30 bits each, every user's (user, 30) is the first
    # chunk's, and the second shares all of them but user 0's, which takes 31
    monkeypatch.setattr(hmod.gia, "SCREEN_CHUNK_BYTES", 16 * CFG.user_count * CFG.N_B ** 2)
    calls = synthesized(monkeypatch)
    n = CFG.user_count
    schemes = [SchemeSpec(assignment="fixed", bit_alloc="eba", bits_budget=b, codebook_seed=3)
               for b in (30 * n, 30 * n + 1)]
    build = hmod.TrialBuild(CFG, SEED, 0, 0, [(CFG, s) for s in schemes])
    tset = build.transceivers(fixed_cyclic(CFG.K))
    build.feedback_rates(CFG, schemes[0], tset)
    assert per_frame(calls) == [[(u, 30) for u in range(n)] + [(0, 31)]]
    assert [len(pairs) for _, pairs in calls] == [n, 1]  # one call per chunk
    for scheme in schemes:
        assert same_rates_as_alone(build, SEED, scheme, tset)


def test_emulated_pair_that_two_groups_share_is_synthesized_once_per_seed(monkeypatch):
    # on trial 0 of seed 3 the one-sided match is the ring that fixed runs: the
    # one-sided group's 31-bit entry shares every (user, 30) but user 0's with the
    # fixed group's, on one frame; a group with another codebook seed has its own
    calls = synthesized(monkeypatch)
    n = CFG.user_count
    schemes = [SchemeSpec(assignment=rule, bit_alloc="eba", bits_budget=b, codebook_seed=seed)
               for rule, b, seed in (("fixed", 30 * n, 3), ("one_sided", 30 * n + 1, 3),
                                     ("fixed", 30 * n, 4))]
    build = hmod.TrialBuild(CFG, 3, 0, 0, [(CFG, s) for s in schemes])
    ring = build.assignment(CFG, schemes[0])
    assert build.assignment(CFG, schemes[1]) == ring
    tset = build.transceivers(ring)
    for scheme in schemes:
        build.feedback_rates(CFG, scheme, tset)
    assert per_frame(calls) == [[(u, 30) for u in range(n)] + [(0, 31)],
                                [(u, 30) for u in range(n)]]
    for scheme in schemes:
        assert same_rates_as_alone(build, 3, scheme, tset)
