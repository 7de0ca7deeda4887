"""Choices and rates do not depend on the antenna bases or on the cell labels.

A unitary change of basis at every base station l (Q_l) and at every user
(i, k) (W_ik) maps the channel H[i, k, l] to Q_l H[i, k, l] W_ik. Everything a
rule reads is invariant under it: the preference utilities, log-dets of Grams
whose factors rotate together, the rates and the centralized objective. So
every rule must pick the same assignment, and every user keep its rate to
rounding. Relabeling the cells must carry the matchings' choices and rates
with the labels, and relabeling the users within a cell must move no choice
and carry every rate with its user. Both shapes are tight: every decoder's
null space is exactly d_s wide, so no basis choice inside a wider one can
move a rate.

Limited feedback on the fixed ring keeps its bit splits, squared quantization
distances and RINR bound under a station rotation: the leakage eigenvalues and
the distances depend on subspaces only. At budgets that search every user
explicitly, the codeword picks, the rates and the RINR hold too. An emulated
user's rates do not: its geodesic direction is drawn in the coordinates of its
pattern basis and null basis, and both come out of SVDs whose basis inside a
subspace turns with the channel's. The emulated point is at the same distance
in another direction, so only the distances, splits and bound are checked there.

The baselines read no assignment. The ``fdma`` rates depend on each direct
channel's singular values only, so both rotations leave them. The ``rb``
patterns are drawn in user coordinates, so only a station rotation applies:
it turns every matched-filter decoder with the channel and leaves the rates.

Through the trial build, as a sweep runs them, a cell relabeling carries the
``fdma`` rates and the searches' picks, rates and cell summaries. The ``rb``
patterns follow the flat (cell, user) order of their stream, so a relabeling
carries the ``rb`` rates only with the stream's per-user draws relabeled too.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import giasim.harness as hmod
from giasim.assignment import (
    breaking_step,
    build_preferences,
    fca_match,
    fixed_cyclic,
    gale_shapley,
)
from giasim.gia import build_potentials, build_transceivers, cell_pairs, user_rate
from giasim.linalg import complex_gaussian
from giasim.harness import EXPLICIT_BIT_LIMIT, SchemeSpec
from giasim.system import ChannelRealization, SystemConfig, draw_channels, trial_rng
from oracles import centralized_search, feedback_bits, user_index

SHAPES = {
    "k4": SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2).at_snr_db(25.0),
    "single_stream": SystemConfig(K=3, L=3, N_B=7, N_U=5, d_s=1).at_snr_db(25.0),
}
SEED, DRAWS = 77, 20


def choices(ch, cfg):
    """{rule: (assignment, (L, K) user rates)} of the four rules on ``ch``."""
    potentials = build_potentials(ch, cfg, cell_pairs(cfg.K))
    one_sided = build_preferences(ch, cfg, potentials)
    (two_sided,) = build_preferences(ch, (cfg,), potentials, one_sided)
    chosen = {
        "fixed": fixed_cyclic(cfg.K),
        "one_sided": breaking_step(fca_match(one_sided)[0], one_sided),
        "two_sided": breaking_step(gale_shapley(two_sided, "receivers")[0], two_sided),
        "centralized_sum": centralized_search(ch, cfg, "sum_rate", "best", potentials)[0],
    }
    return {rule: (a, user_rate(ch, build_transceivers(ch, cfg, a, potentials), cfg))
            for rule, a in chosen.items()}


def unitaries(rng, shape, n):
    """A stack of random n x n unitaries, from the QR factors of Gaussian matrices."""
    return np.linalg.qr(complex_gaussian(rng, shape + (n, n)))[0]


@pytest.mark.parametrize("cfg", SHAPES.values(), ids=SHAPES.keys())
def test_antenna_rotations_move_no_choice_and_no_rate(cfg):
    rng = np.random.default_rng(SEED)
    for t in range(DRAWS):
        ch = draw_channels(cfg, trial_rng(SEED, t))
        Q = unitaries(rng, (cfg.K,), cfg.N_B)[None, None]             # station l
        W = unitaries(rng, (cfg.L, cfg.K), cfg.N_U)[:, :, None]       # user (i, k)
        rotated = choices(ChannelRealization(H=Q @ ch.H @ W), cfg)
        for rule, (chosen, rates) in choices(ch, cfg).items():
            assert rotated[rule][0] == chosen, (t, rule)
            np.testing.assert_allclose(rotated[rule][1], rates, rtol=1e-12, atol=0)


@pytest.mark.parametrize("cfg", SHAPES.values(), ids=SHAPES.keys())
def test_cell_relabeling_carries_the_matchings(cfg):
    perm = np.array([2, 0, 1] if cfg.K == 3 else [2, 3, 1, 0])  # cell k becomes perm[k]
    inv = np.argsort(perm)
    for t in range(DRAWS):
        ch = draw_channels(cfg, trial_rng(SEED, t))
        moved = choices(ChannelRealization(H=ch.H[:, inv][:, :, inv]), cfg)
        for rule, (chosen, rates) in choices(ch, cfg).items():
            if rule not in ("one_sided", "two_sided"):
                continue
            # cell perm[r] takes provider perm[p] where cell r took p
            assert moved[rule][0].providers == tuple(perm[list(chosen.providers)][inv].tolist())
            np.testing.assert_allclose(moved[rule][1][:, perm], rates, rtol=1e-12, atol=0)


@pytest.mark.parametrize("cfg", SHAPES.values(), ids=SHAPES.keys())
def test_user_relabeling_within_a_cell_moves_no_choice_and_carries_the_rates(cfg):
    rng = np.random.default_rng(SEED)
    for t in range(DRAWS):
        ch = draw_channels(cfg, trial_rng(SEED, t))
        # user i of cell k becomes the user that sigma[i, k] was: H'[i, k] = H[sigma[i, k], k]
        sigma = np.array([rng.permutation(cfg.L) for _ in range(cfg.K)]).T
        moved = choices(ChannelRealization(H=ch.H[sigma, np.arange(cfg.K)]), cfg)
        for rule, (chosen, rates) in choices(ch, cfg).items():
            assert moved[rule][0] == chosen, (t, rule)
            np.testing.assert_allclose(moved[rule][1], rates[sigma, np.arange(cfg.K)],
                                       rtol=1e-12, atol=0)


def transformed_build(cfg, t, schemes, transform):
    """The trial build of ``schemes`` on draw ``t`` after ``transform`` of its channel;
    the streams after the draw are the untransformed build's."""
    draw = hmod.draw_channels
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hmod, "draw_channels", lambda c, rng: transform(draw(c, rng)))
        return hmod.TrialBuild(cfg, SEED, t, 0, [(cfg, s) for s in schemes])


def baseline_rates(cfg, rule, t, transform):
    """The (L, K) rates of baseline ``rule`` on draw ``t`` after ``transform`` of its
    channel; the rb patterns still come from the stream after the draw."""
    build = transformed_build(cfg, t, [SchemeSpec(assignment=rule)], transform)
    baseline = hmod.baseline_rb if rule == "rb" else hmod.baseline_fdma
    return baseline(build, cfg)


@pytest.mark.parametrize("rule, users_too", [("rb", False), ("fdma", True)])
@pytest.mark.parametrize("cfg", SHAPES.values(), ids=SHAPES.keys())
def test_antenna_rotations_move_no_baseline_rate(cfg, rule, users_too):
    rng = np.random.default_rng(SEED)
    for t in range(DRAWS):
        Q = unitaries(rng, (cfg.K,), cfg.N_B)[None, None]
        W = (unitaries(rng, (cfg.L, cfg.K), cfg.N_U)[:, :, None] if users_too
             else np.eye(cfg.N_U))
        rates = baseline_rates(cfg, rule, t, lambda ch: ch)
        rotated = baseline_rates(cfg, rule, t, lambda ch: ChannelRealization(H=Q @ ch.H @ W))
        np.testing.assert_allclose(rotated, rates, rtol=1e-12, atol=0)


def cell_relabeling(cfg):
    """(perm, inv, transform): cell k becomes perm[k] in H's user-cell and station axes."""
    perm = np.array([2, 0, 1] if cfg.K == 3 else [2, 3, 1, 0])
    inv = np.argsort(perm)
    return perm, inv, lambda ch: ChannelRealization(H=ch.H[:, inv][:, :, inv])


@pytest.mark.parametrize("rule", ["fdma", "centralized_sum", "centralized_min", "worst_sum",
                                  "worst_min"])
@pytest.mark.parametrize("cfg", SHAPES.values(), ids=SHAPES.keys())
def test_cell_relabeling_carries_the_harness_rules(cfg, rule):
    # through the trial build, as a sweep runs them: a search picks the relabeled
    # assignment, every rate moves with its cell, and the cell's summary holds
    perm, inv, relabel = cell_relabeling(cfg)
    scheme = SchemeSpec(assignment=rule)
    for t in range(DRAWS):
        build, moved = (transformed_build(cfg, t, [scheme], f) for f in (lambda ch: ch, relabel))
        if rule == "fdma":
            rates, rates_moved = (hmod.baseline_fdma(b, cfg) for b in (build, moved))
        else:
            chosen, chosen_moved = (b.assignment(cfg, scheme) for b in (build, moved))
            # cell perm[r] takes provider perm[p] where cell r took p
            assert chosen_moved.providers == tuple(perm[list(chosen.providers)][inv].tolist())
            rates, rates_moved = (b.user_rates(cfg, b.transceivers(a))
                                  for b, a in ((build, chosen), (moved, chosen_moved)))
        np.testing.assert_allclose(rates_moved[:, perm], rates, rtol=1e-12, atol=0)
        summary, summary_moved = (hmod._evaluate_trial(b, cfg, scheme, 0)[:2]
                                  for b in (build, moved))
        assert summary_moved == pytest.approx(summary, rel=1e-12, abs=0), (t, rule)


@pytest.mark.parametrize("cfg", SHAPES.values(), ids=SHAPES.keys())
def test_cell_relabeling_carries_the_rb_rates_with_their_patterns(cfg):
    # rb draws its patterns from the stream after the channel draw, in flat
    # (cell, user) order, so a relabeled channel alone leaves each pattern at its
    # flat position and carries no rate. What a relabeling carries is the channel
    # and the stream's per-user draws together: then every rate moves with its cell
    perm, inv, relabel = cell_relabeling(cfg)
    scheme = SchemeSpec(assignment="rb")
    for t in range(DRAWS):
        build, moved = (transformed_build(cfg, t, [scheme], f) for f in (lambda ch: ch, relabel))
        stream = moved._rng_after_draw
        moved._rng_after_draw = SimpleNamespace(standard_normal=lambda shape: (
            stream.standard_normal(shape).reshape((cfg.K, cfg.L) + shape[1:])[inv].reshape(shape)))
        np.testing.assert_allclose(hmod.baseline_rb(moved, cfg)[:, perm],
                                   hmod.baseline_rb(build, cfg), rtol=1e-12, atol=0)


def feedback_of(build, cfg, scheme):
    """(bit split, quantized patterns, squared distances, (rates, RINR, bound)) of the
    fixed ring's feedback entry ``scheme`` on ``build``."""
    tset = build.transceivers(fixed_cyclic(cfg.K))
    bits = feedback_bits(build, cfg, scheme, tset)
    (q,), (dist,) = build.quantized(scheme, tset, [bits.tolist()])
    return bits, q, dist, build.feedback_rates(cfg, scheme, tset)


def near_tie(cfg, scheme, user, bits, pattern):
    """Whether the two best codewords of ``user``'s book at ``bits`` lie within 1e-10
    of each other in squared chordal distance from ``pattern``."""
    cb = hmod._cached_codebook(cfg.N_U, cfg.d_s, bits, user, scheme.codebook_seed)
    dist = np.sort(cfg.d_s - np.sum(np.abs(cb.words_h @ pattern) ** 2, axis=(1, 2)))
    return len(dist) > 1 and dist[1] - dist[0] <= 1e-10


@pytest.mark.parametrize("cfg", SHAPES.values(), ids=SHAPES.keys())
def test_station_rotations_move_no_bit_split_distance_or_explicit_pick(cfg):
    rng = np.random.default_rng(SEED)
    n = cfg.user_count
    # all explicit under eba; dba emulates its high-leakage users at 6 and 10 bits each
    schemes = [SchemeSpec(assignment="fixed", bit_alloc=rule, bits_budget=b * n, codebook_seed=5)
               for b in (2, 6, 10) for rule in ("dba", "eba")]
    explicit = emulated = ties = 0
    for t in range(DRAWS):
        Q = unitaries(rng, (cfg.K,), cfg.N_B)[None, None]
        build = transformed_build(cfg, t, schemes, lambda ch: ch)
        rotated = transformed_build(cfg, t, schemes, lambda ch: ChannelRealization(H=Q @ ch.H))
        for scheme in schemes:
            bits, q, dist, (rates, rinr, bound) = feedback_of(build, cfg, scheme)
            bits_r, q_r, dist_r, (rates_r, rinr_r, bound_r) = feedback_of(rotated, cfg, scheme)
            assert np.array_equal(bits_r, bits), (t, scheme)
            # a distance is d_s - |V^H W|^2: its rounding is a few ulps of d_s, absolute
            np.testing.assert_allclose(dist_r, dist, rtol=1e-12, atol=cfg.d_s * 2.0 ** -48)
            np.testing.assert_allclose(bound_r, bound, rtol=1e-12, atol=0)
            if bits.max() > EXPLICIT_BIT_LIMIT:
                emulated += 1
                continue
            explicit += 1
            patterns = build.transceivers(fixed_cyclic(cfg.K)).patterns
            for i in range(cfg.L):
                for k in range(cfg.K):
                    b = int(bits[user_index(cfg, i, k)])
                    if near_tie(cfg, scheme, user_index(cfg, i, k), b, patterns[i, k]):
                        ties += 1
                    else:  # the pick is the codeword itself: the same bits
                        assert np.array_equal(q_r[i, k], q[i, k]), (t, scheme, i, k)
            # a rate is logdet(I + C + A) - logdet(I + C): its rounding is a few ulps
            # of those log-dets, absolute, where a user's residual interference C is high
            np.testing.assert_allclose(rates_r, rates, rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(rinr_r, rinr, rtol=1e-12, atol=0)
    # both kinds of entry are met, and no pick is a near tie, so every one is compared
    assert explicit > 0 and emulated > 0 and ties == 0
