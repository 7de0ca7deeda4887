"""Stacked trial evaluation against the user-by-user loops it replaced.

``gia.user_rate``, ``harness.throughput`` and the two preference sides each
evaluate every user, or every (cell, candidate) pair, in one stacked call.
The references in ``oracles`` are the plain loops, with the same products in
the same association, so the two must agree with ``==`` on every shape of
``test_dimension_fuzz`` (L in {1, 2, 3}, d_s in {1, 2}, tight and slack).
"""

import numpy as np

import oracles
from giasim.assignment import (
    Assignment,
    build_preferences,
    fixed_cyclic,
    provider_preferences,
    receiver_preferences,
)
from giasim.gia import derangements, link_images, user_rate
from giasim.harness import SchemeSpec, TrialBuild, baseline_rb, throughput
from oracles import feasible_configs

SEED = 2718


def builds():
    """One build per fuzz shape, on the draw ``test_dimension_fuzz`` aligns."""
    return [(cfg, TrialBuild(cfg, SEED, t, 0, [(cfg, SchemeSpec(assignment="two_sided"))]))
            for t, cfg in enumerate(feasible_configs(SEED))]


def per_user_array(cfg, fn):
    return np.array([[fn(i, k) for k in range(cfg.K)] for i in range(cfg.L)])


def test_user_rate_equals_per_user_loop():
    for cfg, build in builds():
        last = Assignment(tuple(derangements(cfg.K)[-1].tolist()))
        for assignment in (fixed_cyclic(cfg.K), last):
            tset = build.transceivers(assignment)
            stacked = user_rate(build.ch, tset, cfg)
            U = oracles.decoders(build.ch, tset)
            loop = per_user_array(cfg, lambda i, k: oracles.user_rate(build.ch, tset, U, i, k, cfg))
            assert stacked.shape == (cfg.L, cfg.K)
            assert np.array_equal(stacked, loop), cfg


def test_throughput_equals_per_user_loop():
    # aligned images leave rounding-level interference; the rb images a full one
    for t, (cfg, build) in enumerate(builds()):
        tset = build.transceivers(fixed_cyclic(cfg.K))
        rb = oracles.rb_images(cfg, SEED, t)
        assert np.array_equal(baseline_rb(build, cfg), throughput(rb, cfg)), cfg
        for images in (link_images(build.ch, oracles.decoders(build.ch, tset), tset.patterns), rb):
            stacked = throughput(images, cfg)
            loop = per_user_array(cfg, lambda i, k: oracles.throughput(images, i, k, cfg))
            assert stacked.shape == (cfg.L, cfg.K)
            assert np.array_equal(stacked, loop), cfg


def test_preferences_equal_per_cell_loops():
    for cfg, build in builds():
        potentials = build.potentials()
        one_sided = build_preferences(build.ch, cfg, potentials)
        (prefs,) = build_preferences(build.ch, (cfg,), potentials, one_sided)
        assert prefs.provider is one_sided.provider and one_sided.receiver is None
        assert provider_preferences(build.ch, cfg, potentials) == prefs.provider
        assert receiver_preferences(build.ch, (cfg,), potentials) == [prefs.receiver]
        for k in range(cfg.K):
            ranked, _ = oracles.provider_preferences(build.ch, cfg, k, potentials)
            assert prefs.provider[k] == ranked, cfg
            ranked, _ = oracles.receiver_preferences(build.ch, cfg, k, potentials)
            assert prefs.receiver[k] == ranked, cfg
