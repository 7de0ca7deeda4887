"""A transceiver set's ideal zero-forcing decoders are formed inside the rate that reads them.

A perfect-feedback cell forms them in ``gia.user_rate``, which the trial memo's
``user rates`` stage calls once per set; a feedback cell decodes its quantized
patterns through ``feedback.quantized_decoder`` and never forms them. The ideal decoders reach
``gia.zf_decoder`` through gia's module global and the quantized ones through
feedback's, so patching the two names apart tells the two kinds apart.
"""

from dataclasses import replace

import numpy as np
import pytest

import giasim.feedback as fb
import giasim.gia as gia
import giasim.harness as hmod
from giasim.assignment import fixed_cyclic
from giasim.errors import ContractViolation, InfeasibleConfig
from giasim.harness import SchemeSpec, SweepSpec, run_sweep
from giasim.system import SystemConfig, draw_channels, trial_rng

CFG = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2, P=10 ** 2.5, sigma2=1.0)


def _count(monkeypatch, module, name, calls):
    """Append the channel draw of every call of ``module.name`` to ``calls``."""
    real = getattr(module, name)

    def counted(ch, *args):
        calls.append(ch)
        return real(ch, *args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _per_draw(calls, draws):
    return [sum(c is ch for c in calls) for ch in draws]


def test_feedback_sweep_forms_no_ideal_decoders(monkeypatch):
    ideal = _count(monkeypatch, gia, "zf_decoder", [])
    quantized = _count(monkeypatch, fb, "zf_decoder", [])
    decoder_calls = _count(monkeypatch, fb, "quantized_decoder", [])
    schemes = (SchemeSpec(assignment="two_sided", bit_alloc="dba"),
               SchemeSpec(assignment="fixed", bit_alloc="eba"))
    run_sweep(SweepSpec("B", (40, 300), 3, schemes, seed=9), CFG)
    draws = list({id(ch): ch for ch in quantized}.values())  # calls keep every draw alive
    assert len(draws) >= 3 and ideal == []
    assert _per_draw(quantized, draws) == _per_draw(decoder_calls, draws)


def test_perfect_feedback_forms_each_sets_decoders_once(monkeypatch):
    ideal = _count(monkeypatch, gia, "zf_decoder", [])
    built = _count(monkeypatch, gia, "build_transceivers", [])
    rated = _count(monkeypatch, gia, "user_rate", [])
    schemes = tuple(SchemeSpec(assignment=rule) for rule in ("fixed", "one_sided", "two_sided",
                                                             "centralized_sum"))
    run_sweep(SweepSpec("snr_db", (10.0, 30.0), 2, schemes, seed=12), CFG)
    draws = list({id(ch): ch for ch in built}.values())
    assert len(draws) >= 2 and _per_draw(ideal, draws) == _per_draw(built, draws)
    # the first read rates the set at every planned config, on the decoders it
    # formed; a config outside the build's cells is refused, and rates nothing
    planned = (CFG.at_snr_db(10.0), CFG.at_snr_db(20.0))
    build = hmod.TrialBuild(CFG, 12, 0, 0, [(c, SchemeSpec()) for c in planned])
    tset = build.transceivers(fixed_cyclic(CFG.K))
    ideal.clear()
    rated.clear()
    build.user_rates(planned[0], tset)
    with pytest.raises(ContractViolation, match="not among the cells"):
        build.user_rates(CFG.at_snr_db(30.0), tset)
    later = build.user_rates(planned[1], tset)
    assert len(rated) == 1 and len(ideal) == 1
    fresh = gia.build_transceivers(build.ch, CFG, fixed_cyclic(CFG.K))
    assert np.array_equal(later, gia.user_rate(build.ch, fresh, planned[1]))


@pytest.mark.parametrize("N_B, message", [
    (12, "interference stack has no null space, need 2"),
    (13, "interference stack leaves a 1-dimensional null space, need 2"),
])
def test_infeasible_ideal_stack_raises_at_first_read(N_B, message):
    # too few station antennas for the nulling stacks; the alignment systems
    # still have room, so the set is built and only its decoders fail
    cfg = replace(CFG, N_B=N_B)
    ch = draw_channels(cfg, trial_rng(5, 0))
    tset = gia.build_transceivers(ch, cfg, fixed_cyclic(cfg.K))
    for _ in range(2):  # a failed read keeps nothing, so the next read raises again
        with pytest.raises(InfeasibleConfig) as caught:
            gia.user_rate(ch, tset, cfg)
        assert str(caught.value) == message
