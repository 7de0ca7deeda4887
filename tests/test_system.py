import json

import numpy as np
import pytest

from giasim.errors import ContractViolation, InfeasibleConfig
from giasim.system import (
    SNR_CEILING,
    ChannelRealization,
    SNR_FLOOR,
    SystemConfig,
    draw_channels,
    load_run_config,
    require_feasible,
    trial_rng,
)
from oracles import draw_with_path_loss, failed_conditions, feasibility_limits, snr_db


def test_config_validation():
    with pytest.raises(ContractViolation):
        SystemConfig(K=2, L=2, N_B=14, N_U=8, d_s=2)
    with pytest.raises(ContractViolation):
        SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2, P=-1.0)
    cfg = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2, P=100.0)
    assert snr_db(cfg) == pytest.approx(20.0)
    assert cfg.user_count == 8
    assert cfg.at_snr_db(30.0).P == pytest.approx(1000.0)


def test_power_over_the_snr_ceiling_is_refused():
    dims = dict(K=4, L=2, N_B=14, N_U=8, d_s=2)
    assert SystemConfig(**dims).at_snr_db(1000.0).P == SNR_CEILING
    SystemConfig(**dims, P=1.0, sigma2=1 / SNR_CEILING)
    for P, sigma2 in ((SNR_CEILING * 1.5, 1.0), (1.0, 1e-300), (np.float64(1e300), 1e-300),
                      (1e200, 1e150)):  # over it, a tiny sigma2, beyond a float, P alone
        with pytest.raises(ContractViolation, match="ceiling"):
            SystemConfig(**dims, P=P, sigma2=sigma2)
    with pytest.raises(ContractViolation, match="ceiling"):
        SystemConfig(**dims).at_snr_db(1000.1)


def test_power_under_the_snr_floor_is_refused():
    dims = dict(K=4, L=2, N_B=14, N_U=8, d_s=2)
    assert SystemConfig(**dims).at_snr_db(-120.0).P == SNR_FLOOR
    for P, sigma2 in ((1.0, 1e12), (1e-300, 1e-300), (SNR_FLOOR, 1.0)):  # at the floor, tiny powers
        SystemConfig(**dims, P=P, sigma2=sigma2)
    for P, sigma2 in ((SNR_FLOOR / 1.5, 1.0), (1.0, 1e13), (1e-300, 1.0), (5e-324, 1.0)):
        with pytest.raises(ContractViolation, match="floor"):
            SystemConfig(**dims, P=P, sigma2=sigma2)
    with pytest.raises(ContractViolation, match="floor"):
        SystemConfig(**dims).at_snr_db(-120.1)


def test_reference_config_feasible_and_worst_case():
    cfg = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2)
    limits = feasibility_limits(cfg)
    assert failed_conditions(cfg) == set() and limits["worst_case"]
    assert limits["max_streams"] == 2
    assert limits["min_user_antennas"] == 8
    assert limits["max_users_per_cell"] == 2
    assert limits["max_cells"] == 4


def test_three_cell_config_feasible():
    assert require_feasible(SystemConfig(K=3, L=2, N_B=10, N_U=6, d_s=2)) is None


def test_insufficient_bs_antennas():
    assert failed_conditions(SystemConfig(K=3, L=2, N_B=9, N_U=6, d_s=2)) == {"stations"}
    with pytest.raises(InfeasibleConfig, match=r"on stations: N_B >= \(\(K-1\)\*L \+ 1\)\*d_s$"):
        require_feasible(SystemConfig(K=3, L=2, N_B=9, N_U=6, d_s=2))


@pytest.mark.parametrize("N_B, N_U, failed", [
    (14, 7, "users: L*N_U >= (L-1)*N_B + d_s"),
    (13, 8, "stations: N_B >= ((K-1)*L + 1)*d_s"),
    (13, 6, "users: L*N_U >= (L-1)*N_B + d_s; and on stations: N_B >= ((K-1)*L + 1)*d_s"),
])
def test_infeasible_config_names_each_failed_inequality(N_B, N_U, failed):
    with pytest.raises(InfeasibleConfig) as caught:
        require_feasible(SystemConfig(K=4, L=2, N_B=N_B, N_U=N_U, d_s=2))
    assert str(caught.value) == (f"(K,L,N_B,N_U,d_s)=(4,2,{N_B},{N_U},2) violates the "
                                 f"alignment dimension condition on {failed}")


def test_feasibility_monotone_in_antennas():
    # adding a user antenna never hurts; adding a BS antenna relaxes the BS
    # inequality while the user-side inequality re-tightens per its formula
    base = [(4, 2, 14, 8, 2), (3, 2, 10, 6, 2), (5, 1, 5, 2, 1)]
    for K, L, N_B, N_U, d_s in base:
        assert failed_conditions(SystemConfig(K=K, L=L, N_B=N_B, N_U=N_U, d_s=d_s)) == set()
        up_user = failed_conditions(SystemConfig(K=K, L=L, N_B=N_B, N_U=N_U + 1, d_s=d_s))
        assert up_user == set()
        up_bs = failed_conditions(SystemConfig(K=K, L=L, N_B=N_B + 1, N_U=N_U, d_s=d_s))
        assert "stations" not in up_bs
        assert ("users" not in up_bs) == (L * N_U >= (L - 1) * (N_B + 1) + d_s)


def test_draw_is_deterministic():
    cfg = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2)
    a, a_eta = draw_with_path_loss(cfg, trial_rng(9, 4))
    b, b_eta = draw_with_path_loss(cfg, trial_rng(9, 4))
    assert np.array_equal(a.H, b.H) and np.array_equal(a_eta, b_eta)
    c = draw_channels(cfg, trial_rng(9, 5))
    assert not np.array_equal(a.H, c.H)


def _nan_direct_link(H):
    H = H.copy()
    H[0, 0, 0, 0, 0] = np.nan
    return H


@pytest.mark.parametrize("corrupt", [
    _nan_direct_link,
    lambda H: H[0],           # one user index short: (K, K, N_B, N_U)
    lambda H: H[:, :, :3],    # three stations for four user cells
    lambda H: H.real,
], ids=["nan_direct_link", "rank_4", "unequal_cell_axes", "real"])
def test_channels_outside_the_contract_are_refused(corrupt):
    # a NaN channel once passed build_transceivers and gave a NaN user rate
    H = draw_channels(SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2), trial_rng(0, 0)).H
    ChannelRealization(H=H)
    with pytest.raises(ContractViolation):
        ChannelRealization(H=corrupt(H))


def test_direct_links_have_unit_path_loss():
    cfg = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2)
    _, eta = draw_with_path_loss(cfg, trial_rng(0, 0))  # checks H == sqrt(eta) Hbar
    for k in range(cfg.K):
        assert np.all(eta[:, k, k] == 1.0)
    assert np.all((eta >= 0.0) & (eta <= 1.0))


def test_entry_statistics():
    # direct-link entries are unit-variance complex Gaussian; cross path loss
    # averages one half
    cfg = SystemConfig(K=3, L=2, N_B=8, N_U=6, d_s=1)
    power = []
    cross = []
    for t in range(600):
        ch, eta = draw_with_path_loss(cfg, trial_rng(123, t))
        for k in range(cfg.K):
            power.append(np.abs(ch.H[:, k, k]) ** 2)
            for l in range(cfg.K):
                if l != k:
                    cross.extend(eta[:, k, l].ravel())
    mean_power = float(np.mean([p.mean() for p in power]))
    assert abs(mean_power - 1.0) < 0.02
    assert len(cross) >= 7000
    assert abs(float(np.mean(cross)) - 0.5) < 0.02


def test_run_config_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    payload = {"K": 4, "L": 2, "N_B": 14, "N_U": 8, "d_s": 2, "snr_db": [0, 5, 40], "seed": 3, "trials": 10}
    path.write_text(json.dumps(payload))
    assert load_run_config(str(path)) == payload
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"K": 4, "cells": 4}))
    with pytest.raises(ContractViolation):
        load_run_config(str(bad))
