"""System configuration, feasibility checks and random channel generation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityExceeded, ContractViolation, InfeasibleConfig
from .linalg import complex_gaussian

DRAW_BYTE_GUARD = 2 ** 30  # largest working set of one channel draw, in bytes
# Largest P/sigma2 (1000 dB), and largest P, a config takes. The rate path's largest
# products are P and P/(d_s sigma2) times a squared gain g of the channel images (the
# Grams of ``gia.user_rate`` and ``harness.throughput``, the screen's P/(d_s sigma2)/lambda).
# Under the ceiling they stay below 1e154 for any g below 1e54, so the kernels that square
# them (norms, eigenvalue solvers) stay inside the double range; 3080 dB gave NaN rows.
SNR_CEILING = 1e100
# Smallest P/sigma2 (-120 dB) a config takes: ``harness.throughput``'s difference of log-dets
# cancels as P/sigma2 vanishes (rb rates 1e-4 off at -120 dB, negative at -200 dB).
SNR_FLOOR = 1e-12


def check_whole(value, what: str) -> None:
    """A count, seed or budget is a whole number: a Python or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractViolation(f"{what} {value!r} is not a whole number")


def check_real(value, what: str) -> None:
    """A power or grid value is a finite real number: a Python or numpy integer or
    float, not a bool."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not math.isfinite(value)):
        raise ContractViolation(f"{what} {value!r} is not a finite real number")


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions and powers of a K-cell interfering MIMO uplink cluster.

    K cells, L users per cell, N_B antennas per base station, N_U antennas
    per user, d_s streams per user. All users share the transmit power P and
    all base stations the noise power sigma2 (both linear).
    """

    K: int
    L: int
    N_B: int
    N_U: int
    d_s: int
    P: float = 1.0
    sigma2: float = 1.0

    def __post_init__(self):
        for name in ("K", "L", "N_B", "N_U", "d_s"):
            check_whole(getattr(self, name), name)
        check_real(self.P, "P")
        check_real(self.sigma2, "sigma2")
        if self.K < 3:
            raise ContractViolation("need at least 3 cells")
        if self.L < 1 or self.d_s < 1 or self.N_B < 1 or self.N_U < 1:
            raise ContractViolation("counts must be positive")
        if not (0 < self.P < math.inf and 0 < self.sigma2 < math.inf):  # also rejects NaN
            raise ContractViolation("powers must be positive and finite")
        snr = float(self.P) / float(self.sigma2)  # Python floats: inf, not a numpy warning
        if max(self.P, snr) > SNR_CEILING:
            raise ContractViolation(f"P {self.P!r} and P/sigma2 {snr!r} must be at most the "
                                    f"ceiling {SNR_CEILING!r} (1000 dB)")
        if snr < SNR_FLOOR:
            raise ContractViolation(f"P/sigma2 {snr!r} must be at least the floor "
                                    f"{SNR_FLOOR!r} (-120 dB)")

    @property
    def user_count(self) -> int:
        return self.K * self.L

    def at_snr_db(self, snr_db: float) -> "SystemConfig":
        """Same system with transmit power set so that P/sigma2 hits snr_db;
        :class:`ContractViolation` if that power is not a finite float."""
        try:
            return replace(self, P=self.sigma2 * 10.0 ** (snr_db / 10.0))
        except OverflowError as exc:
            raise ContractViolation(f"SNR {snr_db} dB overflows the transmit power") from exc


def per_config(cfg, value, ndim: int):
    """``value(cfg)`` of one config. Of a tuple of configs (one system at several
    powers), the values on a leading axis followed by ``ndim`` unit axes, so that
    they broadcast over an operand of ``ndim`` axes and give one slice per config."""
    if isinstance(cfg, SystemConfig):
        return value(cfg)
    return np.reshape([value(c) for c in cfg], (-1,) + (1,) * ndim)


def require_feasible(cfg: SystemConfig) -> None:
    """Refuse, with :class:`InfeasibleConfig`, a config on which the grouped alignment
    cannot carry d_s streams per user; the message names each inequality that fails."""
    K, L, N_B, N_U, d_s = cfg.K, cfg.L, cfg.N_B, cfg.N_U, cfg.d_s
    failed = [condition for holds, condition in (
        (L * N_U >= (L - 1) * N_B + d_s, "users: L*N_U >= (L-1)*N_B + d_s"),
        (N_B >= ((K - 1) * L + 1) * d_s, "stations: N_B >= ((K-1)*L + 1)*d_s")) if not holds]
    if failed:
        raise InfeasibleConfig(f"(K,L,N_B,N_U,d_s)=({K},{L},{N_B},{N_U},{d_s}) violates the "
                               f"alignment dimension condition on {'; and on '.join(failed)}")


def require_draw_fits(cfg: SystemConfig) -> None:
    """Refuse, before anything is allocated, a config whose per-draw working set
    exceeds the byte guard: the complex channels H, every pair's pieces
    (``gia.Potentials``) and the centralized screen's pair table."""
    K, L, N_B, N_U, d_s = cfg.K, cfg.L, cfg.N_B, cfg.N_U, cfg.d_s
    size = 16 * K * K * (L * N_B * N_U + 2 * L * N_U * d_s + L * d_s * d_s
                         + (L * K + 2) * N_B * d_s)
    if size > DRAW_BYTE_GUARD:
        raise CapacityExceeded(
            f"one channel draw needs {size} bytes, over the {DRAW_BYTE_GUARD}-byte guard")


@dataclass(frozen=True)
class ChannelRealization:
    """One quasi-static channel draw.

    H has shape (L, K, K, N_B, N_U); H[i, k, l] is the channel from user
    (i, k) to base station l, scaled by the square root of its path loss
    (1 on direct links). Anything but a finite complex array of that shape, with
    no empty axis, raises :class:`ContractViolation`: a NaN would reach the rates
    unnoticed.
    """

    H: np.ndarray

    def __post_init__(self):
        H = self.H
        if not isinstance(H, np.ndarray):
            raise ContractViolation(f"channels must be a numpy array, got {type(H).__name__}")
        if H.dtype.kind != "c" or H.ndim != 5 or H.shape[1] != H.shape[2] or H.size == 0:
            raise ContractViolation(f"channels must be a complex (L, K, K, N_B, N_U) array, "
                                    f"got {H.dtype} of shape {H.shape}")
        if not np.isfinite(H).all():
            raise ContractViolation("channels have non-finite entries")


def trial_rng(seed: int, trial_index: int, stream: int = 0) -> np.random.Generator:
    """Counter-based substream: independent of call order across trials."""
    return np.random.default_rng([seed, trial_index, stream])


def draw_channels(cfg: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Rayleigh-fading draw: unit direct-link path loss, uniform cross-link loss."""
    K, L = cfg.K, cfg.L
    Hbar = complex_gaussian(rng, (L, K, K, cfg.N_B, cfg.N_U))
    eta = rng.uniform(0.0, 1.0, size=(L, K, K))
    for k in range(K):
        eta[:, k, k] = 1.0
    H = np.sqrt(eta)[..., None, None] * Hbar
    return ChannelRealization(H=H)


def load_run_config(path: str) -> dict:
    """Read a run configuration file (JSON).

    Recognized keys: K, L, N_B, N_U, d_s, snr_db (scalar or [start, step, end]),
    seed, trials. The dimensions are required; unknown keys are rejected to
    catch typos. Every failure is a :class:`ContractViolation`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers malformed JSON
        raise ContractViolation(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ContractViolation(f"config {path} must hold a JSON object")
    allowed = {"K", "L", "N_B", "N_U", "d_s", "snr_db", "seed", "trials"}
    unknown = set(raw) - allowed
    if unknown:
        raise ContractViolation(f"unknown config keys: {sorted(unknown)}")
    missing = {"K", "L", "N_B", "N_U", "d_s"} - set(raw)
    if missing:
        raise ContractViolation(f"config {path} lacks keys: {sorted(missing)}")
    return raw
