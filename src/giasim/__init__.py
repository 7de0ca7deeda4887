"""Grouping-based interference alignment simulator for multi-cell MIMO uplink.

Cells in a coordinated cluster pair up so that each aligns all of its users'
interference into a small subspace at exactly one other base station, which
then removes everything by zero-forcing. The package provides the
closed-form transceiver construction, three ways to optimize which cell
aligns toward which, Grassmannian limited feedback of the precoder patterns
with dynamic bit allocation, and a seeded Monte-Carlo harness producing CSV.
"""

from .assignment import fixed_cyclic
from .errors import (
    AlignmentFailure,
    CapacityExceeded,
    ContractViolation,
    DegenerateChannel,
    GiaSimError,
    InfeasibleConfig,
    NumericalFailure,
    RankDeficient,
)
from .gia import build_transceivers, user_rate, verify_alignment
from .harness import SchemeSpec, SweepSpec, run_sweep
from .system import SystemConfig, draw_channels, trial_rng

__version__ = "0.1.0"
