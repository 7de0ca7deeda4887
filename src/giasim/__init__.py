"""Grouping-based interference alignment simulator for multi-cell MIMO uplink.

Cells in a coordinated cluster pair up so that each aligns all of its users'
interference into a small subspace at exactly one other base station, which
then removes everything by zero-forcing. The package provides the
closed-form transceiver construction, three ways to optimize which cell
aligns toward which, Grassmannian limited feedback of the precoder patterns
with dynamic bit allocation, and a seeded Monte-Carlo harness producing CSV.
"""

from .assignment import (
    Assignment,
    PreferenceProfile,
    breaking_step,
    build_preferences,
    centralized_search,
    enumerate_derangements,
    fca_match,
    fixed_cyclic,
    gale_shapley,
    is_stable,
)
from .errors import (
    AlignmentFailure,
    CapacityExceeded,
    ContractViolation,
    DegenerateChannel,
    EmptySubspace,
    GiaSimError,
    InfeasibleConfig,
    NumericalFailure,
    RankDeficient,
)
from .feedback import (
    Codebook,
    dba_allocate,
    eba_allocate,
    generate_codebook,
    omega_matrix,
    quantize,
    quantized_decoder,
    rinr,
    rinr_upper_bound,
)
from .gia import (
    Potentials,
    TransceiverSet,
    build_potentials,
    build_transceivers,
    full_precoder,
    link_images,
    user_rate,
    verify_alignment,
    zf_decoder,
)
from .harness import (
    SchemeSpec,
    SweepSpec,
    backhaul_overhead,
    baseline_fdma,
    baseline_rb,
    run_sweep,
    throughput,
)
from .system import (
    ChannelRealization,
    SystemConfig,
    draw_channels,
    trial_rng,
    validate_feasibility,
)

__version__ = "0.1.0"
