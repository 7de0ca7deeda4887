"""A row does not depend on the rest of its sweep.

``run_sweep`` plans each draw from the sweep's composition: which pairs to
form, which feedback entries to quantize in one pass, and which powers and
entries to evaluate in one stacked rate call. None of that may move a bit of
any row. Each random sub-sweep below (a subset of the schemes and grid
points, in shuffled order) must give, for every row, the ``float.hex`` of the
same row in the full sweep.
"""

import numpy as np
import pytest

from giasim.harness import SchemeSpec, SweepSpec, run_sweep
from giasim.system import SystemConfig

REFERENCE = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2)
SINGLE_STREAM = SystemConfig(K=3, L=3, N_B=7, N_U=5, d_s=1)

# eight rules, the providers proposer among them, and feedback entries that
# share a plan group (two_sided at codebook seed 1) or sit alone in theirs
SNR_POOL = tuple(SchemeSpec(assignment=a) for a in (
    "fixed", "one_sided", "two_sided", "centralized_sum", "worst_min", "rb", "fdma")) + (
    SchemeSpec(assignment="two_sided", proposer="providers"),
    SchemeSpec(assignment="two_sided", bit_alloc="dba", bits_budget=90),
    SchemeSpec(assignment="two_sided", bit_alloc="eba", bits_budget=30),
    SchemeSpec(assignment="fixed", bit_alloc="dba", bits_budget=30, codebook_seed=2),
    SchemeSpec(assignment="fixed", bit_alloc="eba", bits_budget=90, codebook_seed=2),
)
BIT_POOL = tuple(SchemeSpec(assignment=a, bit_alloc=b)
                 for a in ("fixed", "two_sided", "centralized_sum") for b in ("dba", "eba"))

# (variable, grid, pool, config); trial 1 of seed 41 changes its two-sided
# assignment across the SNR grid, so powers that share one are stacked apart
# from those that do not
SWEEPS = {
    "snr_reference": ("snr_db", (-30.0, 10.0, 50.0), SNR_POOL, REFERENCE),
    "snr_single_stream": ("snr_db", (-30.0, 10.0, 50.0), SNR_POOL, SINGLE_STREAM),
    "bits_reference": ("B", (0, 24, 60, 97, 300), BIT_POOL, REFERENCE.at_snr_db(25.0)),
}
SEED, TRIALS, SUB_SWEEPS = 41, 2, 5


def hex_row(row: dict) -> dict:
    return {key: float.hex(v) if isinstance(v, float) else v for key, v in row.items()}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_rows_do_not_depend_on_the_rest_of_the_sweep(name):
    variable, grid, pool, cfg = SWEEPS[name]
    full = run_sweep(SweepSpec(variable, grid, TRIALS, pool, seed=SEED), cfg)
    by_cell = {(g, s): hex_row(row) for (g, s), row in zip(
        [(g, s) for g in range(len(grid)) for s in range(len(pool))], full)}
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(SUB_SWEEPS):
        points = rng.permutation(len(grid))[:rng.integers(1, len(grid) + 1)].tolist()
        schemes = rng.permutation(len(pool))[:rng.integers(1, 7)].tolist()
        sub = SweepSpec(variable, tuple(grid[g] for g in points), TRIALS,
                        tuple(pool[s] for s in schemes), seed=SEED)
        cells = [(g, s) for g in points for s in schemes]
        for cell, row in zip(cells, run_sweep(sub, cfg), strict=True):
            assert hex_row(row) == by_cell[cell], (name, cell, points, schemes)
