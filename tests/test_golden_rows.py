"""Bit-level golden rows: ten small sweeps replayed with ``==`` on every float.

The golden CSVs (``test_golden.py``) print 12 significant digits, so a change
in the last bits of a rate passes them unseen. ``golden_rows.json`` keeps the
``float.hex`` form of every unformatted row that ``run_sweep`` returns, so a
speed-up that claims to keep every bit is checked bit for bit.

Re-record only when a change to the outputs is intended:

    PYTHONPATH=src python3 tests/test_golden_rows.py
"""

import json
from pathlib import Path

import pytest

from giasim.harness import SchemeSpec, SweepSpec, run_sweep
from giasim.system import SystemConfig

GOLDEN_ROWS = Path(__file__).resolve().parent / "golden_rows.json"

REFERENCE = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2)
SINGLE_STREAM = SystemConfig(K=3, L=3, N_B=7, N_U=5, d_s=1)
TIGHT_K5 = SystemConfig(K=5, L=2, N_B=18, N_U=10, d_s=2)
TIGHT_K6 = SystemConfig(K=6, L=2, N_B=22, N_U=12, d_s=2)
SINGLE_USER = SystemConfig(K=4, L=1, N_B=8, N_U=4, d_s=2)

# name -> (spec, config). The reference config has 8 users, so 100 bits
# puts some users above the 12-bit explicit-search limit (emulated) and
# some at or below it (explicit codebooks); 40 bits is all explicit and
# 300 bits all emulated. The edge budgets give every user zero bits (a
# one-word codebook) or over 1074 bits, where 2^-B is 0, the emulated
# distortion is 0 and the quantized pattern is a copy of the pattern. The
# schemes_log2 sweep covers the remaining assignment schemes and the rate
# scaling of log_base="2". The tight K=5 sweep puts the centralized search
# and its worst-case mirror on a config whose decoder null space is exactly
# d_s wide; the tight K=6 sweep does the same over D(6) = 265 candidates,
# which the centralized screen walks in chunks, the last one partial. The
# last two sweeps run the SNR schemes at L = 3 with one stream, and at
# L = 1, where the alignment system is empty.
SNR_SCHEMES = tuple(SchemeSpec(assignment=a) for a in
                    ("fixed", "one_sided", "two_sided", "centralized_sum", "rb"))
SWEEPS = {
    "snr_sweep": (
        SweepSpec(
            "snr_db", (-10.0, 20.0, 45.0), 2,
            tuple(SchemeSpec(assignment=a)
                  for a in ("fixed", "one_sided", "two_sided", "rb", "fdma")),
            seed=3,
        ),
        REFERENCE,
    ),
    "centralized_sum": (
        SweepSpec("snr_db", (25.0,), 2, (SchemeSpec(assignment="centralized_sum"),), seed=4),
        REFERENCE,
    ),
    "bit_sweep_d2": (
        SweepSpec(
            "B", (40, 100, 300), 2,
            (SchemeSpec(assignment="two_sided", bit_alloc="dba"),
             SchemeSpec(assignment="fixed", bit_alloc="eba")),
            seed=5,
        ),
        REFERENCE.at_snr_db(25.0),
    ),
    "bit_sweep_edges": (
        SweepSpec(
            "B", (0, 9000), 2,
            (SchemeSpec(assignment="two_sided", bit_alloc="dba"),
             SchemeSpec(assignment="fixed", bit_alloc="eba")),
            seed=14,
        ),
        REFERENCE.at_snr_db(25.0),
    ),
    "bit_sweep_d1": (
        SweepSpec(
            "B", (20, 60, 150), 2,
            (SchemeSpec(assignment="fixed", bit_alloc="dba"),
             SchemeSpec(assignment="two_sided", bit_alloc="eba")),
            seed=6,
        ),
        SINGLE_STREAM.at_snr_db(25.0),
    ),
    "schemes_log2": (
        SweepSpec(
            "snr_db", (10.0, 30.0), 2,
            (SchemeSpec(assignment="centralized_min"),
             SchemeSpec(assignment="worst_sum"),
             SchemeSpec(assignment="worst_min"),
             SchemeSpec(assignment="two_sided", proposer="providers")),
            seed=7,
            log_base="2",
        ),
        REFERENCE,
    ),
    "centralized_tight_k5": (
        SweepSpec(
            "snr_db", (25.0,), 2,
            tuple(SchemeSpec(assignment=a)
                  for a in ("centralized_sum", "centralized_min", "worst_sum", "worst_min")),
            seed=11,
        ),
        TIGHT_K5,
    ),
    "centralized_tight_k6": (
        SweepSpec(
            "snr_db", (25.0,), 1,
            tuple(SchemeSpec(assignment=a)
                  for a in ("centralized_sum", "centralized_min", "worst_sum", "worst_min")),
            seed=15,
        ),
        TIGHT_K6,
    ),
    "snr_sweep_l3_d1": (
        SweepSpec("snr_db", (0.0, 20.0, 40.0), 2, SNR_SCHEMES, seed=12),
        SINGLE_STREAM,
    ),
    "snr_sweep_l1": (
        SweepSpec("snr_db", (0.0, 20.0, 40.0), 2, SNR_SCHEMES, seed=13),
        SINGLE_USER,
    ),
}


def hex_rows(rows: list) -> list:
    """Rows with every float in ``float.hex`` form; other values as they are."""
    return [
        {key: float.hex(v) if isinstance(v, float) else v for key, v in row.items()}
        for row in rows
    ]


def record() -> None:
    golden = {name: hex_rows(run_sweep(spec, cfg)) for name, (spec, cfg) in SWEEPS.items()}
    GOLDEN_ROWS.write_text(json.dumps(golden, indent=1) + "\n")


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_rows_are_bit_identical(name):
    spec, cfg = SWEEPS[name]
    recorded = json.loads(GOLDEN_ROWS.read_text())[name]
    assert hex_rows(run_sweep(spec, cfg)) == recorded


if __name__ == "__main__":
    record()
