"""Workload table of the giasim benchmark, as plain data.

Kept free of giasim and numpy imports so that the orchestrator (run.py) can
read it without paying for, or depending on, the package import.

Each workload is one `giasim simulate` sweep: the config, the grid and the
schemes, exactly as the CLI would build them. The trial counts size the three
kinds of sweep the benchmark runs:

- ``sweep_trials``: trials per cell of the measuring sweep. A measuring
  worker repeats one such sweep, on channels seeded from ``--seed``, until
  its time is up; the traced run times it in untraced/traced pairs.
- ``trace_trials``: trials per cell of the single traced sweep. It is fixed,
  not timed, so that every per-layer call count repeats exactly for a seed.
- ``golden_trials``: trials per cell of the golden-output sweep, whose CSV is
  compared byte for byte against ``golden.json``.

``must_fire`` lists the traced spans this workload has to exercise; a traced
run in which one of them never fires fails, so that a renamed function cannot
silently report zero.
"""

REFERENCE = {"K": 4, "L": 2, "N_B": 14, "N_U": 8, "d_s": 2}

# Spans every workload exercises.
_COMMON = (
    "system.draw_channels",
    "gia.build_potentials",
    "gia.build_transceivers",
    "linalg.svd",
    "linalg.eigh",
)

WORKLOADS = {
    "snr_sweep": {
        "why": "the paper's rate-vs-SNR figure: gia and build_preferences "
        "dominate, feedback idle, 5 grid points share each trial's channel",
        "dims": REFERENCE,
        "variable": "snr_db",
        "grid": (15.0, 20.0, 25.0, 30.0, 35.0),
        "snr_db": None,
        "schemes": (
            {"assignment": "fixed"},
            {"assignment": "one_sided"},
            {"assignment": "two_sided"},
            {"assignment": "rb"},
            {"assignment": "fdma"},
        ),
        "sweep_trials": 2,
        "trace_trials": 40,
        "golden_trials": 2,
        "must_fire": _COMMON + (
            "gia.user_rate",
            "assignment.build_preferences",
            "assignment.match",
            "assignment.is_stable",
            "harness.throughput",
            "harness.baselines",
            "linalg.solve",
        ),
    },
    "bit_sweep": {
        "why": "rate and RINR vs feedback bits at 25 dB: explicit codebook "
        "search at 100 bits, emulation from 300 bits, codebook cache and "
        "small-ball calibration",
        "dims": REFERENCE,
        "variable": "B",
        "grid": (100, 200, 300, 400, 500),
        "snr_db": 25.0,
        "schemes": (
            {"assignment": "two_sided", "bit_alloc": "dba"},
            {"assignment": "two_sided", "bit_alloc": "eba"},
        ),
        "sweep_trials": 2,
        "trace_trials": 20,
        "golden_trials": 2,
        "must_fire": _COMMON + (
            "assignment.build_preferences",
            "assignment.match",
            "assignment.is_stable",
            "feedback.omega_matrix",
            "feedback.allocate",
            "feedback.quantize",
            "feedback.model_quantize",
            "feedback.generate_codebook",
            "feedback.quantized_decoder",
            "feedback.rinr",
            "harness.throughput",
            "linalg.solve",
        ),
    },
    "central_k6": {
        "why": "centralized brute force over D(6)=265 derangements at tight "
        "K=6 antenna counts: one grid point, no feedback, no sweep sharing",
        "dims": {"K": 6, "L": 2, "N_B": 22, "N_U": 12, "d_s": 2},
        "variable": "snr_db",
        "grid": (25.0,),
        "snr_db": None,
        "schemes": ({"assignment": "centralized_sum"},),
        "sweep_trials": 1,
        "trace_trials": 4,
        "golden_trials": 1,
        "must_fire": _COMMON + (
            "gia.user_rate",
            "assignment.centralized_search",
        ),
    },
}

# Golden CSVs are recorded for these sweep seeds; a run checks the ones its
# own seed maps to (see run.py).
GOLDEN_SEEDS = tuple(range(6))
