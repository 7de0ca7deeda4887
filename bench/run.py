"""giasim benchmark: seeded sweep throughput, set-up time and peak memory.

    python3 bench/run.py --workload snr_sweep --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/``, nothing needs installing. Workloads are listed in workloads.py and
documented, with every metric, in README.md.

``--trace 0`` starts three fresh interpreters one after another, each timing
its own set-up and then repeating one timed sweep for a third of
``--seconds``, and prints the end-to-end metrics. ``--trace 1`` starts one
interpreter that runs the workload's fixed trace sweep with every span
patched in, then times untraced/traced pairs of the measuring sweep for half
of ``--seconds``, and prints the per-layer metrics. Every sweep's CSV is
checked (row checks, repeats byte-identical, and byte equality with
golden.json on golden seeds); any failed cell makes the command exit 1.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The BLAS thread count is pinned to 1 (at most ``nproc``) in every worker and
the benchmark starts no other threads or processes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import GOLDEN_SEEDS, WORKLOADS  # noqa: E402

MEASURE_PROCESSES = 3
# Per-worker time beyond its measuring time: interpreter start, set-up
# (about 2 s on bit_sweep) and one golden sweep, with a wide margin.
WORKER_SLACK_S = 40.0
BLAS_THREADS = "1"
# The SpeedProbe kernel's time (worker.py) on the 2-vCPU Xeon host where the
# benchmark was defined. Times are reported as if the probe took this long.
NOMINAL_PROBE_S = 0.005


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(args, role: str, seconds: float = 0.0, index: int = 0, golden_seed=None) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--role", role,
        "--seconds", repr(seconds), "--index", str(index),
    ]
    if golden_seed is not None:
        cmd += ["--golden-seed", str(golden_seed)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
            timeout=seconds + WORKER_SLACK_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{role} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def spread(values, what: str) -> str:
    if len(values) < 2:
        return f"{len(values)} {what}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)} {what}, quartiles {q1:.6g}..{q3:.6g}"


def end_to_end(args):
    """Three sequential measuring workers, each on its own sweep."""
    return [
        run_worker(
            args, "measure", seconds=args.seconds / MEASURE_PROCESSES, index=i,
            golden_seed=GOLDEN_SEEDS[(args.seed * MEASURE_PROCESSES + i) % len(GOLDEN_SEEDS)],
        )
        for i in range(MEASURE_PROCESSES)
    ]


def end_to_end_metrics(workers) -> dict:
    """Medians; sweep times are scaled to the nominal probe speed (README.md).

    A sweep that took dt seconds while the probe took p seconds is reported
    as taking dt * NOMINAL_PROBE_S / p: the host's speed state cancels, the
    program's own speed does not, because the probe never runs giasim code.
    """
    sweeps = [sample for w in workers for sample in w["sweeps"]]
    rates = [trials / dt * probe / NOMINAL_PROBE_S for trials, dt, probe in sweeps]
    wall = [trials / dt for trials, dt, _ in sweeps]
    speed = [NOMINAL_PROBE_S / probe for _, _, probe in sweeps]
    setups = [w["setup_s"] for w in workers]
    rss = [w["peak_rss_mb"] for w in workers]
    return {
        "trials_per_s": (statistics.median(rates), "trials/s", spread(rates, "sweeps")
                         + f"; wall-clock median {statistics.median(wall):.6g}, "
                         f"host speed {statistics.median(speed):.3g}x nominal"),
        "setup_s": (statistics.median(setups), "s", spread(setups, "processes")),
        "peak_rss_mb": (statistics.median(rss), "MB", spread(rss, "processes")),
    }


def per_layer(args):
    """One traced worker; its overhead pairs take half of ``--seconds``."""
    worker = run_worker(
        args, "traced", seconds=args.seconds / 2,
        golden_seed=GOLDEN_SEEDS[args.seed % len(GOLDEN_SEEDS)],
    )
    if "raised" not in worker and worker["silent"]:
        raise BenchError(f"spans never fired on {args.workload}: {', '.join(worker['silent'])}")
    return [worker]


def per_layer_metrics(workers) -> dict:
    (worker,) = workers
    pairs = worker["pairs"]
    metrics = {name: (value, unit, "") for name, (value, unit) in worker["layers"].items()}
    metrics["trace.untraced_trials_per_s"] = (statistics.median(
        trials / plain * probe / NOMINAL_PROBE_S for trials, plain, _, probe in pairs
    ), "trials/s", f"median of {len(pairs)} pairs")
    metrics["trace.traced_trials_per_s"] = (statistics.median(
        trials / traced * probe / NOMINAL_PROBE_S for trials, _, traced, probe in pairs
    ), "trials/s", f"median of {len(pairs)} pairs")
    metrics["trace.overhead"] = (statistics.median(
        traced / plain for _, plain, traced, _ in pairs
    ) - 1.0, "ratio", "median over adjacent pairs of traced / untraced time - 1")
    if metrics["trace.span_coverage"][0] < 0.9:
        print("warning: named spans cover less than 90% of the traced sweep", file=sys.stderr)
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "giasim" / "__init__.py").is_file():
        print(f"error: no giasim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        workers = per_layer(args) if args.trace else end_to_end(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    stamp = dict(workers[0]["env"], git_commit=git_commit(), seed=args.seed,
                 workload=args.workload, blas_threads_pinned=int(BLAS_THREADS))
    print("env " + json.dumps(stamp, sort_keys=True))
    if any("raised" in w for w in workers):
        print("error: a sweep raised; no metrics", file=sys.stderr)
        return 1
    metrics = per_layer_metrics(workers) if args.trace else end_to_end_metrics(workers)
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    print(f"failed_frac = {failed / attempted:.6g}  ({failed} of {attempted} sweep cells)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
