"""One benchmark process: import giasim from the checkout, set up, then sweep.

run.py starts this script in a fresh interpreter for every sample, one at a
time, and reads the JSON object it prints as its last stdout line. Roles:

- ``measure``: repeat one timed sweep until ``--seconds`` pass.
- ``traced``: one fixed sweep of ``trace_trials`` trials per cell with every
  span of tracing.py patched in, then untraced/traced pairs of the measuring
  sweep until ``--seconds`` pass, for the tracing overhead.

Every role first times its set-up: from before ``import giasim`` to the end
of a warm-up sweep of one trial per cell (import, codebook generation and the
one-off small-ball calibration), and every role checks the CSVs it produces.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def derive_seed(*parts) -> int:
    """A 56-bit sweep seed that depends only on ``parts``."""
    return int.from_bytes(hashlib.sha256(repr(parts).encode()).digest()[:7], "big")


def import_harness():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import giasim.harness as harness

    if Path(harness.__file__).resolve().parents[1] != src:
        raise SystemExit(f"giasim imported from {harness.__file__}, not from {src}")
    return harness


class Workload:
    """A workload's config and its sweeps, bound to the imported package."""

    def __init__(self, harness, name: str):
        wl = WORKLOADS[name]
        self.harness = harness
        self.name = name
        self.wl = wl
        cfg = harness.SystemConfig(**wl["dims"])
        self.cfg = cfg if wl["snr_db"] is None else cfg.at_snr_db(wl["snr_db"])
        self.schemes = tuple(harness.SchemeSpec(**s) for s in wl["schemes"])
        self.cells = len(wl["grid"]) * len(self.schemes)

    def sweep(self, trials: int, seed: int, run=None):
        """Run one sweep through run_sweep, CSV written as the CLI writes it.

        Returns the rows, the CSV bytes and the wall time of run_sweep."""
        spec = self.harness.SweepSpec(
            variable=self.wl["variable"], grid=self.wl["grid"], trials=trials,
            schemes=self.schemes, seed=seed,
        )
        path = OUT / f"{self.name}.csv"
        t0 = time.perf_counter()
        rows = (run or self.harness.run_sweep)(spec, self.cfg, str(path))
        seconds = time.perf_counter() - t0
        return rows, path.read_bytes(), seconds

    def bad_cells(self, rows, trials: int) -> int:
        """Cells missing or failing the row checks: trial count, finite rates,
        and on bit sweeps the pathwise bound rinr_db <= bound_db."""
        bad = self.cells - len(rows)
        for row in rows:
            ok = row["trials"] == trials
            ok = ok and math.isfinite(row["r_sum"]) and math.isfinite(row["r_min"])
            if self.wl["variable"] == "B":
                ok = ok and row["rinr_db"] is not None and row["rinr_db"] <= row["bound_db"]
            bad += not ok
        return bad

    def differing_cells(self, got: bytes, want: bytes) -> int:
        """Cells whose CSV row differs between two outputs of the same sweep."""
        if got == want:
            return 0
        got_rows, want_rows = got.decode().splitlines(), want.decode().splitlines()
        if got_rows[:1] != want_rows[:1]:
            return self.cells
        bad = sum(a != b for a, b in zip(got_rows[1:], want_rows[1:]))
        return max(1, bad + abs(len(got_rows) - len(want_rows)))

    def golden_failures(self, seed: int) -> int:
        """Cells whose CSV row differs from the one recorded in golden.json."""
        golden = json.loads((BENCH / "golden.json").read_text())[self.name]
        want = golden["seeds"][str(seed)]
        _, data, _ = self.sweep(golden["trials"], seed)
        if hashlib.sha256(data).hexdigest() == want["sha256"]:
            return 0
        print(f"golden mismatch on {self.name} seed {seed}:\n{data.decode()}", file=sys.stderr)
        return self.differing_cells(data, want["csv"].encode())


def blas_stamp(np) -> dict:
    """BLAS vendor and version as numpy was built, and the live thread count."""
    stamp = {"vendor": None, "version": None, "threads": None, "core": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        stamp.update(vendor=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(str(lib))
        for prefix, suffix in (("openblas", ""), ("scipy_openblas", "64_"), ("openblas", "64_")):
            get_threads = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
            get_core = getattr(dll, f"{prefix}_get_corename{suffix}", None)
            if get_threads is not None:
                get_threads.restype = ctypes.c_int
                stamp["threads"] = get_threads()
                if get_core is not None:
                    get_core.restype = ctypes.c_char_p
                    stamp["core"] = get_core().decode()
                return stamp
    stamp["threads"] = f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"
    return stamp


def environment(np) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_stamp(np),
        "nproc": len(os.sched_getaffinity(0)),
    }


class SpeedProbe:
    """Times a fixed kernel that does not touch giasim: small complex SVDs and
    Hermitian eigenvalues plus dict and arithmetic work, the same mix a trial
    runs. The host this benchmark was defined on switches between a slow and
    a fast state for seconds to minutes at a time (about 1.5x apart); timed
    next to each sweep, the kernel tells which state the sweep ran in."""

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.A = rng.standard_normal((14, 16)) + 1j * rng.standard_normal((14, 16))
        self.B = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))

    def seconds(self) -> float:
        np, A, B = self.np, self.A, self.B
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(60):
            s = np.linalg.svd(A, compute_uv=False)
            w = np.linalg.eigvalsh(B.conj().T @ B)
            table = {(j, k): j * k for j in range(8) for k in range(8)}
            acc += float(s[0]) + float(w[-1]) + sum(table.values())
        return time.perf_counter() - t0


def timed_sweeps(w: Workload, probe: SpeedProbe, seed: int, index: int, seconds: float):
    """Repeat one sweep until ``seconds`` pass; at least one repeat is timed.

    A first, untimed pass fills the codebook cache for these inputs and gives
    the reference CSV; every timed repeat must write the same bytes. Each
    sample is (trials, sweep seconds, mean probe time before and after it).
    """
    trials = w.wl["sweep_trials"]
    sweep_seed = derive_seed(seed, index)
    rows, reference, _ = w.sweep(trials, sweep_seed)
    attempted, failed = w.cells, w.bad_cells(rows, trials)
    samples = []
    probe_before = probe.seconds()
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        rows, data, dt = w.sweep(trials, sweep_seed)
        probe_after = probe.seconds()
        attempted += w.cells
        failed += w.differing_cells(data, reference)
        samples.append([sum(r["trials"] for r in rows), dt, (probe_before + probe_after) / 2])
        probe_before = probe_after
    return samples, attempted, failed


def traced_run(w: Workload, probe: SpeedProbe, seed: int, seconds: float):
    """Per-layer metrics from one traced sweep, then the tracing overhead.

    The fixed trace sweep runs first, right after set-up, so that its call
    counts (codebook cache misses included) repeat exactly for a seed. The
    overhead comes from the measuring sweep repeated in adjacent untraced and
    traced pairs until ``seconds`` pass; both must write the reference CSV.
    Each pair is (trials, untraced seconds, traced seconds, probe seconds).
    """
    from tracing import Tracer

    tracer = Tracer()

    def traced_sweep(*args):
        return tracer.run_root(w.harness.run_sweep, *args)

    trials = w.wl["trace_trials"]
    with tracer.installed():
        rows, _, _ = w.sweep(trials, derive_seed(seed, "trace"), run=traced_sweep)
    done = sum(r["trials"] for r in rows)
    result = {
        "layers": {k: list(v) for k, v in tracer.metrics(done).items()},
        "silent": tracer.silent(w.wl["must_fire"]),
    }
    attempted, failed = w.cells, w.bad_cells(rows, trials)

    trials = w.wl["sweep_trials"]
    sweep_seed = derive_seed(seed, "overhead")
    rows, reference, _ = w.sweep(trials, sweep_seed)
    failed += w.bad_cells(rows, trials)
    pairs = []
    probe_before = probe.seconds()
    deadline = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < deadline:
        _, plain, dt_plain = w.sweep(trials, sweep_seed)
        with tracer.installed():
            _, traced, dt_traced = w.sweep(trials, sweep_seed, run=traced_sweep)
        probe_after = probe.seconds()
        attempted += 2 * w.cells
        failed += w.differing_cells(plain, reference) + w.differing_cells(traced, reference)
        pairs.append([sum(r["trials"] for r in rows), dt_plain, dt_traced,
                      (probe_before + probe_after) / 2])
        probe_before = probe_after
    result["pairs"] = pairs
    return result, attempted, failed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--role", required=True, choices=("measure", "traced"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--index", type=int, default=0)
    ap.add_argument("--golden-seed", type=int, default=None)
    args = ap.parse_args()

    harness = import_harness()
    import numpy as np

    OUT.mkdir(exist_ok=True)
    w = Workload(harness, args.workload)
    result = {}
    try:
        w.sweep(1, derive_seed(args.seed, "warmup"))
        result["setup_s"] = time.perf_counter() - T_START
        probe = SpeedProbe(np)
        if args.role == "measure":
            samples, attempted, failed = timed_sweeps(
                w, probe, args.seed, args.index, args.seconds
            )
            result["sweeps"] = samples
        else:
            out, attempted, failed = traced_run(w, probe, args.seed, args.seconds)
            result.update(out)
        if args.golden_seed is not None:
            attempted += w.cells
            failed += w.golden_failures(args.golden_seed)
    except Exception:  # a sweep that raises fails the run, with a result line
        traceback.print_exc()
        result = {"raised": True}
        attempted = failed = w.cells
    result.update(
        env=environment(np),
        attempted=attempted,
        failed=failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
