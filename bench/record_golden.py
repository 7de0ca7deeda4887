"""Record the golden CSVs of every workload into golden.json.

    python3 bench/record_golden.py

Run from the repository root at the commit whose outputs are the reference.
A later run of the benchmark fails any cell whose CSV row differs by a byte.
"""

from __future__ import annotations

import hashlib
import json
import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from worker import BENCH, OUT, WORKLOADS, Workload, import_harness  # noqa: E402
from workloads import GOLDEN_SEEDS  # noqa: E402


def main() -> None:
    harness = import_harness()
    OUT.mkdir(exist_ok=True)
    golden = {}
    for name, wl in WORKLOADS.items():
        w = Workload(harness, name)
        seeds = {}
        for seed in GOLDEN_SEEDS:
            _, data, _ = w.sweep(wl["golden_trials"], seed)
            seeds[str(seed)] = {"sha256": hashlib.sha256(data).hexdigest(), "csv": data.decode()}
        golden[name] = {"trials": wl["golden_trials"], "seeds": seeds}
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
