"""Golden-CSV regression: seed 0 of every benchmark workload, byte for byte.

Replays the sweeps recorded in ``bench/golden.json`` through the benchmark's
own ``Workload.sweep``, so each CSV is produced exactly as the benchmark
produces it. A refactor that changes any rate, interference level or
formatting in the last printed digit fails here.
"""

import json
import sys
from pathlib import Path

import pytest

import giasim.harness as harness

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
import worker  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed0_csv_is_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "OUT", tmp_path)
    recorded = GOLDEN[name]
    _, data, _ = worker.Workload(harness, name).sweep(recorded["trials"], 0)
    assert data.decode() == recorded["seeds"]["0"]["csv"]
