import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from giasim import cli, harness
from giasim.cli import GRID_POINT_CAP, main, parse_grid
from giasim.errors import NumericalFailure
from oracles import read_codebook


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {"K": 4, "L": 2, "N_B": 14, "N_U": 8, "d_s": 2, "snr_db": 25.0, "seed": 1, "trials": 2}
        )
    )
    return str(path)


def test_parse_grid():
    assert parse_grid("5") == (5.0,)
    assert parse_grid("0:10:40") == (0.0, 10.0, 20.0, 30.0, 40.0)
    assert parse_grid("100:200:500", cast=int) == (100, 300, 500)
    with pytest.raises(ValueError):
        parse_grid("0:0:10")
    assert len(parse_grid(f"1:1:{GRID_POINT_CAP}", cast=int)) == GRID_POINT_CAP
    with pytest.raises(ValueError):
        parse_grid(f"0:1:{GRID_POINT_CAP}", cast=int)


def test_simulate_snr_sweep(tmp_path, config_file, capsys):
    out = tmp_path / "r.csv"
    code = main(
        [
            "simulate", "--config", config_file, "--assignment", "fixed",
            "--snr", "10:10:30", "--trials", "2", "--seed", "3", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + three grid points
    assert lines[0].startswith("variable,value,scheme")


def test_simulate_bits_sweep_deterministic(tmp_path, config_file):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "simulate", "--config", config_file, "--assignment", "fixed",
        "--bit-alloc", "eba", "--bits", "16:16:48", "--trials", "2",
        "--seed", "11", "--snr", "25",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_infeasible_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"K": 3, "L": 2, "N_B": 9, "N_U": 6, "d_s": 2}))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2


def test_simulate_rejects_double_sweep(tmp_path, config_file):
    code = main(
        [
            "simulate", "--config", config_file, "--bits", "16:16:48",
            "--snr", "0:10:20", "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 1


def test_codebook_subcommand(tmp_path):
    out = tmp_path / "book.bin"
    assert main(
        ["codebook", "--ambient", "8", "--sub", "2", "--bits", "3", "--seed", "5", "--out", str(out)]
    ) == 0
    cb = read_codebook(str(out))
    assert cb.M == 8 and cb.N == 2 and len(cb) == 8
    gram = cb.codewords[0].conj().T @ cb.codewords[0]
    assert np.allclose(gram, np.eye(2), atol=1e-10)


def test_codebook_guard_exit_code(tmp_path):
    assert main(
        ["codebook", "--ambient", "8", "--sub", "2", "--bits", "30", "--out", str(tmp_path / "b")]
    ) == 1


@pytest.mark.parametrize(
    "extra",
    [
        ["--ambient", "8", "--sub", "2", "--bits", "2", "--seed", "-1"],
        ["--ambient", "0", "--sub", "-1", "--bits", "2"],
        ["--ambient", "8", "--sub", "2", "--bits", "-1"],
    ],
    ids=["negative_seed", "nonpositive_dimensions", "negative_bits"],
)
def test_codebook_bad_input_is_an_error_line(tmp_path, capsys, extra):
    out = tmp_path / "book.bin"
    assert main(["codebook", *extra, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not out.exists()
    if extra[extra.index("--bits") + 1] == "-1":  # named, not a 2^-1-entry book over the guard
        assert err == "error: negative bit count -1\n"


def test_codebook_unwritable_out_is_an_error_line(tmp_path, capsys, monkeypatch):
    # refused before the book is generated, which can take seconds and gigabytes
    generated = []
    monkeypatch.setattr(cli, "generate_codebook", lambda *args: generated.append(args))
    out = tmp_path / "no" / "such" / "book.bin"
    assert main(["codebook", "--ambient", "8", "--sub", "2", "--bits", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write codebook to {out}: ") and len(err.splitlines()) == 1
    assert generated == []


def test_snr_triple_from_config_file(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {"K": 4, "L": 2, "N_B": 14, "N_U": 8, "d_s": 2,
             "snr_db": [0, 20, 40], "seed": 2, "trials": 2}
        )
    )
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert [row.split(",")[1] for row in lines[1:]] == ["0", "20", "40"]


def test_log_base_flag(tmp_path, config_file):
    import math

    outs = {}
    for base in ("e", "2"):
        out = tmp_path / f"base{base}.csv"
        assert main(
            ["simulate", "--config", config_file, "--trials", "2", "--seed", "4",
             "--log-base", base, "--out", str(out)]
        ) == 0
        outs[base] = float(out.read_text().splitlines()[1].split(",")[3])
    assert outs["2"] == pytest.approx(outs["e"] / math.log(2.0), rel=1e-9)


def test_bits_without_allocator_rejected(tmp_path, config_file):
    assert main(
        ["simulate", "--config", config_file, "--bits", "100",
         "--out", str(tmp_path / "x.csv")]
    ) == 1


@pytest.mark.parametrize(
    "config, extra",
    [
        ("missing", []),
        ("ok", ["--snr", "abc"]),
        ("ok", ["--snr", "1:0:5"]),
        ("no_L", []),
        ("ok", ["--snr", "nan"]),
        ("ok", ["--assignment", "fdma", "--bit-alloc", "dba", "--bits", "100"]),
        ("ok", ["--assignment", "rb", "--bit-alloc", "eba", "--bits", "100:100:300"]),
        ("ok", ["--assignment", "bogus"]),
        ("ok", ["--trials", "x"]),
        ("ok", ["--seed", "-1"]),
        ("ok", ["--codebook-seed", "-1", "--bit-alloc", "dba", "--bits", "100"]),
        ("trials_abc", []),
        ("seed_x", []),
        ("K_fractional", []),
        ("snr_boolean", []),
        ("trials_fractional", []),
        ("ok", ["--snr", "0:1:inf"]),
        ("ok", ["--snr", "0:nan:10"]),
        ("ok", ["--snr", "0:inf:10"]),
        ("snr_infinite_end", []),
        ("ok", ["--snr", "0:1e-9:100"]),
        ("snr_tiny_step", []),
        ("ok", ["--snr", "4000"]),
        ("ok", ["--snr", "4000", "--bit-alloc", "eba", "--bits", "16:16:48"]),
        ("snr_overflow", []),
        ("ok", ["--assignment", "fixed", "--snr", "3080", "--trials", "1"]),
        ("ok", ["--assignment", "rb", "--snr", "-200", "--trials", "2"]),
    ],
    ids=[
        "missing_config", "snr_not_a_number", "snr_zero_step", "config_without_L", "snr_nan",
        "feedback_on_fdma", "feedback_on_rb", "unknown_assignment", "trials_not_an_int",
        "negative_seed", "negative_codebook_seed", "config_trials_not_an_int",
        "config_seed_not_an_int", "config_fractional_K", "config_boolean_snr",
        "config_fractional_trials", "snr_infinite_end", "snr_nan_step", "snr_infinite_step",
        "config_infinite_snr_end", "snr_tiny_step", "config_tiny_step", "snr_overflow",
        "snr_overflow_at_bit_sweep", "config_snr_overflow", "snr_over_the_ceiling",
        "snr_under_the_floor",
    ],
)
def test_bad_input_is_an_error_line(tmp_path, config_file, capsys, config, extra):
    dims = {"K": 4, "L": 2, "N_B": 14, "N_U": 8, "d_s": 2}
    path = {"ok": config_file, "missing": str(tmp_path / "missing.json")}
    for name, raw in (
        ("no_L", {k: v for k, v in dims.items() if k != "L"}),
        ("trials_abc", {**dims, "trials": "abc"}),
        ("seed_x", {**dims, "seed": "x"}),
        ("K_fractional", {**dims, "K": 4.7}),
        ("snr_boolean", {**dims, "snr_db": True}),
        ("trials_fractional", {**dims, "trials": 2.5}),
        ("snr_infinite_end", {**dims, "snr_db": [0, 1, math.inf]}),
        ("snr_tiny_step", {**dims, "snr_db": [0, 1e-9, 100]}),
        ("snr_overflow", {**dims, "snr_db": [3000, 100, 3200]}),
    ):
        path[name] = str(tmp_path / f"{name}.json")
        Path(path[name]).write_text(json.dumps(raw))
    out = tmp_path / "x.csv"
    code = main(["simulate", "--config", path[config], *extra, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "alloc, bits",
    [("dba", "9223372036854775807"), ("eba", "99999999999999999999999")],
    ids=["dba_int64_max", "eba_beyond_int64"],
)
def test_huge_bit_budget_is_an_error_line(tmp_path, config_file, capsys, alloc, bits):
    # dba's int64 bit sum once wrapped at 2^63 - 1, so its repair loop never
    # ended, and eba's np.full overflowed with a traceback: the budget cap
    # rejects both before any draw. The alarm turns a hang into a failure.
    def hung(signum, frame):
        raise TimeoutError(f"--bit-alloc {alloc} --bits {bits} did not end")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        code = main(["simulate", "--config", config_file, "--bit-alloc", alloc,
                     "--bits", bits, "--out", str(tmp_path / "x.csv")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "2^53" in err
    assert not (tmp_path / "x.csv").exists()


def test_oversized_draw_is_an_error_line(tmp_path, capsys, monkeypatch):
    # a feasible config whose channels H alone take 16 L K^2 N_B N_U bytes, about
    # 7 PiB, once ended in numpy's _ArrayMemoryError traceback: the byte guard
    # refuses it before any draw, and a draw here fails the test, allocating nothing
    def no_draw(*args):
        raise AssertionError("the byte guard let an oversized draw through")

    monkeypatch.setattr(harness, "draw_channels", no_draw)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"K": 100000, "L": 1, "N_B": 100000, "N_U": 1, "d_s": 1}))
    code = main(["simulate", "--config", str(path), "--trials", "1",
                 "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "byte guard" in err
    assert not (tmp_path / "x.csv").exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "simulate" in capsys.readouterr().out


def run_module(*args):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.run(
        [sys.executable, "-m", "giasim", *args],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )


def test_module_entry_point(tmp_path):
    out = tmp_path / "ref.csv"
    done = run_module(
        "simulate", "--config", "configs/reference.json", "--trials", "1", "--out", str(out)
    )
    assert done.returncode == 0, done.stderr
    assert len(out.read_text().splitlines()) == 2
    bad = run_module("simulate", "--config", "configs/reference.json", "--trials", "x")
    assert bad.returncode == 1
    assert bad.stderr.startswith("error:") and "Traceback" not in bad.stderr


@pytest.mark.parametrize("where", [
    "missing_directory", "directory",
    pytest.param("read_only_directory", marks=pytest.mark.skipif(
        hasattr(os, "geteuid") and os.geteuid() == 0, reason="root writes to any directory")),
])
def test_unwritable_out_is_refused_before_the_first_trial(tmp_path, config_file, capsys,
                                                         monkeypatch, where):
    def no_build(*args):
        raise AssertionError("a trial ran before the results path was checked")

    monkeypatch.setattr(harness, "TrialBuild", no_build)
    out = {"missing_directory": tmp_path / "no" / "such" / "x.csv",
           "directory": tmp_path,
           "read_only_directory": tmp_path / "locked" / "x.csv"}[where]
    if where == "read_only_directory":
        out.parent.mkdir(mode=0o500)
    code = main(["simulate", "--config", config_file, "--trials", "30", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot write results to {out}: ") and len(err.splitlines()) == 1
    assert where == "directory" or not out.exists()


def test_sweep_that_fails_after_the_check_leaves_the_out_file_as_it_was(
        tmp_path, config_file, capsys, monkeypatch):
    def failing(*args):
        raise NumericalFailure("synthetic svd", 4, 4)

    monkeypatch.setattr(harness, "TrialBuild", failing)
    kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
    kept.write_text("earlier results\n")
    for out in (kept, new):
        assert main(["simulate", "--config", config_file, "--out", str(out)]) == 3
        assert "synthetic svd" in capsys.readouterr().err
    assert kept.read_text() == "earlier results\n" and not new.exists()
