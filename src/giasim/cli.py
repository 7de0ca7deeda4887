"""Command-line front end.

    giasim simulate --config cfg.json --assignment two_sided --bit-alloc dba \
        --bits 100:100:500 --trials 200 --seed 1 --out results.csv
    giasim codebook --ambient 8 --sub 2 --bits 6 --seed 1 --out book.bin

Exit codes: 0 success, 2 infeasible configuration, 3 numerical failure,
1 anything else reported as an error (including a usage error, a missing or
malformed config file or value, a bad --snr/--bits grid and a negative seed).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import ContractViolation, GiaSimError, InfeasibleConfig, NumericalFailure
from .feedback import dump_codebook, generate_codebook
from .harness import ASSIGNMENT_SCHEMES, SchemeSpec, SweepSpec, run_sweep
from .system import SystemConfig, load_run_config, require_feasible

import numpy as np

GRID_POINT_CAP = 10_000  # most points a start:step:end sweep may expand to


def parse_grid(text: str, cast=float) -> tuple:
    """A scalar value or an inclusive start:step:end sweep."""
    if ":" in text:
        start_s, step_s, end_s = text.split(":")
        start, step, end = cast(start_s), cast(step_s), cast(end_s)
        if not all(math.isfinite(v) for v in (start, step, end)):
            raise ValueError("sweep start, step and end must be finite")
        if step <= 0:
            raise ValueError("sweep step must be positive")
        if (end - start) / step >= GRID_POINT_CAP:  # floor((end - start) / step) + 1 points
            raise ValueError(f"sweep has more than {GRID_POINT_CAP} points")
        grid = []
        v = start
        while v <= end + 1e-12:
            grid.append(cast(round(v, 10)))
            v += step
        return tuple(grid)
    return (cast(text),)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one error line with exit code 1; argparse's
    own exit code 2 is the one reserved for an infeasible configuration."""

    def error(self, message):
        raise ContractViolation(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="giasim")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte-Carlo sweep and write CSV")
    sim.add_argument("--config", required=True, help="JSON file with K,L,N_B,N_U,d_s,...")
    sim.add_argument("--assignment", default="fixed", choices=ASSIGNMENT_SCHEMES)
    sim.add_argument("--bit-alloc", default="none", choices=("none", "dba", "eba"))
    sim.add_argument("--bits", default=None, help="total feedback bits, scalar or start:step:end")
    sim.add_argument("--snr", default=None, help="SNR in dB, scalar or start:step:end")
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", default="results.csv")
    sim.add_argument("--log-base", default="e", choices=("e", "2"))
    sim.add_argument("--codebook-seed", type=int, default=1)
    sim.add_argument("--proposer", default="receivers", choices=("receivers", "providers"))

    book = sub.add_parser("codebook", help="generate and dump a random subspace codebook")
    book.add_argument("--ambient", type=int, required=True)
    book.add_argument("--sub", type=int, required=True)
    book.add_argument("--bits", type=int, required=True)
    book.add_argument("--seed", type=int, default=1)
    book.add_argument("--out", required=True)
    return parser


def _require_writable(path: str, what: str) -> None:
    """Refuse a path for ``what`` that cannot be written, with the message of a failed
    write: append mode opens it as writing would and truncates nothing, and a file
    that the check made is removed again."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ContractViolation(f"cannot write {what} to {path}: {exc}") from exc
    if not existed:
        os.remove(path)


def _simulate(args) -> int:
    raw = load_run_config(args.config)
    try:
        cfg = SystemConfig(**{key: raw[key] for key in ("K", "L", "N_B", "N_U", "d_s")})
        snr_spec = args.snr if args.snr is not None else raw.get("snr_db", 25.0)
        if isinstance(snr_spec, (int, float)) and not isinstance(snr_spec, bool):
            snr_grid = (float(snr_spec),)
        elif isinstance(snr_spec, (list, tuple)):
            start, step, end = snr_spec
            snr_grid = parse_grid(f"{start}:{step}:{end}")
        else:
            snr_grid = parse_grid(str(snr_spec))
        bits_grid = parse_grid(args.bits, cast=int) if args.bits is not None else None
        trials = args.trials if args.trials is not None else raw.get("trials", 100)
        seed = args.seed if args.seed is not None else raw.get("seed", 0)
    except (TypeError, ValueError) as exc:
        raise ContractViolation(f"bad configuration or grid value: {exc}") from exc
    require_feasible(cfg)
    bit_sweep = bits_grid is not None and len(bits_grid) > 1
    if bit_sweep and len(snr_grid) > 1:
        raise GiaSimError("sweep over either SNR or bits, not both")
    if bits_grid is not None and args.bit_alloc == "none":
        raise GiaSimError("--bits requires --bit-alloc dba or eba")

    scheme = SchemeSpec(
        assignment=args.assignment,
        bit_alloc=args.bit_alloc,
        bits_budget=(bits_grid[0] if bits_grid else 0),
        codebook_seed=args.codebook_seed,
        proposer=args.proposer,
    )
    spec = SweepSpec(variable="B" if bit_sweep else "snr_db",
                     grid=bits_grid if bit_sweep else snr_grid, trials=trials,
                     schemes=(scheme,), seed=seed, log_base=args.log_base)
    _require_writable(args.out, "results")  # before the first trial, not after the sweep
    rows = run_sweep(spec, cfg.at_snr_db(snr_grid[0]) if bit_sweep else cfg, out_path=args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _codebook(args) -> int:
    if args.seed < 0:
        raise ContractViolation(f"negative seed {args.seed}")
    _require_writable(args.out, "codebook")  # before the book is generated, not after
    cb = generate_codebook(args.ambient, args.sub, args.bits, np.random.default_rng(args.seed))
    dump_codebook(cb, args.out)
    print(f"wrote 2^{args.bits} codewords on G({args.ambient},{args.sub}) to {args.out}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "simulate":
            return _simulate(args)
        return _codebook(args)
    except InfeasibleConfig as exc:
        print(f"error: infeasible configuration: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except GiaSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
