"""Command-line interface: sweep / verify / decompose."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .photonics import decompose_lx
from .sweep import (
    ConfigError,
    SweepConfig,
    config_from_file,
    emit,
    run_sweep,
    theta_grid,
    verify_dataset,
)


def _build_parser():
    parser = argparse.ArgumentParser(prog="varbound")
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="run the state-family sweep and emit datasets")
    sw.add_argument("--config", help="key=value config file; flags below override nothing when given")
    sw.add_argument("--theta-steps", type=int, default=11)
    sw.add_argument("--counts", type=int, default=10_000)
    sw.add_argument("--seed", type=int, default=7)
    sw.add_argument("--trials", type=int, default=1)
    sw.add_argument("--optimize-basis", action="store_true")
    sw.add_argument("--dense", type=int, default=0)
    sw.add_argument("--out", default="out")
    sw.add_argument("--format", default="csv,json")

    vf = sub.add_parser("verify", help="re-check a written JSON dataset")
    vf.add_argument("dataset")

    dc = sub.add_parser("decompose", help="print the measurement unitary factorization")
    dc.add_argument("--observable", default="Lx", choices=["Lx"])
    return parser


def _sweep_config(args) -> SweepConfig:
    if args.config:
        return config_from_file(args.config)
    return SweepConfig(
        thetas=theta_grid(args.theta_steps),
        counts=args.counts,
        seed=args.seed,
        trials=args.trials,
        optimize_basis=args.optimize_basis,
        dense=args.dense,
        out_dir=args.out,
        formats=tuple(args.format.split(",")),
    )


def _print_matrix(name, m):
    print(f"{name} =")
    with np.printoptions(precision=6, suppress=True):
        print(np.array_str(m))


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            config = _sweep_config(args)
            rows, report, dense_rows = run_sweep(config)
            written = emit(rows, report, config, dense_rows)
            for path in written:
                print(f"wrote {path}")
            for row in rows:
                flags = " ".join(f"{k}:{v}" for k, v in sorted(row.statuses.items()))
                print(f"j={row.j:2d} theta={row.theta:.4f}  {flags}")
            print("verdict:", "ok" if report.ok else "VIOLATION")
            return 0 if report.ok else 1
        if args.command == "verify":
            status = verify_dataset(args.dataset)
            print({0: "ok", 1: "violation", 2: "malformed dataset"}[status])
            return status
        if args.command == "decompose":
            u, u1, u2, u3, residual = decompose_lx()
            _print_matrix("U", u)
            _print_matrix("U1", u1)
            _print_matrix("U2 (corrected)", u2)
            _print_matrix("U3", u3)
            print(f"max |U - U3 U2 U1| = {residual:.3e}")
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
