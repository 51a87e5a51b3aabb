"""Command-line interface: sweep / verify / decompose."""

from __future__ import annotations

import argparse
import sys
from functools import cache

import numpy as np

from .photonics import decompose_lx
from .sweep import ConfigError, config_from_file, emit, run_sweep, verify_dataset


@cache
def _build_parser():
    parser = argparse.ArgumentParser(prog="varbound")
    sub = parser.add_subparsers(dest="command", required=True)

    # only the flags given reach the namespace; config_from_file parses them
    # as the config file's keys, which they override
    sw = sub.add_parser("sweep", help="run the state-family sweep and emit datasets",
                        argument_default=argparse.SUPPRESS)
    sw.add_argument("--config", help="key=value config file; a flag below overrides its key")
    for flag in ("--theta-steps", "--counts", "--seed", "--trials", "--dense"):
        sw.add_argument(flag)
    sw.add_argument("--optimize-basis", action="store_const", const="1", dest="optimize_basis")
    sw.add_argument("--out", dest="out_dir")
    sw.add_argument("--format", dest="formats")

    vf = sub.add_parser("verify", help="re-check a written JSON dataset")
    vf.add_argument("dataset")

    dc = sub.add_parser("decompose", help="print the measurement unitary factorization")
    dc.add_argument("--observable", default="Lx", choices=["Lx"])
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
            config = config_from_file(getattr(args, "config", None), flags)
            table, report, dense = run_sweep(config)
            try:
                written = emit(table, report, config, dense)
            except OSError as exc:
                print(f"error: cannot write: {exc}", file=sys.stderr)
                return 2
            for path in written:
                print(f"wrote {path}")
            for (j, theta), statuses in zip(table[:, :2].tolist(), report.statuses):
                flags = " ".join(f"{k}:{v}" for k, v in sorted(statuses.items()))
                print(f"j={int(j):2d} theta={theta:.4f}  {flags}")
            print("verdict:", "ok" if report.ok else "VIOLATION")
            return 0 if report.ok else 1
        if args.command == "verify":
            status = verify_dataset(args.dataset)
            print({0: "ok", 1: "violation", 2: "malformed dataset"}[status])
            return status
        if args.command == "decompose":
            *factors, residual = decompose_lx()
            for name, m in zip(("U", "U1", "U2 (corrected)", "U3"), factors):
                print(f"{name} =")
                with np.printoptions(precision=6, suppress=True):
                    print(np.array_str(m))
            print(f"max |U - U3 U2 U1| = {residual:.3e}")
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
