"""Self-test of the benchmark's tracer.

    python3 bench/selftest.py [--seconds 2] [--workload NAME ...]

1. Runs the traced benchmark twice per workload at the same seed and
   requires every count metric (calls, bytes) to match exactly.
2. Traces a layer table that names a function the program does not define
   and requires it to be reported as absent with a zero count.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("dense", "trials", "optimize", "haar")
COUNT_SUFFIXES = (".calls", ".bytes")


def traced_counts(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: traced run reported incorrect output")
    return {k: m["value"] for k, m in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)}


def check_counts_repeat(workloads, seconds):
    ok = True
    for w in workloads:
        first, second = traced_counts(w, 3, seconds), traced_counts(w, 3, seconds)
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        ok &= not diff and first.keys() == second.keys()
        print(f"{w}: {len(first)} counts, {'identical' if not diff else f'DIFFER {diff}'}")
    return ok


def check_absent_name():
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    import varbound

    table = tracer.LAYER_METRICS + (("gone.fn", "hermitian.no_such_function", ("calls",)),)
    original, tracer.LAYER_METRICS = tracer.LAYER_METRICS, table
    try:
        with tracer.Tracer("varbound") as t:
            with t.span("job"):
                varbound.builtin_spin1()
        metrics, absent = t.layer_metrics(1)
    finally:
        tracer.LAYER_METRICS = original
    ok = "hermitian.no_such_function" in absent and metrics["gone.fn.calls"][0] == 0
    ok &= metrics["hermitian.make_observable.calls"][0] == 4
    ok &= varbound.make_observable.__module__ == "varbound.hermitian" and not hasattr(
        varbound.make_observable, "__wrapped__")
    print(f"absent name: {'reported' if ok else 'NOT HANDLED'} ({absent})")
    return ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=2.0)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    args = p.parse_args(argv)
    ok = check_absent_name()
    ok &= check_counts_repeat(args.workload or WORKLOADS, args.seconds)
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
