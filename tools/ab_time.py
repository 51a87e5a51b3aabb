"""Time four layers of the sweep at a git ref and in the working tree, in one
process, alternating the two sides round by round.

Usage: python3 tools/ab_time.py <git-ref> [--rounds N]

The ref is exported with ``git archive`` into a temporary directory, as
``tools/same_bytes.py`` does.  Both trees' ``varbound`` packages are imported
from source under distinct package names (``varbound_ref`` and
``varbound_tree``), so the two sides share one interpreter, one numpy and one
host state.  The layers:

- ``_sampled_columns`` on a 25-vector stack: one 12-count vector with every
  count nonzero, and its +1 and -1 vector of each count;
- one ``_propagate_sigmas`` trial of that count vector;
- ``run_sweep`` at the default config with ``trials=40`` (no files written);
- ``evaluate_states`` of Lx and Ly on the 501 states of the dense grid.

Each round times every layer on both sides back to back, the ref first in
even rounds and the tree first in odd ones.  A sample is the mean time of one
call over the fastest of three loops (garbage collection off, as in
``timeit``), each loop 10 ms or more, its length fixed per layer before the
first round.  Printed
per layer: each side's median and quartiles over the rounds, the ratio of the
medians (tree / ref) and in how many rounds the tree was faster.  A layer that
one tree lacks, or cannot run, is reported as absent.  The exit status is 2
if the ref cannot be exported, else 0.  Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import itertools
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np

from same_bytes import ROOT, export

# one sampled trial's 12 counts, [Lx(3), Ly(3), Lz(3), Lp(3)], none of them
# zero, so the sigma stack holds 2 * 12 + 1 = 25 vectors
COUNTS = np.array([2480, 2517, 5003, 2391, 2655, 4954, 17, 4906, 5077, 3642, 3808, 2550],
                  dtype=float)
LOOP_S = 0.01
SIDES = ("ref", "tree")


def load(src, name):
    """The sweep, bounds, photonics and hermitian modules of the varbound
    package under ``src``, imported as the package ``name``."""
    package = Path(src) / "varbound"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {m: importlib.import_module(f"{name}.{m}")
            for m in ("sweep", "bounds", "photonics", "hermitian")}


def layers(pkg):
    """{layer name: zero-argument callable} of one tree; the inputs are built
    here, outside the timed calls."""
    sweep, bounds = pkg["sweep"], pkg["bounds"]
    lx, ly = pkg["hermitian"].builtin_spin1()[:2]
    stack = np.vstack([COUNTS, COUNTS + np.eye(12), COUNTS - np.eye(12)])
    config = sweep.SweepConfig(trials=40)
    psi = pkg["photonics"].prepare_amplitudes(np.linspace(0.0, np.pi, 501))
    return {
        "_sampled_columns (25 vectors)": lambda: sweep._sampled_columns(stack, lx, ly),
        "_propagate_sigmas (1 trial)": lambda: sweep._propagate_sigmas(
            COUNTS, lambda c: sweep._sampled_columns(c, lx, ly)),
        "run_sweep (trials=40)": lambda: sweep.run_sweep(config),
        "evaluate_states (501 states)": lambda: bounds.evaluate_states(psi, lx, ly),
    }


def quartiles(times):
    """(first quartile, median, third quartile) of a list of times."""
    if len(times) < 2:
        return (times[0],) * 3
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q1, median, q3


def summarize(ref_times, tree_times):
    """The comparison of one layer's paired samples, round i of each list
    timed back to back: {"ref": quartiles, "tree": quartiles, "ratio": tree
    median / ref median, "wins": rounds where the tree was faster,
    "rounds": rounds}."""
    ref, tree = quartiles(ref_times), quartiles(tree_times)
    return {"ref": ref, "tree": tree, "ratio": tree[1] / ref[1],
            "wins": sum(t < r for r, t in zip(ref_times, tree_times)),
            "rounds": len(ref_times)}


def _us(q):
    q1, median, q3 = (1e6 * t for t in q)
    return f"{median:.1f} [{q1:.1f}-{q3:.1f}]"


def format_line(name, summary):
    """One printed line of a layer's :func:`summarize` result, in us."""
    return (f"{name}: ref {_us(summary['ref'])} us, tree {_us(summary['tree'])} us, "
            f"tree/ref {summary['ratio']:.3f}, "
            f"tree faster in {summary['wins']} of {summary['rounds']} rounds")


def loop_length(fns):
    """Calls per loop: the first of 1, 2, 5, 10, 20, 50, ... whose loop
    takes at least LOOP_S on every side."""
    for number in (j * 10**i for i in itertools.count() for j in (1, 2, 5)):
        if min(timeit.Timer(fn).timeit(number) for fn in fns) >= LOOP_S:
            return number


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("ref")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab_time-") as tmp:
        try:
            export(args.ref, tmp)
        except subprocess.CalledProcessError as exc:
            print(f"cannot export {args.ref!r}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        fns = {"ref": layers(load(Path(tmp) / "src", "varbound_ref")),
               "tree": layers(load(ROOT / "src", "varbound_tree"))}
        absent = {}
        for name in fns["tree"]:
            for side in SIDES:
                try:
                    fns[side][name]()  # a warm-up call
                except (AttributeError, TypeError, ValueError) as exc:
                    absent[name] = f"absent at {side}: {exc!r}"
        timed = [name for name in fns["tree"] if name not in absent]
        numbers = {name: loop_length([fns[side][name] for side in SIDES]) for name in timed}
        times = {name: {side: [] for side in SIDES} for name in timed}
        for r in range(args.rounds):
            for name in timed:
                for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                    loops = timeit.Timer(fns[side][name]).repeat(3, numbers[name])
                    times[name][side].append(min(loops) / numbers[name])
    print(f"{args.rounds} alternating rounds of the working tree against {args.ref}")
    for name in fns["tree"]:
        if name in absent:
            print(f"{name}: {absent[name]}")
        else:
            print(format_line(name, summarize(times[name]["ref"], times[name]["tree"]))
                  + f" ({numbers[name]} calls per loop)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
