"""Time nine layers of varbound at a git ref and in the working tree, in one
process, alternating the two sides round by round.

Usage: python3 tools/ab_time.py <git-ref> [--rounds N]

The ref is exported with ``git archive`` into a temporary directory, as
``tools/same_bytes.py`` does.  Both trees' ``varbound`` packages are imported
from source under distinct package names (``varbound_ref`` and
``varbound_tree``), so the two sides share one interpreter, one numpy and one
host state.  The layers:

- ``_sampled_columns`` on a 25-vector stack: one 12-count vector with every
  count nonzero, and its +1 and -1 vector of each count;
- ``bounds.relation_sides`` on the moments of that stack's 25 rows, estimated
  here as the count path estimates them;
- the count path's estimator ``_estimate`` on one row's (40, 25, 12) sigma
  stack, that 25-vector stack for each of 40 trials;
- its sides stage ``_sides`` on one trial's views of that estimate;
- ``run_sweep`` at the default config with ``trials=40`` (no files written);
- ``run_sweep`` at ``theta_grid(3)`` with ``optimize_basis=True``, the
  ``optimize`` benchmark workload's sweep (no files written);
- ``optimize_bound`` of eq5 alone over the 3 states of ``theta_grid(3)``,
  the library's one-objective search;
- ``evaluate_states`` of Lx and Ly on the 501 states of the dense grid;
- ``evaluate_all`` on one d = 4 Haar state with a random Hermitian pair, the
  ``haar`` benchmark workload's unit of work (its observables built outside
  the timed call).

Each round times every layer on both sides back to back, the ref first in
even rounds and the tree first in odd ones.  A sample is the mean time of one
call over the fastest of three loops (garbage collection off, as in
``timeit``), each loop 10 ms or more, its length fixed per layer before the
first round.  Printed
per layer: each side's median and quartiles over the rounds, the ratio of the
medians (tree / ref) and in how many rounds the tree was faster.  A layer that
one tree lacks, or cannot run, is reported as absent; one that only the ref
lacks is still timed on the tree, and its median and quartiles printed
beside the report.  The exit status is 2 if the ref cannot be exported,
else 0.  Standard library and numpy only.
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
# zero, so the sigma stack holds 2 * 12 + 1 = 25 distinct vectors
COUNTS = np.array([2480, 2517, 5003, 2391, 2655, 4954, 17, 4906, 5077, 3642, 3808, 2550],
                  dtype=float)
# the trials of one row of the trials benchmark workload
ROW_TRIALS = 40
LOOP_S = 0.01
HAAR_DIM, HAAR_SEED = 4, 28
SIDES = ("ref", "tree")


def load(src, name):
    """The sweep, bounds, photonics, hermitian and basis_search modules of the
    varbound package under ``src``, imported as the package ``name``."""
    package = Path(src) / "varbound"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {m: importlib.import_module(f"{name}.{m}")
            for m in ("sweep", "bounds", "photonics", "hermitian", "basis_search")}


def side_inputs(stack, lx, ly):
    """The arguments of ``relation_sides`` from the moments of a (vectors, 12)
    count stack, estimated as the count path estimates them: the outcome
    probabilities of each setting and their first and second moments."""
    n = stack.reshape(-1, 4, 3)
    probs = n / n.sum(axis=-1, keepdims=True)
    order = (-1.0, 1.0, 0.0)
    values = np.array([lx.eigenvalues, ly.eigenvalues, order, order])
    mx, my, mz, mp = np.vecdot(probs, values).T
    mx2, my2 = np.vecdot(probs[:, :2], values[:2] ** 2).T
    fid = {"a_shifted": values[0] - mx[:, None], "b_shifted": values[1] - my[:, None],
           "fid_a": probs[:, 0], "fid_b": probs[:, 1]}
    return (mx2 - mx**2, my2 - my**2, 0.5 * mp - mx * my, abs(mz),
            mx2 + my2 + mp - (mx + my) ** 2, mx2 + my2 - mp - (mx - my) ** 2, fid, lx, ly)


def haar_inputs(hermitian):
    """One d = HAAR_DIM Haar state and a random Hermitian pair, as the
    ``haar`` workload draws them, built by the tree's ``hermitian``."""
    rng, shape = np.random.default_rng(HAAR_SEED), (HAAR_DIM, HAAR_DIM)
    state = hermitian.haar_random_state(HAAR_DIM, rng)
    pair = []
    for _ in range(2):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        pair.append(hermitian.make_observable(0.5 * (x + x.conj().T)))
    return state, *pair


def layers(pkg):
    """{layer name: zero-argument callable} of one tree; the inputs are built
    here, outside the timed calls."""
    sweep, bounds = pkg["sweep"], pkg["bounds"]
    lx, ly = pkg["hermitian"].builtin_spin1()[:2]
    stack = np.vstack([COUNTS, COUNTS + np.eye(12), COUNTS - np.eye(12)])
    row = np.tile(stack, (ROW_TRIALS, 1, 1))
    sides = side_inputs(stack, lx, ly)
    config = sweep.SweepConfig(trials=40)
    optimize = sweep.SweepConfig(thetas=sweep.theta_grid(3), optimize_basis=True)
    family = [pkg["photonics"].prepare_state(t) for t in sweep.theta_grid(3)]
    psi = pkg["photonics"].prepare_amplitudes(np.linspace(0.0, np.pi, 501))
    haar = haar_inputs(pkg["hermitian"])
    # the count path's arguments: what it reads of Lx and Ly, built once, in a
    # tree that builds it; Lx and Ly themselves in one that does not
    obs = (sweep._count_constants(lx, ly),) if hasattr(sweep, "_count_constants") else (lx, ly)
    # one trial's views of the row's estimate, in a tree with the two stages
    views = [x[0] for x in sweep._estimate(row, *obs)] if hasattr(sweep, "_estimate") else None
    return {
        "_sampled_columns (25 vectors)": lambda: sweep._sampled_columns(stack, *obs),
        "relation_sides (25 rows)": lambda: bounds.relation_sides(*sides),
        "_estimate (40 x 25 vectors)": lambda: sweep._estimate(row, *obs),
        "_sides (1 trial)": lambda: sweep._sides(views, *obs),
        "run_sweep (trials=40)": lambda: sweep.run_sweep(config),
        "run_sweep (optimize, 3 points)": lambda: sweep.run_sweep(optimize),
        "optimize_bound (eq5, 3 states)": lambda: pkg["basis_search"].optimize_bound(
            "eq5", family, lx, ly),
        "evaluate_states (501 states)": lambda: bounds.evaluate_states(psi, lx, ly),
        "evaluate_all (one d=4 Haar state)": lambda: bounds.evaluate_all(*haar),
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


def absent_layers(fns):
    """{layer name: why} of each layer of the tree that a side lacks or
    cannot run, from one warm-up call of every layer on both sides;
    ``fns`` maps each of SIDES to its :func:`layers`.  ``why`` names the
    tree where both sides lack the layer."""
    absent = {}
    for name in fns["tree"]:
        for side in SIDES:
            try:
                fns[side][name]()
            except (AttributeError, TypeError, ValueError) as exc:
                absent[name] = f"absent at {side}: {exc!r}"
    return absent


def measure(fns, rounds):
    """Time every layer of the tree over ``rounds`` alternating rounds;
    ``fns`` maps each of SIDES to its :func:`layers`.  Returns (absent,
    numbers, times): :func:`absent_layers`' report, the calls per loop of
    each timed layer, and {layer: {side: per-call seconds, one per round}}
    of each side that runs it, the tree alone where only the ref lacks it."""
    absent = absent_layers(fns)
    sides = {name: [side for side in SIDES if name not in absent
                    or side == "tree" and absent[name].startswith("absent at ref")]
             for name in fns["tree"]}
    numbers = {name: loop_length([fns[side][name] for side in run])
               for name, run in sides.items() if run}
    times = {name: {side: [] for side in sides[name]} for name in numbers}
    for r in range(rounds):
        for name in numbers:
            for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                if side in times[name]:
                    loops = timeit.Timer(fns[side][name]).repeat(3, numbers[name])
                    times[name][side].append(min(loops) / numbers[name])
    return absent, numbers, times


def report_lines(names, absent, numbers, times):
    """One printed line per layer of :func:`measure`'s result."""
    for name in names:
        if name not in numbers:
            yield f"{name}: {absent[name]}"
        elif name in absent:
            yield (f"{name}: {absent[name]}; tree {_us(quartiles(times[name]['tree']))} us "
                   f"({numbers[name]} calls per loop)")
        else:
            yield (format_line(name, summarize(times[name]["ref"], times[name]["tree"]))
                   + f" ({numbers[name]} calls per loop)")


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
        result = measure(fns, args.rounds)
    print(f"{args.rounds} alternating rounds of the working tree against {args.ref}")
    for line in report_lines(fns["tree"], *result):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
