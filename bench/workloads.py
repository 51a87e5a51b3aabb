"""The four benchmark workloads: inputs, one job, and the check of its output.

A job is one ``varbound sweep`` followed by ``varbound verify`` on the
written dataset (driven in-process through ``varbound.cli.main``), or one
batch of library calls.  ``make_inputs`` runs before the timed region;
``run_job`` is the timed region; ``check`` inspects the job's output.

Functions of the program are looked up on their module at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import io
import json
import math
from pathlib import Path

import numpy as np

import varbound
import varbound.cli as cli

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json.gz"

# Ideal columns may drift from the stored reference by rounding only.
REF_TOL = 1e-9
# Tolerance of the relation checks, matching varbound's SLACK_TOL.
SLACK_TOL = 1e-9
# The sweep's verdict flags a sampled column more than Z_LIMIT sigma from its
# ideal value.  At this commit such flags come from the program's first-order
# sigma, not from errors: it is too small for rhs_eq3 at some theta and the
# 40-trial mean is biased at theta = pi/2.  Over 1,800 seeds of the 11-point
# grid |z| reached 7.75 (rhs_eq3, which cannot go below 0, bounds it), and
# 6.7 over 160 seeds of `trials`.  A flagged job fails only beyond Z_CEILING.
Z_LIMIT = 5.0
Z_CEILING = 10.0
OPT_COLUMNS = ("rhs_eq2_opt", "rhs_eq5_opt")

# Each job takes about 1-2 s on a 2 GHz Xeon, so a 25 s run times 10 or more
# jobs.  dense: eigensolves and moments over a 514-point grid plus ~1 MB of
# emitted data; trials: sampled columns, sigma propagation and photonics;
# optimize: the compass basis search (the only workload reaching it);
# haar: distinct eigensystems in d = 2..6 through the library API.
CLI_ARGS = {
    "dense": ["--theta-steps", "11", "--counts", "10000", "--dense", "500"],
    "trials": ["--theta-steps", "11", "--counts", "10000", "--trials", "40"],
    "optimize": ["--theta-steps", "3", "--optimize-basis"],
}
HAAR_ITEMS = 200
HAAR_DIMS = (2, 3, 4, 5, 6)


@functools.cache
def load_reference():
    with gzip.open(REFERENCE_PATH, "rt") as fh:
        return json.load(fh)


class CliWorkload:
    """``varbound sweep <args> --seed <seed>`` then ``varbound verify``."""

    def __init__(self, name, workdir):
        self.name = name
        self.out_dir = Path(workdir) / name

    def make_inputs(self, seed):
        return CLI_ARGS[self.name] + ["--seed", str(seed), "--out", str(self.out_dir)]

    def run_job(self, argv):
        dataset = self.out_dir / "sweep.json"
        with contextlib.redirect_stdout(io.StringIO()) as out:
            sweep_rc = cli.main(["sweep", *argv])
            verify_rc = cli.main(["verify", str(dataset)])
        return sweep_rc, verify_rc, out.getvalue(), dataset

    def check(self, output):
        sweep_rc, verify_rc, text, dataset = output
        errors = []
        if sweep_rc not in (0, 1):
            errors.append(f"sweep exit status {sweep_rc}")
        if verify_rc != sweep_rc:
            errors.append(f"verify exit status {verify_rc} disagrees with sweep {sweep_rc}")
        verdict = "ok" if sweep_rc == 0 else "VIOLATION"
        if f"verdict: {verdict}" not in text:
            errors.append("printed verdict disagrees with the exit status")
        payload = json.loads(dataset.read_text())
        if payload["report"]["ok"] != (sweep_rc == 0):
            errors.append("dataset report.ok disagrees with the exit status")

        rows, dense = payload["rows"], payload["dense"]
        for r in rows:
            bad = sorted(k for k, v in r["statuses"].items() if v == "violated")
            if bad:
                errors.append(f"row {r['j']}: ideal relations violated: {bad}")
        reference = load_reference()[self.name]
        dev = _reference_deviation(reference["rows"], rows, errors)
        if "dense" in reference:
            dev = max(dev, _reference_deviation(reference["dense"], dense, errors))
        if dev > REF_TOL:
            errors.append(f"ideal columns deviate from the reference by {dev:.3g}")

        opt_gap = _check_optimum(rows, errors) if self.name == "optimize" else None
        columns = [c for c in reference["rows"] if c != "theta"]
        if self.name == "optimize":
            columns += OPT_COLUMNS
        max_z = max(map(abs, _sampled_z(rows, payload["report"]["z_scores"], columns, errors)),
                    default=0.0)
        if max_z > Z_CEILING:
            errors.append(f"a sampled column lies {max_z:.3g} sigma from its ideal value")
        # the verdict is VIOLATION exactly when a relation is violated (an
        # error above) or a z-score exceeds Z_LIMIT
        if not errors and (sweep_rc == 1) != (max_z > Z_LIMIT):
            errors.append(f"verdict {verdict} disagrees with the largest |z| {max_z:.3g}")
        return {
            "ok": not errors,
            "errors": errors,
            "ideal_max_abs_dev": dev,
            "opt_gap": opt_gap,
            "max_abs_z": max_z,
        }


def _sampled_z(rows, report_z, columns, errors):
    """z-score of every sampled column that has an ideal value and a nonzero
    sigma.  A missing or non-finite sampled value or sigma, a zero sigma on a
    value that differs from the ideal one, and a z-score in the sweep's
    report that differs from the one computed here are errors."""
    if len(report_z) != len(rows):
        errors.append(f"report has z-scores for {len(report_z)} of {len(rows)} rows")
        return []
    out = []
    for r, reported in zip(rows, report_z):
        for col in columns:
            ideal, value, sigma = r[col], r.get(f"sampled_{col}"), r.get(f"sigma_{col}")
            if ideal is None:
                continue
            if value is None or sigma is None or not (math.isfinite(value) and math.isfinite(sigma)
                                                      and sigma >= 0):
                errors.append(f"row {r['j']}: sampled {col} = {value} +- {sigma}")
                continue
            if sigma == 0:
                if abs(value - ideal) > REF_TOL:
                    errors.append(f"row {r['j']}: sampled {col} = {value} +- 0, ideal {ideal}")
                continue
            z = (value - ideal) / sigma
            if not math.isclose(reported.get(col, math.nan), z, rel_tol=1e-9, abs_tol=1e-9):
                errors.append(f"row {r['j']}: report z of {col} is {reported.get(col)}, not {z}")
            out.append(z)
    return out


def _reference_deviation(reference, rows, errors):
    """Largest |ideal column - stored reference| over every stored column."""
    if len(rows) != len(reference["theta"]):
        errors.append(f"{len(rows)} rows, reference has {len(reference['theta'])}")
        return math.inf
    dev = 0.0
    for col, ref_values in reference.items():
        for ref, row in zip(ref_values, rows):
            value = row.get(col)
            if ref is None or value is None:
                if ref is not value:
                    errors.append(f"row {row.get('j')}: {col} is {value}, reference {ref}")
                continue
            dev = max(dev, abs(value - ref))
    return dev


def _check_optimum(rows, errors):
    """Optimized-basis columns lie between the computational-basis value and
    the Cauchy-Schwarz ceiling; returns the largest distance to the ceiling."""
    gap = -math.inf
    for r in rows:
        da, db = math.sqrt(max(r["var_lx"], 0.0)), math.sqrt(max(r["var_ly"], 0.0))
        ceilings = {"eq2": r["lhs_prod"], "eq5": 0.5 * (da + db) ** 2}
        for eq, ceiling in ceilings.items():
            opt, canon = r[f"rhs_{eq}_opt"], r[f"rhs_{eq}_canon"]
            if opt is None or not canon - SLACK_TOL <= opt <= ceiling + SLACK_TOL:
                errors.append(f"row {r['j']}: {eq} optimum {opt} outside [{canon}, {ceiling}]")
                continue
            gap = max(gap, ceiling - opt)
    return gap


class HaarWorkload:
    """Library batch: Haar states with two random Hermitian observables each."""

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        items = []
        for i in range(HAAR_ITEMS):
            d = HAAR_DIMS[i % len(HAAR_DIMS)]
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            pair = []
            for _ in range(2):
                x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                pair.append(0.5 * (x + x.conj().T))
            items.append((z / np.linalg.norm(z), *pair))
        return items

    def run_job(self, items):
        reports = []
        for amp, a, b in items:
            try:
                state = varbound.PureState(amp)
                report = varbound.evaluate_all(
                    state, varbound.make_observable(a), varbound.make_observable(b)
                )
            except (ValueError, ArithmeticError, RuntimeError) as exc:
                report = exc
            reports.append(report)
        return reports

    def check(self, reports):
        errors = []
        for i, report in enumerate(reports):
            if isinstance(report, Exception):
                errors.append(f"item {i}: {type(report).__name__}: {report}")
                continue
            bad = sorted(k for k, r in report.results.items() if r.defined and not r.satisfied)
            if bad:
                errors.append(f"item {i}: relations violated: {bad}")
        return {"ok": not errors, "errors": errors}


def make_workload(name, workdir):
    """The workload called ``name``; CLI workloads write under ``workdir``."""
    return HaarWorkload() if name == "haar" else CliWorkload(name, workdir)
