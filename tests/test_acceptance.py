"""End-to-end acceptance checks. Each test prints one PASS/FAIL line for
its criterion before asserting, so `pytest -s tests/test_acceptance.py`
gives a one-line-per-criterion scoreboard."""

import time

import numpy as np
import pytest

from varbound.basis_search import OptimizerConfig, optimize_bound
from varbound.bounds import OrthonormalBasis, evaluate_all
from varbound.hermitian import builtin_spin1, haar_random_state
from varbound.photonics import (
    builtin_settings,
    decompose_lx,
    prepare_state,
    projection_probabilities,
    sample_counts,
)
from varbound.sweep import CSV_COLUMNS, VALUE_COLUMNS, SweepConfig, run_sweep

LX, LY, LZ, LP = builtin_spin1()
COMP = OrthonormalBasis.computational(3)
SWEEP_THETAS = [j * np.pi / 10 for j in range(11)]


def _cells(row):
    """{column: value} of one sweep table row, None where the row holds NaN."""
    return {c: None if np.isnan(v) else v for c, v in zip(CSV_COLUMNS, row.tolist(), strict=True)}


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_reverse_bound_anchors():
    t0 = time.perf_counter()
    counts = 10_000
    anchors = {0.0: 1.0, np.pi / 2: 2.0, np.pi: 1.0}
    ideal_ok = True
    for theta, expected in anchors.items():
        r = evaluate_all(prepare_state(theta), LX, LY).results["eq7"]
        ideal_ok &= abs(r.lhs - expected) < 1e-9 and abs(r.rhs - expected) < 1e-9
    # At theta=pi/2 the state is |m=0>, so the 0-outcome ports of the Lx and
    # Ly settings are dark and the sampled <Lx^2>, <Ly^2> are exactly 1. The
    # sampled sum is then 2 - mx^2 - my^2, whose spread is 2/N; a first-order
    # sigma at this stationary point is (2/N) times a Rayleigh(1) variable.
    settings = builtin_settings()
    dark_ok = True
    for name, obs in (("Lx", LX), ("Ly", LY)):
        p = projection_probabilities(prepare_state(np.pi / 2).amplitudes, settings[name])
        dark_ok &= p[int(np.argmin(np.abs(obs.eigenvalues)))] < 1e-15
    dark_spread = 2.0 / counts
    windows = {
        0.0: (0.005, 0.03),
        np.pi / 2: (0.05 * dark_spread, 5.0 * dark_spread),
        np.pi: (0.005, 0.03),
    }
    table, _, _ = run_sweep(SweepConfig(thetas=tuple(anchors), counts=counts))
    sampled_ok = True
    details = []
    for row, expected, (lo, hi) in zip(map(_cells, table), anchors.values(), windows.values()):
        for col in ("lhs_sum", "rhs_eq7"):
            v, s = row[f"sampled_{col}"], row[f"sigma_{col}"]
            within = abs(v - expected) <= 3 * s
            in_window = lo <= s <= hi
            sampled_ok &= within and in_window
            if not (within and in_window):
                details.append(f"theta={row['theta']:.3f} {col}={v:.5f} sigma={s:.2e}")
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        ideal_ok and dark_ok and sampled_ok and elapsed < 1.0,
        f"reverse-bound anchors 1/2/1 (ideal ok={ideal_ok}, dark ports ok={dark_ok}, "
        f"sampled ok={sampled_ok}{'; ' + '; '.join(details) if details else ''}, "
        f"{elapsed:.2f}s)",
    )


def test_criterion_2_tightness():
    t0 = time.perf_counter()
    checks = []
    rep0 = evaluate_all(prepare_state(0.0), LX, LY)
    checks.append(abs(rep0.results["eq1"].slack) < 1e-9 and abs(rep0.results["eq1"].rhs - 0.25) < 1e-9)
    for theta, rhs in ((0.0, 0.25), (np.pi / 2, 1.0), (np.pi, 0.25)):
        r = evaluate_all(prepare_state(theta), LX, LY).results["eq3"]
        checks.append(abs(r.slack) < 1e-9 and abs(r.rhs - rhs) < 1e-9)
    for theta, rhs in ((0.0, 1.0), (np.pi / 2, 2.0)):
        r = evaluate_all(prepare_state(theta), LX, LY).results["eq6"]
        checks.append(abs(r.slack) < 1e-9 and abs(r.rhs - rhs) < 1e-9)
    elapsed = time.perf_counter() - t0
    _verdict(2, all(checks) and elapsed < 1.0,
             f"tight anchors for relations 1, 3 and 6 ({elapsed:.2f}s)")


def test_criterion_3_validity_on_random_states():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(1000):
        rep = evaluate_all(haar_random_state(3, rng), LX, LY)
        for r in rep.results.values():
            if r.defined and not r.satisfied:
                violations += 1
    elapsed = time.perf_counter() - t0
    _verdict(3, violations == 0 and elapsed < 10.0,
             f"{violations} violations over 1000 random states ({elapsed:.2f}s)")


def test_criterion_4_circuit_equivalence():
    t0 = time.perf_counter()
    settings = builtin_settings()
    obs = {"Lx": LX, "Ly": LY, "Lz": LZ, "Lp": LP}
    worst = 0.0
    for theta in SWEEP_THETAS:
        s = prepare_state(theta)
        for name, setting in settings.items():
            p = projection_probabilities(s.amplitudes, setting)
            ref = np.abs(obs[name].eigenvectors.conj().T @ s.amplitudes) ** 2
            worst = max(worst, float(np.max(np.abs(p - ref))))
    residual = decompose_lx()[4]
    elapsed = time.perf_counter() - t0
    _verdict(
        4,
        worst < 1e-10 and residual <= 1e-12 and elapsed < 1.0,
        f"circuit vs eigensystem max |dP|={worst:.2e}, "
        f"factorization residual={residual:.2e} ({elapsed:.2f}s)",
    )


def test_criterion_5_statistical_calibration():
    t0 = time.perf_counter()
    theta = 0.35 * np.pi
    inside = total = 0
    for seed in range(100):
        table, _, _ = run_sweep(SweepConfig(thetas=(theta,), counts=10_000, seed=seed))
        r = _cells(table[0])
        for col in VALUE_COLUMNS:
            v, ideal, sig = r[f"sampled_{col}"], r[col], r[f"sigma_{col}"]
            if v is None or ideal is None or sig <= 0:
                continue
            total += 1
            inside += abs(v - ideal) <= 2 * sig
    coverage = inside / total
    sigmas = {}
    for n in (10**3, 10**4, 10**5):
        table, _, _ = run_sweep(SweepConfig(thetas=(theta,), counts=n, seed=1))
        sigmas[n] = _cells(table[0])["sigma_mean_lx"]
    scale_ok = all(
        abs(sigmas[n] / sigmas[10 * n] / np.sqrt(10) - 1) < 0.2 for n in (10**3, 10**4)
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        coverage >= 0.90 and scale_ok and elapsed < 30.0,
        f"2-sigma coverage {coverage:.3f}, inverse-sqrt scaling ok={scale_ok} "
        f"({elapsed:.2f}s)",
    )


def test_criterion_6_optimizer():
    cfg = OptimizerConfig(restarts=6, max_iters=400)
    checks = []
    per_state_ok = True
    for theta in (0.0, np.pi / 2, 0.3, 1.9):
        s = prepare_state(theta)
        for objective in ("eq2", "eq5"):
            t0 = time.perf_counter()
            _, [value], _ = optimize_bound(objective, [s], LX, LY, cfg)
            per_state_ok &= (time.perf_counter() - t0) < 5.0
            computational = evaluate_all(s, LX, LY, COMP).results[objective]
            lhs, comp = computational.lhs, computational.rhs
            checks.append(value <= lhs + 1e-9 and value >= comp - 1e-12)
            if theta == 0.0 and objective == "eq2":
                checks.append(abs(value - 0.25) < 1e-6)
            if theta == np.pi / 2 and objective == "eq5":
                checks.append(abs(value - 2.0) < 1e-6)
    _verdict(6, all(checks) and per_state_ok,
             "optimized bounds bracketed by computational basis and LHS, anchors reached")


def _family_eq1(theta):
    """Robertson-Schroedinger bound on the family (cos t, -sin t, 0)."""
    return np.cos(theta) ** 4 / 4


def _family_eq2_canon(theta):
    """Computational-basis product bound on the family."""
    return (abs(np.cos(2 * theta)) + np.sin(theta) ** 2) ** 2 / 4


def _family_eq3(theta):
    """Fidelity product bound on the family, pairing (-1, 1, 0)."""
    c, s = np.cos(theta), np.sin(theta)
    r = np.sin(2 * theta) / np.sqrt(2)
    terms = abs(c / 2 + s / np.sqrt(2)) * (1 - r) + abs(c / 2 - s / np.sqrt(2)) * (1 + r)
    return (1 + s**2) / 4 * terms**2


def test_criterion_7_figure_orderings():
    table, _, _ = run_sweep(SweepConfig(counts=100))
    rows = [_cells(row) for row in table]
    # orderings that hold for every state, by the triangle inequality
    eq2_vs_eq1 = [r["rhs_eq2_canon"] - r["rhs_eq1"] for r in rows]
    eq5_vs_eq4 = [r["rhs_eq5_canon"] - r["rhs_eq4"] for r in rows]
    eq6_vs_eq4 = [r["rhs_eq6"] - r["rhs_eq4"] for r in rows]
    ok_21 = all(d >= -1e-9 for d in eq2_vs_eq1)
    ok_54 = all(d >= -1e-9 for d in eq5_vs_eq4)
    ok_64 = all(d >= -1e-9 for d in eq6_vs_eq4)
    # the fidelity bound crosses the RS bound at theta ~ 0.238 pi and 0.762 pi
    # and stays at or below the computational-basis bound; its ordering is
    # taken point by point from the closed forms
    closed_ok = signs_ok = True
    for r in rows:
        forms = {
            "rhs_eq1": _family_eq1(r["theta"]),
            "rhs_eq2_canon": _family_eq2_canon(r["theta"]),
            "rhs_eq3": _family_eq3(r["theta"]),
        }
        closed_ok &= all(abs(r[col] - v) <= 1e-12 for col, v in forms.items())
        for other in ("rhs_eq1", "rhs_eq2_canon"):
            expected = forms["rhs_eq3"] - forms[other]
            got = r["rhs_eq3"] - r[other]
            if abs(expected) <= 1e-9:
                signs_ok &= abs(got) <= 1e-9
            else:
                signs_ok &= np.sign(got) == np.sign(expected)
    eq3_vs_eq1 = [r["rhs_eq3"] - r["rhs_eq1"] for r in rows]
    _verdict(
        7,
        ok_21 and ok_54 and ok_64 and closed_ok and signs_ok,
        "bound orderings at the 11 sweep points: "
        f"basis>=commutator holds={ok_21} (min gap {min(eq2_vs_eq1):+.4f}), "
        f"sum-basis>=sum-baseline holds={ok_54} (min gap {min(eq5_vs_eq4):+.4f}), "
        f"sum-fidelity>=sum-baseline holds={ok_64} (min gap {min(eq6_vs_eq4):+.4f}), "
        f"fidelity columns match closed forms={closed_ok}, "
        f"fidelity-vs-commutator/basis signs as closed forms={signs_ok} "
        f"(fidelity-commutator gaps {' '.join(f'{d:+.3f}' for d in eq3_vs_eq1)})",
    )
