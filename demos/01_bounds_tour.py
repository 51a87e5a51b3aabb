#!/usr/bin/env python3
"""
Tour of the seven variance relations
====================================

Evaluates every bound for the spin-1 pair (L_x, L_y) on a few members of
the real state family (cos t, -sin t, 0), each prepared by the twin's
preparation circuit, and shows where each relation becomes tight.
"""

import numpy as np

from varbound import builtin_spin1, evaluate_all, prepare_state

lx, ly, lz, lp = builtin_spin1()

for theta in (0.0, np.pi / 10, np.pi / 4, np.pi / 2):
    state = prepare_state(theta)
    report = evaluate_all(state, lx, ly)
    print(f"\ntheta = {theta:.4f}  amplitudes = {np.round(state.amplitudes.real, 4)}")
    print(f"  variance product = {report.var_a * report.var_b:.6f}"
          f"   variance sum = {report.var_a + report.var_b:.6f}")
    for rid, r in report.results.items():
        if not r.defined:
            print(f"  {rid}: undefined ({r.reason})")
            continue
        arrow = ">=" if r.direction == "lower" else "<="
        tag = "TIGHT" if abs(r.slack) < 1e-9 else f"slack {r.slack:+.6f}"
        print(f"  {rid}: lhs {r.lhs:.6f} {arrow} rhs {r.rhs:.6f}   [{tag}]")

# the reverse bound plus the forward bounds confine the fluctuations to a
# finite zone; print the zone for one intermediate state
theta = np.pi / 4
report = evaluate_all(prepare_state(theta), lx, ly)
lo = max(report.results[r].rhs for r in ("eq4", "eq5", "eq6"))
hi = report.results["eq7"].rhs
print(f"\ntheta = {theta:.4f}: variance sum confined to [{lo:.6f}, {hi:.6f}]"
      f" (actual {report.var_a + report.var_b:.6f})")
