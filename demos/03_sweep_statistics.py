#!/usr/bin/env python3
"""
Sweep, counts and error bars
============================

Runs the full 11-point sweep through the simulated counting pipeline,
prints the reverse-bound anchors with their Poisson error bars, and shows
that the optimized basis-dependent bounds dominate the computational-basis
ones.
"""

from varbound.sweep import CSV_COLUMNS, SweepConfig, run_sweep

config = SweepConfig(counts=10_000, seed=7, optimize_basis=True)
table, report, _ = run_sweep(config)
j, theta, v, s, w, t, canon, opt = (
    table[:, CSV_COLUMNS.index(c)]
    for c in ("j", "theta", "sampled_lhs_sum", "sigma_lhs_sum", "sampled_rhs_eq7",
              "sigma_rhs_eq7", "rhs_eq2_canon", "rhs_eq2_opt")
)

print("j  theta    sum lhs (sampled)      reverse rhs (sampled)")
for row in zip(j.astype(int), theta, v, s, w, t):
    print("{:2d} {:.4f}  {:.5f} +- {:.5f}      {:.5f} +- {:.5f}".format(*row))

print("\nOptimized vs computational-basis bounds (variance product):")
for th, c, o in zip(theta, canon, opt):
    print(f"  theta={th:.4f}: canonical {c:.6f}  optimized {o:.6f}  (gain {o - c:+.6f})")

print(f"\nverdict: {'ok' if report.ok else 'VIOLATION'}"
      f"  worst slack = {report.worst_slack:.3e}")
