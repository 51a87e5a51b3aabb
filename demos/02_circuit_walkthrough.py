#!/usr/bin/env python3
"""
Optical circuit walkthrough
===========================

Builds the four measurement settings from wave plates and beam displacers,
checks that each circuit realizes the projective measurement of its
observable, and prints the three-factor decomposition of the L_x
measurement unitary.
"""

import numpy as np

from varbound import builtin_settings, builtin_spin1, family_state
from varbound.photonics import decompose_lx, measurement_unitary, projection_probabilities

lx, ly, lz, lp = builtin_spin1()
observables = {"Lx": lx, "Ly": ly, "Lz": lz, "Lp": lp}
settings = builtin_settings()

print("Per-setting optical networks (plate angles in degrees):")
for name, setting in settings.items():
    desc = ", ".join(
        f"{e.kind}({np.rad2deg(e.angle):g},{e.target[0]})" if e.kind in ("HWP", "QWP")
        else e.kind
        for e in setting.elements
    ) or "(direct routing)"
    print(f"  {name}: {desc}  ports={setting.ports}")

# each circuit's rows reproduce the observable's eigenbra magnitudes
print("\nRow check (max entrywise |difference| of magnitudes):")
for name, setting in settings.items():
    v = measurement_unitary(setting)
    bras = observables[name].eigenvectors.conj().T
    print(f"  {name}: {np.max(np.abs(np.abs(v) - np.abs(bras))):.2e}")

# circuit output probabilities match the eigensystem for the whole family
worst = 0.0
for j in range(11):
    s = family_state(j * np.pi / 10)
    for name, setting in settings.items():
        p = projection_probabilities(s.amplitudes, setting)
        ref = np.abs(observables[name].eigenvectors.conj().T @ s.amplitudes) ** 2
        worst = max(worst, float(np.max(np.abs(p - ref))))
print(f"\nCircuit vs eigensystem probabilities over the sweep: max |dP| = {worst:.2e}")

u, u1, u2, u3, residual = decompose_lx()
with np.printoptions(precision=4, suppress=True):
    print("\nL_x measurement unitary U = U3 U2 U1 with")
    for label, m in (("U1", u1), ("U2 (corrected)", u2), ("U3", u3)):
        print(f"{label} =\n{np.array_str(m)}")
print(f"residual max|U - U3 U2 U1| = {residual:.2e}")
