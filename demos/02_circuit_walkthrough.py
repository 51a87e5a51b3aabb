#!/usr/bin/env python3
"""
Optical circuit walkthrough
===========================

Prepares the swept state family through the preparation circuit, builds
the four measurement settings from wave plates and beam displacers, shows
that each circuit realizes the projective measurement of its observable,
and prints the three-factor decomposition of the L_x measurement unitary.
"""

import numpy as np

from varbound import builtin_settings, builtin_spin1, prepare_amplitudes
from varbound.photonics import decompose_lx, measurement_unitary, projection_probabilities

lx, ly, lz, lp = builtin_spin1()
observables = {"Lx": lx, "Ly": ly, "Lz": lz, "Lp": lp}
settings = builtin_settings()

# one pass of the preparation circuit (BDV, HWP(theta/2), HWP(0) on the
# upper rail) prepares all 11 sweep states, leakage check included
thetas = np.arange(11) * np.pi / 10
amps = prepare_amplitudes(thetas)
closed_form = np.stack([np.cos(thetas), -np.sin(thetas), np.zeros(11)], axis=-1)
print(f"Prepared {len(amps)} sweep states; equal to (cos t, -sin t, 0): "
      f"{np.array_equal(amps, closed_form)}\n")

print("Per-setting optical networks (plate angles in degrees):")
for name, setting in settings.items():
    desc = ", ".join(
        f"{e.kind}({np.rad2deg(e.angle):g},{e.target[0]})" if e.kind in ("HWP", "QWP")
        else e.kind
        for e in setting.elements
    ) or "(direct routing)"
    print(f"  {name}: {desc}  ports={setting.ports}")

# each circuit's row i is the eigenbra <m_i| up to a phase, |V M| = I; a
# setting checks this when it is built
print("\nRow check (max |abs(V M) - I|, V the circuit, M the eigenvectors):")
for name, setting in settings.items():
    vm = measurement_unitary(setting) @ observables[name].eigenvectors
    print(f"  {name}: {np.max(np.abs(np.abs(vm) - np.eye(3))):.2e}")

# circuit output probabilities match the eigensystem for the whole family
worst = 0.0
for name, setting in settings.items():
    p = projection_probabilities(amps, setting)
    ref = np.abs(amps @ observables[name].eigenvectors.conj()) ** 2
    worst = max(worst, float(np.max(np.abs(p - ref))))
print(f"\nCircuit vs eigensystem probabilities over the sweep: max |dP| = {worst:.2e}")

u, u1, u2, u3, residual = decompose_lx()
with np.printoptions(precision=4, suppress=True):
    print("\nL_x measurement unitary U = U3 U2 U1 with")
    for label, m in (("U1", u1), ("U2 (corrected)", u2), ("U3", u3)):
        print(f"{label} =\n{np.array_str(m)}")
print(f"residual max|U - U3 U2 U1| = {residual:.2e}")
