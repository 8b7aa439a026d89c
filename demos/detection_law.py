"""
Reading the phase out with one polarizer
========================================

Project both output beams on port a behind a 45-degree polarizer and the
joint intensity follows (1 - cos delta)/2: a single detector reads out the
same phase that drives the two-detector correlation. This script extracts
the port-a branch, prints its diagonal-basis expansion, and sweeps delta.
"""

import numpy as np

from pathpol.bench import PhaseSetting, SourceSpec, apply_bs_prime, evolve_prestate
from pathpol.detector import detect, p45_intensity, project_aa

s1 = SourceSpec(1.0, 1.0)
s2 = SourceSpec(1.0, 1.3)


def output_state(delta):
    return apply_bs_prime(evolve_prestate(s1, s2, PhaseSetting(delta, 0.0, 0.0, 0.0)))


# the four port pairs are always equally likely...
probs = detect(output_state(0.8))
print("port probabilities (aa, ab, ba, bb):", tuple(round(p, 6) for p in probs))

# ...but the polarization content of the aa branch rotates with delta
aa = project_aa(output_state(0.8))
print("\naa-branch polarization (VV, VH, HV, HH), unit norm:")
for label, c in zip(("VV", "VH", "HV", "HH"), aa.pol_unit):
    print(f"  {label}: {c.real:+.6f} {c.imag:+.6f}i")
print("diagonal-basis coefficients (++, +-, -+, --) of sqrt2 * that:")
for label, c in zip(("++", "+-", "-+", "--"), aa.expansion):
    print(f"  {label}: {c.real:+.6f} {c.imag:+.6f}i   |.|^2 = {abs(c) ** 2:.6f}")
print(f"delta read back from the branch: {aa.delta:.6f}")

# |++|^2 is what a 45-degree polarizer on both beams passes
print("\ndelta       p45        (1 - cos delta)/2")
for d in np.linspace(0.0, 2.0 * np.pi, 9):
    p = p45_intensity(output_state(float(d)))
    print(f"{d:8.4f}  {p:.10f}   {0.5 * (1.0 - np.cos(d)):.10f}")

# the two like-diagonal outcomes at delta and delta+pi tile the branch
d = 1.234
total = p45_intensity(output_state(d)) + p45_intensity(output_state(d + np.pi))
print(f"\np45(delta) + p45(delta + pi) = {total:.12f}")
