"""
Pushing the four-term functional past 2
=======================================

A CHSH-style combination of four pair correlations is bounded by 2 when a
single pre-assigned value can stand in for each observable regardless of
what it is measured with. The bench's cosine correlations break that bound
and reach the algebraic ceiling 2*sqrt(2) -- in two different pairings of
the phase variables (case 1 pairs the two phase *differences*, case 2
pairs source-1 polarization with source-2 path). Both are one functional,
``functional(case, ...)``, whose pair correlation is cos(x + y) for case 1
and cos(x - y) for case 2.
"""

import numpy as np

from pathpol.contextuality import (
    CASE1_SETTING,
    MAX_VIOLATION,
    VIOLATION_BOUND,
    case2_setting,
    functional,
    scan_max,
)

print(f"noncontextual bound: {VIOLATION_BOUND}")
print(f"algebraic ceiling:   {MAX_VIOLATION:.12f}\n")

# the textbook angle set: (0, pi/2) against (pi/4, -pi/4)
s = functional(1, *CASE1_SETTING)
print(f"case 1 at {tuple(round(a, 6) for a in CASE1_SETTING)}:")
print(f"  S = {s:.12f}   (ceiling - S = {MAX_VIOLATION - s:.2e})")

# swap which pair plays 'settings' and which plays 'contexts' and the
# same numbers give exactly zero -- the functional is not symmetric
theta, theta_p, phi, phi_p = CASE1_SETTING
print(f"  same angles, roles swapped: S = {functional(1, phi, phi_p, theta, theta_p):.2e}")

# case 2 has a free overall anchor; the violation does not care
print("\ncase 2, anchored sets:")
for anchor in (0.0, 0.5, -1.2):
    sp = functional(2, *case2_setting(anchor))
    print(f"  anchor {anchor:+.1f}:  S' = {sp:.12f}")

# the best point of a grid over all four angles, then the closed-form polish
print("\nfull scans (64-point grid + closed-form polish):")
for case in (1, 2):
    result = scan_max(case, resolution=64)
    angles = ", ".join(f"{a:+.6f}" for a in result.angles)
    print(f"  case {case}:  max |S| = {result.max_abs:.12f}  at ({angles})")

# restricting the primed setting to equal the unprimed one restores
# the classical bound -- the violation needs genuinely distinct contexts
rng = np.random.default_rng(0)
restricted = max(
    abs(functional(1, t, t, p, pp))
    for t, p, pp in rng.uniform(-np.pi, np.pi, (2000, 3))
)
print(f"\nmax |S| with primed = unprimed over 2000 draws: {restricted:.6f}")
