"""
One cosine, two derivations
===========================

The headline quantity is the normalized intensity-intensity correlation
between the two sources' detectors. It can be computed two independent
ways:

  * closed form: 4 I1 I2 cos(delta) / (I1 + I2)^2, straight arithmetic;
  * operator route: expectation of a product of four flip observables,
    each a 2x2 operator on its own slot, on the symmetrized input state.

The routes differ by a constant factor of -1/4 (documented, logged by the
verify command) but share the cosine exactly. This script tabulates both
and fits the operator route to kappa * cos(delta).
"""

import numpy as np

from pathpol.bench import PhaseSetting, SourceSpec, run
from pathpol.correlations import (
    correlation_closed_form,
    correlation_numeric,
    fit_scaled_cosine,
    sum_identity,
)

s1 = SourceSpec(1.0, 1.0)
s2 = SourceSpec(1.0, 1.3)

deltas = np.linspace(0.0, 2.0 * np.pi, 13)
print("delta      closed      operator    operator/closed")
numeric = []
for d in deltas:
    ps = PhaseSetting(float(d), 0.0, 0.0, 0.0)
    c = correlation_closed_form(ps, s1, s2)
    n = correlation_numeric(run(s1, s2, ps))
    numeric.append(n)
    ratio = f"{n / c:+.6f}" if abs(c) > 1e-3 else "   (cos ~ 0)"
    print(f"{d:8.4f}  {c:+.6f}   {n:+.6f}   {ratio}")

kappa, resid = fit_scaled_cosine(deltas, np.array(numeric))
print(f"\noperator route ~ kappa * cos(delta):  kappa = {kappa:+.12f}")
print(f"largest fit residual: {resid:.2e}")

# the same cosine also shows up as a signed sum over all sixteen
# pi-shifted second-order coherences -- a third, more roundabout route
ps = PhaseSetting(0.6, 0.0, 0.0, 0.0)
identity = sum_identity(ps, s1, s2)
print(f"\nsigned 16-term sum at delta=0.6:  {identity.numeric:+.12f}")
print(f"closed form there:                {identity.closed_form:+.12f}")
print(f"their ratio (a constant):         {identity.ratio:+.6f}")

# unequal intensities shrink the visibility through 4 I1 I2 / (I1+I2)^2
print("\nvisibility vs intensity ratio at delta = 0:")
for i2 in (1.0, 2.0, 4.0, 9.0):
    c = correlation_closed_form(
        PhaseSetting(0, 0, 0, 0), SourceSpec(1.0, 1.0), SourceSpec(np.sqrt(i2), 1.3)
    )
    print(f"  I2/I1 = {i2:4.1f}  ->  C = {c:.6f}")
