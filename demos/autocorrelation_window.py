"""
Why the first-order beat drops out of the measurement
=====================================================

The two sources run at different frequencies, so the instantaneous
intensity at the detector beats at |omega1 - omega2|. Integrating the
*squared* intensity over a window much longer than the beat period leaves
a stationary part -- the two self terms plus twice 2 I1 I2 (one factor
from the product of intensities, one from the mean square of the beat
note) -- while the oscillatory part decays like 1/(window * beat).

That surviving 4 I1 I2 piece is exactly where the cos(delta) law hides:
I1 and I2 are the per-source transmissions into the detector, and their
product carries (1 - cos(beta1)) (1 + cos(beta2)).
"""

import numpy as np

from pathpol.bench import PhaseSetting, SourceSpec
from pathpol.correlations import fit_sinusoid
from pathpol.detector import autocorrelation_demo
from pathpol.scenario import phase_setting_for

s1 = SourceSpec(1.0, 1.0)
s2 = SourceSpec(1.0, 1.3)
beat = abs(s1.omega - s2.omega)
ps = PhaseSetting(0.7, 0.2, 0.4, -0.3)

# residual = fraction of the integral not explained by the stationary part.
# the 1/(window*beat) envelope is modulated by where the window endpoint
# cuts the beat, so a generic table is only roughly monotone -- the
# phase-aligned windows further down show the decay law cleanly
print("window * beat    oscillatory residual")
for cycles in (200.0, 1000.0, 10000.0):
    rep = autocorrelation_demo(s1, s2, ps, cycles / beat, 10_000)
    print(f"{cycles:12.0f}     {rep.residual:.3e}")

# windows holding an odd number of beat half-periods make the decay law
# visible cleanly: double the window, halve the residual
print("\nodd half-period windows:")
previous = None
for m, n in ((317, 20_001), (635, 40_064), (1271, 80_191)):
    rep = autocorrelation_demo(s1, s2, ps, m * np.pi / beat, n)
    note = f"   ratio to previous: {rep.residual / previous:.4f}" if previous else ""
    print(f"  m = {m:5d}   residual = {rep.residual:.6e}{note}")
    previous = rep.residual

# decompose one window explicitly
rep = autocorrelation_demo(s1, s2, ps, 2000.0 / beat, 10_000)
print(f"\nwindowed integral of I(t)^2:   {rep.total:.6f}")
print(f"  self term, source 1:         {rep.self_term_1:.6f}")
print(f"  self term, source 2:         {rep.self_term_2:.6f}")
print(f"  cross product term 2 I1 I2:  {rep.cross_product_term:.6f}")
print(f"  beat mean square  2 I1 I2:   {rep.beat_mean_square:.6f}")
print(f"  unexplained fraction:        {rep.residual:.3e}")

# sweep delta at a whole-beat window and fit the measured cross term:
# offset + cosine + sine, with the residual tiny against the amplitude
window = 2.0 * np.pi * 160.0 / beat
deltas = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
# one call integrates the whole sweep, every setting on the same time grid
sweep = phase_setting_for("delta", deltas, ps)
cross = autocorrelation_demo(s1, s2, sweep, window, 10_000).cross_measured
coeffs, resid = fit_sinusoid(deltas, cross)
amplitude = float(np.hypot(coeffs[1], coeffs[2]))
print(f"\ncross term vs delta: offset {coeffs[0]:.4f}, "
      f"amplitude {amplitude:.4f}, fit residual {resid / amplitude:.2e} of amplitude")
