"""
Driving the bench from a config file
====================================

Everything the CLI does is plain library code. This script builds a
scenario from the same key-value text the `pathpol sweep` command accepts,
runs the sweep loop by hand, and prints the rows -- handy as a starting
point when you want the numbers in memory instead of a CSV.
"""

import numpy as np

from pathpol.bench import run
from pathpol.correlations import correlation_closed_form, correlation_numeric
from pathpol.detector import p45_intensity
from pathpol.scenario import parse_scenario, phase_setting_for

config_text = """
# two mismatched sources, sweeping the total phase difference
amplitudes.i1  = 1.0
amplitudes.i2  = 2.5
sweep.variable = delta
sweep.start    = 0.0
sweep.stop     = 6.283185307179586
sweep.points   = 9
"""

scn = parse_scenario(config_text)
s1, s2 = scn.sources()
print(f"source amplitudes: {s1.amplitude:.4f}, {s2.amplitude:.4f}")
print(f"sweeping {scn.sweep.variable} over "
      f"[{scn.sweep.start:.3f}, {scn.sweep.stop:.3f}] "
      f"in {scn.sweep.points} points\n")

print("delta       C_closed      C_operator    p45")
for value in np.linspace(scn.sweep.start, scn.sweep.stop, scn.sweep.points):
    ps = phase_setting_for(scn.sweep.variable, float(value), scn.phases)
    bench_run = run(s1, s2, ps)
    print(f"{ps.delta:8.4f}   {correlation_closed_form(ps, s1, s2):+.8f}  "
          f"{correlation_numeric(bench_run):+.8f}  "
          f"{p45_intensity(bench_run.output):.8f}")

# overrides work exactly like the CLI's --set flag
scn = parse_scenario(config_text, overrides=("sweep.points=3", "amplitudes.i2=1.0"))
print(f"\nwith overrides: points = {scn.sweep.points}, "
      f"intensities = {scn.amplitudes}")
