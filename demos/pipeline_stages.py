"""
Walking the bench one element at a time
=======================================

Two beams enter, one per source, and come out as a two-component vector
whose relative phase carries every correlation the package computes. This
script prints the nonzero amplitudes after each element so you can watch
that phase appear.
"""

import numpy as np

from pathpol.bench import PhaseSetting, SourceSpec, run
from pathpol.tensor import basis_label

s1 = SourceSpec(amplitude=1.0, omega=1.0)
s2 = SourceSpec(amplitude=1.0, omega=1.3)

# theta are the polarization-arm phases, phi the path-arm ones;
# only the combination theta1 + phi1 - theta2 - phi2 survives
ps = PhaseSetting(theta1=0.9, theta2=0.2, phi1=0.4, phi2=-0.3)
print(f"phase setting: {ps}")
print(f"total phase difference delta = {ps.delta:.6f}\n")

bench_run = run(s1, s2, ps)

# every stage of the run, each a (2, 2, 2, 2) tensor read as a 16-vector
stages = {
    "source": bench_run.source,
    "post-bs": bench_run.post_bs,
    "post-pr": bench_run.input,
    "post-phases": bench_run.phased,
    "post-bs-prime": bench_run.output,
}
for name, tensor in stages.items():
    print(f"--- {name} ---")
    v = tensor.reshape(16)
    for idx in np.flatnonzero(np.abs(v) > 1e-12):
        amp = v[idx]
        print(f"  |{basis_label(int(idx))})  {amp.real:+.6f} {amp.imag:+.6f}i"
              f"   |.|^2 = {abs(amp) ** 2:.6f}")
    print(f"  norm^2 = {np.vdot(v, v).real:.6f}\n")

# the stage before the output splitter has exactly two occupied components;
# their amplitude ratio is -exp(i*delta)
pre = bench_run.phased.reshape(16)
occupied = np.flatnonzero(np.abs(pre) > 1e-12)
ratio = pre[occupied[1]] / pre[occupied[0]]
wrapped = (ps.delta + np.pi) % (2 * np.pi) - np.pi
print(f"relative phase of the two components: {np.angle(-ratio):.6f}")
print(f"delta wrapped to (-pi, pi]:           {wrapped:.6f}")
