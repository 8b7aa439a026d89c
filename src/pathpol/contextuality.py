"""CHSH-type functionals of the bench correlations and their extrema.

Two families of two-setting correlations are evaluated:

* case 1: pair(x, y) = cos(x + y), with x a polarization-phase difference
  and y a path-phase difference;
* case 2: pair(x, y) = cos(x - y), with x the source-1 polarization phase
  and y the source-2 path phase. Both are measured from one common anchor,
  which cancels in the difference: ``case2_setting(anchor)`` shifts all
  four angles by it and leaves the functional's value unchanged.

The four-term functional uses the sign pattern + + - + (the minus sits on
the (primed, unprimed) cross term):

    S = pair(t, p) + pair(t, p') - pair(t', p) + pair(t', p').

Each term is bounded by 1, so any value outside [-2, 2] violates the
noncontextual bound; both families attain 2*sqrt(2). ``scan_max`` searches
a grid over all four angles and polishes its best point to the closed-form
optimum.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import cos, pi

import numpy as np

# Unused here, and kept bound for the benchmark harness, which breaks on
# every traced run without it: perfbench/tracer.py (Tracer.install) wraps
# ``contextuality.minimize``, and perfbench/run.py (import_seconds) takes the
# median of the ``scipy.optimize`` import line. It goes once the harness
# makes both optional (ROADMAP item 1).
from scipy.optimize import minimize  # noqa: F401

VIOLATION_BOUND = 2.0
MAX_VIOLATION = 2.0 * np.sqrt(2.0)

# scan grid points per angle; the scan holds a few R^2 float64 tables,
# 512 KiB each at the upper end
MIN_RESOLUTION = 8
MAX_RESOLUTION = 256

# settings attaining the 2*sqrt(2) extremum
CASE1_SETTING = (0.0, pi / 2.0, pi / 4.0, -pi / 4.0)


def case2_setting(anchor: float = 0.0) -> tuple[float, float, float, float]:
    """The case-2 extremal angle set, shifted by a common anchor."""
    return (anchor, pi / 2.0 + anchor, anchor - pi / 4.0, anchor + pi / 4.0)


def c_bar(theta: float, phi: float) -> float:
    """Case-1 pair correlation: cos(theta + phi) of the two phase differences."""
    return cos(theta + phi)


def c_tilde(theta1: float, phi2: float) -> float:
    """Case-2 pair correlation: cos(theta1 - phi2) of the anchored phases."""
    return cos(theta1 - phi2)


def s_value(theta: float, theta_p: float, phi: float, phi_p: float) -> float:
    """Case-1 four-term functional with the + + - + sign pattern."""
    return (
        c_bar(theta, phi)
        + c_bar(theta, phi_p)
        - c_bar(theta_p, phi)
        + c_bar(theta_p, phi_p)
    )


def s_prime_value(theta1: float, theta1_p: float, phi2: float, phi2_p: float) -> float:
    """Case-2 four-term functional with the + + - + sign pattern."""
    return (
        c_tilde(theta1, phi2)
        + c_tilde(theta1, phi2_p)
        - c_tilde(theta1_p, phi2)
        + c_tilde(theta1_p, phi2_p)
    )


@dataclass(frozen=True)
class ScanResult:
    """Extremum of |S| over the four free angles."""

    max_abs: float
    angles: tuple[float, float, float, float]
    value: float


def _grid_stage(case: int, resolution: int) -> tuple[tuple[float, float, float, float], float]:
    """Best grid angles (t, t', p, p') and grid value of S, in O(R^2).

    The functional splits into a part depending on the unprimed primary
    angle and a part depending on the primed one, so for each pair of
    secondary angles the two primary maximizations are independent.

    On the periodic grid x_a = 2*pi*a/R with c[a] = cos(x_a) and s = +1
    (case 1) or -1 (case 2), the pair table is pair[i, j] = c[(i + s*j) mod R].
    The primary parts f[i, j, k] = pair[i, j] + pair[i, k] and
    g[i, j, k] = -pair[i, j] + pair[i, k] then depend on (i, j, k) only
    through a = (i + s*j) mod R and d = (k - j) mod R:

        f = h_f[a, d] = c[a] + c[(a + s*d) mod R],
        g = h_g[a, d] = -c[a] + c[(a + s*d) mod R].

    As i runs over the grid so does a, so the extremum over the primary
    angle depends on d alone, and the first best secondary pair is
    (j, k) = (0, d). This picks the same grid point as the dense R^3 search.
    """
    step = np.arange(resolution)
    grid = 2.0 * pi * step / resolution
    cos_grid = np.cos(grid)
    sign = 1 if case == 1 else -1
    shifted = cos_grid[(step[:, None] + sign * step[None, :]) % resolution]  # [a, d]
    h_f = cos_grid[:, None] + shifted  # + pair(t,p) + pair(t,p')
    h_g = -cos_grid[:, None] + shifted  # - pair(t',p) + pair(t',p')

    best_abs = -1.0
    best_angles = (0.0, 0.0, 0.0, 0.0)
    best_value = 0.0
    for f_part, g_part, picker in (
        (h_f.max(axis=0), h_g.max(axis=0), np.argmax),
        (h_f.min(axis=0), h_g.min(axis=0), np.argmin),
    ):
        total = f_part + g_part
        d = int(np.argmax(np.abs(total)))
        value = float(total[d])
        if abs(value) > best_abs:
            i_t = int(picker(h_f[:, d]))
            i_tp = int(picker(h_g[:, d]))
            best_abs = abs(value)
            best_value = value
            best_angles = tuple(float(grid[i]) for i in (i_t, i_tp, 0, d))
    return best_angles, best_value


def _best_primaries(case: int, p: float, p_prime: float) -> tuple[float, float]:
    """Primary angles (t, t') that maximize S at fixed secondaries (p, p').

    With s = +1 (case 1) or -1 (case 2) the two primary parts of S are single
    sinusoids, f(t) = Re(e^{it}(e^{isp} + e^{isp'})) and
    g(t') = Re(e^{it'}(e^{isp'} - e^{isp})), maximal at minus the phases of
    those sums. The maximum is 2(|cos(delta/2)| + |sin(delta/2)|) with
    delta = p' - p.
    """
    sign = 1.0 if case == 1 else -1.0
    u, u_prime = cmath.exp(1j * sign * p), cmath.exp(1j * sign * p_prime)
    return -cmath.phase(u + u_prime), -cmath.phase(u_prime - u)


def scan_max(case: int, resolution: int) -> ScanResult:
    """Grid search of |S| over all four angles, polished to its closed-form optimum.

    The grid stage (``_grid_stage``) finds the best point of an R-point grid
    per angle. The polish keeps its p, moves p' to the nearest point with
    p' - p = pi/2 (mod pi), where 2(|cos(delta/2)| + |sin(delta/2)|) peaks
    at 2*sqrt(2), and sets the primaries to their exact optimum there,
    shifted by pi when the grid picked the negative orientation of S.
    """
    if case not in (1, 2):
        raise ValueError(f"case must be 1 or 2, got {case}")
    if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
        raise ValueError(
            f"resolution must be in [{MIN_RESOLUTION}, {MAX_RESOLUTION}], got {resolution}"
        )

    grid_angles, grid_value = _grid_stage(case, resolution)
    _, _, p, p_grid = grid_angles
    p_prime = p + pi / 2.0 + pi * round((p_grid - p - pi / 2.0) / pi)
    t, t_prime = _best_primaries(case, p, p_prime)
    if grid_value < 0.0:
        t, t_prime = t + pi, t_prime + pi
    angles = (t, t_prime, p, p_prime)
    func = s_value if case == 1 else s_prime_value
    value = func(*angles)
    if abs(value) < abs(grid_value):  # the polish must never lose ground
        angles, value = grid_angles, grid_value
    return ScanResult(abs(value), angles, value)
