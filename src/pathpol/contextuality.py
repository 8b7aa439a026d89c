"""CHSH-type functionals of the bench correlations and their extrema.

Two families of two-setting correlations are one pair correlation,
pair(case, x, y) = cos(x + s*y), with the sign s set by the case:

* case 1, s = +1 (the paper's C-bar): x a polarization-phase difference and
  y a path-phase difference;
* case 2, s = -1 (the paper's C-tilde): x the source-1 polarization phase
  and y the source-2 path phase. Both are measured from one common anchor,
  which cancels in the difference: ``case2_setting(anchor)`` shifts all
  four angles by it and leaves the functional's value unchanged.

The four-term functional (the paper's S for case 1, S' for case 2) uses the
sign pattern + + - + (the minus sits on the (primed, unprimed) cross term):

    S = pair(t, p) + pair(t, p') - pair(t', p) + pair(t', p').

Each term is bounded by 1, so any value outside [-2, 2] violates the
noncontextual bound; both families attain 2*sqrt(2). ``scan_max`` finds
the best point of a grid over all four angles, tabulating only the ~10
secondary-angle differences that can hold it, and polishes that point to the
closed-form optimum.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import cos, pi

import numpy as np

from .tensor import choice

# Unused here, and kept bound for the benchmark harness, which breaks on
# every traced run without it: perfbench/tracer.py (Tracer.install) wraps
# ``contextuality.minimize``, and perfbench/run.py (import_seconds) takes the
# median of the ``scipy.optimize`` import line. It goes once the harness
# makes both optional (ROADMAP item 1).
from scipy.optimize import minimize  # noqa: F401

VIOLATION_BOUND = 2.0
MAX_VIOLATION = 2.0 * np.sqrt(2.0)

# scan grid points per angle; the scan holds a few (10, R) float64 tables,
# 20 KiB each at the upper end
MIN_RESOLUTION = 8
MAX_RESOLUTION = 256

# settings attaining the 2*sqrt(2) extremum
CASE1_SETTING = (0.0, pi / 2.0, pi / 4.0, -pi / 4.0)


def case2_setting(anchor: float = 0.0) -> tuple[float, float, float, float]:
    """The case-2 extremal angle set, shifted by a common anchor."""
    return (anchor, pi / 2.0 + anchor, anchor - pi / 4.0, anchor + pi / 4.0)


def _sign(case: int) -> int:
    """The sign s of the secondary angle in pair(x, y) = cos(x + s*y)."""
    return 1 if choice("case", case, (1, 2), "1 or 2") == 1 else -1


def pair(case: int, x: float, y: float) -> float:
    """Pair correlation cos(x + s*y), s = +1 for case 1 and -1 for case 2."""
    return cos(x + _sign(case) * y)


def functional(case: int, t: float, t_prime: float, p: float, p_prime: float) -> float:
    """Four-term functional of ``case`` with the + + - + sign pattern."""
    return (
        pair(case, t, p)
        + pair(case, t, p_prime)
        - pair(case, t_prime, p)
        + pair(case, t_prime, p_prime)
    )


@dataclass(frozen=True)
class ScanResult:
    """Extremum of |S| over the four free angles; S itself is
    ``functional(case, *angles)``."""

    max_abs: float
    angles: tuple[float, float, float, float]


def _grid_stage(case: int, resolution: int) -> tuple[float, float]:
    """Secondary angle p' of the best grid point, with p = 0, and its S, in O(R).

    The functional splits into a part depending on the unprimed primary
    angle and a part depending on the primed one, so for each pair of
    secondary angles the two primary maximizations are independent.

    On the periodic grid x_a = 2*pi*a/R with c[a] = cos(x_a) and s = +1
    (case 1) or -1 (case 2), the pair table is pair[i, j] = c[(i + s*j) mod R].
    The primary parts f[i, j, k] = pair[i, j] + pair[i, k] and
    g[i, j, k] = -pair[i, j] + pair[i, k] then depend on (i, j, k) only
    through a = (i + s*j) mod R and d = (k - j) mod R:

        f = h_f[a, d] = c[a] + c[(a + s*d) mod R]
                      = 2 cos(pi*d/R) cos(2*pi*(a + s*d/2)/R),
        g = h_g[a, d] = -c[a] + c[(a + s*d) mod R]
                      = -2s sin(pi*d/R) sin(2*pi*(a + s*d/2)/R).

    As i runs over the grid so does a, so the extremum over the primary
    angles depends on d alone, and the first best secondary pair is
    (j, k) = (0, d): the grid's first point and column d.

    |S| on column d is at most 2(|cos(pi*d/R)| + |sin(pi*d/R)|), which peaks
    at d = R/4 and 3R/4, and the column nearest R/4 comes within a factor
    cos(pi/R) of its own bound. So no column more than about one step from
    both quarter points can win. Only the columns within two steps of R/4 or
    3R/4 (at most 10) are tabulated, as the rows of (column, a) tables: one
    wrapped ``take`` gathers them with no modulo arithmetic, h_f and h_g
    share one ``(2, columns, R)`` array (h_g as ``shifted - c``, the bits of
    ``-c + shifted``), and one ``max`` and one ``min`` run along its last,
    contiguous axis. Columns ascend: ties go to least d, and to the maximum
    of S over its minimum.
    """
    step = np.arange(resolution)
    grid = 2.0 * pi * step / resolution
    cos_grid = np.cos(grid)
    sign = _sign(case)
    quarters = (resolution // 4, 3 * resolution // 4)
    columns = np.array(sorted({(q + k) % resolution for q in quarters for k in range(-2, 3)}))
    shifted = cos_grid.take(step + sign * columns[:, None], mode="wrap")  # [d, a]
    h = np.empty((2, columns.size, resolution))
    np.add(cos_grid, shifted, out=h[0])  # h_f: + pair(t,p) + pair(t,p')
    np.subtract(shifted, cos_grid, out=h[1])  # h_g: - pair(t',p) + pair(t',p')

    best_value = 0.0  # |S| on the grid exceeds 2 at every resolution
    for parts in (h.max(axis=2), h.min(axis=2)):
        total = parts[0] + parts[1]
        column = int(np.abs(total).argmax())
        if abs(total[column]) > abs(best_value):
            best_column, best_value = column, float(total[column])
    return float(grid[columns[best_column]]), best_value


def _best_primaries(case: int, p: float, p_prime: float) -> tuple[float, float]:
    """Primary angles (t, t') that maximize S at fixed secondaries (p, p').

    With s = +1 (case 1) or -1 (case 2) the two primary parts of S are single
    sinusoids, f(t) = Re(e^{it}(e^{isp} + e^{isp'})) and
    g(t') = Re(e^{it'}(e^{isp'} - e^{isp})), maximal at minus the phases of
    those sums. The maximum is 2(|cos(delta/2)| + |sin(delta/2)|) with
    delta = p' - p.
    """
    sign = _sign(case)
    u, u_prime = cmath.exp(1j * sign * p), cmath.exp(1j * sign * p_prime)
    return -cmath.phase(u + u_prime), -cmath.phase(u_prime - u)


def scan_max(case: int, resolution: int) -> ScanResult:
    """Grid search of |S| over all four angles, polished to its closed-form optimum.

    The grid stage (``_grid_stage``) finds the best point of an R-point grid
    per angle in O(R) time and memory, scanning only the secondary-angle
    differences near pi/2 and 3*pi/2 that can hold it, with p = 0. The
    polish keeps p, moves p' to the nearest point with p' - p = pi/2 (mod pi),
    where 2(|cos(delta/2)| + |sin(delta/2)|) peaks at 2*sqrt(2), and sets the
    primaries to their exact optimum there, shifted by pi when the grid
    picked the negative orientation of S. The polish alone is returned: a
    grid point can read an ulp above 2*sqrt(2); the polish, at no R in range.
    """
    span = f"an integer in [{MIN_RESOLUTION}, {MAX_RESOLUTION}]"
    choice("resolution", resolution, range(MIN_RESOLUTION, MAX_RESOLUTION + 1), span)

    p_grid, grid_value = _grid_stage(case, resolution)
    p_prime = pi / 2.0 + pi * round((p_grid - pi / 2.0) / pi)
    t, t_prime = _best_primaries(case, 0.0, p_prime)
    if grid_value < 0.0:
        t, t_prime = t + pi, t_prime + pi
    angles = (t, t_prime, 0.0, p_prime)
    return ScanResult(abs(functional(case, *angles)), angles)
