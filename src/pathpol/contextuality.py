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
the best point of a grid over all four angles and polishes that point to the
closed-form optimum. Its grid stage evaluates only the points that can hold
the extremum: at most six secondary-angle differences, those within one step
of a quarter turn, and on each the two grid points beside each analytic peak
of its two primary parts. Every point left out loses by at least 3.2e-4
at every resolution, so the result is that of the full grid, bit for bit.
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

# scan grid points per angle; the grid stage holds one R-point cosine table,
# as a two-period list (a 12 KiB tracemalloc peak at the upper end), and
# evaluates at most 48 of its sums. Over this whole range every point it
# skips loses to the one it keeps by at least 3.2e-4 (see _grid_stage)
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
    cos(pi/R) of its own bound. So only the columns within one step of R//4
    or 3R//4 (at most 6) are evaluated; on the whole resolution range every
    other column loses to the winner by at least 3.2e-4 (least at case 1,
    R = 255). Along a column, h_f is a sinusoid in a with its peaks where
    a + s*d/2 = 0 or R/2 (mod R), and h_g one with its peaks where
    a + s*d/2 = R/4 or 3R/4, so each extremum sits at the grid point on one
    side of a peak or the other: the floor of a = (Q - 2*s*d)/4 for Q = 0,
    2R (h_f) or R, 3R (h_g), or the point after it. Every other grid point
    of a kept column is beaten by the column's extremum by at least 4.2e-4
    (least at case 1, R = 255, d = 190). Those eight sums per column are
    Python floats with the operands, and the operand order, of the full
    tables ``cos_grid + shifted`` and ``shifted - cos_grid``, so the maxima
    and minima are the tables' bits. Columns ascend: ties go to least d, and
    to the maximum of S over its minimum.
    """
    grid = 2.0 * pi * np.arange(resolution) / resolution
    # two periods of c[a]; every index below lies in [-R/2, 5R/4], so a
    # plain (or negative) list index reads c[a mod R]
    c = np.cos(grid).tolist() * 2
    sign = _sign(case)
    quarters = (resolution // 4, 3 * resolution // 4)
    columns = sorted({(q + k) % resolution for q in quarters for k in (-1, 0, 1)})

    maxima, minima = [], []
    for d in columns:
        shift = sign * d
        # h_f = c[a] + c[a + s*d] at the floor points of its peaks Q = 0, 2R
        a, b = (-2 * shift) // 4, (2 * resolution - 2 * shift) // 4
        f = (c[a] + c[a + shift], c[a + 1] + c[a + 1 + shift],
             c[b] + c[b + shift], c[b + 1] + c[b + 1 + shift])
        # h_g = c[a + s*d] - c[a] at the floor points of its peaks Q = R, 3R
        a, b = (resolution - 2 * shift) // 4, (3 * resolution - 2 * shift) // 4
        g = (c[a + shift] - c[a], c[a + 1 + shift] - c[a + 1],
             c[b + shift] - c[b], c[b + 1 + shift] - c[b + 1])
        maxima.append(max(f) + max(g))
        minima.append(min(f) + min(g))

    best_value = 0.0  # |S| on the grid exceeds 2 at every resolution
    for totals in (maxima, minima):
        for d, total in zip(columns, totals):
            if abs(total) > abs(best_value):
                best_column, best_value = d, total
    return float(grid[best_column]), best_value


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
    per angle, with p = 0, from one R-point cosine table and at most 48 of
    its sums: the grid points beside the analytic peaks of the secondary-angle
    differences within one step of pi/2 and 3*pi/2. Every other point loses
    by at least 3.2e-4, so it is the full grid's point, bit for bit. The
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
