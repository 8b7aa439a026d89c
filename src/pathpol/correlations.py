"""Intensity-intensity correlations, computed two independent ways.

Every quantity here comes in two routes that must never be merged:

* a numeric route: explicit operator expectation values on the symmetrized
  input state of a ``bench.BenchRun``, each observable acting on its own
  slot; it reads the four phases and never delta;
* a closed-form route: the normalized formulas
      C(delta)           = 4 I1 I2 cos(delta) / (I1 + I2)^2
      g2(shifts; delta)  = 1 - (-1)^{k+l+m+n} 2 I1 I2 cos(delta) / (I1+I2)^2
  with I_i the source intensities and delta the single phase combination the
  bench depends on.

The two routes are proportional with constant, amplitude-independent scale
factors (the raw sigma-route bracket is -I1 I2 cos(delta), the signed sum of
the sixteen shifted g2 terms is -8 times the closed form). Reports expose
both values and their ratio so the scales stay visible instead of being
silently normalized away.

The numeric route reads a bench run (``correlation_numeric(run)``,
``correlation_report(run)``); the closed-form route reads only the sources
and the phase setting, never a state. ``correlation_closed_form``,
``g2_generalized`` and ``sum_identity`` take a sweep ``PhaseSetting`` or a
batch of sources (``g2_hbt`` array phases), and ``correlation_numeric`` the
run of either; each then gives one value per entry, bit for bit the value
of that entry alone. ``correlation_report`` is a single-run report.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import nan

import numpy as np

from . import observables
from .bench import BenchRun, PhaseSetting, SourceSpec, batch_fields
from .tensor import Array, float_or_array

# ratios are nan where |cos delta| is below this, at the closed form's zeros
COSINE_GUARD = 1e-3
# the signed sum cancels sixteen g2 ~ 1 terms to ~1e-15, so its ratio is also
# nan where the closed form is smaller than this (a small I1 I2 / (I1 + I2)^2)
SIGNED_SUM_FLOOR = 1e-6


def _intensities(s1: SourceSpec, s2: SourceSpec) -> tuple[float | Array, ...]:
    """I1, I2 and (I1 + I2)^2, one per entry of a batch of sources; a
    batch squares by pow, as a float's ** 2 does, and rounds as its entries."""
    i1, i2 = s1.intensity, s2.intensity
    total = i1 + i2
    return i1, i2, np.float_power(total, 2) if isinstance(total, np.ndarray) else total**2


def correlation_closed_form(ps: PhaseSetting, s1: SourceSpec, s2: SourceSpec) -> float | Array:
    """Normalized correlation of the two detector intensities, formula route."""
    batch_fields(s1, s2, ps)
    i1, i2, ssq = _intensities(s1, s2)
    return float_or_array(4.0 * i1 * i2 * np.cos(ps.delta) / ssq)


def correlation_numeric(run: BenchRun) -> float | Array:
    """Normalized expectation of the four flip observables, operator route.

    Evaluates <sigma_path1(phi1) sigma_pol1(theta1) sigma_path2(phi2)
    sigma_pol2(theta2)> on the run's symmetrized input and divides by
    (I1+I2)^2. Proportional to the closed form with constant ratio -1/4.
    """
    _, _, ssq = _intensities(run.s1, run.s2)
    factors = observables.phase_observables(run.ps, "full")
    return float_or_array(observables.product_expectation(run.input, factors).real / ssq)


@dataclass(frozen=True)
class TermEntry:
    """One of the sixteen pi-shift terms: shift indices, sign, and value."""

    k: int
    l: int
    m: int
    n: int
    sign: int
    value: float | Array


@dataclass(frozen=True)
class CorrelationReport:
    """Both correlation routes side by side plus the per-term breakdown."""

    delta: float | Array
    numeric: float | Array
    closed_form: float | Array
    ratio: float | Array
    terms: tuple[TermEntry, ...]

    def __post_init__(self) -> None:
        if len(self.terms) != 16:
            raise ValueError(f"expected 16 terms, got {len(self.terms)}")


def _guarded_ratio(
    numeric: float | Array, closed: float | Array, delta: float | Array, floor: float = 0.0
) -> float | Array:
    ratio = np.full(np.shape(closed), nan)
    defined = (np.abs(np.cos(delta)) >= COSINE_GUARD) & (np.abs(closed) >= floor)
    np.divide(numeric, closed, out=ratio, where=defined)
    return float_or_array(ratio)


def g2_hbt(
    alpha: float | Array, beta: float | Array, s1: SourceSpec, s2: SourceSpec
) -> float | Array:
    """Two-detector degree of coherence for bare path interference.

    1 - 2 I1 I2 cos(alpha - beta) / (I1+I2)^2: bounded by [1/2, 3/2] at equal
    intensities and identically 1 when either source is switched off by
    taking its intensity to zero relative to the other.
    """
    i1, i2, ssq = _intensities(s1, s2)
    return float_or_array(1.0 - 2.0 * i1 * i2 * np.cos(alpha - beta) / ssq)


def g2_generalized(
    k: int, l: int, m: int, n: int, ps: PhaseSetting, s1: SourceSpec, s2: SourceSpec
) -> float | Array:
    """Degree of coherence of the shifted intensity pair, formula route.

    Reduces to ``g2_hbt(phi1, phi2)`` when both polarization phases are held
    equal and all shifts vanish.
    """
    for v, name in zip((k, l, m, n), "klmn"):
        if v not in (0, 1):
            raise ValueError(f"{name} must be 0 or 1, got {v}")
    batch_fields(s1, s2, ps)
    i1, i2, ssq = _intensities(s1, s2)
    signed = -1.0 if (k + l + m + n) % 2 else 1.0
    g2 = (i1 * i1 + i2 * i2 + 2.0 * i1 * i2 * (1.0 - signed * np.cos(ps.delta))) / ssq
    return float_or_array(g2)


def correlation_report(run: BenchRun) -> CorrelationReport:
    """Both correlation routes plus the sixteen raw intensity brackets; the
    numeric route and the brackets read the run's symmetrized input."""
    run.require_single()
    ps = run.ps
    numeric = correlation_numeric(run)
    closed = correlation_closed_form(ps, run.s1, run.s2)
    shifts = list(product((0, 1), repeat=4))
    # k, l, m, n turn theta1, phi1, theta2, phi2 by pi: one sweep of 16 settings
    k, l, m, n = np.array(shifts).T * np.pi
    shifted = PhaseSetting(ps.theta1 + k, ps.theta2 + m, ps.phi1 + l, ps.phi2 + n)
    brackets = observables.joint_intensity(run.input, shifted)
    terms = tuple(
        TermEntry(k, l, m, n, 1 if (k + l + m + n) % 2 == 0 else -1, float(value))
        for (k, l, m, n), value in zip(shifts, brackets)
    )
    return CorrelationReport(
        ps.delta, numeric, closed, _guarded_ratio(numeric, closed, ps.delta), terms
    )


def sum_identity(ps: PhaseSetting, s1: SourceSpec, s2: SourceSpec) -> CorrelationReport:
    """Signed sum of the sixteen shifted g2 terms against the closed form.

    The sum equals -8 times the closed form for every amplitude pair; the
    ratio field reports the measured constant (nan near the cosine zeros,
    where it is 0/0, and below ``SIGNED_SUM_FLOOR``, where the sum is
    rounding error). A sweep ``ps`` makes every value an array.
    """
    terms = []
    total = 0.0
    for k, l, m, n in product((0, 1), repeat=4):
        sign = 1 if (k + l + m + n) % 2 == 0 else -1
        value = g2_generalized(k, l, m, n, ps, s1, s2)
        total += sign * value
        terms.append(TermEntry(k, l, m, n, sign, value))
    closed = correlation_closed_form(ps, s1, s2)
    ratio = _guarded_ratio(total, closed, ps.delta, SIGNED_SUM_FLOOR)
    return CorrelationReport(ps.delta, total, closed, ratio, tuple(terms))


def fit_scaled_cosine(deltas: Array, values: Array) -> tuple[float, float]:
    """Least-squares scale kappa of values ~ kappa*cos(deltas), max residual."""
    deltas = np.asarray(deltas, dtype=float)
    values = np.asarray(values, dtype=float)
    c = np.cos(deltas)
    kappa = float((c * values).sum() / (c * c).sum())
    return kappa, float(np.abs(values - kappa * c).max())


def fit_sinusoid(x: Array, y: Array) -> tuple[Array, float]:
    """Least-squares fit y ~ c0 + c1 cos x + c2 sin x; coeffs and max residual."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones_like(x), np.cos(x), np.sin(x)])
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coeffs, float(np.abs(y - (design * coeffs).sum(axis=1)).max())
