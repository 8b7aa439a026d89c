"""Intensity-intensity correlations, computed two independent ways.

Every quantity here comes in two routes that must never be merged:

* a numeric route: explicit operator expectation values on the symmetrized
  input state built by the bench pipeline, each observable acting on its own
  slot; it takes the four phases (as arrays for a whole sweep) and never
  reads delta;
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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import cos, nan

import numpy as np

from . import bench, observables
from .bench import BenchState, PhaseSetting, SourceSpec, Stage
from .observables import SigmaSpec
from .tensor import Array

# ratios are reported as nan when the closed form sits this close to a zero
COSINE_GUARD = 1e-3


def _intensities(s1: SourceSpec, s2: SourceSpec) -> tuple[float, float, float]:
    i1, i2 = s1.intensity, s2.intensity
    return i1, i2, (i1 + i2) ** 2


def correlation_closed_form(ps: PhaseSetting, s1: SourceSpec, s2: SourceSpec) -> float:
    """Normalized correlation of the two detector intensities, formula route."""
    i1, i2, ssq = _intensities(s1, s2)
    return 4.0 * i1 * i2 * cos(ps.delta) / ssq


def correlation_numeric_batch(
    start: BenchState,
    s1: SourceSpec,
    s2: SourceSpec,
    theta1: Array,
    theta2: Array,
    phi1: Array,
    phi2: Array,
) -> Array:
    """``correlation_numeric`` at many phase settings, one entry per setting.

    ``start`` is ``bench.symmetrized_input(s1, s2)``, built once by the
    caller; the phases are equal-length 1-d arrays (or scalars).
    """
    if start.stage is not Stage.POST_PR:
        raise ValueError(f"expected the symmetrized input, got stage {start.stage.value!r}")
    _, _, ssq = _intensities(s1, s2)
    specs = (
        SigmaSpec(1, "path", phi1),
        SigmaSpec(1, "pol", theta1),
        SigmaSpec(2, "path", phi2),
        SigmaSpec(2, "pol", theta2),
    )
    return observables.product_expectation(start.tensor, specs).real / ssq


def correlation_numeric(ps: PhaseSetting, s1: SourceSpec, s2: SourceSpec) -> float:
    """Normalized expectation of the four flip observables, operator route.

    Evaluates <sigma_path1(phi1) sigma_pol1(theta1) sigma_path2(phi2)
    sigma_pol2(theta2)> on the symmetrized input and divides by (I1+I2)^2.
    Proportional to the closed form with constant ratio -1/4.
    """
    start = bench.symmetrized_input(s1, s2)
    return float(
        correlation_numeric_batch(start, s1, s2, ps.theta1, ps.theta2, ps.phi1, ps.phi2)
    )


@dataclass(frozen=True)
class TermEntry:
    """One of the sixteen pi-shift terms: shift indices, sign, and value."""

    k: int
    l: int
    m: int
    n: int
    sign: int
    value: float


@dataclass(frozen=True)
class CorrelationReport:
    """Both correlation routes side by side plus the per-term breakdown."""

    delta: float
    numeric: float
    closed_form: float
    ratio: float
    terms: tuple[TermEntry, ...]

    def __post_init__(self) -> None:
        if len(self.terms) != 16:
            raise ValueError(f"expected 16 terms, got {len(self.terms)}")


def _guarded_ratio(numeric: float, closed: float, delta: float) -> float:
    if abs(cos(delta)) < COSINE_GUARD:
        return nan
    return numeric / closed


def _check_shift(value: int, name: str) -> None:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value}")


@dataclass(frozen=True)
class IntensityTerm:
    """One shifted joint-intensity bracket, both routes.

    ``bracket`` is the raw (unnormalized) expectation of the two shifted
    intensity operators on the symmetrized input; ``closed_form`` is the
    normalized formula value 2 I1 I2 [1 - (-1)^{k+l+m+n} cos(delta)] /
    (I1+I2)^2. Their ratio is the constant (I1+I2)^2 / 32.
    """

    k: int
    l: int
    m: int
    n: int
    closed_form: float
    bracket: float


def intensity_term(
    k: int, l: int, m: int, n: int, ps: PhaseSetting, s1: SourceSpec, s2: SourceSpec
) -> IntensityTerm:
    """Joint-intensity term with the four projector phases shifted by pi."""
    for v, name in ((k, "k"), (l, "l"), (m, "m"), (n, "n")):
        _check_shift(v, name)
    i1, i2, ssq = _intensities(s1, s2)
    signed = -1.0 if (k + l + m + n) % 2 else 1.0
    closed = 2.0 * i1 * i2 * (1.0 - signed * cos(ps.delta)) / ssq
    return IntensityTerm(k, l, m, n, closed, float(_intensity_brackets(ps, s1, s2, k, l, m, n)))


def _intensity_brackets(
    ps: PhaseSetting, s1: SourceSpec, s2: SourceSpec, k: Array, l: Array, m: Array, n: Array
) -> Array:
    """Raw shifted joint-intensity brackets, operator route; shifts may be arrays.

    The intensity operator of each source is its path and polarization
    plus-branch projectors, so the bracket is a four-factor product.
    """
    pi = np.pi
    specs = (
        SigmaSpec(1, "path", ps.phi1 + np.asarray(l) * pi, "plus"),
        SigmaSpec(1, "pol", ps.theta1 + np.asarray(k) * pi, "plus"),
        SigmaSpec(2, "path", ps.phi2 + np.asarray(n) * pi, "plus"),
        SigmaSpec(2, "pol", ps.theta2 + np.asarray(m) * pi, "plus"),
    )
    state = bench.symmetrized_input(s1, s2).tensor
    return observables.product_expectation(state, specs).real


def g2_hbt(alpha: float, beta: float, s1: SourceSpec, s2: SourceSpec) -> float:
    """Two-detector degree of coherence for bare path interference.

    1 - 2 I1 I2 cos(alpha - beta) / (I1+I2)^2: bounded by [1/2, 3/2] at equal
    intensities and identically 1 when either source is switched off by
    taking its intensity to zero relative to the other.
    """
    i1, i2, ssq = _intensities(s1, s2)
    return 1.0 - 2.0 * i1 * i2 * cos(alpha - beta) / ssq


def g2_generalized(
    k: int, l: int, m: int, n: int, ps: PhaseSetting, s1: SourceSpec, s2: SourceSpec
) -> float:
    """Degree of coherence of the shifted intensity pair, formula route.

    Reduces to ``g2_hbt(phi1, phi2)`` when both polarization phases are held
    equal and all shifts vanish.
    """
    for v, name in ((k, "k"), (l, "l"), (m, "m"), (n, "n")):
        _check_shift(v, name)
    i1, i2, ssq = _intensities(s1, s2)
    signed = -1.0 if (k + l + m + n) % 2 else 1.0
    return (i1 * i1 + i2 * i2 + 2.0 * i1 * i2 * (1.0 - signed * cos(ps.delta))) / ssq


def correlation_report(
    ps: PhaseSetting, s1: SourceSpec, s2: SourceSpec
) -> CorrelationReport:
    """Both correlation routes plus the sixteen raw intensity brackets."""
    numeric = correlation_numeric(ps, s1, s2)
    closed = correlation_closed_form(ps, s1, s2)
    shifts = list(product((0, 1), repeat=4))
    brackets = _intensity_brackets(ps, s1, s2, *np.array(shifts).T)
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
    where the ratio is 0/0).
    """
    terms = []
    total = 0.0
    for k, l, m, n in product((0, 1), repeat=4):
        sign = 1 if (k + l + m + n) % 2 == 0 else -1
        value = g2_generalized(k, l, m, n, ps, s1, s2)
        total += sign * value
        terms.append(TermEntry(k, l, m, n, sign, value))
    closed = correlation_closed_form(ps, s1, s2)
    return CorrelationReport(
        ps.delta, total, closed, _guarded_ratio(total, closed, ps.delta), tuple(terms)
    )


def fit_scaled_cosine(deltas: Array, values: Array) -> tuple[float, float]:
    """Least-squares scale kappa of values ~ kappa*cos(deltas), max residual."""
    deltas = np.asarray(deltas, dtype=float)
    values = np.asarray(values, dtype=float)
    c = np.cos(deltas)
    kappa = float(c @ values / (c @ c))
    return kappa, float(np.max(np.abs(values - kappa * c)))


def fit_sinusoid(x: Array, y: Array) -> tuple[Array, float]:
    """Least-squares fit y ~ c0 + c1 cos x + c2 sin x; coeffs and max residual."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones_like(x), np.cos(x), np.sin(x)])
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coeffs, float(np.max(np.abs(y - design @ coeffs)))
