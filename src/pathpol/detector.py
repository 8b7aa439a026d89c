"""Single-detector measurement chain: port selection, 45-degree projection,
and the time-domain intensity autocorrelation.

``project_aa`` pulls the component where both beams exit on port a and
expands its polarization content in the diagonal (+/-) basis, using the
convention that the expansion coefficients are those of the unit-norm
polarization part scaled by sqrt(2); the squared ++ coefficient is then the
detection law (1 - cos delta)/2.

``autocorrelation_demo`` reinstates the time dependence dropped by the
bench: the two sources are distinct frequencies, so every first-order
interference term oscillates at the beat (or twice the beat) and averages
out of the windowed integral of the squared total intensity, leaving the
stationary combination I1^2 + I2^2 + 4 I1 I2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, pi

import numpy as np

from . import bench, elements
from .bench import BenchState, PhaseSetting, SourceSpec, Stage
from .tensor import DIM, STATE_SHAPE, Array, kron

_SQRT2 = np.sqrt(2.0)

# only the frequency difference matters; defaults keep one beat ~ 20 time units
DEFAULT_OMEGA_1 = 1.0
DEFAULT_OMEGA_2 = 1.3

MIN_BEATS = 100.0
MIN_SAMPLES = 10_000
SAMPLES_PER_PERIOD = 20
# ~25x the largest count the checks use (80,191); a series this long holds
# ~130 MiB of working arrays, so longer windows are refused before allocating
MAX_SAMPLES = 2_000_000


@dataclass(frozen=True)
class AaProjection:
    """Both-beams-on-port-a component of an output state.

    ``pol`` holds the four polarization amplitudes (VV, VH, HV, HH) of the
    branch, ``pol_unit`` the same normalized to unit norm, and ``expansion``
    the (++, +-, -+, --) coefficients of sqrt(2) * pol_unit. ``delta`` is
    the relative phase read back from the two occupied components.
    """

    branch_vector: Array
    pol: Array
    pol_unit: Array
    expansion: Array
    delta: float
    branch_fraction: float


@dataclass(frozen=True)
class DetectionResult:
    """Port statistics of an output state plus the 45-degree detection law."""

    branch_probabilities: tuple[float, float, float, float]  # aa, ab, ba, bb
    p45_joint_intensity: float
    delta: float


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled complex fields of the two sources."""

    times: Array
    field1: Array
    field2: Array

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.size < 2:
            raise ValueError("a time series needs at least 2 samples")
        steps = np.diff(t)
        if np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
            raise ValueError("sample times must be uniformly spaced")
        for name in ("field1", "field2"):
            f = np.asarray(getattr(self, name), dtype=complex)
            if f.shape != t.shape:
                raise ValueError(f"{name} must match the sample times in length")


def _require_output_stage(state: BenchState) -> None:
    if state.stage is not Stage.POST_BS_PRIME:
        raise ValueError(
            f"expected a post-bs-prime state, got stage {state.stage.value!r}"
        )


def project_aa(state: BenchState) -> AaProjection:
    """Extract the aa branch and its diagonal-basis polarization expansion."""
    _require_output_stage(state)
    grid = state.vector.reshape(2, 2, 2, 2)  # path1, pol1, path2, pol2

    total = state.norm_squared
    if total == 0.0:
        raise ValueError("cannot project a zero state")
    pol_block = grid[0, :, 0, :]  # 2x2: rows pol1, cols pol2
    branch_norm_sq = float(np.sum(np.abs(pol_block) ** 2))
    if branch_norm_sq == 0.0:
        raise ValueError("the aa branch of this state is empty")

    branch = np.zeros_like(grid)
    branch[0, :, 0, :] = pol_block
    pol = pol_block.reshape(4)  # VV, VH, HV, HH
    pol_unit = pol / np.sqrt(branch_norm_sq)

    expansion = _diagonal_expansion(pol_unit.reshape(2, 2)).reshape(4)

    c_vv, c_hh = pol[0], pol[3]
    delta = float(np.angle(-c_hh / c_vv)) if abs(c_vv) > 0.0 else float("nan")

    return AaProjection(
        branch_vector=branch.reshape(16),
        pol=pol,
        pol_unit=pol_unit,
        expansion=expansion,
        delta=delta,
        branch_fraction=branch_norm_sq / total,
    )


def _diagonal_expansion(pol_unit: Array) -> Array:
    """(++, +-; -+, --) coefficients of sqrt(2) * pol_unit, for (..., 2, 2) blocks."""
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / _SQRT2
    return _SQRT2 * (hadamard @ pol_unit @ hadamard.T)


def p45_intensities(vectors: Array) -> Array:
    """Detection law for a stack of output-state vectors, ``(N, 16) -> (N,)``.

    Same readout as ``p45_intensity``; the caller vouches that every row is
    a post-bs-prime state.
    """
    vectors = np.asarray(vectors, dtype=complex)
    if vectors.ndim != 2 or vectors.shape[1] != DIM:
        raise ValueError(f"expected an (N, {DIM}) stack of states, got shape {vectors.shape}")
    pol = vectors.reshape((-1,) + STATE_SHAPE)[:, 0, :, 0, :]
    norm_sq = np.sum(np.abs(pol) ** 2, axis=(1, 2))
    if np.any(norm_sq == 0.0):
        raise ValueError("the aa branch of this state is empty")
    pol_unit = pol / np.sqrt(norm_sq)[:, None, None]
    return np.abs(_diagonal_expansion(pol_unit)[:, 0, 0]) ** 2


def p45_intensity(state: BenchState) -> float:
    """Detection law behind a 45-degree polarizer on the aa branch.

    Squared ++ expansion coefficient; equals (1 - cos delta)/2 for bench
    output states.
    """
    _require_output_stage(state)
    return float(p45_intensities(state.vector[None, :])[0])


def detect(state: BenchState) -> DetectionResult:
    """Port probabilities plus the 45-degree joint intensity."""
    _require_output_stage(state)
    grid = state.vector.reshape(2, 2, 2, 2)
    total = state.norm_squared
    probs = tuple(
        float(np.sum(np.abs(grid[p1, :, p2, :]) ** 2)) / total
        for p1, p2 in ((0, 0), (0, 1), (1, 0), (1, 1))
    )
    aa = project_aa(state)
    return DetectionResult(probs, float(abs(aa.expansion[0]) ** 2), aa.delta)


def detector_amplitudes(ps: PhaseSetting) -> tuple[complex, complex]:
    """Per-source amplitude reaching the (port a, 45 degrees) detector.

    Runs each unit-amplitude source alone through splitter, rotator, its own
    phase pair, and the second splitter, then projects onto port a and the
    diagonal polarization. Closed forms: (1 - e^{i(theta1+phi1)})/(2 sqrt2)
    and (1 + e^{-i(theta2+phi2)})/(2 sqrt2).
    """
    chain_in = bench.pr_single_beam() @ bench.bs_single_beam()
    bs_out = bench.bs_single_beam()

    out = []
    for start_index, theta, phi, sign in (
        (2, ps.theta1, ps.phi1, 1),  # source 1 enters on b
        (0, ps.theta2, ps.phi2, -1),  # source 2 enters on a
    ):
        v = np.zeros(4, dtype=complex)
        v[start_index] = 1.0
        phases = kron(
            elements.path_phase(phi, sign), elements.pol_phase(theta, sign)
        )
        v = bs_out @ phases @ chain_in @ v
        out.append((v[0] + v[1]) / _SQRT2)  # <a| and (<V| + <H|)/sqrt2
    return out[0], out[1]


@dataclass(frozen=True)
class AutocorrelationReport:
    """Windowed integral of the squared total intensity, decomposed.

    ``total`` is the trapezoid integral of (|E1 + E2|^2)^2. The stationary
    part is self_term_1 + self_term_2 + cross_product_term +
    beat_mean_square (the last two are both 2 I1 I2 window: the product
    cross term and the time average of the squared beat note).
    ``cross_measured`` = total - self terms, the part carrying the
    cos(delta) dependence through I1 I2 = |A1 u1|^2 |A2 u2|^2.
    ``residual`` is the leftover oscillatory fraction of the total; it
    decays as 1/(window |omega1 - omega2|).
    """

    window: float
    samples: int
    delta: float
    u1: complex
    u2: complex
    intensity1: float
    intensity2: float
    total: float
    self_term_1: float
    self_term_2: float
    cross_product_term: float
    beat_mean_square: float
    cross_measured: float
    residual: float
    series: TimeSeries


def autocorrelation_demo(
    s1: SourceSpec,
    s2: SourceSpec,
    ps: PhaseSetting,
    window: float,
    samples: int,
) -> AutocorrelationReport:
    """Integrate the squared detector intensity over a finite time window."""
    if not np.isfinite(window):
        raise ValueError(f"window must be finite, got {window!r}")
    beat = abs(s1.omega - s2.omega)
    if beat == 0.0:
        raise ValueError("sources must have distinct frequencies (omega1 != omega2)")
    if window * beat < MIN_BEATS:
        raise ValueError(
            f"window * |omega1 - omega2| must be >= {MIN_BEATS:g}, "
            f"got {window * beat:g}"
        )
    if samples < MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_SAMPLES}, got {samples}")

    # fastest surviving oscillation is twice the beat
    needed = SAMPLES_PER_PERIOD * window * (2.0 * beat) / (2.0 * pi)
    # compared as a float first: a huge window must not reach ceil() or linspace
    if max(samples, needed + 1.0) > MAX_SAMPLES:
        raise ValueError(
            f"window={window:g} with samples={samples} needs "
            f"{max(samples, needed + 1.0):.6g} samples, above MAX_SAMPLES={MAX_SAMPLES}"
        )
    n = max(samples, ceil(needed) + 1)

    u1, u2 = detector_amplitudes(ps)
    times = np.linspace(0.0, window, n)
    field1 = s1.amplitude * u1 * np.exp(1j * s1.omega * times)
    field2 = s2.amplitude * u2 * np.exp(1j * s2.omega * times)
    series = TimeSeries(times, field1, field2)

    intensity = np.abs(field1 + field2) ** 2
    # numpy >= 2.0 calls it trapezoid (2.4 removed trapz): name trapz only without it
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    total = float(trapezoid(intensity**2, times))

    i1 = abs(s1.amplitude * u1) ** 2
    i2 = abs(s2.amplitude * u2) ** 2
    self1 = i1 * i1 * window
    self2 = i2 * i2 * window
    cross = 2.0 * i1 * i2 * window
    beat_ms = 2.0 * i1 * i2 * window

    leftover = total - (self1 + self2 + cross + beat_ms)
    residual = abs(leftover) / total if total > 0.0 else 0.0

    return AutocorrelationReport(
        window=window,
        samples=n,
        delta=ps.delta,
        u1=u1,
        u2=u2,
        intensity1=i1,
        intensity2=i2,
        total=total,
        self_term_1=self1,
        self_term_2=self2,
        cross_product_term=cross,
        beat_mean_square=beat_ms,
        cross_measured=total - self1 - self2,
        residual=residual,
        series=series,
    )
