"""Single-detector measurement chain: port selection, 45-degree projection,
and the time-domain intensity autocorrelation.

``project_aa`` pulls the component where both beams exit on port a and
expands its polarization content in the diagonal (+/-) basis, using the
convention that the expansion coefficients are those of the unit-norm
polarization part scaled by sqrt(2); the squared ++ coefficient is then the
detection law (1 - cos delta)/2, which ``p45_intensity`` returns. Both read
one output state or an ``(N, 16)`` stack of them; ``detect`` (the four port
probabilities) and ``autocorrelation_demo`` are single-setting reports.

``autocorrelation_demo`` reinstates the time dependence dropped by the
bench: the two sources are distinct frequencies, so every first-order
interference term oscillates at the beat (or twice the beat) and averages
out of the windowed integral of the squared total intensity, leaving the
stationary combination I1^2 + I2^2 + 4 I1 I2, with I_k = |A_k u_k|^2 and
u_k from ``detector_amplitudes``. The intensity is sampled as one real
cosine, I1 + I2 + 2|c| cos((omega1 - omega2) t + arg c) with
c = A1 u1 conj(A2 u2), the exact identity |E1 + E2|^2 = I1 + I2 +
2 Re(E1 E2*); it is still integrated in time, so the residual measures how
well the numerical average cancels the oscillating terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, pi

import numpy as np

from . import bench, elements
from .bench import BenchState, PhaseSetting, SourceSpec, Stage
from .tensor import DIM, STATE_SHAPE, Array, _float_or_array, norms_squared

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

    ``pol_unit`` holds the four polarization amplitudes (VV, VH, HV, HH) of
    the branch normalized to unit norm, and ``expansion`` the (++, +-, -+,
    --) coefficients of sqrt(2) * pol_unit. ``delta`` is the relative phase
    read back from the two occupied components, and ``branch_fraction`` the
    branch's share of the state's norm. ``project_aa`` of a stacked state
    gives every field a leading axis, one entry per state.
    """

    pol_unit: Array
    expansion: Array
    delta: float | Array
    branch_fraction: float | Array


def _require_output_stage(state: BenchState) -> None:
    if state.stage is not Stage.POST_BS_PRIME:
        raise ValueError(
            f"expected a post-bs-prime state, got stage {state.stage.value!r}"
        )


def project_aa(state: BenchState) -> AaProjection:
    """Extract the aa branch and its diagonal-basis polarization expansion.

    A stacked ``(N, 16)`` state gives every field a leading axis of length N.
    """
    _require_output_stage(state)
    lead = state.vector.shape[:-1]
    # rows pol1, cols pol2, one block per state
    pol_block = state.vector.reshape((-1,) + STATE_SHAPE)[:, 0, :, 0, :]
    branch_norm_sq = np.sum(np.abs(pol_block) ** 2, axis=(1, 2))
    if np.any(branch_norm_sq == 0.0):
        raise ValueError("the aa branch of this state is empty")
    pol_unit = pol_block / np.sqrt(branch_norm_sq)[:, None, None]
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / _SQRT2
    expansion = _SQRT2 * (hadamard @ pol_unit @ hadamard.T)
    # a nonempty aa branch makes the state nonzero
    total = norms_squared(state.vector.reshape(-1, DIM))
    c_vv, c_hh = pol_block[:, 0, 0], pol_block[:, 1, 1]
    ratio = np.divide(-c_hh, c_vv, out=np.full_like(c_vv, np.nan), where=np.abs(c_vv) > 0.0)

    return AaProjection(
        pol_unit=pol_unit.reshape(lead + (4,)),
        expansion=expansion.reshape(lead + (4,)),
        delta=_float_or_array(np.angle(ratio).reshape(lead)),
        branch_fraction=_float_or_array((branch_norm_sq / total).reshape(lead)),
    )


def p45_intensity(state: BenchState) -> float | Array:
    """Detection law behind a 45-degree polarizer on the aa branch.

    Squared ++ expansion coefficient; equals (1 - cos delta)/2 for bench
    output states. A stacked state gives one value per state.
    """
    return _float_or_array(np.abs(project_aa(state).expansion[..., 0]) ** 2)


def detect(state: BenchState) -> tuple[float, float, float, float]:
    """Port probabilities (aa, ab, ba, bb) of one output state."""
    _require_output_stage(state)
    if state.vector.ndim != 1:
        raise ValueError("detect takes a single state, not a stack")
    grid = state.vector.reshape(2, 2, 2, 2)
    total = state.norm_squared
    return tuple(
        float(np.sum(np.abs(grid[p1, :, p2, :]) ** 2)) / total
        for p1, p2 in ((0, 0), (0, 1), (1, 0), (1, 1))
    )


def detector_amplitudes(ps: PhaseSetting) -> tuple[complex, complex]:
    """Per-source amplitude reaching the (port a, 45 degrees) detector.

    Runs each unit-amplitude source alone through splitter, rotator, its own
    phase pair, and the second splitter, then projects onto port a and the
    diagonal polarization. Closed forms: (1 - e^{i(theta1+phi1)})/(2 sqrt2)
    and (1 + e^{-i(theta2+phi2)})/(2 sqrt2).
    """
    bench._require_single(ps)
    out = []
    for beam, theta, phi, sign in zip(
        bench._source_beams(1.0, 1.0),  # source 1 on b, source 2 on a
        (ps.theta1, ps.theta2),
        (ps.phi1, ps.phi2),
        (1, -1),
    ):
        beam = bench._pr_beam(bench._bs_beam(beam))
        # the phase pair is diagonal on the (path, pol) beam: one factor per entry
        path = np.diagonal(elements.path_phase(phi, sign))
        pol = np.diagonal(elements.pol_phase(theta, sign))
        beam = bench._bs_beam(path[:, None] * pol[None, :] * beam)
        out.append((beam[0, 0] + beam[0, 1]) / _SQRT2)  # <a| and (<V| + <H|)/sqrt2
    return out[0], out[1]


@dataclass(frozen=True)
class AutocorrelationReport:
    """Windowed integral of the squared total intensity, decomposed.

    ``total`` is the trapezoid integral of (|E1 + E2|^2)^2, the intensity
    sampled as I1 + I2 + 2|c| cos((omega1 - omega2) t + arg c) with
    c = A1 u1 conj(A2 u2). The stationary part is self_term_1 +
    self_term_2 + cross_product_term + beat_mean_square (the last two are
    both 2 I1 I2 window: the product cross term and the time average of the
    squared beat note).
    ``cross_measured`` = total - self terms, the part carrying the
    cos(delta) dependence through I1 I2 = |A1 u1|^2 |A2 u2|^2, with u1 and
    u2 from ``detector_amplitudes``. ``residual`` is the leftover
    oscillatory fraction of the total (NaN when the total is); it decays
    as 1/(window |omega1 - omega2|). ``samples`` is the length of the time grid.
    """

    samples: int
    total: float
    self_term_1: float
    self_term_2: float
    cross_product_term: float
    beat_mean_square: float
    cross_measured: float
    residual: float


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
    # (|A1| + |A2|)^4 bounds the squared intensity, so this bounds the
    # integral and every term it is compared with
    reach = abs(s1.amplitude) + abs(s2.amplitude)
    if not np.isfinite(reach * reach * reach * reach * window):
        raise ValueError(
            f"window={window:g} overflows the integral: (|A1| + |A2|)^4 * window "
            f"must be at most {np.finfo(float).max:.6g}"
        )
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
    a1, a2 = s1.amplitude * u1, s2.amplitude * u2
    i1 = abs(a1) ** 2
    i2 = abs(a2) ** 2
    # |E1 + E2|^2 = I1 + I2 + 2 Re(E1 E2*), and E1 E2* = c e^{i(omega1 - omega2) t}
    c = a1 * np.conj(a2)
    times = np.linspace(0.0, window, n)
    phase = (s1.omega - s2.omega) * times
    phase += np.angle(c)
    intensity = np.cos(phase, out=phase)  # in the phase's buffer
    intensity *= 2.0 * abs(c)
    intensity += i1 + i2
    # numpy >= 2.0 calls it trapezoid (2.4 removed trapz): name trapz only without it
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    total = float(trapezoid(intensity**2, times))

    self1 = i1 * i1 * window
    self2 = i2 * i2 * window
    cross = 2.0 * i1 * i2 * window
    beat_ms = 2.0 * i1 * i2 * window

    leftover = total - (self1 + self2 + cross + beat_ms)
    # a NaN total gives a NaN residual, which no tolerance accepts
    residual = abs(leftover) / total if total != 0.0 else 0.0

    return AutocorrelationReport(
        samples=n,
        total=total,
        self_term_1=self1,
        self_term_2=self2,
        cross_product_term=cross,
        beat_mean_square=beat_ms,
        cross_measured=total - self1 - self2,
        residual=residual,
    )
