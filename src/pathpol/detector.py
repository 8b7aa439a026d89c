"""Single-detector measurement chain: port selection, 45-degree projection,
and the time-domain intensity autocorrelation.

``project_aa`` pulls the component where both beams exit on port a and
expands its unit-norm polarization block U in the diagonal (+/-) basis as
sqrt(2) H U H^T, H the Hadamard, through two ``tensor.matmul2`` products;
the squared ++ coefficient is then the detection law (1 - cos delta)/2, which
``p45_intensity`` returns, forming that entry alone. Both read
an output tensor, ``bench.BenchRun.output``: one ``(2, 2, 2, 2)`` state or
an ``(N, 2, 2, 2, 2)`` stack of them; ``detect`` (the four port
probabilities) is a single-state report and refuses an empty state.
``detector_amplitudes`` projects each source's beam from
``bench.source_outputs``; it and ``autocorrelation_demo`` take one phase
setting or a sweep, and a sweep gives one entry per setting.
``autocorrelation_windows`` is the same integral over a sweep with its own
window and sample count per setting; ``pathpol verify`` integrates its
twenty windows in one such call. It is a second name, not array windows for
``autocorrelation_demo``, because perfbench's tracer sums the ``samples`` of
every ``autocorrelation_demo`` call as one number: the two entry points
share their checks and kernel, and stay apart until the benchmark's
counters change.

``autocorrelation_demo`` reinstates the time dependence dropped by the
bench: the two sources are distinct frequencies, so every first-order
interference term oscillates at the beat (or twice the beat) and averages
out of the windowed integral of the squared total intensity, leaving the
stationary combination I1^2 + I2^2 + 4 I1 I2, with I_k = |A_k u_k|^2 and
u_k from ``detector_amplitudes``. The intensity is one real cosine,
I1 + I2 + 2|c| cos((omega1 - omega2) t + arg c) with c = A1 u1 conj(A2 u2),
the exact identity |E1 + E2|^2 = I1 + I2 + 2 Re(E1 E2*). Its square is
integrated by the trapezoid rule on a uniform n-point time grid, so the
residual measures how well a finite sampled window cancels the oscillating
terms; but the grid is never built. The square is a constant plus cosines
at the beat and twice the beat, and the trapezoid sum of a cosine over a
uniform grid is a geometric series, so the rule's value is taken in closed
form: O(1) work per setting, whatever n (or window), every setting of a
sweep at once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import ceil, isfinite, pi

import numpy as np

from . import bench
from .bench import PhaseSetting, SourceSpec
from .tensor import (
    DIM, N_SLOTS, STATE_SHAPE, Array, choice, float_or_array, matmul2, norms_squared, real_scalar,
    state_tensor,
)

_SQRT2 = np.sqrt(2.0)
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / _SQRT2  # complex, like the blocks

# only the frequency difference matters; defaults keep one beat ~ 20 time units
DEFAULT_OMEGA_1 = 1.0
DEFAULT_OMEGA_2 = 1.3

MIN_BEATS = 100.0
MIN_SAMPLES = 10_000
SAMPLES_PER_PERIOD = 20
# an input-domain bound, ~25x the largest count the checks use (80,191): the
# closed-form sum costs the same at any n, so it caps the grid (and the
# window, through the samples a window needs) a caller may ask for, not memory
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


def _aa_branch(state: Array, hadamard: Array = _HADAMARD) -> tuple[Array, Array, Array, Array]:
    """The aa branch of one state or a stack, as ``(N, ...)`` stacks: the
    (pol1, pol2) block, its squared norm, the block scaled to unit norm U and
    its expansion sqrt(2) H U H^T, H the Hadamard or the rows of it that
    ``hadamard`` keeps (its first row gives the ++ entry alone)."""
    # rows pol1, cols pol2, one block per state
    pol_block = state.reshape((-1,) + STATE_SHAPE)[:, 0, :, 0, :]
    branch_norm_sq = (np.abs(pol_block) ** 2).sum(axis=(1, 2))
    if (branch_norm_sq == 0.0).any():
        raise ValueError("the aa branch of this state is empty")
    # a NaN state divides to NaN fields for its caller to judge, not a warning
    with np.errstate(invalid="ignore"):
        pol_unit = pol_block / np.sqrt(branch_norm_sq)[:, None, None]
    expansion = _SQRT2 * matmul2(matmul2(hadamard, pol_unit), hadamard.T)
    return pol_block, branch_norm_sq, pol_unit, expansion


def project_aa(state: Array) -> AaProjection:
    """Extract the aa branch and its diagonal-basis polarization expansion.

    A stacked ``(N, 2, 2, 2, 2)`` output gives every field a leading axis of
    length N.
    """
    state = state_tensor(state)
    lead = state.shape[:-N_SLOTS]
    pol_block, branch_norm_sq, pol_unit, expansion = _aa_branch(state)
    # a nonempty aa branch makes the state nonzero
    total = norms_squared(state.reshape(-1, DIM))
    c_vv, c_hh = pol_block[:, 0, 0], pol_block[:, 1, 1]
    # an infinite amplitude divides to NaN fields, as a NaN state does
    with np.errstate(invalid="ignore"):
        ratio = np.divide(-c_hh, c_vv, out=np.full_like(c_vv, np.nan), where=np.abs(c_vv) > 0.0)
        branch_fraction = branch_norm_sq / total

    return AaProjection(
        pol_unit=pol_unit.reshape(lead + (4,)),
        expansion=expansion.reshape(lead + (4,)),
        delta=float_or_array(np.angle(ratio).reshape(lead)),
        branch_fraction=float_or_array(branch_fraction.reshape(lead)),
    )


def p45_intensity(state: Array) -> float | Array:
    """Detection law behind a 45-degree polarizer on the aa branch.

    Squared ++ expansion coefficient; equals (1 - cos delta)/2 for bench
    output states. A stacked output gives one value per state. Only the
    branch's normalization and ++ entry are formed, through the helper
    ``project_aa`` uses, so that entry is its own bit for bit; the rest of
    a full projection is not.
    """
    state = state_tensor(state)
    plus_plus = _aa_branch(state, _HADAMARD[:1])[3][:, 0, 0]
    return float_or_array((np.abs(plus_plus) ** 2).reshape(state.shape[:-N_SLOTS]))


def detect(state: Array) -> tuple[float, float, float, float]:
    """Port probabilities (aa, ab, ba, bb) of one output state; NaN on all
    four for a state with a NaN or infinite amplitude."""
    grid = state_tensor(state)
    if grid.shape != STATE_SHAPE:
        raise ValueError("detect takes a single state, not a stack")
    total = float(norms_squared(grid.reshape(DIM)))
    if total == 0.0:
        raise ValueError("this state is empty")
    if not isfinite(total):  # 0/inf would read as a clean 0.0 on the other ports
        return (float("nan"),) * 4
    return tuple(
        float(np.sum(np.abs(grid[p1, :, p2, :]) ** 2)) / total
        for p1, p2 in ((0, 0), (0, 1), (1, 0), (1, 1))
    )


def detector_amplitudes(ps: PhaseSetting) -> tuple[complex | Array, complex | Array]:
    """Per-source amplitude reaching the (port a, 45 degrees) detector.

    Projects each source's beam from ``bench.source_outputs`` onto port a
    and the diagonal polarization, <a|(<V| + <H|)/sqrt2. Closed forms:
    (1 - e^{i(theta1+phi1)})/(2 sqrt2) and (1 + e^{-i(theta2+phi2)})/(2 sqrt2).
    A sweep gives both amplitudes one entry per setting.
    """
    return tuple((beam[..., 0, 0] + beam[..., 0, 1]) / _SQRT2 for beam in bench.source_outputs(ps))


@dataclass(frozen=True)
class AutocorrelationReport:
    """Windowed integral of the squared total intensity, decomposed.

    ``total`` is the trapezoid rule's value for (|E1 + E2|^2)^2 on the
    uniform ``samples``-point grid over the window, summed exactly in closed
    form, with the intensity I1 + I2 + 2|c| cos((omega1 - omega2) t + arg c)
    and c = A1 u1 conj(A2 u2). The stationary part is self_term_1 +
    self_term_2 + cross_product_term + beat_mean_square (the last two are
    both 2 I1 I2 window: the product cross term and the time average of the
    squared beat note).
    ``cross_measured`` = total - self terms, the part carrying the
    cos(delta) dependence through I1 I2 = |A1 u1|^2 |A2 u2|^2, with u1 and
    u2 from ``detector_amplitudes``. ``residual`` is the leftover
    oscillatory fraction of the total (NaN when the total is); it decays
    as 1/(window |omega1 - omega2|). ``samples`` is the length of the time
    grid the sum stands for. From ``autocorrelation_demo`` it is one int, a
    grid for every setting, and a sweep makes every other field an array,
    one entry per setting; a single setting gives floats. From
    ``autocorrelation_windows`` every field, ``samples`` too, is an array
    with one entry per setting.
    """

    samples: int | Array
    total: float | Array
    self_term_1: float | Array
    self_term_2: float | Array
    cross_product_term: float | Array
    beat_mean_square: float | Array
    cross_measured: float | Array
    residual: float | Array


def autocorrelation_demo(
    s1: SourceSpec,
    s2: SourceSpec,
    ps: PhaseSetting,
    window: float,
    samples: int,
) -> AutocorrelationReport:
    """Integrate the squared detector intensity over a finite time window.

    A sweep ``ps`` gives one entry per setting, each on the same n-point
    grid; a batch of sources is refused. ``samples`` is a Python int.
    """
    beat = _beat(s1, s2)
    window, n = _window_grid(s1, s2, beat, window, samples)
    return _report(s1, s2, ps, window, n)


def autocorrelation_windows(
    s1: SourceSpec,
    s2: SourceSpec,
    ps: PhaseSetting,
    windows: Sequence[float],
    samples: Sequence[int],
) -> AutocorrelationReport:
    """``autocorrelation_demo`` over a sweep of K settings, entry k at its own
    window ``windows[k]`` and sample count ``samples[k]``: every field,
    ``samples`` included, is a K-long array whose entry k equals
    ``autocorrelation_demo(s1, s2, setting k, windows[k], samples[k])``.

    Each entry is refused as ``autocorrelation_demo`` refuses its one window,
    in the same words after the entry's name; the sources are refused once.
    """
    if ps.shape != (len(windows),) or len(samples) != len(windows):
        settings = f"{ps.shape[0]} settings" if ps.shape else "one setting"
        raise ValueError(
            f"ps must be a sweep of one setting per window and sample count, got "
            f"{settings}, {len(windows)} windows and {len(samples)} counts"
        )
    beat = _beat(s1, s2)
    window, n = np.empty(len(windows)), np.empty(len(windows), dtype=int)
    for k, entry in enumerate(zip(windows, samples)):
        try:
            window[k], n[k] = _window_grid(s1, s2, beat, *entry)
        except ValueError as exc:
            raise ValueError(f"setting {k}: {exc}") from None
    return _report(s1, s2, ps, window, n)


def _beat(s1: SourceSpec, s2: SourceSpec) -> float:
    """|omega1 - omega2| of two single sources of distinct frequencies."""
    for name, source in (("s1", s1), ("s2", s2)):
        if isinstance(source.amplitude, np.ndarray):
            raise ValueError(f"{name}.amplitude must be one amplitude, not a batch")
    beat = abs(s1.omega - s2.omega)
    if beat == 0.0:
        raise ValueError("sources must have distinct frequencies (omega1 != omega2)")
    return beat


def _window_grid(
    s1: SourceSpec, s2: SourceSpec, beat: float, window: float, samples: int
) -> tuple[float, int]:
    """``window`` as a float and the length of the grid it is summed on, at
    least ``samples`` and ``SAMPLES_PER_PERIOD`` per period of twice the beat."""
    window = real_scalar("window", window)
    # (|A1| + |A2|)^4 bounds the squared intensity, so this bounds the
    # integral and every term it is compared with
    reach = abs(s1.amplitude) + abs(s2.amplitude)
    if not isfinite(reach * reach * reach * reach * window):
        raise ValueError(
            f"window={window:g} overflows the integral: (|A1| + |A2|)^4 * window "
            f"must be at most {np.finfo(float).max:.6g}"
        )
    if window * beat < MIN_BEATS:
        raise ValueError(
            f"window * |omega1 - omega2| must be >= {MIN_BEATS:g}, "
            f"got {window * beat:g}"
        )
    span = f"an integer in [{MIN_SAMPLES}, {MAX_SAMPLES}]"
    choice("samples", samples, range(MIN_SAMPLES, MAX_SAMPLES + 1), span)

    # fastest surviving oscillation is twice the beat
    needed = SAMPLES_PER_PERIOD * window * (2.0 * beat) / (2.0 * pi)
    # compared as a float first: a huge window must not reach ceil()
    if needed + 1.0 > MAX_SAMPLES:
        raise ValueError(
            f"window={window:g} with samples={samples} needs "
            f"{needed + 1.0:.6g} samples, above MAX_SAMPLES={MAX_SAMPLES}"
        )
    # a Python int, whatever integer type the caller passed
    return window, max(int(samples), ceil(needed) + 1)


def _report(
    s1: SourceSpec, s2: SourceSpec, ps: PhaseSetting, window: float | Array, n: int | Array
) -> AutocorrelationReport:
    """The report of checked sources over ``ps``, with one window and grid
    length for every setting or one per setting."""
    shape = ps.shape
    # a single setting runs as a sweep of one, so every setting's numbers come
    # from the same array loops whether it is integrated alone or in a sweep
    u1, u2 = (np.broadcast_to(u, shape).reshape(-1) for u in detector_amplitudes(ps))
    a1, a2 = s1.amplitude * u1, s2.amplitude * u2
    i1 = np.abs(a1) ** 2
    i2 = np.abs(a2) ** 2
    # |E1 + E2|^2 = I1 + I2 + 2 Re(E1 E2*), and E1 E2* = c e^{i(omega1 - omega2) t}
    total = _trapezoid_integral(i1 + i2, a1 * np.conj(a2), s1.omega - s2.omega, window, n)

    self1 = i1 * i1 * window
    self2 = i2 * i2 * window
    # the product cross term and the beat's mean square are both 2 I1 I2 window
    cross = 2.0 * i1 * i2 * window
    leftover = total - (self1 + self2 + cross + cross)
    # a NaN total gives a NaN residual, which no tolerance accepts
    residual = np.divide(np.abs(leftover), total, out=np.zeros_like(total), where=total != 0.0)
    fields = (total, self1, self2, cross, cross, total - self1 - self2, residual)
    return AutocorrelationReport(n, *(float_or_array(f.reshape(shape)) for f in fields))


def _trapezoid_integral(s: Array, c: Array, omega: float, window: float, n: int) -> Array:
    """The trapezoid rule's value, exactly, for the squared intensity
    y(t) = (s + 2|c| cos(omega t + arg c))^2 on the n-point grid t_j = j h,
    h = window / (n - 1): h (sum_j y_j - (y_0 + y_{n-1}) / 2), one value per
    entry of ``s`` and ``c``.

    Expanded, y = A + B cos(theta) + D cos(2 theta) with theta = omega t + arg c,
    A = s^2 + 2|c|^2, B = 4 s |c| and D = 2|c|^2, and on the uniform grid each
    cosine sums as a geometric series:
    sum_j cos(k theta_j) = cos(k arg c + (n - 1) k omega h / 2)
    * sin(n k omega h / 2) / sin(k omega h / 2).
    """
    mag, phase = np.abs(c), np.angle(c)
    a = s * s + 2.0 * mag * mag
    b = 4.0 * s * mag
    d = 2.0 * mag * mag
    h = window / (n - 1)
    # the grid resolves twice the beat, so k omega h / 2 <= pi / 20: no 0/0
    half = 0.5 * omega * h
    last = phase + omega * window
    # (n - 1) A is the constant's n samples less its two end halves
    series = (n - 1) * a
    for k, weight in ((1, b), (2, d)):
        geometric = np.cos(k * (phase + (n - 1) * half)) * np.sin(n * k * half) / np.sin(k * half)
        ends = np.cos(k * phase) + np.cos(k * last)
        series = series + weight * (geometric - 0.5 * ends)
    return h * series
