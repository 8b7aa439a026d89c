"""Bench pipeline: two sources in, one 16-dim two-beam state out.

The two beams enter on distinct ports (source 1 on b, source 2 on a), split
at the first beam splitter, have the polarization of their b branch rotated
from V to H, and are then symmetrized into a single two-beam state. The four
tunable phases enter afterwards as slot-diagonal factors: source 1 advances
its H component by e^{+i theta1} and its b component by e^{+i phi1}, source 2
applies the conjugate signs. The result keeps exactly two nonzero amplitudes,

    (A1 A2 / sqrt2) [ |aVaV>  -  e^{i delta} |bHbH> ],

with delta = theta1 + phi1 - theta2 - phi2, for every PhaseSetting. A second
beam splitter on both path slots then produces the state seen by the
detectors. Prisms before and after the phase stage are label bookkeeping
only; amplitudes pass through them bit-identically.

Every element acts on its own axis, with no Kronecker product built: a
single beam is a ``(..., 2, 2)`` (path, pol) tensor, a two-beam state a
``(..., 2, 2, 2, 2)`` tensor. Amplitudes and phases may be arrays, one bench
run per entry (``trace_stages``); the ``SourceSpec``/``PhaseSetting``
functions are single runs of the same code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import elements
from .tensor import (
    DIM,
    SLOT_PATH_1,
    SLOT_PATH_2,
    SLOT_POL_1,
    SLOT_POL_2,
    STATE_SHAPE,
    Array,
    apply_slot,
    norms_squared,
)

_SQRT2 = np.sqrt(2.0)
_BEAM_SHAPE = (2, 2)  # one beam: path, pol


class Stage(enum.Enum):
    """Where a state sits in the pipeline."""

    SOURCE = "source"
    POST_BS = "post-bs"
    POST_PR = "post-pr"
    POST_PHASES = "post-phases"
    PRE_BS_PRIME = "pre-bs-prime"
    POST_BS_PRIME = "post-bs-prime"


@dataclass(frozen=True)
class SourceSpec:
    """One monochromatic input beam: complex amplitude and angular frequency."""

    amplitude: complex
    omega: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.amplitude):
            raise ValueError(f"source amplitude must be finite, got {self.amplitude!r}")
        if abs(self.amplitude) == 0.0:
            raise ValueError("source amplitude must be nonzero")
        if not 0.0 < self.intensity < np.inf:
            raise ValueError(
                f"source amplitude {self.amplitude!r} gives intensity {self.intensity!r}, "
                "not a positive finite number"
            )
        if not np.isfinite(self.omega):
            raise ValueError("source frequency must be finite")

    @property
    def intensity(self) -> float:
        return abs(self.amplitude) ** 2


@dataclass(frozen=True)
class PhaseSetting:
    """The four tunable phases (pol 1, pol 2, path 1, path 2)."""

    theta1: float
    theta2: float
    phi1: float
    phi2: float

    def __post_init__(self) -> None:
        for name in ("theta1", "theta2", "phi1", "phi2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def delta(self) -> float:
        """The single combination the bench output depends on."""
        return self.theta1 + self.phi1 - self.theta2 - self.phi2


@dataclass(frozen=True)
class BenchState:
    """A 16-dim state vector tagged with its pipeline stage.

    The rotating global factor e^{-i(omega1+omega2)t} common to every
    component is not stored in the amplitudes; its frequency sum rides along
    as ``omega_sum``.
    """

    stage: Stage
    vector: Array
    omega_sum: float

    def __post_init__(self) -> None:
        v = np.asarray(self.vector, dtype=complex)
        if v.shape != (DIM,):
            raise ValueError(f"bench state must have shape ({DIM},), got {v.shape}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @property
    def tensor(self) -> Array:
        """Read-only ``(2, 2, 2, 2)`` view of ``vector``, one axis per slot."""
        return self.vector.reshape(STATE_SHAPE)

    @property
    def norm_squared(self) -> float:
        return float(norms_squared(self.vector))


def _source_beams(a1: complex | Array, a2: complex | Array) -> tuple[Array, Array]:
    a1 = np.asarray(a1, dtype=complex)
    a2 = np.asarray(a2, dtype=complex)
    shape = np.broadcast_shapes(a1.shape, a2.shape) + _BEAM_SHAPE
    psi = np.zeros(shape, dtype=complex)
    phi = np.zeros(shape, dtype=complex)
    psi[..., 1, 0] = a1  # bV
    phi[..., 0, 0] = a2  # aV
    return psi, phi


def symmetrize(x: Array, y: Array) -> Array:
    """(x (x) y + y (x) x) / sqrt2 on two ``(..., 2, 2)`` (path, pol) beam
    tensors, giving a ``(..., 2, 2, 2, 2)`` state."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape[-2:] != _BEAM_SHAPE or y.shape[-2:] != _BEAM_SHAPE:
        raise ValueError("symmetrize expects two (..., 2, 2) single-beam tensors")
    # one product per entry, x (x) y and y (x) x each in its own factor order
    xy = x[..., :, :, None, None] * y[..., None, None, :, :]
    yx = y[..., :, :, None, None] * x[..., None, None, :, :]
    return (xy + yx) / _SQRT2


def _bs_beam(beam: Array) -> Array:
    return elements.beam_splitter() @ beam  # acts on the path axis


def _pr_beam(beam: Array) -> Array:
    out = np.array(beam, dtype=complex)
    out[..., 1, :] = out[..., 1, :] @ elements.pol_swap().T  # path b only
    return out


def _input_stages(a1: complex | Array, a2: complex | Array) -> tuple[Array, Array, Array]:
    # SOURCE, POST_BS and POST_PR, each beam acted on slot-locally before symmetrizing
    psi, phi = _source_beams(a1, a2)
    stages = [symmetrize(psi, phi)]
    psi, phi = _bs_beam(psi), _bs_beam(phi)
    stages.append(symmetrize(psi, phi))
    psi, phi = _pr_beam(psi), _pr_beam(phi)
    stages.append(symmetrize(psi, phi))
    return tuple(stages)


def phase_stage(
    state: Array, theta1: Array, theta2: Array, phi1: Array, phi2: Array
) -> Array:
    """The four phase elements (source 2 conjugated), each on its own slot.

    ``state`` is ``(..., 2, 2, 2, 2)``; the phases are scalars or equal-length
    1-d arrays, one entry per setting, and the settings become the leading
    axis of the result.
    """
    out = apply_slot(elements.pol_phase(theta2, sign=-1), state, SLOT_POL_2)
    out = apply_slot(elements.path_phase(phi2, sign=-1), out, SLOT_PATH_2)
    out = apply_slot(elements.pol_phase(theta1, sign=1), out, SLOT_POL_1)
    return apply_slot(elements.path_phase(phi1, sign=1), out, SLOT_PATH_1)


def bs_prime_stage(state: Array) -> Array:
    """Second beam splitter on both path slots of ``(..., 2, 2, 2, 2)`` states."""
    bs = elements.beam_splitter()
    return apply_slot(bs, apply_slot(bs, state, SLOT_PATH_2), SLOT_PATH_1)


def phase_arrays(settings: Sequence[PhaseSetting]) -> tuple[Array, Array, Array, Array]:
    """theta1, theta2, phi1 and phi2 of many settings, as four 1-d arrays."""
    return tuple(
        np.array([getattr(ps, name) for ps in settings], dtype=float)
        for name in ("theta1", "theta2", "phi1", "phi2")
    )


def trace_stages(
    a1: complex | Array,
    a2: complex | Array,
    theta1: Array,
    theta2: Array,
    phi1: Array,
    phi2: Array,
) -> tuple[Array, ...]:
    """The six stages of ``pipeline_trace`` as ``(..., 2, 2, 2, 2)`` tensors.

    Amplitudes and phases may be equal-length 1-d arrays, one bench run per
    entry; the runs become the leading axis. Stages follow ``Stage`` order.
    """
    source, post_bs, post_pr = _input_stages(a1, a2)
    phased = phase_stage(post_pr, theta1, theta2, phi1, phi2)
    # the inverse prisms restore the plain path labels; amplitudes untouched
    return source, post_bs, post_pr, phased, phased, bs_prime_stage(phased)


def symmetrized_input(s1: SourceSpec, s2: SourceSpec) -> BenchState:
    """The symmetrized two-beam state right after the splitter and rotators.

    Equals (A1 A2 / sqrt2)(|aVaV> - |bHbH>); every correlation in this
    package is an expectation value on this state.
    """
    start = _input_stages(s1.amplitude, s2.amplitude)[-1]
    return BenchState(Stage.POST_PR, start.reshape(DIM), s1.omega + s2.omega)


def evolve_prestate(s1: SourceSpec, s2: SourceSpec, ps: PhaseSetting) -> BenchState:
    """Run the pipeline up to (not including) the second beam splitter.

    Output has exactly two nonzero amplitudes, on |aVaV> and |bHbH>, with
    relative phase -e^{i delta}; it depends on the four phases only through
    the sums theta1+phi1 and theta2+phi2. The prism / inverse-prism pair
    around the phase stage leaves amplitudes bit-identical, so it does not
    appear here.
    """
    start = symmetrized_input(s1, s2)
    phased = phase_stage(start.tensor, ps.theta1, ps.theta2, ps.phi1, ps.phi2)
    return BenchState(Stage.PRE_BS_PRIME, phased.reshape(DIM), start.omega_sum)


def apply_bs_prime(state: BenchState) -> BenchState:
    """Second beam splitter, acting on both path slots at once."""
    if state.stage is not Stage.PRE_BS_PRIME:
        raise ValueError(f"expected a pre-bs-prime state, got stage {state.stage.value!r}")
    out = bs_prime_stage(state.tensor)
    return BenchState(Stage.POST_BS_PRIME, out.reshape(DIM), state.omega_sum)


def pipeline_trace(
    s1: SourceSpec, s2: SourceSpec, ps: PhaseSetting
) -> tuple[BenchState, ...]:
    """All six stages of the bench in order, each as a symmetrized state.

    The early per-beam stages are reported through the same symmetrized lens
    so that every entry is 16-dim and carries norm |A1 A2|^2.
    """
    wsum = s1.omega + s2.omega
    tensors = trace_stages(s1.amplitude, s2.amplitude, ps.theta1, ps.theta2, ps.phi1, ps.phi2)
    return tuple(BenchState(stage, t.reshape(DIM), wsum) for stage, t in zip(Stage, tensors))
