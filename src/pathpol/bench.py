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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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
    kron,
)

_SQRT2 = np.sqrt(2.0)


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
        return float(np.vdot(self.vector, self.vector).real)


def build_sources(s1: SourceSpec, s2: SourceSpec) -> tuple[Array, Array]:
    """4-dim input kets: source 1 is A1|bV>, source 2 is A2|aV>."""
    psi = np.zeros(4, dtype=complex)
    phi = np.zeros(4, dtype=complex)
    psi[2] = s1.amplitude  # bV
    phi[0] = s2.amplitude  # aV
    return psi, phi


def symmetrize(x: Array, y: Array) -> Array:
    """(x (x) y + y (x) x) / sqrt2 on two 4-dim single-beam states."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != (4,) or y.shape != (4,):
        raise ValueError("symmetrize expects two 4-dim single-beam states")
    return (kron(x, y) + kron(y, x)) / _SQRT2


def bs_single_beam() -> Array:
    """First beam splitter on one beam: path doublet only."""
    return kron(elements.beam_splitter(), np.eye(2))


def pr_single_beam() -> Array:
    """Polarization rotator sitting in path b of one beam."""
    keep_a = np.diag([1.0, 0.0]).astype(complex)
    keep_b = np.diag([0.0, 1.0]).astype(complex)
    return kron(keep_a, np.eye(2)) + kron(keep_b, elements.pol_swap())


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


def phase_diagonal(ps: PhaseSetting) -> Array:
    """16x16 diagonal matrix of ``phase_stage`` at one setting."""
    ones = np.ones(STATE_SHAPE, dtype=complex)
    return np.diag(phase_stage(ones, ps.theta1, ps.theta2, ps.phi1, ps.phi2).reshape(DIM))


def symmetrized_input(s1: SourceSpec, s2: SourceSpec) -> BenchState:
    """The symmetrized two-beam state right after the splitter and rotators.

    Equals (A1 A2 / sqrt2)(|aVaV> - |bHbH>); every correlation in this
    package is an expectation value on this state.
    """
    psi, phi = build_sources(s1, s2)
    m = pr_single_beam() @ bs_single_beam()
    return BenchState(Stage.POST_PR, symmetrize(m @ psi, m @ phi), s1.omega + s2.omega)


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
    psi, phi = build_sources(s1, s2)
    wsum = s1.omega + s2.omega
    bs, pr = bs_single_beam(), pr_single_beam()
    stages = [
        BenchState(Stage.SOURCE, symmetrize(psi, phi), wsum),
        BenchState(Stage.POST_BS, symmetrize(bs @ psi, bs @ phi), wsum),
        BenchState(Stage.POST_PR, symmetrize(pr @ bs @ psi, pr @ bs @ phi), wsum),
    ]
    phased = phase_stage(
        stages[-1].tensor, ps.theta1, ps.theta2, ps.phi1, ps.phi2
    ).reshape(DIM)
    stages.append(BenchState(Stage.POST_PHASES, phased, wsum))
    # the inverse prisms restore the plain path labels; amplitudes untouched
    stages.append(BenchState(Stage.PRE_BS_PRIME, phased, wsum))
    stages.append(apply_bs_prime(stages[-1]))
    return tuple(stages)
