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
``(..., 2, 2, 2, 2)`` tensor. A batch is an ordinary value: a
``PhaseSetting`` of equal-length arrays is a sweep, and ``phase_stage``,
``evolve_prestate``, ``apply_bs_prime``, ``pipeline_trace`` and
``trace_stages`` then give one state per setting as the leading axis (a
``BenchState`` holding an ``(N, 16)`` stack). ``trace_stages`` also takes
array amplitudes, one bench run per entry.
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
    _float_or_array,
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


_PHASE_NAMES = ("theta1", "theta2", "phi1", "phi2")


@dataclass(frozen=True)
class PhaseSetting:
    """The four tunable phases (pol 1, pol 2, path 1, path 2).

    Each field is a float or a 1-d array; the arrays of one setting have
    equal lengths and make it a sweep, one setting per entry (float fields
    hold for every entry).
    """

    theta1: float | Array
    theta2: float | Array
    phi1: float | Array
    phi2: float | Array

    def __post_init__(self) -> None:
        lengths = set()
        for name in _PHASE_NAMES:
            value = getattr(self, name)
            if np.ndim(value) > 1:
                raise ValueError(f"{name} must be a float or a 1-d array")
            if np.ndim(value) == 1:
                value = np.array(value, dtype=float)
                value.setflags(write=False)
                object.__setattr__(self, name, value)
                lengths.add(len(value))
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if len(lengths) > 1:
            raise ValueError(f"phase arrays must have equal lengths, got {sorted(lengths)}")

    def __eq__(self, other: object) -> bool:
        """Same shape and same values in every field: a float never equals a
        1-entry array, and 0.0 equals -0.0."""
        if not isinstance(other, PhaseSetting):
            return NotImplemented
        pairs = ((getattr(self, name), getattr(other, name)) for name in _PHASE_NAMES)
        return all(np.shape(a) == np.shape(b) and np.array_equal(a, b) for a, b in pairs)

    def __hash__(self) -> int:
        values = (getattr(self, name) for name in _PHASE_NAMES)
        return hash(tuple((np.shape(v), tuple(np.ravel(v).tolist())) for v in values))

    @property
    def delta(self) -> float | Array:
        """The single combination the bench output depends on."""
        return self.theta1 + self.phi1 - self.theta2 - self.phi2


def _require_single(ps: PhaseSetting) -> None:
    """Refuse a sweep where a report is defined for one setting only."""
    if any(np.ndim(getattr(ps, name)) for name in _PHASE_NAMES):
        raise ValueError("a report takes a single phase setting, not a sweep")


@dataclass(frozen=True)
class BenchState:
    """A 16-dim state vector, or an ``(N, 16)`` stack of them, tagged with
    its pipeline stage.

    The rotating global factor e^{-i(omega1+omega2)t} common to every
    component is not stored in the amplitudes.
    """

    stage: Stage
    vector: Array

    def __post_init__(self) -> None:
        v = np.asarray(self.vector, dtype=complex)
        if v.ndim not in (1, 2) or v.shape[-1] != DIM:
            raise ValueError(f"bench state must have shape ({DIM},) or (N, {DIM}), got {v.shape}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @property
    def tensor(self) -> Array:
        """Read-only ``(..., 2, 2, 2, 2)`` view of ``vector``, one axis per slot."""
        return self.vector.reshape(self.vector.shape[:-1] + STATE_SHAPE)

    @property
    def norm_squared(self) -> float | Array:
        return _float_or_array(norms_squared(self.vector))


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


def phase_stage(state: Array, ps: PhaseSetting) -> Array:
    """The four phase elements (source 2 conjugated), each on its own slot.

    ``state`` is ``(..., 2, 2, 2, 2)``; a sweep ``ps`` gives one state per
    setting, the settings becoming the leading axis of the result.
    """
    out = apply_slot(elements.pol_phase(ps.theta2, sign=-1), state, SLOT_POL_2)
    out = apply_slot(elements.path_phase(ps.phi2, sign=-1), out, SLOT_PATH_2)
    out = apply_slot(elements.pol_phase(ps.theta1, sign=1), out, SLOT_POL_1)
    return apply_slot(elements.path_phase(ps.phi1, sign=1), out, SLOT_PATH_1)


def bs_prime_stage(state: Array) -> Array:
    """Second beam splitter on both path slots of ``(..., 2, 2, 2, 2)`` states."""
    bs = elements.beam_splitter()
    return apply_slot(bs, apply_slot(bs, state, SLOT_PATH_2), SLOT_PATH_1)


def trace_stages(a1: complex | Array, a2: complex | Array, ps: PhaseSetting) -> tuple[Array, ...]:
    """The six stages of ``pipeline_trace`` as ``(..., 2, 2, 2, 2)`` tensors.

    Amplitudes may be equal-length 1-d arrays and ``ps`` a sweep of the same
    length, one bench run per entry; the runs become the leading axis.
    Stages follow ``Stage`` order.
    """
    source, post_bs, post_pr = _input_stages(a1, a2)
    phased = phase_stage(post_pr, ps)
    # the inverse prisms restore the plain path labels; amplitudes untouched
    return source, post_bs, post_pr, phased, phased, bs_prime_stage(phased)


def _state(stage: Stage, tensor: Array) -> BenchState:
    return BenchState(stage, tensor.reshape(tensor.shape[:-4] + (DIM,)))


def symmetrized_input(s1: SourceSpec, s2: SourceSpec) -> BenchState:
    """The symmetrized two-beam state right after the splitter and rotators.

    Equals (A1 A2 / sqrt2)(|aVaV> - |bHbH>); every correlation in this
    package is an expectation value on this state.
    """
    return _state(Stage.POST_PR, _input_stages(s1.amplitude, s2.amplitude)[-1])


def evolve_prestate(s1: SourceSpec, s2: SourceSpec, ps: PhaseSetting) -> BenchState:
    """Run the pipeline up to (not including) the second beam splitter.

    Output has exactly two nonzero amplitudes, on |aVaV> and |bHbH>, with
    relative phase -e^{i delta}; it depends on the four phases only through
    the sums theta1+phi1 and theta2+phi2. The prism / inverse-prism pair
    around the phase stage leaves amplitudes bit-identical, so it does not
    appear here. A sweep ``ps`` gives the ``(N, 16)`` stack.
    """
    return _state(Stage.PRE_BS_PRIME, phase_stage(symmetrized_input(s1, s2).tensor, ps))


def apply_bs_prime(state: BenchState) -> BenchState:
    """Second beam splitter, acting on both path slots of a state or a stack."""
    if state.stage is not Stage.PRE_BS_PRIME:
        raise ValueError(f"expected a pre-bs-prime state, got stage {state.stage.value!r}")
    return _state(Stage.POST_BS_PRIME, bs_prime_stage(state.tensor))


def pipeline_trace(
    s1: SourceSpec, s2: SourceSpec, ps: PhaseSetting
) -> tuple[BenchState, ...]:
    """All six stages of the bench in order, each as a symmetrized state.

    The early per-beam stages are reported through the same symmetrized lens
    so that every entry is 16-dim and carries norm |A1 A2|^2; for a sweep
    ``ps`` the stages from the phases on are ``(N, 16)`` stacks.
    """
    tensors = trace_stages(s1.amplitude, s2.amplitude, ps)
    return tuple(_state(stage, t) for stage, t in zip(Stage, tensors))
