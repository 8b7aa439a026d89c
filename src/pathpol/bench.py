"""Bench pipeline: two sources in, one 16-dim two-beam state out.

The two beams enter on distinct ports (source 1 on b, source 2 on a), split
at the first beam splitter, have the polarization of their b branch rotated
from V to H, and are then symmetrized into a single two-beam state. The four
tunable phases enter afterwards as the plates of ``elements.PLATES``: source
1 advances its H and b components by e^{+i theta1} and e^{+i phi1}, source 2
by the conjugates. The result keeps exactly two nonzero amplitudes,

    (A1 A2 / sqrt2) [ |aVaV>  -  e^{i delta} |bHbH> ],

with delta = theta1 + phi1 - theta2 - phi2, for every PhaseSetting. A second
beam splitter on both path slots then produces the state seen by the
detectors. Prisms before and after the phase stage are label bookkeeping
only; amplitudes pass through them bit-identically.

This module is the one statement of that chain, and ``run`` the one
function that composes it: one front end builds both sources' beams up to
the rotator, then the symmetrization, ``phase_stage`` and
``bs_prime_stage``, held as a frozen ``BenchRun`` whose field names say
which stage each tensor is. ``PhaseSetting.plates`` pairs each plate with
its phase (phi for path, theta for pol); ``source_outputs`` runs each
source alone to the detectors, which ``detector`` projects.

Every element acts on its own axis, with no Kronecker product built: a
single beam is a ``(..., 2, 2)`` (path, pol) tensor, a two-beam state a
``(..., 2, 2, 2, 2)`` tensor. A batch is an ordinary value: a
``PhaseSetting`` of equal-length arrays is a sweep, a ``SourceSpec`` whose
amplitude is a 1-d array a batch of sources, and ``run`` gives one state
per entry as the leading axis of every stage the batch reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from . import elements
from .tensor import N_SLOTS, SLOT_PATH_1, SLOT_PATH_2, Array, apply_slot, matmul2

_SQRT2 = np.sqrt(2.0)
_BEAM_SHAPE = (2, 2)  # one beam: path, pol
# source intensities |A|^2 in this range keep (I1 + I2)^2 finite and I1 I2 a
# normal float, so no correlation, g2 or readout of two sources overflows,
# underflows to an empty branch or turns NaN
INTENSITY_RANGE = (1e-150, 1e150)


def _checked(name: str, value: object, complex_ok: bool = False) -> float | complex | Array:
    """``value`` as a float (or complex, if ``complex_ok``) or a read-only
    1-d array of them, an int becoming a float; anything else, a bool or a
    string among them, is refused by ``name``. The caller tests finiteness."""
    if type(value) is int and abs(value) <= 1e308:
        value = float(value)
    # the common case first: np.float64 is a float, np.complex128 a complex
    if isinstance(value, float) or (complex_ok and isinstance(value, complex)):
        return value
    noun = "number" if complex_ok else "float"
    try:  # kinds int, unsigned, float (and complex)
        array = np.asarray(value)
        ok = array.dtype.kind in ("iufc" if complex_ok else "iuf") and array.ndim <= 1
    except ValueError:  # a ragged sequence
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a {noun} or a 1-d array of {noun}s, got {value!r}")
    if array.ndim == 0:
        return complex(array) if array.dtype.kind == "c" else float(array)
    array = array.astype(complex if complex_ok else float)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class SourceSpec:
    """One monochromatic input beam: complex amplitude and angular frequency.

    The amplitude is a number or a 1-d array, a batch of sources, one per
    entry, under the shape rule of ``PhaseSetting``'s fields.
    """

    amplitude: complex | Array
    omega: float

    def __post_init__(self) -> None:
        a = _checked("source amplitude", self.amplitude, complex_ok=True)
        # compared as |A|, with the same sqrt a scenario takes of its
        # intensities; a NaN or an infinite |A| fails it too, and is named so
        lo, hi = INTENSITY_RANGE
        if isinstance(a, np.ndarray):
            mag = np.abs(a)
            in_range = ((sqrt(lo) <= mag) & (mag <= sqrt(hi))).all()
        else:
            in_range = sqrt(lo) <= abs(a) <= sqrt(hi)
        if not (in_range or np.isfinite(a).all()):
            raise ValueError("source amplitude must be finite")
        omega = _checked("source frequency", self.omega)
        if isinstance(omega, np.ndarray):
            raise ValueError("source frequency must be one float, not an array")
        if not isfinite(omega):
            raise ValueError("source frequency must be finite")
        if not in_range:
            raise ValueError(f"source amplitude {a!r} must have |A|^2 in [{lo:g}, {hi:g}]")
        object.__setattr__(self, "amplitude", a)
        object.__setattr__(self, "omega", omega)

    @property
    def intensity(self) -> float | Array:
        """|A|^2, one per entry of a batch, each rounded as the scalar
        ``abs(A) ** 2`` rounds: a complex's abs is the hypot of its parts and
        a float's ** 2 is pow, where ``np.abs`` and ``np.square`` may not be."""
        a = self.amplitude
        if isinstance(a, np.ndarray):
            return np.float_power(np.hypot(a.real, a.imag), 2)
        return abs(a) ** 2


_PHASE_NAMES = ("theta1", "theta2", "phi1", "phi2")
_PLATE_PHASE = {"path": "phi", "pol": "theta"}
_PLATE_FIELDS = tuple((s, d, _PLATE_PHASE[d] + str(s)) for s, d in elements.PLATES)


@dataclass(frozen=True)
class PhaseSetting:
    """The four tunable phases (pol 1, pol 2, path 1, path 2).

    Each field is a float or a 1-d array (an int becomes a float; a bool, a
    complex or a string is refused by name); the arrays of one setting have
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
            if not isinstance(value, float):  # np.float64 is a float
                value = _checked(name, value)
                object.__setattr__(self, name, value)
                if isinstance(value, np.ndarray):
                    lengths.add(len(value))
        if len(lengths) > 1:
            raise ValueError(f"phase arrays must have equal lengths, got {sorted(lengths)}")
        # one test of the sum covers a NaN or an inf in any field and finite
        # phases that overflow it (not through ``delta``, which the operator route
        # must never read); float scalars sum as Python floats, which never warn
        t1, t2, p1, p2 = fields = (self.theta1, self.theta2, self.phi1, self.phi2)
        if not lengths:
            finite = isfinite(float(t1) + float(p1) - float(t2) - float(p2))
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                finite = np.isfinite(t1 + p1 - t2 - p2).all()
        if not finite:  # named by the first field to blame, if any
            bad = [n for n, v in zip(_PHASE_NAMES, fields) if not np.isfinite(v).all()]
            name = bad[0] if bad else "delta = theta1 + phi1 - theta2 - phi2"
            raise ValueError(f"{name} must be finite")

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

    @property
    def shape(self) -> tuple[int, ...]:
        """``()`` for a single setting, ``(N,)`` for a sweep of N."""
        for value in (self.theta1, self.theta2, self.phi1, self.phi2):
            if isinstance(value, np.ndarray):
                return value.shape
        return ()

    def plates(self) -> tuple[tuple[int, str, float | Array], ...]:
        """``(source, dof, phase)`` of each plate, in ``elements.PLATES`` order:
        phi drives the path plate of its source, theta the polarization plate."""
        return tuple((source, dof, getattr(self, name)) for source, dof, name in _PLATE_FIELDS)


def symmetrize(x: Array, y: Array) -> Array:
    """(x (x) y + y (x) x) / sqrt2 on two ``(..., 2, 2)`` (path, pol) beam
    tensors, giving a ``(..., 2, 2, 2, 2)`` state."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape[-2:] != _BEAM_SHAPE or y.shape[-2:] != _BEAM_SHAPE:
        raise ValueError("symmetrize expects two (..., 2, 2) single-beam tensors")
    # one product per entry, x (x) y and y (x) x each in its own factor order
    xy = x[..., :, :, None, None] * y[..., None, None, :, :]
    xy += y[..., :, :, None, None] * x[..., None, None, :, :]
    return np.divide(xy, _SQRT2, out=xy)


def _bs_beam(beam: Array) -> Array:
    return matmul2(elements.beam_splitter(), beam)  # acts on the path axis


def _pr_beam(beam: Array) -> Array:
    out = np.array(beam, dtype=complex)
    out[..., 1:, :] = matmul2(out[..., 1:, :], elements.pol_swap().T)  # path b only
    return out


def _front_end(a1: complex | Array, a2: complex | Array) -> tuple[tuple[Array, Array], ...]:
    """The (source 1, source 2) single-beam pairs as they enter, after the
    splitter and after the rotator: source 1 enters on bV and source 2 on
    aV, the splitter acts on each beam's path axis and the rotator on its b
    branch."""
    a1 = np.asarray(a1, dtype=complex)
    a2 = np.asarray(a2, dtype=complex)
    # both beams on one leading axis (source 1, source 2): each element acts once
    shape = a1.shape if a1.shape == a2.shape else np.broadcast_shapes(a1.shape, a2.shape)
    beams = np.zeros((2,) + shape + _BEAM_SHAPE, dtype=complex)
    beams[0, ..., 1, 0] = a1  # bV
    beams[1, ..., 0, 0] = a2  # aV
    post_bs = _bs_beam(beams)
    return tuple(beams), tuple(post_bs), tuple(_pr_beam(post_bs))


def phase_stage(state: Array, ps: PhaseSetting) -> Array:
    """The four phase plates (``elements.plate``), one per slot.

    ``state`` is ``(..., 2, 2, 2, 2)``; a sweep ``ps`` gives one state per
    setting, the settings becoming the leading axis of the result. Each
    plate scales its slot's two halves by its diagonal's two entries, in the
    order ``apply_factors`` would apply the plates as matrices: the same
    values as its multiply-add, without the products by zero.
    """
    plates = [elements.plate(source, dof, x) for source, dof, x in ps.plates()]
    out = np.asarray(state, dtype=complex)
    for diagonal, slot in reversed(plates):
        # the two entries laid along the slot's axis, the settings leading;
        # entry first, as in apply_slot, since a complex product's rounding
        # depends on its operand order
        out = diagonal.reshape(
            diagonal.shape[:-1] + (1,) * slot + (2,) + (1,) * (N_SLOTS - 1 - slot)
        ) * out
    return out


def bs_prime_stage(state: Array) -> Array:
    """Second beam splitter on both path slots of ``(..., 2, 2, 2, 2)`` states."""
    bs = elements.beam_splitter()
    return apply_slot(bs, apply_slot(bs, state, SLOT_PATH_2), SLOT_PATH_1)


# compared by identity: a field-wise == of its arrays has no single truth value
@dataclass(frozen=True, eq=False)
class BenchRun:
    """One bench run: its sources, its phase setting and every stage.

    Each stage is a read-only ``(..., 2, 2, 2, 2)`` tensor: ``source`` (the
    two beams as they enter), ``post_bs`` (after the first splitter),
    ``input`` (after the rotator: the symmetrized input (A1 A2 / sqrt2)
    (|aVaV> - |bHbH>) every correlation is an expectation on), ``phased``
    (after the four plates, two nonzero amplitudes with relative phase
    -e^{i delta}) and ``output`` (after the second splitter, the state the
    detectors see). A batch of sources gives every stage one state per
    entry on the leading axis, a sweep ``ps`` gives ``phased`` and
    ``output`` one per setting. The rotating global factor
    e^{-i(omega1+omega2)t} common to every component is not stored.
    """

    s1: SourceSpec
    s2: SourceSpec
    ps: PhaseSetting
    source: Array
    post_bs: Array
    input: Array
    phased: Array
    output: Array

    def require_single(self) -> None:
        """Refuse a batch, naming its fields, where a report is defined for
        one run only."""
        batched = ", ".join(batch_fields(self.s1, self.s2, self.ps))
        if batched:
            raise ValueError(f"a report takes a single run, not a batch of {batched}")


def batch_fields(s1: SourceSpec, s2: SourceSpec, ps: PhaseSetting) -> dict[str, tuple[int]]:
    """The shape of each field that holds a batch of sources (an amplitude
    array) or a sweep, by name; their lengths must agree, refused if not."""
    amplitudes = (("s1.amplitude", s1.amplitude), ("s2.amplitude", s2.amplitude))
    shapes = {name: a.shape for name, a in amplitudes if isinstance(a, np.ndarray)}
    if ps.shape:
        shapes["ps"] = ps.shape
    if len(set(shapes.values())) > 1:
        raise ValueError(f"a batch and a sweep must have equal lengths, got {shapes}")
    return shapes


def run(s1: SourceSpec, s2: SourceSpec, ps: PhaseSetting) -> BenchRun:
    """Run the bench, the one composition of the chain: each early stage's
    beam pair symmetrized, then the plates and the second splitter.

    A batch of sources and a sweep of one length (``batch_fields``) give one
    run per entry, leading every stage they reach. The prisms around the
    phase stage are label bookkeeping only and leave no stage of their own.
    """
    batch_fields(s1, s2, ps)
    beams = _front_end(s1.amplitude, s2.amplitude)
    source, post_bs, post_pr = (symmetrize(*pair) for pair in beams)
    phased = phase_stage(post_pr, ps)
    stages = (source, post_bs, post_pr, phased, bs_prime_stage(phased))
    for stage in stages:
        stage.setflags(write=False)
    return BenchRun(s1, s2, ps, *stages)


def source_outputs(ps: PhaseSetting) -> tuple[Array, Array]:
    """Each unit-amplitude source alone through the front end, its own two
    plates and the second splitter, as ``(..., 2, 2)`` (path, pol) beams.

    The two diagonal plates act as one entrywise factor, path entry times pol
    entry. A sweep gives both beams one entry per setting, even where a
    source's own two phases are floats: its one beam is then broadcast, read-only.
    """
    shape = ps.shape + _BEAM_SHAPE
    path1, pol1, path2, pol2 = (elements.plate(*p)[0] for p in ps.plates())  # PLATES order
    beam1, beam2 = _front_end(1.0, 1.0)[-1]
    beams = (
        _bs_beam(path1[..., :, None] * pol1[..., None, :] * beam1),
        _bs_beam(path2[..., :, None] * pol2[..., None, :] * beam2),
    )
    return tuple(b if b.shape == shape else np.broadcast_to(b, shape) for b in beams)
