"""2x2 factories for the optical elements of the bench.

Path operators act on the (a, b) doublet, polarization operators on (V, H).
A phase plate is the same diagonal on either doublet, so one factory,
``phase_diagonal``, makes every plate.

``PLATES`` is the one statement of the bench's plate convention: the slot
each (source, dof) phase plate sits on, and its sign. Elements attached to
source 1 advance phases as e^{+i x}, elements attached to source 2 as
e^{-i x}. ``slot_and_sign`` is the one lookup in it, refusing any other
(source, dof) by name; ``plate`` makes the ``(diagonal, slot)`` pair of one
plate, and ``observables.sigma`` places its flip observable by the same lookup.
"""

from __future__ import annotations

import numpy as np

from .tensor import SLOT_PATH_1, SLOT_PATH_2, SLOT_POL_1, SLOT_POL_2, Array, choice

# (source, dof) -> (slot, sign)
PLATES = {
    (1, "path"): (SLOT_PATH_1, 1),
    (1, "pol"): (SLOT_POL_1, 1),
    (2, "path"): (SLOT_PATH_2, -1),
    (2, "pol"): (SLOT_POL_2, -1),
}

_BEAM_SPLITTER = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def beam_splitter() -> Array:
    """Symmetric 50/50 splitter: |a> -> (|a>+|b>)/sqrt2, |b> -> (|a>-|b>)/sqrt2."""
    return _BEAM_SPLITTER.copy()


def pol_swap() -> Array:
    """Exchange V and H."""
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def phase_diagonal(x: float | Array, sign: int) -> Array:
    """(1, e^{i*sign*x}), the diagonal of a phase plate on the (a, b) or the
    (V, H) doublet; an array of phases gives shape ``x.shape + (2,)``."""
    choice("sign", sign, (1, -1), "+1 or -1")
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (2,), dtype=complex)
    out[..., 0] = 1.0
    out[..., 1] = np.exp(1j * sign * x)
    return out


def slot_and_sign(source: int, dof: str) -> tuple[int, int]:
    """``PLATES``' (slot, sign) for source (1|2) and dof, the string 'path'
    or 'pol'; any other source or dof is refused by name."""
    choice("source", source, (1, 2), "1 or 2")
    choice("dof", dof, ("path", "pol"), "'path' or 'pol'")
    return PLATES[(source, dof)]


def plate(source: int, dof: str, x: float | Array) -> tuple[Array, int]:
    """The phase plate of source (1|2) on dof ('path'|'pol') at ``x``, as
    ``(diagonal, slot)``, with the sign and slot ``PLATES`` gives it."""
    slot, sign = slot_and_sign(source, dof)
    return phase_diagonal(x, sign), slot
