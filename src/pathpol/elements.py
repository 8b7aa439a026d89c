"""2x2 factories for the optical elements of the bench.

Path operators act on the (a, b) doublet, polarization operators on (V, H).
A phase plate is the same diagonal matrix on either doublet, so one factory,
``phase``, makes the path and the polarization elements alike.

``PLATES`` is the one statement of the bench's plate convention: the slot
each (source, dof) phase plate sits on, and its sign. Elements attached to
source 1 advance phases as e^{+i x}, elements attached to source 2 as
e^{-i x}. ``plate`` makes the ``(core, slot)`` factor of one plate.
"""

from __future__ import annotations

import numpy as np

from .tensor import SLOT_PATH_1, SLOT_PATH_2, SLOT_POL_1, SLOT_POL_2, Array

_SIGNS = (1, -1)

# (source, dof) -> (slot, sign)
PLATES = {
    (1, "path"): (SLOT_PATH_1, 1),
    (1, "pol"): (SLOT_POL_1, 1),
    (2, "path"): (SLOT_PATH_2, -1),
    (2, "pol"): (SLOT_POL_2, -1),
}


def beam_splitter() -> Array:
    """Symmetric 50/50 splitter: |a> -> (|a>+|b>)/sqrt2, |b> -> (|a>-|b>)/sqrt2."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def pol_swap() -> Array:
    """Exchange V and H."""
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def phase(x: float | Array, sign: int) -> Array:
    """diag(1, e^{i*sign*x}) on the (a, b) or the (V, H) doublet.

    An array of phases gives the stack of matrices, shape ``x.shape + (2, 2)``.
    """
    if sign not in _SIGNS:
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = np.exp(1j * sign * x)
    return out


def plate(source: int, dof: str, x: float | Array) -> tuple[Array, int]:
    """The phase plate of source (1|2) on dof ('path'|'pol') at ``x``, as a
    ``(core, slot)`` factor with the sign and slot ``PLATES`` gives it."""
    slot, sign = PLATES[(source, dof)]
    return phase(x, sign), slot
