"""Fixed-basis tensor algebra for the two-beam path/polarization state space.

Every 16-dimensional object in this package lives in the product basis

    {a, b} (x) {V, H} (x) {a, b} (x) {V, H}
     path 1     pol 1      path 2     pol 2

with the flat index

    index = 8*path1 + 4*pol1 + 2*path2 + pol2,   a = V = 0,  b = H = 1,

i.e. the first factor is the most significant bit. A state is held as a
``(..., 2, 2, 2, 2)`` tensor whose last four axes are the slots in this
order (``vector.reshape(2, 2, 2, 2)``), and ``apply_slot`` acts with a 2x2
operator, or a stack of them, on one slot as a two-term multiply-add over
the slot's two halves of the state. A ``(core, slot)`` pair is a
factor, and ``apply_factors`` applies a product of them. No 16x16 operator
matrix is built anywhere: where a check needs an operator identity on the
16-dim space, it applies both sides to random probe states. ``matmul2`` is
the one 2x2 matrix product, the same multiply-add written out, so none goes
through BLAS, whose rounding depends on the kernel it picks for the host.

``state_tensor`` is the one check of the ``(..., 2, 2, 2, 2)`` state shape.
The refusals at the package's boundary share one vocabulary: ``shown``
renders the value every refusal names, ``choice`` is the one check of an
index, a count or a choice, and ``real_scalar`` the one check of a single
finite real number.
"""

from __future__ import annotations

from math import isfinite
from sys import float_info
from typing import Sequence

import numpy as np

Array = np.ndarray

DIM = 16
N_SLOTS = 4
STATE_SHAPE = (2,) * N_SLOTS

SLOT_PATH_1 = 0
SLOT_POL_1 = 1
SLOT_PATH_2 = 2
SLOT_POL_2 = 3
_SLOTS = range(N_SLOTS)

# per slot and term j of ``apply_slot``: column j of an operator with its
# rows laid along the slot axis, and the state's half j on that slot kept as
# a length-1 axis (basic indexing, so a view)
_TERMS = tuple(
    tuple(
        (
            (Ellipsis,) + (None,) * slot + (slice(None), j) + (None,) * (N_SLOTS - 1 - slot),
            (Ellipsis, slice(j, j + 1)) + (slice(None),) * (N_SLOTS - 1 - slot),
        )
        for j in (0, 1)
    )
    for slot in range(N_SLOTS)
)

PATH_LABELS = "ab"
POL_LABELS = "VH"


def shown(value: object) -> str:
    """``value`` as a refusal names it: its repr, but an int past the float
    range by its bit length, as str() refuses an int of more than 4300 digits."""
    if isinstance(value, int) and abs(value) > float_info.max:
        return f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit integer"
    try:
        return repr(value)
    except ValueError:  # a container holding such an int
        return f"a {type(value).__name__} holding an integer too long to print"


def choice(name: str, value: object, allowed: tuple | range, wording: str) -> object:
    """``value`` if it is one of ``allowed`` and of its kind: a str for a named
    choice, an int or a numpy integer for an index, a count or a numeric
    choice. Anything else is refused by ``name``, ``wording`` saying what it
    must be; a bool or a float is refused even where it equals an allowed int."""
    if type(value) is int:  # the common case first
        ok = value in allowed
    elif isinstance(value, str):  # tested against a tuple only: a range scans it
        ok = not isinstance(allowed, range) and value in allowed
    else:  # a numpy integer is tested as an int, which a range tests without a scan
        ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        ok = ok and int(value) in allowed
    if ok:
        return value
    raise ValueError(f"{name} must be {wording}, got {shown(value)}")


def real_scalar(name: str, value: object) -> float:
    """``value`` as a float if it is one finite real number: an int, a float
    or a numpy integer or float. Anything else, a bool, an array or an int
    past the float range among them, is refused by ``name``."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        # float() overflows on an int past the float range
        if not isinstance(value, int) or abs(value) <= float_info.max:
            x = float(value)
            if isfinite(x):
                return x
    raise ValueError(f"{name} must be a finite real number, got {shown(value)}")


def state_tensor(state: Array) -> Array:
    """``state`` as a complex ``(..., 2, 2, 2, 2)`` array, one axis per slot;
    any other shape is refused."""
    state = np.asarray(state, dtype=complex)
    if state.shape[-N_SLOTS:] != STATE_SHAPE:
        raise ValueError(f"expected a (..., 2, 2, 2, 2) state tensor, got shape {state.shape}")
    return state


def apply_slot(op: Array, state: Array, slot: int) -> Array:
    """Act with a 2x2 operator on one slot of a ``(..., 2, 2, 2, 2)`` state.

    ``op`` may be a single ``(2, 2)`` matrix or a stack ``(N, 2, 2)``; the
    leading axes of operator and state broadcast, so a stack acting on one
    state gives ``(N, 2, 2, 2, 2)``. Slots follow the global ordering.
    Each output entry is ``op[..., i, 0] x0 + op[..., i, 1] x1``, with x0
    and x1 the state's entries 0 and 1 on ``slot``.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape[-2:] != (2, 2):
        raise ValueError(f"apply_slot expects 2x2 operators, got shape {op.shape}")
    state = state_tensor(state)
    choice("slot", slot, _SLOTS, "an integer in 0..3")
    # each product already has the output's shape and slot order
    (col0, half0), (col1, half1) = _TERMS[slot]
    out = op[col0] * state[half0]
    out += op[col1] * state[half1]
    return out


def matmul2(a: Array, b: Array) -> Array:
    """a @ b for ``(..., n, 2)`` and ``(..., 2, m)`` arrays, leading axes
    broadcast: entry (i, k) is a[i, 0] b[0, k] + a[i, 1] b[1, k], in that order."""
    if a.shape[-1:] != (2,) or b.shape[-2:-1] != (2,):
        raise ValueError(f"matmul2 expects (..., n, 2) @ (..., 2, m), got {a.shape} @ {b.shape}")
    out = a[..., :, 0:1] * b[..., 0:1, :]
    out += a[..., :, 1:2] * b[..., 1:2, :]
    return out


def apply_factors(state: Array, factors: Sequence[tuple[Array, int]]) -> Array:
    """f_0 f_1 ... |state> for ``(core, slot)`` factors, the last applied first."""
    for core, slot in reversed(factors):
        state = apply_slot(core, state, slot)
    return state


def norms_squared(vectors: Array) -> Array:
    """<v|v> of each vector along the last axis: re^2 + im^2, summed first to last."""
    v = np.asarray(vectors, dtype=complex)
    return np.add.accumulate(v.real * v.real + v.imag * v.imag, axis=-1)[..., -1]


def float_or_array(x: float | Array) -> float | Array:
    """A single result as a plain ``float``, a stack of results unchanged."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def dagger(m: Array) -> Array:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(np.asarray(m), -1, -2).conj()


def basis_index(path1: int, pol1: int, path2: int, pol2: int) -> int:
    for v in (path1, pol1, path2, pol2):
        choice("basis digits", v, (0, 1), "0 or 1")
    return 8 * path1 + 4 * pol1 + 2 * path2 + pol2


def basis_state(path1: int, pol1: int, path2: int, pol2: int) -> Array:
    """Unit vector on one product basis element, e.g. (1,1,0,0) -> |bHaV>."""
    v = np.zeros(DIM, dtype=complex)
    v[basis_index(path1, pol1, path2, pol2)] = 1.0
    return v


def basis_label(index: int) -> str:
    """Human-readable label of a flat index: 0 -> 'aVaV', 15 -> 'bHbH'."""
    choice("index", index, range(DIM), "an integer in 0..15")
    bits = [(index >> k) & 1 for k in (3, 2, 1, 0)]
    return (
        PATH_LABELS[bits[0]]
        + POL_LABELS[bits[1]]
        + PATH_LABELS[bits[2]]
        + POL_LABELS[bits[3]]
    )
