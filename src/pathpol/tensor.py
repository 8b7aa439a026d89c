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
"""

from __future__ import annotations

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


def apply_slot(op: Array, state: Array, slot: int) -> Array:
    """Act with a 2x2 operator on one slot of a ``(..., 2, 2, 2, 2)`` state.

    ``op`` may be a single ``(2, 2)`` matrix or a stack ``(N, 2, 2)``; the
    leading axes of operator and state broadcast, so a stack acting on one
    state gives ``(N, 2, 2, 2, 2)``. Slots follow the global ordering.
    Each output entry is ``op[..., i, 0] x0 + op[..., i, 1] x1``, with x0
    and x1 the state's entries 0 and 1 on ``slot``.
    """
    op = np.asarray(op, dtype=complex)
    state = np.asarray(state, dtype=complex)
    if op.shape[-2:] != (2, 2):
        raise ValueError(f"apply_slot expects 2x2 operators, got shape {op.shape}")
    if state.shape[-N_SLOTS:] != STATE_SHAPE:
        raise ValueError(f"state must end in axes {STATE_SHAPE}, got shape {state.shape}")
    if not 0 <= slot < N_SLOTS:
        raise ValueError(f"slot must be in 0..3, got {slot}")
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
        if v not in (0, 1):
            raise ValueError("basis digits must be 0 or 1")
    return 8 * path1 + 4 * pol1 + 2 * path2 + pol2


def basis_state(path1: int, pol1: int, path2: int, pol2: int) -> Array:
    """Unit vector on one product basis element, e.g. (1,1,0,0) -> |bHaV>."""
    v = np.zeros(DIM, dtype=complex)
    v[basis_index(path1, pol1, path2, pol2)] = 1.0
    return v


def basis_label(index: int) -> str:
    """Human-readable label of a flat index: 0 -> 'aVaV', 15 -> 'bHbH'."""
    if not 0 <= index < DIM:
        raise ValueError(f"index must be in 0..15, got {index}")
    bits = [(index >> k) & 1 for k in (3, 2, 1, 0)]
    return (
        PATH_LABELS[bits[0]]
        + POL_LABELS[bits[1]]
        + PATH_LABELS[bits[2]]
        + POL_LABELS[bits[3]]
    )
