"""Fixed-basis tensor algebra for the two-beam path/polarization state space.

Every 16-dimensional object in this package lives in the product basis

    {a, b} (x) {V, H} (x) {a, b} (x) {V, H}
     path 1     pol 1      path 2     pol 2

with the flat index

    index = 8*path1 + 4*pol1 + 2*path2 + pol2,   a = V = 0,  b = H = 1,

i.e. the first factor is the most significant bit. A state is held as a
``(..., 2, 2, 2, 2)`` tensor whose last four axes are the slots in this
order (``vector.reshape(2, 2, 2, 2)``), and ``apply_slot`` acts with a 2x2
operator, or a stack of them, on one slot without building the 16x16
matrix. ``kron`` applied left to right reproduces the flat ordering, and
``embed`` builds the 16x16 matrix of a 2x2 operator on one slot for the
algebraic checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

Array = np.ndarray

DIM = 16
N_SLOTS = 4
STATE_SHAPE = (2,) * N_SLOTS

SLOT_PATH_1 = 0
SLOT_POL_1 = 1
SLOT_PATH_2 = 2
SLOT_POL_2 = 3

PATH_LABELS = "ab"
POL_LABELS = "VH"

IDENTITY_2 = np.eye(2, dtype=complex)


def _kron2(a: Array, b: Array) -> Array:
    # every entry is the single product a[i..] * b[k..], exactly as in np.kron
    nd = max(a.ndim, b.ndim)
    a = a.reshape((1,) * (nd - a.ndim) + a.shape)
    b = b.reshape((1,) * (nd - b.ndim) + b.shape)
    axes = [ax for k in range(nd) for ax in (k, nd + k)]
    shape = [m * n for m, n in zip(a.shape, b.shape)]
    return np.multiply.outer(a, b).transpose(axes).reshape(shape)


def kron(*factors: Array) -> Array:
    """Kronecker product of the factors, left factor most significant."""
    if not factors:
        raise ValueError("kron needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = _kron2(out, np.asarray(f, dtype=complex))
    return out


def apply_slot(op: Array, state: Array, slot: int) -> Array:
    """Act with a 2x2 operator on one slot of a ``(..., 2, 2, 2, 2)`` state.

    ``op`` may be a single ``(2, 2)`` matrix or a stack ``(N, 2, 2)``; the
    leading axes of operator and state broadcast, so a stack acting on one
    state gives ``(N, 2, 2, 2, 2)``. Slots follow the global ordering.
    """
    op = np.asarray(op, dtype=complex)
    state = np.asarray(state, dtype=complex)
    if op.shape[-2:] != (2, 2):
        raise ValueError(f"apply_slot expects 2x2 operators, got shape {op.shape}")
    if state.shape[-N_SLOTS:] != STATE_SHAPE:
        raise ValueError(f"state must end in axes {STATE_SHAPE}, got shape {state.shape}")
    if not 0 <= slot < N_SLOTS:
        raise ValueError(f"slot must be in 0..3, got {slot}")
    # operator indices "ij"; the state's slots are "wxyz" with j at ``slot``
    src = "wxyz"[:slot] + "j" + "wxyz"[slot + 1 :]
    dst = "wxyz"[:slot] + "i" + "wxyz"[slot + 1 :]
    return np.einsum(f"...ij,...{src}->...{dst}", op, state)


def embed(op: Array, slot: int) -> Array:
    """Lift a 2x2 operator onto one tensor slot of the 16-dim space.

    ``slot`` follows the global ordering: 0 = path 1, 1 = pol 1,
    2 = path 2, 3 = pol 2.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"embed expects a 2x2 operator, got shape {op.shape}")
    if not 0 <= slot < N_SLOTS:
        raise ValueError(f"slot must be in 0..3, got {slot}")
    factors = [IDENTITY_2] * N_SLOTS
    factors[slot] = op
    return kron(*factors)


def dagger(m: Array) -> Array:
    return np.asarray(m).conj().T


def is_unitary(m: Array, tol: float = 1e-12) -> bool:
    """True when m†m = 1 entrywise within tol. Non-square never qualifies."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    resid = dagger(m) @ m - np.eye(m.shape[0])
    return bool(np.max(np.abs(resid)) <= tol)


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


@dataclass(frozen=True)
class PolState:
    """Single-beam polarization on the Poincare sphere parameterization.

    theta mixes V into H, chi is the relative phase of the H component, and
    phi_global is an overall phase on the doublet.
    """

    theta: float
    chi: float
    phi_global: float = 0.0


def make_pol_state(p: PolState) -> Array:
    """2-component polarization vector e^{i phi} (cos theta, e^{i chi} sin theta)."""
    phase = np.exp(1j * p.phi_global)
    return phase * np.array([cos(p.theta), np.exp(1j * p.chi) * sin(p.theta)])


@dataclass(frozen=True)
class JonesVector:
    """Complex transverse field doublet (ex, ey); intensity is |ex|^2 + |ey|^2."""

    ex: complex
    ey: complex

    @property
    def intensity(self) -> float:
        return abs(self.ex) ** 2 + abs(self.ey) ** 2

    def normalized(self) -> "JonesVector":
        n = np.sqrt(self.intensity)
        if n == 0.0:
            raise ValueError("cannot normalize a zero Jones vector")
        return JonesVector(self.ex / n, self.ey / n)

    def as_array(self) -> Array:
        return np.array([self.ex, self.ey], dtype=complex)
