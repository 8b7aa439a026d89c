"""2x2 factories for the optical elements of the bench.

Path operators act on the (a, b) doublet, polarization operators on (V, H).
Phase elements are diagonal and carry a sign convention: elements attached to
source 1 advance phases as e^{+i x}, elements attached to source 2 as
e^{-i x}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Array

_SIGNS = (1, -1)


def beam_splitter() -> Array:
    """Symmetric 50/50 splitter: |a> -> (|a>+|b>)/sqrt2, |b> -> (|a>-|b>)/sqrt2."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def pol_swap() -> Array:
    """Exchange V and H."""
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _check_sign(sign: int) -> None:
    if sign not in _SIGNS:
        raise ValueError(f"sign must be +1 or -1, got {sign}")


def _phase_diag(x: float | Array, sign: int) -> Array:
    _check_sign(sign)
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = np.exp(1j * sign * x)
    return out


def pol_phase(theta: float | Array, sign: int = 1) -> Array:
    """diag(1, e^{i*sign*theta}) on the (V, H) doublet.

    An array of phases gives the stack of matrices, shape ``theta.shape + (2, 2)``.
    """
    return _phase_diag(theta, sign)


def path_phase(phi: float | Array, sign: int = 1) -> Array:
    """diag(1, e^{i*sign*phi}) on the (a, b) doublet (stacked like ``pol_phase``)."""
    return _phase_diag(phi, sign)


def prism(omega: float) -> Array:
    """Frequency-dispersing wedge on the lower path.

    Amplitudes are untouched (exact 2x2 identity); the dispersion is pure
    bookkeeping on the path label, handled by ``annotate_path_label``.
    """
    if not np.isfinite(omega):
        raise ValueError("prism frequency must be finite")
    return np.eye(2, dtype=complex)


def inverse_prism(omega: float) -> Array:
    """Exact inverse of ``prism``; also the 2x2 identity on amplitudes."""
    if not np.isfinite(omega):
        raise ValueError("prism frequency must be finite")
    return np.eye(2, dtype=complex)


def annotate_path_label(label: str, omega: float) -> str:
    """Tag a lower-path label with its frequency offset: 'b' -> 'b+eps(1.3)'."""
    if label != "b":
        return label
    return f"b+eps({omega:g})"


def strip_path_label(label: str, omega: float) -> str:
    """Undo ``annotate_path_label``; rejects a tag from a different frequency."""
    tagged = f"b+eps({omega:g})"
    if label == tagged:
        return "b"
    if label.startswith("b+eps("):
        raise ValueError(f"label {label!r} was annotated at a different frequency")
    return label


def polarizer_45() -> Array:
    """Projector onto (|V> + |H>)/sqrt2."""
    return np.full((2, 2), 0.5, dtype=complex)


@dataclass(frozen=True)
class ElementSpec:
    """One bench element: kind, its phase argument, and the source sign.

    kind is one of 'bs', 'pol_swap', 'pol_phase', 'path_phase', 'prism',
    'inverse_prism', 'polarizer_45'.
    """

    kind: str
    phase: float = 0.0
    sign: int = 1

    _KINDS = (
        "bs",
        "pol_swap",
        "pol_phase",
        "path_phase",
        "prism",
        "inverse_prism",
        "polarizer_45",
    )

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        _check_sign(self.sign)


def element_matrix(spec: ElementSpec) -> Array:
    """2x2 matrix of an ElementSpec (phase ignored where meaningless)."""
    if spec.kind == "bs":
        return beam_splitter()
    if spec.kind == "pol_swap":
        return pol_swap()
    if spec.kind == "pol_phase":
        return pol_phase(spec.phase, spec.sign)
    if spec.kind == "path_phase":
        return path_phase(spec.phase, spec.sign)
    if spec.kind == "prism":
        return prism(spec.phase)
    if spec.kind == "inverse_prism":
        return inverse_prism(spec.phase)
    return polarizer_45()
