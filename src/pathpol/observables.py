"""Phase observables and detector-intensity operators on the 16-dim space.

Each beam carries two binary degrees of freedom, and each degree of freedom
gets a one-parameter family of flip observables

    sigma(x) = e^{+i s x} |1><0|  +  e^{-i s x} |0><1|,

with s = +1 for observables attached to source 1 and s = -1 for source 2
(matching the phase-element sign convention). ``branch='plus'``/``'minus'``
select the rank-1 eigenprojectors instead of the full observable; an
intensity operator is the product of the two plus-branch projectors (path
and polarization) of one source.

``product_expectation`` evaluates a product of such observables on a
``(2, 2, 2, 2)`` state slot by slot; a spec whose phase is an array stands
for one observable per entry, so a whole phase sweep is one call. ``sigma``
and ``intensity_operator`` build the 16x16 matrices for the algebraic checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bench, elements
from .bench import BenchState, PhaseSetting, Stage
from .tensor import (
    SLOT_PATH_1,
    SLOT_PATH_2,
    SLOT_POL_1,
    SLOT_POL_2,
    STATE_SHAPE,
    Array,
    apply_slot,
    dagger,
    embed,
)

BRANCHES = ("full", "plus", "minus")

_SLOTS = {
    (1, "path"): SLOT_PATH_1,
    (1, "pol"): SLOT_POL_1,
    (2, "path"): SLOT_PATH_2,
    (2, "pol"): SLOT_POL_2,
}


@dataclass(frozen=True)
class SigmaSpec:
    """Which flip observable: source (1|2), dof ('path'|'pol'), phase, branch.

    ``phase`` may be a 1-d array, one observable per entry; only
    ``product_expectation`` accepts such a spec.
    """

    source: int
    dof: str
    phase: float | Array
    branch: str = "full"

    def __post_init__(self) -> None:
        if self.source not in (1, 2):
            raise ValueError(f"source must be 1 or 2, got {self.source}")
        if self.dof not in ("path", "pol"):
            raise ValueError(f"dof must be 'path' or 'pol', got {self.dof!r}")
        if self.branch not in BRANCHES:
            raise ValueError(f"branch must be one of {BRANCHES}, got {self.branch!r}")


def _sigma_core(phase: float | Array, sense: int, branch: str) -> Array:
    """2x2 core, or the ``phase.shape + (2, 2)`` stack for an array of phases."""
    off = np.exp(1j * sense * np.asarray(phase, dtype=float))
    core = np.zeros(off.shape + (2, 2), dtype=complex)
    if branch == "full":
        core[..., 0, 1] = off.conjugate()
        core[..., 1, 0] = off
        return core
    sign = 1.0 if branch == "plus" else -1.0
    core[..., 0, 0] = core[..., 1, 1] = 0.5
    core[..., 0, 1] = 0.5 * (sign * off.conjugate())
    core[..., 1, 0] = 0.5 * (sign * off)
    return core


def _spec_core(spec: SigmaSpec) -> Array:
    return _sigma_core(spec.phase, 1 if spec.source == 1 else -1, spec.branch)


def sigma(spec: SigmaSpec) -> Array:
    """16x16 flip observable (or one of its eigenprojectors)."""
    return embed(_spec_core(spec), _SLOTS[(spec.source, spec.dof)])


def sigma_pol(source: int, theta: float, branch: str = "full") -> Array:
    return sigma(SigmaSpec(source, "pol", theta, branch))


def sigma_path(source: int, phi: float, branch: str = "full") -> Array:
    return sigma(SigmaSpec(source, "path", phi, branch))


@dataclass(frozen=True)
class IntensityOperator:
    """Joint plus-branch projector of one source: path(phi) times pol(theta).

    The two factors act on disjoint slots, so the product is itself a rank-1
    projector (onto the product of the two plus vectors).
    """

    source: int
    theta: float
    phi: float
    matrix: Array

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex).copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def intensity_operator(source: int, theta: float, phi: float) -> IntensityOperator:
    m = sigma_path(source, phi, "plus") @ sigma_pol(source, theta, "plus")
    return IntensityOperator(source, theta, phi, m)


def expectation(state: Array, op: Array) -> complex:
    """<state| op |state> (no normalization applied)."""
    state = np.asarray(state, dtype=complex)
    op = np.asarray(op, dtype=complex)
    if state.ndim != 1 or op.shape != (state.size, state.size):
        raise ValueError("operator and state dimensions do not match")
    return complex(np.vdot(state, op @ state))


def product_expectation(state: Array, specs: Sequence[SigmaSpec]) -> Array:
    """<state| spec_0 spec_1 ... |state> on a ``(2, 2, 2, 2)`` state tensor.

    Each factor acts on its own slot as a 2x2 core; no 16x16 matrix is
    built. Specs with array phases give one value per entry (shape ``(N,)``);
    all-scalar specs give a 0-d array. No normalization is applied.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != STATE_SHAPE:
        raise ValueError(f"state must be a {STATE_SHAPE} tensor, got shape {state.shape}")
    out = state
    for spec in reversed(specs):
        out = apply_slot(_spec_core(spec), out, _SLOTS[(spec.source, spec.dof)])
    return np.einsum("wxyz,...wxyz->...", state.conj(), out)


def path_a_projector() -> Array:
    """2x2 projector onto the upper output port."""
    return np.diag([1.0, 0.0]).astype(complex)


@dataclass(frozen=True)
class TransferCheckReport:
    """Same joint-intensity bracket evaluated at three pipeline stages.

    value_symmetrized uses the phase-parameterized projectors on the
    symmetrized input; value_prestate uses zero-phase projectors on the
    phased prestate; value_final uses the beam-splitter conjugated
    projectors (port a times the zero-phase polarization plus branch) on the
    output state. The three agree exactly; max_difference records the worst
    pairwise gap actually measured, and conjugation_residual the entrywise
    error of the projector conjugation identity.
    """

    value_symmetrized: float
    value_prestate: float
    value_final: float
    max_difference: float
    conjugation_residual: float


def transfer_check(
    pre: BenchState, post: BenchState, ps: PhaseSetting
) -> TransferCheckReport:
    """Verify the intensity bracket transfers unchanged along the pipeline."""
    if pre.stage is not Stage.PRE_BS_PRIME:
        raise ValueError(f"pre must be a pre-bs-prime state, got {pre.stage.value!r}")
    if post.stage is not Stage.POST_BS_PRIME:
        raise ValueError(f"post must be a post-bs-prime state, got {post.stage.value!r}")
    if np.max(np.abs(bench.apply_bs_prime(pre).vector - post.vector)) > 1e-12:
        raise ValueError("post state is not the second-splitter image of pre")

    # undo the diagonal phase stage to recover the symmetrized input
    psi0 = dagger(bench.phase_diagonal(ps)) @ pre.vector

    v_sym = expectation(
        psi0,
        intensity_operator(1, ps.theta1, ps.phi1).matrix
        @ intensity_operator(2, ps.theta2, ps.phi2).matrix,
    ).real
    v_pre = expectation(
        pre.vector,
        intensity_operator(1, 0.0, 0.0).matrix @ intensity_operator(2, 0.0, 0.0).matrix,
    ).real

    final_op = (
        embed(path_a_projector(), SLOT_PATH_1)
        @ sigma_pol(1, 0.0, "plus")
        @ embed(path_a_projector(), SLOT_PATH_2)
        @ sigma_pol(2, 0.0, "plus")
    )
    v_fin = expectation(post.vector, final_op).real

    bs = elements.beam_splitter()
    conj = dagger(bs) @ _sigma_core(0.0, 1, "plus") @ bs - path_a_projector()

    values = (v_sym, v_pre, v_fin)
    max_diff = max(abs(x - y) for x in values for y in values)
    return TransferCheckReport(v_sym, v_pre, v_fin, max_diff, float(np.max(np.abs(conj))))
