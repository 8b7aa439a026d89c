"""Phase observables and detector-intensity operators on the 16-dim space.

Each beam carries two binary degrees of freedom, and each degree of freedom
gets a one-parameter family of flip observables

    sigma(x) = e^{+i s x} |1><0|  +  e^{-i s x} |0><1|,

with s = +1 for observables attached to source 1 and s = -1 for source 2
(the plate signs of ``elements.PLATES``, which also gives each observable
its slot, both read through ``elements.slot_and_sign``).
``branch='plus'``/``'minus'`` select the rank-1 eigenprojectors instead of
the full observable; the intensity operator of one source is the product
of its two plus-branch projectors (path and polarization).

An observable is a factor, a ``(core, slot)`` pair like every element: the
2x2 core acts on its own slot of a ``(2, 2, 2, 2)`` state. ``sigma`` makes
the factor, and ``product_expectation``, the one bracket function, applies
a product of factors slot by slot through ``tensor.apply_factors``. A
factor whose phase is an array stands for one observable per entry, and a
stack of states for one state per entry, so a whole sweep or batch is one
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bench, elements
from .bench import BenchRun, PhaseSetting
from .tensor import (
    SLOT_PATH_1,
    SLOT_PATH_2,
    Array,
    apply_factors,
    choice,
    dagger,
    matmul2,
    state_tensor,
)

BRANCHES = ("full", "plus", "minus")


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


def sigma(source: int, dof: str, phase: float | Array, branch: str = "full") -> tuple[Array, int]:
    """The flip observable of source (1|2) and dof ('path'|'pol') at ``phase``,
    or one of its ``branch`` projectors, as a ``(core, slot)`` factor.

    ``phase`` may be a 1-d array; the core is then a stack, one per entry.
    """
    slot, sense = elements.slot_and_sign(source, dof)
    choice("branch", branch, BRANCHES, f"one of {BRANCHES}")
    return _sigma_core(phase, sense, branch), slot


def phase_observables(ps: PhaseSetting, branch: str) -> tuple[tuple[Array, int], ...]:
    """The ``sigma`` factor (or ``branch`` projector) of each plate of ``ps``,
    in ``elements.PLATES`` order, each at the phase that drives its plate."""
    return tuple(sigma(source, dof, x, branch) for source, dof, x in ps.plates())


def product_expectation(state: Array, factors: Sequence[tuple[Array, int]]) -> Array:
    """<state| f_0 f_1 ... |state> on a ``(..., 2, 2, 2, 2)`` state or stack.

    Each ``(core, slot)`` factor acts on its own slot; no 16x16 matrix is
    built. The leading axes of the states and of stacked cores broadcast,
    one value per entry (shape ``(N,)``); one state with single cores gives
    a 0-d array. No normalization is applied.
    """
    state = state_tensor(state)
    return np.einsum("...wxyz,...wxyz->...", state.conj(), apply_factors(state, factors))


def joint_intensity(state: Array, ps: PhaseSetting) -> Array:
    """Raw joint-intensity bracket <I1(theta1, phi1) I2(theta2, phi2)> (real part).

    The intensity operator of each source is the product of its path and
    polarization plus-branch projectors, so the bracket is a four-factor
    product; a sweep ``ps`` gives one bracket per setting.
    """
    return product_expectation(state, phase_observables(ps, "plus")).real


def path_a_projector() -> Array:
    """2x2 projector onto the upper output port."""
    return np.diag([1.0, 0.0]).astype(complex)


@dataclass(frozen=True)
class TransferCheckReport:
    """Same joint-intensity bracket evaluated at three pipeline stages.

    value_symmetrized uses the phase-parameterized projectors on the
    symmetrized input, recovered from the phased stage by undoing the
    plates; value_prestate uses zero-phase projectors on the phased stage;
    value_final uses the beam-splitter conjugated projectors (port a times
    the zero-phase polarization plus branch) on the output stage. The three
    agree exactly; max_difference records the worst pairwise gap actually
    measured, and conjugation_residual the entrywise error of the projector
    conjugation identity.
    """

    value_symmetrized: float
    value_prestate: float
    value_final: float
    max_difference: float
    conjugation_residual: float


def transfer_check(run: BenchRun) -> TransferCheckReport:
    """Verify the intensity bracket transfers unchanged along the pipeline,
    from the run's phased stage to its output stage.

    The symmetrized input is taken back from the phased stage, not read
    from ``run.input``, so the check also covers the plates' inversion."""
    run.require_single()
    ps = run.ps

    # the phase stage at negated phases undoes it, recovering the symmetrized input
    undo = PhaseSetting(-ps.theta1, -ps.theta2, -ps.phi1, -ps.phi2)
    psi0 = bench.phase_stage(run.phased, undo)

    v_sym = float(joint_intensity(psi0, ps))
    v_pre = float(joint_intensity(run.phased, PhaseSetting(0.0, 0.0, 0.0, 0.0)))
    port_a = path_a_projector()
    factors = (
        (port_a, SLOT_PATH_1),
        sigma(1, "pol", 0.0, "plus"),
        (port_a, SLOT_PATH_2),
        sigma(2, "pol", 0.0, "plus"),
    )
    v_fin = float(product_expectation(run.output, factors).real)

    bs = elements.beam_splitter()
    conj = matmul2(matmul2(dagger(bs), _sigma_core(0.0, 1, "plus")), bs) - port_a

    values = (v_sym, v_pre, v_fin)
    max_diff = max(abs(x - y) for x in values for y in values)
    return TransferCheckReport(v_sym, v_pre, v_fin, max_diff, float(np.abs(conj).max()))
