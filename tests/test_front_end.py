"""The slot-local bench front end, runs and per-source outputs against a
``np.kron`` oracle.

Every reference stage is built here from explicit 4x4 and 16x16 matrices
with ``np.kron`` (no ``pathpol.tensor``), starting from the two source kets
A1|bV> and A2|aV>, so a fault shared by the program's beam stages and tensor
helpers cannot cancel out.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pathpol import bench, correlations, detector
from pathpol.bench import PhaseSetting, SourceSpec

TOL = 1e-12
I2 = np.eye(2)
BS = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
KEEP_A = np.diag([1.0, 0.0])
KEEP_B = np.diag([0.0, 1.0])
BS_BEAM = np.kron(BS, I2)
PR_BEAM = np.kron(KEEP_A, I2) + np.kron(KEEP_B, SWAP)
KET_AV = np.array([1.0, 0.0, 0.0, 0.0])
KET_BV = np.array([0.0, 0.0, 1.0, 0.0])


def kron4(a, b, c, d):
    return np.kron(np.kron(np.kron(a, b), c), d)


def phase(x, sense):
    return np.diag([1.0, np.exp(1j * sense * x)])


def sym(x, y):
    return (np.kron(x, y) + np.kron(y, x)) / np.sqrt(2.0)


# a run's stage fields, in chain order
STAGE_FIELDS = ("source", "post_bs", "input", "phased", "output")


def reference_stages(a1, a2, theta1, theta2, phi1, phi2):
    """The five stages in ``STAGE_FIELDS`` order, from explicit matrices."""
    psi, phi = a1 * KET_BV, a2 * KET_AV
    stages = [sym(psi, phi)]
    psi, phi = BS_BEAM @ psi, BS_BEAM @ phi
    stages.append(sym(psi, phi))
    psi, phi = PR_BEAM @ psi, PR_BEAM @ phi
    stages.append(sym(psi, phi))
    phases = kron4(phase(phi1, 1), phase(theta1, 1), phase(phi2, -1), phase(theta2, -1))
    phased = phases @ stages[-1]
    stages += [phased, kron4(BS, I2, BS, I2) @ phased]
    return stages


angles = st.floats(-2.0 * np.pi, 2.0 * np.pi)
amplitudes = st.builds(lambda mag, arg: mag * np.exp(1j * arg), st.floats(0.2, 2.0), angles)
settings_ = st.tuples(angles, angles, angles, angles)


@seed(20143)
@settings(max_examples=30, deadline=None, database=None)
@given(a1=amplitudes, a2=amplitudes, phases=settings_)
def test_front_end_and_trace_match_kron_oracle(a1, a2, phases):
    s1, s2 = SourceSpec(a1, 1.0), SourceSpec(a2, 1.3)
    want = reference_stages(a1, a2, *phases)
    norm = abs(a1 * a2) ** 2

    bench_run = bench.run(s1, s2, PhaseSetting(*phases))
    for name, ref in zip(STAGE_FIELDS, want, strict=True):
        state = getattr(bench_run, name).reshape(16)
        assert np.max(np.abs(state - ref)) <= TOL
        assert abs(np.vdot(state, state).real - norm) <= TOL


@seed(20145)
@settings(max_examples=20, deadline=None, database=None)
@given(phases=settings_)
def test_source_outputs_match_kron_oracle(phases):
    # each unit source alone: splitter, rotator, its own path and pol plates,
    # second splitter
    theta1, theta2, phi1, phi2 = phases
    out1, out2 = bench.source_outputs(PhaseSetting(*phases))
    for beam, ket, plates in (
        (out1, KET_BV, np.kron(phase(phi1, 1), phase(theta1, 1))),
        (out2, KET_AV, np.kron(phase(phi2, -1), phase(theta2, -1))),
    ):
        want = BS_BEAM @ plates @ PR_BEAM @ BS_BEAM @ ket
        assert beam.shape == (2, 2)
        assert np.max(np.abs(beam.reshape(4) - want)) <= TOL


def test_single_beam_matrices_match_kron_oracle():
    # column k of a stage's 4x4 matrix is its image of the k-th basis beam
    basis = np.eye(4, dtype=complex).reshape(4, 2, 2)
    assert np.array_equal(bench._bs_beam(basis).reshape(4, 4).T, BS_BEAM)
    assert np.array_equal(bench._pr_beam(basis).reshape(4, 4).T, PR_BEAM)


def test_symmetrize_beam_tensors_match_flat_kets():
    rng = np.random.default_rng(41)
    x = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    y = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    tensors = bench.symmetrize(x.reshape(3, 2, 2), y.reshape(3, 2, 2))
    assert tensors.shape == (3, 2, 2, 2, 2)
    for k in range(3):
        assert tensors[k].reshape(16).tobytes() == sym(x[k], y[k]).tobytes()
    # single beams are (path, pol) tensors only: flat kets are refused
    with pytest.raises(ValueError):
        bench.symmetrize(x, y)
    with pytest.raises(ValueError):
        bench.symmetrize(np.ones((2, 3)), np.ones((2, 3)))


def test_batched_trace_and_readout_never_touch_closed_form_or_delta(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the operator route reached the closed-form code")

    monkeypatch.setattr(correlations, "correlation_closed_form", forbidden)
    monkeypatch.setattr(correlations, "g2_generalized", forbidden)
    monkeypatch.setattr(PhaseSetting, "delta", property(forbidden))

    rng = np.random.default_rng(43)
    a1, a2 = rng.uniform(0.5, 1.5, (2, 6)) * np.exp(1j * rng.uniform(-np.pi, np.pi, (2, 6)))
    phases = rng.uniform(-np.pi, np.pi, (4, 6))
    output = bench.run(SourceSpec(a1, 1.0), SourceSpec(a2, 1.3), PhaseSetting(*phases)).output
    aa = detector.project_aa(output)
    assert aa.delta.shape == aa.branch_fraction.shape == (6,)
    first = PhaseSetting(*phases[:, 0])
    basis = np.eye(16, dtype=complex).reshape(16, 1, 2, 2, 2, 2)
    batched = bench.phase_stage(basis, PhaseSetting(*phases))[:, 0]
    single = bench.phase_stage(basis[:, 0], first)
    assert np.array_equal(batched, single)
