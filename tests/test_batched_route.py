"""The batched operator route of ``pathpol sweep`` against an independent oracle.

The reference operators are written out here with ``np.kron`` on 2x2 blocks
(no ``pathpol.tensor``), and the reference input state is the documented
(A1 A2 / sqrt2)(|aVaV> - |bHbH>), so a fault shared by the program's tensor
helpers cannot cancel out.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pathpol import bench, cli, correlations, detector
from pathpol.bench import PhaseSetting, SourceSpec
from pathpol.scenario import SWEEP_VARIABLES

TOL = 1e-12
I2 = np.eye(2)
KET_A = np.array([1.0, 0.0])
KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
BS = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
PHASE_NAMES = ("theta1", "theta2", "phi1", "phi2")


def kron4(a, b, c, d):
    return np.kron(np.kron(np.kron(a, b), c), d)


def flip(x, sense):
    return np.array([[0.0, np.exp(-1j * sense * x)], [np.exp(1j * sense * x), 0.0]])


def phase(x, sense):
    return np.diag([1.0, np.exp(1j * sense * x)])


def reference_input(a1, a2):
    psi = np.zeros(16, dtype=complex)
    psi[0], psi[15] = 1.0, -1.0  # |aVaV>, |bHbH>
    return a1 * a2 / np.sqrt(2.0) * psi


def reference_row(a1, a2, theta1, theta2, phi1, phi2):
    """C_numeric and p45 of one setting from explicit 16x16 matrices."""
    psi = reference_input(a1, a2)
    sigmas = kron4(flip(phi1, 1), flip(theta1, 1), flip(phi2, -1), flip(theta2, -1))
    c_numeric = np.vdot(psi, sigmas @ psi).real / (abs(a1) ** 2 + abs(a2) ** 2) ** 2

    out = kron4(BS, I2, BS, I2) @ kron4(
        phase(phi1, 1), phase(theta1, 1), phase(phi2, -1), phase(theta2, -1)
    ) @ psi
    port_a = np.outer(KET_A, KET_A)
    both_a = kron4(port_a, I2, port_a, I2)
    both_45 = kron4(port_a, np.outer(KET_PLUS, KET_PLUS), port_a, np.outer(KET_PLUS, KET_PLUS))
    # squared ++ coefficient of sqrt2 * (unit aa polarization block)
    p45 = 2.0 * np.vdot(out, both_45 @ out).real / np.vdot(out, both_a @ out).real
    return c_numeric, p45


def pinned(variable, value, base):
    """The four phases with one sweep coordinate pinned (delta moves theta1)."""
    phases = dict(zip(PHASE_NAMES, base))
    if variable == "delta":
        phases["theta1"] = value + phases["theta2"] + phases["phi2"] - phases["phi1"]
    else:
        phases[variable] = value
    return phases


angles = st.floats(-2.0 * np.pi, 2.0 * np.pi)


@seed(20141)
@settings(max_examples=30, deadline=None, database=None)
@given(
    i1=st.floats(0.05, 20.0),
    i2=st.floats(0.05, 20.0),
    base=st.tuples(angles, angles, angles, angles),
    variable=st.sampled_from(SWEEP_VARIABLES),
    span=st.tuples(angles, angles),
    points=st.integers(2, 6),
)
def test_sweep_operator_columns_match_kron_oracle(i1, i2, base, variable, span, points):
    argv = ["sweep", "--set", f"sweep.variable={variable}", "--set", f"sweep.points={points}"]
    overrides = {"amplitudes.i1": i1, "amplitudes.i2": i2, "sweep.start": span[0], "sweep.stop": span[1]}
    overrides.update({f"phases.{name}": value for name, value in zip(PHASE_NAMES, base)})
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value!r}"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    rows = [[float(x) for x in line.split(",")] for line in buf.getvalue().splitlines()[1:]]
    values = np.linspace(span[0], span[1], points)
    assert len(rows) == points

    a1, a2 = np.sqrt(i1), np.sqrt(i2)
    for value, (var, _, c_closed, c_numeric, _, p45) in zip(values, rows):
        assert var == value
        phases = pinned(variable, float(value), base)
        delta = phases["theta1"] + phases["phi1"] - phases["theta2"] - phases["phi2"]
        want_c, want_p45 = reference_row(a1, a2, **phases)
        assert abs(c_numeric - want_c) <= TOL
        assert abs(p45 - want_p45) <= TOL
        assert abs(c_numeric + c_closed / 4.0) <= TOL
        assert abs(p45 - (1.0 - np.cos(delta)) / 2.0) <= TOL


@seed(20142)
@settings(max_examples=20, deadline=None, database=None)
@given(
    mags=st.tuples(st.floats(0.2, 4.0), st.floats(0.2, 4.0)),
    args=st.tuples(angles, angles),
    phases=st.lists(st.tuples(angles, angles, angles, angles), min_size=1, max_size=5),
)
def test_batched_route_equals_per_point_calls(mags, args, phases):
    # complex amplitudes; the per-point functions are N=1 calls of the batch
    s1 = SourceSpec(mags[0] * np.exp(1j * args[0]), 1.0)
    s2 = SourceSpec(mags[1] * np.exp(1j * args[1]), 1.3)
    arrays = [np.array(column) for column in zip(*phases)]
    start = bench.symmetrized_input(s1, s2)
    numeric = correlations.correlation_numeric_batch(start, s1, s2, *arrays)
    outputs = bench.bs_prime_stage(bench.phase_stage(start.tensor, *arrays))
    p45 = detector.p45_intensities(outputs.reshape(len(phases), 16))
    for k, row in enumerate(phases):
        ps = PhaseSetting(*row)
        want_c, want_p45 = reference_row(s1.amplitude, s2.amplitude, *row)
        assert abs(numeric[k] - want_c) <= TOL
        assert abs(p45[k] - want_p45) <= TOL
        assert numeric[k] == correlations.correlation_numeric(ps, s1, s2)
        state = bench.apply_bs_prime(bench.evolve_prestate(s1, s2, ps))
        assert p45[k] == detector.p45_intensity(state)


def test_operator_route_never_touches_closed_form_or_delta(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the operator route reached the closed-form code")

    monkeypatch.setattr(correlations, "correlation_closed_form", forbidden)
    monkeypatch.setattr(correlations, "g2_generalized", forbidden)
    monkeypatch.setattr(PhaseSetting, "delta", property(forbidden))

    s1, s2 = SourceSpec(0.8, 1.0), SourceSpec(1.7j, 1.3)
    theta1, theta2, phi1, phi2 = np.random.default_rng(3).uniform(-np.pi, np.pi, (4, 8))
    start = bench.symmetrized_input(s1, s2)
    numeric = correlations.correlation_numeric_batch(start, s1, s2, theta1, theta2, phi1, phi2)
    outputs = bench.bs_prime_stage(bench.phase_stage(start.tensor, theta1, theta2, phi1, phi2))
    p45 = detector.p45_intensities(outputs.reshape(8, 16))
    assert numeric.shape == p45.shape == (8,)

    ps = PhaseSetting(theta1[0], theta2[0], phi1[0], phi2[0])
    assert correlations.correlation_numeric(ps, s1, s2) == numeric[0]
    assert detector.p45_intensity(bench.apply_bs_prime(bench.evolve_prestate(s1, s2, ps))) == p45[0]
    with pytest.raises(AssertionError, match="closed-form"):
        ps.delta


def test_batched_correlation_requires_the_symmetrized_input():
    s1, s2 = SourceSpec(1.0, 1.0), SourceSpec(1.0, 1.3)
    pre = bench.evolve_prestate(s1, s2, PhaseSetting(0.1, 0.2, 0.3, 0.4))
    with pytest.raises(ValueError, match="symmetrized input"):
        correlations.correlation_numeric_batch(pre, s1, s2, 0.0, 0.0, 0.0, 0.0)
