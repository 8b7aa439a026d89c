import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pathpol.bench import PhaseSetting, SourceSpec, run
from pathpol.observables import (
    joint_intensity,
    path_a_projector,
    product_expectation,
    sigma,
    transfer_check,
)
from pathpol.tensor import SLOT_PATH_1, SLOT_PATH_2, apply_factors, basis_state
from reference import kron4

S1 = SourceSpec(1.0, 1.0)
S2 = SourceSpec(1.0, 1.3)

BASIS = np.eye(16, dtype=complex).reshape(16, 2, 2, 2, 2)


def matrix(*factors):
    """16x16 matrix of f_0 f_1 ... as the operator route applies it:
    each 2x2 core on its own slot, acting on the 16 basis tensors."""
    return apply_factors(BASIS, factors).reshape(16, 16).T


def sigma_pol(source, theta):
    return matrix(sigma(source, "pol", theta))


def sigma_path(source, phi):
    return matrix(sigma(source, "path", phi))


def intensity_factors(source, theta, phi):
    """The intensity operator of one source: its path and pol plus branches."""
    return (sigma(source, "path", phi, "plus"), sigma(source, "pol", theta, "plus"))


def test_sigma_spec_validation():
    with pytest.raises(ValueError, match="source must be 1 or 2"):
        sigma(3, "pol", 0.0)
    with pytest.raises(ValueError, match="dof must be"):
        sigma(1, "spin", 0.0)
    with pytest.raises(ValueError, match="branch must be one of"):
        sigma(1, "pol", 0.0, "left")


def test_sigma_zero_phase_acts_as_flip():
    out = sigma_pol(1, 0.0) @ basis_state(0, 0, 0, 0)
    assert np.array_equal(out, basis_state(0, 1, 0, 0))
    out = sigma_path(2, 0.0) @ basis_state(0, 0, 0, 0)
    assert np.array_equal(out, basis_state(0, 0, 1, 0))


def test_sigma_source_sign_convention():
    # source 1 advances the flip phase, source 2 conjugates it
    m1 = sigma_pol(1, 0.8)
    m2 = sigma_pol(2, 0.8)
    v1 = m1 @ basis_state(0, 0, 0, 0)
    v2 = m2 @ basis_state(0, 0, 0, 0)
    assert abs(v1[4] - np.exp(0.8j)) < 1e-15  # |aHaV> amplitude
    assert abs(v2[1] - np.exp(-0.8j)) < 1e-15  # |aVaH> amplitude


def test_sigma_eigenvalues_half_and_half():
    vals = np.linalg.eigvalsh(sigma_pol(1, 1.234))
    assert np.sum(np.abs(vals - 1.0) < 1e-9) == 8
    assert np.sum(np.abs(vals + 1.0) < 1e-9) == 8


def test_intensity_operator_zero_phase_pattern():
    # acting on |aVaV>: source-1 factors become the diagonal pattern, source 2 untouched
    op = matrix(*intensity_factors(1, 0.0, 0.0))
    out = op @ basis_state(0, 0, 0, 0)
    expected = 0.25 * kron4([1.0, 1.0], [1.0, 1.0], [1.0, 0.0], [1.0, 0.0])
    assert np.max(np.abs(out - expected)) < 1e-15


def test_intensity_operator_is_projector_of_rank_four():
    # rank one on each slot it touches, identity on the other source's slots
    op = matrix(*intensity_factors(2, 0.7, -1.1))
    assert np.max(np.abs(op @ op - op)) < 1e-12
    assert np.max(np.abs(op - op.conj().T)) < 1e-12
    assert abs(np.trace(op).real - 4.0) < 1e-12


def test_expectation_identity_and_validation():
    state = basis_state(0, 0, 0, 0).reshape(2, 2, 2, 2)
    assert product_expectation(state, ()) == 1.0 + 0.0j
    with pytest.raises(ValueError):
        product_expectation(np.ones(4), ())
    with pytest.raises(ValueError):
        product_expectation(np.ones(16), ())


def test_intensity_bracket_on_symmetrized_input():
    # the joint bracket follows (1 - cos delta)/16 at unit amplitudes
    state = run(S1, S2, PhaseSetting(0.0, 0.0, 0.0, 0.0)).input
    for d in (0.0, 0.31, np.pi / 2.0, np.pi, 4.4):
        ps = PhaseSetting(d, 0.0, 0.0, 0.0)
        factors = intensity_factors(1, ps.theta1, ps.phi1)
        val = product_expectation(state, factors + intensity_factors(2, ps.theta2, ps.phi2)).real
        assert abs(val - (1.0 - np.cos(d)) / 16.0) < 1e-12


def test_transfer_check_brackets_agree():
    rng = np.random.default_rng(43)
    for _ in range(25):
        ps = PhaseSetting(*rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 4))
        report = transfer_check(run(S1, S2, ps))
        assert report.max_difference < 1e-12
        assert report.conjugation_residual < 1e-12
        assert abs(report.value_symmetrized - (1.0 - np.cos(ps.delta)) / 16.0) < 1e-12


angles = st.floats(-2.0 * np.pi, 2.0 * np.pi)
complex_amplitudes = st.builds(lambda m, a: m * np.exp(1j * a), st.floats(0.2, 4.0), angles)


@seed(20149)
@settings(max_examples=25)
@given(a1=complex_amplitudes, a2=complex_amplitudes, phases=st.tuples(*[angles] * 4))
def test_transfer_bracket_is_unnormalized(a1, a2, phases):
    # the logged scale: the bracket is (I1+I2)^2/32 times the normalized term
    s1, s2 = SourceSpec(a1, 1.0), SourceSpec(a2, 1.3)
    ps = PhaseSetting(*phases)
    report = transfer_check(run(s1, s2, ps))
    i1, i2 = s1.intensity, s2.intensity
    normalized = 2.0 * i1 * i2 * (1.0 - np.cos(ps.delta)) / (i1 + i2) ** 2
    assert abs(report.value_symmetrized - i1 * i2 * (1.0 - np.cos(ps.delta)) / 16.0) <= 1e-12
    assert abs(report.value_symmetrized * 32.0 / (i1 + i2) ** 2 - normalized) <= 1e-12
    assert report.max_difference <= 1e-12


def test_transfer_check_stage_validation():
    # the check reads one run: its brackets come from that run's own phased
    # and output stages, so no mismatched pair of stages can be passed in
    bench_run = run(S1, S2, PhaseSetting(0.3, 0.0, 0.0, 0.0))
    report = transfer_check(bench_run)
    port_a = path_a_projector()
    factors = (
        (port_a, SLOT_PATH_1),
        sigma(1, "pol", 0.0, "plus"),
        (port_a, SLOT_PATH_2),
        sigma(2, "pol", 0.0, "plus"),
    )
    assert report.value_final == float(product_expectation(bench_run.output, factors).real)
    zero = PhaseSetting(0.0, 0.0, 0.0, 0.0)
    assert report.value_prestate == float(joint_intensity(bench_run.phased, zero))


def test_path_projector_conjugation_by_splitter():
    from pathpol.elements import beam_splitter

    bs = beam_splitter()
    plus_proj = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    conj = bs.conj().T @ plus_proj @ bs
    assert np.max(np.abs(conj - path_a_projector())) < 1e-15
