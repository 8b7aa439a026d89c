import numpy as np
import pytest

from pathpol.bench import PhaseSetting, SourceSpec, apply_bs_prime, evolve_prestate, symmetrized_input
from pathpol import observables
from pathpol.observables import (
    SigmaSpec,
    path_a_projector,
    product_expectation,
    transfer_check,
)
from pathpol.tensor import basis_state

S1 = SourceSpec(1.0, 1.0)
S2 = SourceSpec(1.0, 1.3)

I2 = np.eye(2)
PLUS2 = np.array([1.0, 1.0]) / np.sqrt(2.0)
BASIS = np.eye(16, dtype=complex).reshape(16, 2, 2, 2, 2)


def sigma(*specs):
    """16x16 matrix of spec_0 spec_1 ... as the operator route applies it:
    each 2x2 core on its own slot, acting on the 16 basis tensors."""
    images = observables._apply(BASIS, [observables._factor(spec) for spec in specs])
    return images.reshape(16, 16).T


def sigma_pol(source, theta, branch="full"):
    return sigma(SigmaSpec(source, "pol", theta, branch))


def sigma_path(source, phi, branch="full"):
    return sigma(SigmaSpec(source, "path", phi, branch))


def intensity_specs(source, theta, phi):
    """The intensity operator of one source: its path and pol plus branches."""
    return (SigmaSpec(source, "path", phi, "plus"), SigmaSpec(source, "pol", theta, "plus"))


def test_sigma_spec_validation():
    with pytest.raises(ValueError):
        SigmaSpec(3, "pol", 0.0)
    with pytest.raises(ValueError):
        SigmaSpec(1, "spin", 0.0)
    with pytest.raises(ValueError):
        SigmaSpec(1, "pol", 0.0, "left")


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


def test_sigma_full_is_difference_of_branches():
    rng = np.random.default_rng(13)
    for _ in range(100):
        spec = dict(
            source=int(rng.integers(1, 3)),
            dof="path" if rng.integers(0, 2) else "pol",
            phase=float(rng.uniform(-6.0, 6.0)),
        )
        full = sigma(SigmaSpec(branch="full", **spec))
        plus = sigma(SigmaSpec(branch="plus", **spec))
        minus = sigma(SigmaSpec(branch="minus", **spec))
        assert np.max(np.abs(full - (plus - minus))) < 1e-12
        assert np.max(np.abs(full @ full - np.eye(16))) < 1e-12


def test_sigma_eigenvalues_half_and_half():
    vals = np.linalg.eigvalsh(sigma_pol(1, 1.234))
    assert np.sum(np.abs(vals - 1.0) < 1e-9) == 8
    assert np.sum(np.abs(vals + 1.0) < 1e-9) == 8


def test_projector_algebra():
    rng = np.random.default_rng(19)
    for _ in range(100):
        spec = dict(
            source=int(rng.integers(1, 3)),
            dof="path" if rng.integers(0, 2) else "pol",
            phase=float(rng.uniform(-6.0, 6.0)),
        )
        plus = sigma(SigmaSpec(branch="plus", **spec))
        minus = sigma(SigmaSpec(branch="minus", **spec))
        assert np.max(np.abs(plus @ plus - plus)) < 1e-12
        assert np.max(np.abs(minus @ minus - minus)) < 1e-12
        assert np.max(np.abs(plus @ minus)) < 1e-12
        assert np.max(np.abs(plus + minus - np.eye(16))) < 1e-12


def test_source_operators_commute():
    rng = np.random.default_rng(37)
    for _ in range(100):
        a = sigma(
            SigmaSpec(
                1,
                "path" if rng.integers(0, 2) else "pol",
                float(rng.uniform(-6.0, 6.0)),
                ("full", "plus", "minus")[int(rng.integers(0, 3))],
            )
        )
        b = sigma(
            SigmaSpec(
                2,
                "path" if rng.integers(0, 2) else "pol",
                float(rng.uniform(-6.0, 6.0)),
                ("full", "plus", "minus")[int(rng.integers(0, 3))],
            )
        )
        assert np.max(np.abs(a @ b - b @ a)) < 1e-12


def test_intensity_operator_zero_phase_pattern():
    # acting on |aVaV>: source-1 factors become the diagonal pattern, source 2 untouched
    op = sigma(*intensity_specs(1, 0.0, 0.0))
    out = op @ basis_state(0, 0, 0, 0)
    expected = 0.25 * np.kron(
        np.kron(np.kron([1.0, 1.0], [1.0, 1.0]), [1.0, 0.0]), [1.0, 0.0]
    )
    assert np.max(np.abs(out - expected)) < 1e-15


def test_intensity_operator_is_projector_of_rank_four():
    # rank one on each slot it touches, identity on the other source's slots
    op = sigma(*intensity_specs(2, 0.7, -1.1))
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
    state = symmetrized_input(S1, S2).tensor
    for d in (0.0, 0.31, np.pi / 2.0, np.pi, 4.4):
        ps = PhaseSetting(d, 0.0, 0.0, 0.0)
        specs = intensity_specs(1, ps.theta1, ps.phi1) + intensity_specs(2, ps.theta2, ps.phi2)
        val = product_expectation(state, specs).real
        assert abs(val - (1.0 - np.cos(d)) / 16.0) < 1e-12


def test_transfer_check_brackets_agree():
    rng = np.random.default_rng(43)
    for _ in range(25):
        ps = PhaseSetting(*rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 4))
        pre = evolve_prestate(S1, S2, ps)
        post = apply_bs_prime(pre)
        report = transfer_check(pre, post, ps)
        assert report.max_difference < 1e-12
        assert report.conjugation_residual < 1e-12
        assert abs(report.value_symmetrized - (1.0 - np.cos(ps.delta)) / 16.0) < 1e-12


def test_transfer_check_stage_validation():
    ps = PhaseSetting(0.3, 0.0, 0.0, 0.0)
    pre = evolve_prestate(S1, S2, ps)
    post = apply_bs_prime(pre)
    with pytest.raises(ValueError):
        transfer_check(post, post, ps)
    with pytest.raises(ValueError):
        transfer_check(pre, pre, ps)
    # mismatched pre/post pair
    other = apply_bs_prime(evolve_prestate(S1, S2, PhaseSetting(1.0, 0, 0, 0)))
    with pytest.raises(ValueError):
        transfer_check(pre, other, ps)


def test_path_projector_conjugation_by_splitter():
    from pathpol.elements import beam_splitter

    bs = beam_splitter()
    plus_proj = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    conj = bs.conj().T @ plus_proj @ bs
    assert np.max(np.abs(conj - path_a_projector())) < 1e-15
