import numpy as np
import pytest

from pathpol.bench import (
    BenchState,
    PhaseSetting,
    SourceSpec,
    Stage,
    apply_bs_prime,
    evolve_prestate,
    phase_stage,
    pipeline_trace,
    symmetrize,
    symmetrized_input,
)
from pathpol.correlations import correlation_report
from pathpol.detector import autocorrelation_demo, detect
from pathpol.observables import transfer_check
from pathpol.tensor import basis_state

SQRT2 = np.sqrt(2.0)

S1 = SourceSpec(1.0, 1.0)
S2 = SourceSpec(1.0, 1.3)


def random_sources(rng):
    m1, m2 = rng.uniform(0.5, 1.5, 2)
    a1, a2 = rng.uniform(-np.pi, np.pi, 2)
    return (
        SourceSpec(m1 * np.exp(1j * a1), 1.0),
        SourceSpec(m2 * np.exp(1j * a2), 1.3),
    )


def random_phases(rng):
    return PhaseSetting(*rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 4))


def literal_prestate(s1, s2, ps):
    # two occupied components with relative phase carried by the b-branch
    n = s1.amplitude * s2.amplitude / SQRT2
    rel = np.exp(1j * (ps.theta1 + ps.phi1 - ps.theta2 - ps.phi2))
    return n * (basis_state(0, 0, 0, 0) - rel * basis_state(1, 1, 1, 1))


def test_build_sources_enter_on_opposite_ports():
    # source 1 is A1|bV>, source 2 is A2|aV>: the source stage holds only
    # (A1 A2 / sqrt2)(|bVaV> + |aVbV>)
    s1, s2 = SourceSpec(2.0j, 1.0), SourceSpec(3.0, 1.3)
    source = pipeline_trace(s1, s2, PhaseSetting(0, 0, 0, 0))[0]
    assert source.stage is Stage.SOURCE
    expected = 6.0j / SQRT2 * (basis_state(1, 0, 0, 0) + basis_state(0, 0, 1, 0))
    assert np.array_equal(source.vector, expected)


def test_source_spec_validation():
    with pytest.raises(ValueError):
        SourceSpec(0.0, 1.0)
    with pytest.raises(ValueError):
        SourceSpec(1.0, np.inf)


@pytest.mark.parametrize(
    "amplitude",
    [float("nan"), float("inf"), complex(float("nan"), 0.0), 1e-200],
    ids=["nan", "inf", "complex-nan", "intensity-underflow"],
)
def test_source_spec_rejects_bad_amplitude(amplitude):
    # non-finite amplitudes and an intensity that underflows to 0 never get in
    with pytest.raises(ValueError, match="amplitude"):
        SourceSpec(amplitude, 1.0)


def test_phase_setting_delta():
    ps = PhaseSetting(0.5, 0.1, 0.25, -0.2)
    assert abs(ps.delta - 0.85) < 1e-15
    with pytest.raises(ValueError):
        PhaseSetting(np.nan, 0, 0, 0)
    # equal-length arrays make a sweep, one setting per entry
    sweep = PhaseSetting(np.array([0.5, 1.0]), 0.1, np.array([0.25, 0.0]), -0.2)
    assert np.array_equal(sweep.delta, [0.5 + 0.25 - 0.1 + 0.2, 1.0 + 0.0 - 0.1 + 0.2])
    with pytest.raises(ValueError, match="phi1 must be finite"):
        PhaseSetting(0.0, 0.0, np.array([0.0, np.inf]), 0.0)
    with pytest.raises(ValueError, match="equal lengths"):
        PhaseSetting(np.zeros(2), np.zeros(3), 0.0, 0.0)
    with pytest.raises(ValueError, match="theta2 must be a float or a 1-d array"):
        PhaseSetting(0.0, np.zeros((2, 2)), 0.0, 0.0)


def test_phase_setting_equality_and_hash_cover_sweeps():
    sweep = PhaseSetting(np.array([0.1, 0.2]), 0.0, [0.3, 0.4], 0.0)
    same = PhaseSetting([0.1, 0.2], -0.0, np.array([0.3, 0.4]), 0)
    assert sweep == same and hash(sweep) == hash(same)
    assert len({sweep, same}) == 1
    assert sweep != PhaseSetting(np.array([0.1, 0.25]), 0.0, [0.3, 0.4], 0.0)
    assert sweep != PhaseSetting(np.array([0.1]), 0.0, [0.3], 0.0)
    # a float never equals a 1-entry array, whatever its value
    assert PhaseSetting(0.5, 0.0, 0.0, 0.0) != PhaseSetting([0.5], 0.0, 0.0, 0.0)
    # single settings compare and hash as plain numbers do
    assert PhaseSetting(0, 0, 0, 0) == PhaseSetting(0.0, -0.0, 0.0, 0.0)
    assert hash(PhaseSetting(0, 0, 0, 0)) == hash(PhaseSetting(0.0, -0.0, 0.0, 0.0))
    assert PhaseSetting(0.1, 0.2, 0.3, 0.4) != PhaseSetting(0.1, 0.2, 0.3, 0.5)
    assert PhaseSetting(0.1, 0.2, 0.3, 0.4) != (0.1, 0.2, 0.3, 0.4)


def test_reports_refuse_a_sweep():
    # a 16-entry sweep would otherwise pair entry k with shift term k
    sweep = PhaseSetting(np.linspace(0.0, 3.0, 16), 0.0, 0.0, 0.0)
    pre = evolve_prestate(S1, S2, sweep)
    post = apply_bs_prime(pre)
    for report in (
        lambda: correlation_report(sweep, S1, S2),
        lambda: transfer_check(pre, post, sweep),
        lambda: detect(post),
        lambda: autocorrelation_demo(S1, S2, sweep, 4000.0, 20_000),
    ):
        with pytest.raises(ValueError, match="single"):
            report()


def test_symmetrize_matches_hand_expansion():
    # each beam after splitter and rotator, as (path, pol) tensors by hand:
    # source 1 (|aV> - |bH>)/sqrt2, source 2 (|aV> + |bH>)/sqrt2
    psi = np.array([[1.0, 0.0], [0.0, -1.0]]) / SQRT2
    phi = np.array([[1.0, 0.0], [0.0, 1.0]]) / SQRT2
    state = symmetrize(psi, phi).reshape(16)
    expected = (basis_state(0, 0, 0, 0) - basis_state(1, 1, 1, 1)) / SQRT2
    assert np.max(np.abs(state - expected)) < 1e-12


def test_symmetrize_of_identical_inputs():
    v = np.array([0.5, 0.5j, -0.5, 0.5])
    out = symmetrize(v.reshape(2, 2), v.reshape(2, 2)).reshape(16)
    assert np.max(np.abs(out - SQRT2 * np.kron(v, v))) < 1e-15


def test_symmetrize_unit_norm_for_orthonormal_inputs():
    e1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    e2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    out = symmetrize(e1, e2).reshape(16)
    assert abs(np.vdot(out, out).real - 1.0) < 1e-15


def test_symmetrize_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        symmetrize(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        symmetrize(np.ones(4), np.ones(4))
    with pytest.raises(ValueError):
        symmetrize(np.ones((2, 2)), np.ones((2, 3)))


def test_bench_state_is_immutable_and_checked():
    state = symmetrized_input(S1, S2)
    with pytest.raises(ValueError):
        state.vector[0] = 1.0
    with pytest.raises(ValueError):
        BenchState(Stage.SOURCE, np.zeros(4))


def test_symmetrized_input_two_components():
    state = symmetrized_input(S1, S2)
    assert state.stage is Stage.POST_PR
    expected = (basis_state(0, 0, 0, 0) - basis_state(1, 1, 1, 1)) / SQRT2
    assert np.max(np.abs(state.vector - expected)) < 1e-12


def test_evolve_prestate_zero_phases():
    pre = evolve_prestate(S1, S2, PhaseSetting(0, 0, 0, 0))
    assert pre.stage is Stage.PRE_BS_PRIME
    assert np.max(np.abs(pre.vector - literal_prestate(S1, S2, PhaseSetting(0, 0, 0, 0)))) < 1e-12


def test_evolve_prestate_single_phase_rides_on_b_branch():
    ps = PhaseSetting(0.6, 0.0, 0.0, 0.0)
    pre = evolve_prestate(S1, S2, ps)
    assert abs(pre.vector[0] - 1.0 / SQRT2) < 1e-12
    assert abs(pre.vector[15] - (-np.exp(0.6j) / SQRT2)) < 1e-12


def test_evolve_prestate_golden_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        s1, s2 = random_sources(rng)
        ps = random_phases(rng)
        pre = evolve_prestate(s1, s2, ps)
        assert np.max(np.abs(pre.vector - literal_prestate(s1, s2, ps))) < 1e-12
        occupied = np.abs(pre.vector) > 1e-12
        assert occupied.sum() == 2 and occupied[0] and occupied[15]
        # equal magnitudes on the two components
        assert abs(abs(pre.vector[0]) - abs(pre.vector[15])) < 1e-12


def test_evolve_prestate_depends_only_on_phase_sums():
    rng = np.random.default_rng(29)
    for _ in range(50):
        t1, t2, p1, p2, shift = rng.uniform(-3.0, 3.0, 5)
        a = evolve_prestate(S1, S2, PhaseSetting(t1, t2, p1, p2))
        b = evolve_prestate(S1, S2, PhaseSetting(t1 + shift, t2, p1 - shift, p2))
        assert np.max(np.abs(a.vector - b.vector)) < 1e-12


def test_phase_diagonal_is_diagonal_unitary():
    # the phase stage's 16x16 matrix, column k its image of basis tensor k
    basis = np.eye(16, dtype=complex).reshape(16, 2, 2, 2, 2)
    d = phase_stage(basis, PhaseSetting(0.3, -0.7, 1.1, 0.4)).reshape(16, 16).T
    assert np.max(np.abs(d - np.diag(np.diag(d)))) == 0.0
    assert np.max(np.abs(np.abs(np.diag(d)) - 1.0)) < 1e-12


def test_apply_bs_prime_zero_phase_expansion():
    post = apply_bs_prime(evolve_prestate(S1, S2, PhaseSetting(0, 0, 0, 0)))
    assert post.stage is Stage.POST_BS_PRIME
    expected = (
        0.5
        * (
            basis_state(0, 0, 0, 0)
            + basis_state(0, 0, 1, 0)
            + basis_state(1, 0, 0, 0)
            + basis_state(1, 0, 1, 0)
        )
        - 0.5
        * (
            basis_state(0, 1, 0, 1)
            - basis_state(0, 1, 1, 1)
            - basis_state(1, 1, 0, 1)
            + basis_state(1, 1, 1, 1)
        )
    ) / SQRT2
    assert np.max(np.abs(post.vector - expected)) < 1e-12


def test_apply_bs_prime_rejects_wrong_stage():
    post = apply_bs_prime(evolve_prestate(S1, S2, PhaseSetting(0, 0, 0, 0)))
    with pytest.raises(ValueError):
        apply_bs_prime(post)
    with pytest.raises(ValueError):
        apply_bs_prime(symmetrized_input(S1, S2))


def test_norm_preserved_at_every_stage():
    rng = np.random.default_rng(31)
    for _ in range(100):
        s1, s2 = random_sources(rng)
        ps = random_phases(rng)
        target = (abs(s1.amplitude) * abs(s2.amplitude)) ** 2
        for state in pipeline_trace(s1, s2, ps):
            assert abs(state.norm_squared - target) < 1e-12


def test_pipeline_trace_stage_order_and_prism_identity():
    trace = pipeline_trace(S1, S2, PhaseSetting(0.4, 0.1, -0.2, 0.9))
    stages = [t.stage for t in trace]
    assert stages == [
        Stage.SOURCE,
        Stage.POST_BS,
        Stage.POST_PR,
        Stage.POST_PHASES,
        Stage.PRE_BS_PRIME,
        Stage.POST_BS_PRIME,
    ]
    # the prism pair around the phase stage must not move a single bit
    post_phases = trace[3].vector
    pre_bs_prime = trace[4].vector
    assert np.array_equal(post_phases, pre_bs_prime)
