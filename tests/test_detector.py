import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pathpol.bench import (
    BenchState,
    PhaseSetting,
    SourceSpec,
    Stage,
    apply_bs_prime,
    evolve_prestate,
    symmetrized_input,
)
from pathpol.correlations import fit_scaled_cosine
from pathpol.detector import (
    MAX_SAMPLES,
    autocorrelation_demo,
    detect,
    detector_amplitudes,
    p45_intensity,
    project_aa,
)

S1 = SourceSpec(1.0, 1.0)
S2 = SourceSpec(1.0, 1.3)


def output_state(delta: float, s1: SourceSpec = S1, s2: SourceSpec = S2):
    ps = PhaseSetting(delta, 0.0, 0.0, 0.0)
    return apply_bs_prime(evolve_prestate(s1, s2, ps))


def test_project_aa_requires_output_stage():
    with pytest.raises(ValueError):
        project_aa(symmetrized_input(S1, S2))


def test_project_aa_reads_back_delta():
    for d in (0.3, 1.7, -2.2, 3.0):
        aa = project_aa(output_state(d))
        assert abs((aa.delta - d + np.pi) % (2.0 * np.pi) - np.pi) < 1e-12


def test_project_aa_branch_fraction_is_quarter():
    # the second splitter spreads the two-component state evenly over ports
    rng = np.random.default_rng(5)
    for _ in range(50):
        ps = PhaseSetting(*rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 4))
        a1, a2 = rng.uniform(0.2, 3.0, 2)
        state = apply_bs_prime(
            evolve_prestate(SourceSpec(a1, 1.0), SourceSpec(a2, 1.3), ps)
        )
        aa = project_aa(state)
        assert abs(aa.branch_fraction - 0.25) < 1e-12


def test_project_aa_pol_unit_structure():
    # the aa polarization part is (|VV> - e^{i delta} |HH>)/sqrt2
    d = 0.9
    aa = project_aa(output_state(d))
    assert abs(aa.pol_unit[0] - 1.0 / np.sqrt(2.0)) < 1e-12
    assert abs(aa.pol_unit[1]) < 1e-15
    assert abs(aa.pol_unit[2]) < 1e-15
    assert abs(aa.pol_unit[3] + np.exp(1j * d) / np.sqrt(2.0)) < 1e-12


def test_project_aa_expansion_coefficients():
    # diagonal-basis coefficients of sqrt2 * pol_unit: (1 - e^{i delta})/2 on
    # the like pairs (++, --), (1 + e^{i delta})/2 on the unlike pairs
    for d in (0.0, 0.6, np.pi / 2.0, np.pi, -1.1):
        aa = project_aa(output_state(d))
        minus = (1.0 - np.exp(1j * d)) / 2.0
        plus = (1.0 + np.exp(1j * d)) / 2.0
        assert abs(aa.expansion[0] - minus) < 1e-12  # ++
        assert abs(aa.expansion[1] - plus) < 1e-12  # +-
        assert abs(aa.expansion[2] - plus) < 1e-12  # -+
        assert abs(aa.expansion[3] - minus) < 1e-12  # --


def test_stacked_readouts_require_output_stage():
    sweep = PhaseSetting(np.array([0.1, 0.7, 2.0]), 0.0, 0.0, 0.0)
    pre = evolve_prestate(S1, S2, sweep)
    assert pre.vector.shape == (3, 16)
    for readout in (p45_intensity, project_aa):
        with pytest.raises(ValueError, match="post-bs-prime"):
            readout(pre)


def test_aa_projections_equal_per_state_readout():
    # the stacked readout is the per-state one, field by field and bit for bit
    rng = np.random.default_rng(47)
    states = [
        output_state(d, SourceSpec(m1 * np.exp(1j * a), 1.0), SourceSpec(m2, 1.3))
        for d, m1, m2, a in rng.uniform(0.3, 3.0, (6, 4))
    ]
    stacked = project_aa(BenchState(Stage.POST_BS_PRIME, np.array([s.vector for s in states])))
    for k, state in enumerate(states):
        single = project_aa(state)
        for field in ("pol_unit", "expansion", "delta", "branch_fraction"):
            assert np.array_equal(getattr(stacked, field)[k], getattr(single, field))
    assert np.array_equal(np.abs(stacked.expansion[:, 0]) ** 2, [p45_intensity(s) for s in states])
    with pytest.raises(ValueError, match="aa branch"):
        project_aa(BenchState(Stage.POST_BS_PRIME, np.zeros((2, 16)) + np.eye(16)[15]))


def test_expansion_is_unit_norm():
    rng = np.random.default_rng(29)
    for _ in range(50):
        ps = PhaseSetting(*rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 4))
        aa = project_aa(apply_bs_prime(evolve_prestate(S1, S2, ps)))
        assert abs(np.sum(np.abs(aa.expansion) ** 2) - 2.0) < 1e-12
        assert abs(np.sum(np.abs(aa.pol_unit) ** 2) - 1.0) < 1e-12


def test_p45_intensity_landmarks():
    assert p45_intensity(output_state(0.0)) < 1e-24
    assert abs(p45_intensity(output_state(np.pi)) - 1.0) < 1e-12
    assert abs(p45_intensity(output_state(np.pi / 2.0)) - 0.5) < 1e-12


def test_p45_detection_law_over_grid():
    deltas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    values = np.array([p45_intensity(output_state(d)) for d in deltas])
    # p45 = (1 - cos delta)/2: fit the centered values against the cosine
    kappa, resid = fit_scaled_cosine(deltas, values - 0.5)
    assert abs(kappa + 0.5) < 1e-12
    assert resid < 1e-12


def test_p45_opposite_deltas_partition():
    # the two diagonal outcomes at delta and delta + pi tile the branch
    rng = np.random.default_rng(37)
    for _ in range(50):
        d = rng.uniform(-2.0 * np.pi, 2.0 * np.pi)
        assert abs(
            p45_intensity(output_state(d)) + p45_intensity(output_state(d + np.pi)) - 1.0
        ) < 1e-12


def test_detect_probabilities():
    probs = detect(output_state(1.3))
    assert len(probs) == 4
    assert abs(sum(probs) - 1.0) < 1e-12
    for p in probs:
        assert abs(p - 0.25) < 1e-12


def test_detector_amplitudes_closed_forms():
    rng = np.random.default_rng(41)
    for _ in range(50):
        ps = PhaseSetting(*rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 4))
        u1, u2 = detector_amplitudes(ps)
        b1 = ps.theta1 + ps.phi1
        b2 = ps.theta2 + ps.phi2
        assert abs(u1 - (1.0 - np.exp(1j * b1)) / (2.0 * np.sqrt(2.0))) < 1e-12
        assert abs(u2 - (1.0 + np.exp(-1j * b2)) / (2.0 * np.sqrt(2.0))) < 1e-12


def test_detector_amplitude_intensity_laws():
    # per-source transmissions: |u1|^2 = (1 - cos b1)/4, |u2|^2 = (1 + cos b2)/4
    for b1, b2 in ((0.0, 0.0), (0.8, -0.5), (np.pi, np.pi / 2.0), (2.4, 1.9)):
        u1, u2 = detector_amplitudes(PhaseSetting(b1, b2, 0.0, 0.0))
        assert abs(abs(u1) ** 2 - (1.0 - np.cos(b1)) / 4.0) < 1e-12
        assert abs(abs(u2) ** 2 - (1.0 + np.cos(b2)) / 4.0) < 1e-12


def test_autocorrelation_preconditions():
    ps = PhaseSetting(0.5, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        autocorrelation_demo(S1, SourceSpec(1.0, 1.0), ps, 10_000.0, 20_000)
    with pytest.raises(ValueError):
        autocorrelation_demo(S1, S2, ps, 10.0, 20_000)
    with pytest.raises(ValueError):
        autocorrelation_demo(S1, S2, ps, 10_000.0, 100)


def test_autocorrelation_decomposition_is_consistent():
    ps = PhaseSetting(0.8, 0.0, 0.0, 0.0)
    report = autocorrelation_demo(S1, S2, ps, 4000.0, 20_000)
    stationary = (
        report.self_term_1
        + report.self_term_2
        + report.cross_product_term
        + report.beat_mean_square
    )
    assert abs(abs(report.total - stationary) - report.residual * report.total) < 1e-12
    assert report.cross_product_term == report.beat_mean_square
    assert abs(
        report.cross_measured - report.total + report.self_term_1 + report.self_term_2
    ) < 1e-12


def test_autocorrelation_nan_total_gives_nan_residual(monkeypatch):
    # a NaN series must not read as a perfect average (residual 0)
    from pathpol import detector

    monkeypatch.setattr(detector, "detector_amplitudes", lambda ps: (complex("nan"), 0.5))
    report = autocorrelation_demo(S1, S2, PhaseSetting(0.8, 0.0, 0.0, 0.0), 4000.0, 20_000)
    assert np.isnan(report.total)
    assert np.isnan(report.residual)


def test_autocorrelation_residual_shrinks_with_window():
    ps = PhaseSetting(1.1, 0.0, 0.0, 0.0)
    small = autocorrelation_demo(S1, S2, ps, 1000.0, 10_000)
    large = autocorrelation_demo(S1, S2, ps, 16_000.0, 10_000)
    assert large.residual < small.residual / 4.0
    assert large.residual < 1e-3


def test_autocorrelation_window_is_closed():
    # theta1 = phi1 = 0 keeps source 1 off the detector, so the intensity is
    # constant and a time grid short of the window's end shows in the residual
    ps = PhaseSetting(0.0, 0.9, 0.0, -0.4)
    report = autocorrelation_demo(S1, S2, ps, 4000.0, 20_000)
    assert report.residual <= 1e-12


def test_autocorrelation_residual_halves_at_odd_pi_windows():
    # windows holding an odd number of half beat periods leave a lone
    # quarter-oscillation whose size halves as the window doubles
    ps = PhaseSetting(0.7, 0.2, 0.4, -0.3)
    beat = abs(S1.omega - S2.omega)
    reports = [
        autocorrelation_demo(S1, S2, ps, m * np.pi / beat, n)
        for m, n in ((317, 20_001), (635, 40_064), (1271, 80_191))
    ]
    r0, r1, r2 = (r.residual for r in reports)
    assert 0.4 < r1 / r0 < 0.6
    assert 0.4 < r2 / r1 < 0.6


def test_autocorrelation_cross_term_carries_detection_law():
    # sweep delta at whole-beat windows, fit the measured cross term
    beat = abs(S1.omega - S2.omega)
    window = 2.0 * np.pi * 160.0 / beat
    deltas = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    values = []
    products = []
    for d in deltas:
        ps = PhaseSetting(d, 0.0, 0.0, 0.0)
        report = autocorrelation_demo(S1, S2, ps, window, 10_000)
        values.append(report.cross_measured / window)
        # unit amplitudes: I_k = |u_k|^2
        u1, u2 = detector_amplitudes(ps)
        products.append(abs(u1) ** 2 * abs(u2) ** 2)
    i1i2 = np.array(products)
    # stationary cross energy is 4 I1 I2; I1 I2 itself varies with delta
    expected = 4.0 * i1i2
    gap = np.max(np.abs(np.array(values) - expected))
    assert gap < 1e-3 * np.max(expected)


@pytest.mark.parametrize("window", [1e9, float("inf"), float("nan")])
def test_autocorrelation_refuses_oversized_window_before_allocating(monkeypatch, window):
    # window=1e9 would need ~1.9e9 samples (a 14 GiB series): refused up front
    def no_allocation(*args, **kwargs):
        raise AssertionError("the time grid must not be allocated")

    monkeypatch.setattr(np, "linspace", no_allocation)
    with pytest.raises(ValueError, match="window") as info:
        autocorrelation_demo(S1, S2, PhaseSetting(0.3, 0.0, 0.0, 0.0), window, 10_000)
    if np.isfinite(window):
        assert "samples" in str(info.value)
        assert str(MAX_SAMPLES) in str(info.value)


def test_autocorrelation_falls_back_to_trapz_without_trapezoid(monkeypatch):
    # numpy < 2.0 has only trapz; mimic it by hiding trapezoid
    ps = PhaseSetting(0.8, 0.0, 0.0, 0.0)
    expected = autocorrelation_demo(S1, S2, ps, 4000.0, 20_000).total
    real = getattr(np, "trapezoid", None) or np.trapz
    calls = []

    def recording_trapz(y, x):
        calls.append(len(x))
        return real(y, x)

    monkeypatch.delattr(np, "trapezoid", raising=False)
    monkeypatch.setattr(np, "trapz", recording_trapz, raising=False)
    report = autocorrelation_demo(S1, S2, ps, 4000.0, 20_000)
    assert calls == [report.samples]
    assert report.total == expected


@pytest.mark.skipif(
    not hasattr(np, "trapezoid"), reason="numpy < 2.0 has no trapezoid"
)
def test_autocorrelation_never_names_trapz_when_trapezoid_exists(monkeypatch):
    # numpy 2.4 removed trapz: any lookup of it goes to the module __getattr__
    looked_up = []
    numpy_getattr = getattr(np, "__getattr__", None)

    def recording_getattr(name):
        looked_up.append(name)
        if numpy_getattr is None:
            raise AttributeError(name)
        return numpy_getattr(name)

    monkeypatch.delattr(np, "trapz", raising=False)
    monkeypatch.setattr(np, "__getattr__", recording_getattr, raising=False)
    ps = PhaseSetting(0.8, 0.0, 0.0, 0.0)
    assert autocorrelation_demo(S1, S2, ps, 4000.0, 20_000).total > 0.0
    assert "trapz" not in looked_up


def test_autocorrelation_refuses_an_overflowing_integral_before_allocating(monkeypatch):
    # (2e75)^4 * 1e9 is not a finite float: the total would be inf and the residual NaN
    def no_allocation(*args, **kwargs):
        raise AssertionError("the time grid must not be allocated")

    monkeypatch.setattr(np, "linspace", no_allocation)
    loud = SourceSpec(1e75, 1.0), SourceSpec(1e75, 1.0001)
    with pytest.raises(ValueError, match="window") as info:
        autocorrelation_demo(*loud, PhaseSetting(0.3, 0.0, 0.0, 0.0), 1e9, 10_000)
    assert f"{np.finfo(float).max:.6g}" in str(info.value)


def test_autocorrelation_just_inside_the_bound_stays_finite():
    loud = SourceSpec(1e75, 1.0), SourceSpec(1e75, 1.0001)
    report = autocorrelation_demo(*loud, PhaseSetting(0.3, 0.0, 0.0, 0.0), 1e7, 10_000)
    assert np.isfinite(report.total) and np.isfinite(report.residual)


angles = st.floats(-2.0 * np.pi, 2.0 * np.pi)
complex_amplitudes = st.builds(lambda m, a: m * np.exp(1j * a), st.floats(0.2, 4.0), angles)


@seed(20150)
@settings(max_examples=20, deadline=None, database=None)
@given(a1=complex_amplitudes, a2=complex_amplitudes, phases=st.tuples(angles, angles, angles, angles))
def test_autocorrelation_intensity_is_the_squared_field_sum(a1, a2, phases):
    # the integrand is the squared intensity; read it where it is integrated
    real = getattr(np, "trapezoid", None) or np.trapz
    seen = []

    def recording(y, x):
        seen.append((y, x))
        return real(y, x)

    s1, s2 = SourceSpec(a1, S1.omega), SourceSpec(a2, S2.omega)
    ps = PhaseSetting(*phases)
    window = 400.0  # 120 beats
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "trapezoid" if hasattr(np, "trapezoid") else "trapz", recording)
        autocorrelation_demo(s1, s2, ps, window, 10_000)
    (squared, times), = seen
    u1, u2 = detector_amplitudes(ps)
    field = a1 * u1 * np.exp(1j * s1.omega * times) + a2 * u2 * np.exp(1j * s2.omega * times)
    want = np.abs(field) ** 2
    assert np.max(np.abs(np.sqrt(squared) - want)) <= 1e-13 * np.max(want)
