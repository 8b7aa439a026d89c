import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from pathpol.bench import PhaseSetting, SourceSpec, run
from pathpol.correlations import fit_scaled_cosine
from pathpol.detector import (
    MAX_SAMPLES,
    MIN_SAMPLES,
    autocorrelation_demo,
    detect,
    detector_amplitudes,
    p45_intensity,
    project_aa,
)
from pathpol.tensor import norms_squared

S1 = SourceSpec(1.0, 1.0)
S2 = SourceSpec(1.0, 1.3)
# a 16-setting sweep, for the refusals that must hold for a stack too
STACK = PhaseSetting(np.linspace(0.0, 3.0, 16), 0.0, 0.0, 0.0)
_WINDOW_REFUSAL = "window must be a finite real number, got "
_SAMPLES_REFUSAL = f"samples must be an integer in [{MIN_SAMPLES}, {MAX_SAMPLES}], got "


def output_state(delta: float, s1: SourceSpec = S1, s2: SourceSpec = S2):
    ps = PhaseSetting(delta, 0.0, 0.0, 0.0)
    return run(s1, s2, ps).output


def tensors(vectors):
    """16-vectors, or a stack of them, as ``(..., 2, 2, 2, 2)`` tensors."""
    vectors = np.asarray(vectors)
    return vectors.reshape(vectors.shape[:-1] + (2, 2, 2, 2))


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
        aa = project_aa(run(SourceSpec(a1, 1.0), SourceSpec(a2, 1.3), ps).output)
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


def test_readouts_take_state_tensors_only():
    # a flat 16-vector, or an (N, 16) stack, is refused by shape rather than
    # read as some other stack of states
    output = run(S1, S2, PhaseSetting(np.array([0.1, 0.7, 2.0]), 0.0, 0.0, 0.0)).output
    for flat in (output.reshape(3, 16), output[0].reshape(16), np.ones((2, 2, 2))):
        for readout in (p45_intensity, project_aa, detect):
            with pytest.raises(ValueError, match=r"\(\.\.\., 2, 2, 2, 2\) state tensor"):
                readout(flat)


def test_aa_projections_equal_per_state_readout():
    # the stacked readout is the per-state one, field by field and bit for bit
    rng = np.random.default_rng(47)
    states = [
        output_state(d, SourceSpec(m1 * np.exp(1j * a), 1.0), SourceSpec(m2, 1.3))
        for d, m1, m2, a in rng.uniform(0.3, 3.0, (6, 4))
    ]
    stacked = project_aa(np.array(states))
    for k, state in enumerate(states):
        single = project_aa(state)
        for field in ("pol_unit", "expansion", "delta", "branch_fraction"):
            assert np.array_equal(getattr(stacked, field)[k], getattr(single, field))
    assert np.array_equal(np.abs(stacked.expansion[:, 0]) ** 2, [p45_intensity(s) for s in states])
    with pytest.raises(ValueError, match="aa branch"):
        project_aa(tensors(np.zeros((2, 16)) + np.eye(16)[15]))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


_PHASE = st.floats(-2.0 * np.pi, 2.0 * np.pi)


@seed(20181)
@settings(max_examples=25, deadline=None, database=None)
@given(
    rows=st.lists(st.tuples(_PHASE, _PHASE, _PHASE, _PHASE), min_size=1, max_size=6),
    mags=st.tuples(st.floats(0.2, 4.0), st.floats(0.2, 4.0)),
    draw=st.integers(0, 2**32 - 1),
)
def test_p45_is_the_projection_plus_plus_entry_bit_for_bit(rows, mags, draw):
    # bench output states and arbitrary ones, each single and stacked
    rng = np.random.default_rng(draw)
    s1 = SourceSpec(mags[0] * np.exp(1j * rng.uniform(-np.pi, np.pi)), 1.0)
    s2 = SourceSpec(mags[1], 1.3)
    bench_out = run(s1, s2, PhaseSetting(*np.transpose(rows))).output
    drawn = rng.normal(size=(len(rows), 16)) + 1j * rng.normal(size=(len(rows), 16))
    for stack in (bench_out, tensors(drawn)):
        for state in (stack, *stack):
            want = np.abs(project_aa(state).expansion[..., 0]) ** 2
            got = p45_intensity(state)
            assert np.shape(got) == np.shape(want)
            assert type(got) is (float if state.ndim == 4 else np.ndarray)
            assert np.array_equal(_bits(got), _bits(want))


def test_p45_refuses_an_empty_branch_and_passes_nan_through():
    bhbh = np.eye(16)[15]
    for vector in (bhbh, np.array([np.eye(16)[0], bhbh])):
        state = tensors(vector)
        for readout in (p45_intensity, project_aa):
            with pytest.raises(ValueError, match="^the aa branch of this state is empty$"):
                readout(state)
    # a NaN state reads NaN, quietly, alone or beside a finite one
    nan = np.full(16, np.nan)
    assert np.isnan(p45_intensity(tensors(nan)))
    stacked = p45_intensity(np.array([tensors(nan), output_state(np.pi)]))
    assert np.isnan(stacked[0])
    assert stacked[1] == p45_intensity(output_state(np.pi))


def test_expansion_is_unit_norm():
    rng = np.random.default_rng(29)
    for _ in range(50):
        ps = PhaseSetting(*rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 4))
        aa = project_aa(run(S1, S2, ps).output)
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


def _port_blocks(state):
    """Each port pair's share of a 16-vector's norm, the (aa, ab, ba, bb)
    blocks read straight off the flat index 8*path1 + 4*pol1 + 2*path2 + pol2."""
    vector = np.asarray(state).reshape(16)
    total = np.sum(np.abs(vector) ** 2)
    blocks = []
    for p1 in (0, 1):
        for p2 in (0, 1):
            port = [8 * p1 + 4 * o1 + 2 * p2 + o2 for o1 in (0, 1) for o2 in (0, 1)]
            blocks.append(np.sum(np.abs(vector[port]) ** 2) / total)
    return blocks


def test_detect_normalizes_a_state_whose_norm_is_not_one():
    # A = (1.3, 0.6): the output is a product of the two beams, ||psi||^2 = (1.3 * 0.6)^2
    state = output_state(1.3, SourceSpec(1.3, 1.0), SourceSpec(0.6, 1.3))
    assert abs(norms_squared(state.reshape(16)) - 0.6084) < 1e-15
    probs = detect(state)
    assert abs(sum(probs) - 1.0) < 1e-15
    assert np.allclose(probs, _port_blocks(state), rtol=0.0, atol=1e-15)
    assert np.allclose(probs, detect(output_state(1.3)), rtol=0.0, atol=1e-15)


def test_detect_reads_a_scaled_random_state_as_the_state():
    rng = np.random.default_rng(17)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2))
    probs = detect(tensors(psi))
    for c in (3.7, 0.05j, -1.9 + 0.4j):
        scaled = detect(tensors(c * psi))
        assert abs(sum(scaled) - 1.0) < 1e-15
        assert np.allclose(scaled, _port_blocks(c * psi), rtol=0.0, atol=1e-15)
        assert np.allclose(scaled, probs, rtol=0.0, atol=1e-15)


def test_detect_refuses_an_empty_state_and_passes_nan_through():
    # the zero state used to end in a bare ZeroDivisionError
    with pytest.raises(ValueError, match="^this state is empty$"):
        detect(tensors(np.zeros(16)))
    probs = detect(tensors(np.full(16, np.nan)))
    assert len(probs) == 4
    assert all(np.isnan(p) for p in probs)


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
    with pytest.raises(
        ValueError, match=r"^sources must have distinct frequencies \(omega1 != omega2\)$"
    ):
        autocorrelation_demo(S1, SourceSpec(1.0, 1.0), ps, 10_000.0, 20_000)
    refusal = "window * |omega1 - omega2| must be >= 100, got 3"
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        autocorrelation_demo(S1, S2, ps, 10.0, 20_000)
    with pytest.raises(ValueError, match=f"^{re.escape(_SAMPLES_REFUSAL)}100$"):
        autocorrelation_demo(S1, S2, ps, 10_000.0, 100)


def test_autocorrelation_beat_count_bound_is_inclusive():
    # the beat is exactly 0.5, so window * beat is exact on either side of 100
    s1, s2 = SourceSpec(1.0, 1.0), SourceSpec(1.0, 1.5)
    ps = PhaseSetting(0.5, 0.0, 0.0, 0.0)
    assert autocorrelation_demo(s1, s2, ps, 200.0, MIN_SAMPLES).total > 0.0
    refusal = "window * |omega1 - omega2| must be >= 100, got 99.5"
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        autocorrelation_demo(s1, s2, ps, 199.0, MIN_SAMPLES)


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
    for ps in (PhaseSetting(0.3, 0.0, 0.0, 0.0), STACK):
        with pytest.raises(ValueError, match="window") as info:
            autocorrelation_demo(S1, S2, ps, window, 10_000)
        if np.isfinite(window):
            assert "samples" in str(info.value)
            assert str(MAX_SAMPLES) in str(info.value)


@pytest.mark.parametrize(
    "samples",
    [20_000.0, float("nan"), True, np.True_, "20000"],
    ids=["float", "nan", "bool", "numpy-bool", "str"],
)
def test_autocorrelation_refuses_a_sample_count_that_is_not_an_integer(monkeypatch, samples):
    # 20000.0 and NaN reached linspace (a bare TypeError), "20000" failed on <
    def no_allocation(*args, **kwargs):
        raise AssertionError("the time grid must not be allocated")

    monkeypatch.setattr(np, "linspace", no_allocation)
    for ps in (PhaseSetting(0.3, 0.0, 0.0, 0.0), STACK):
        with pytest.raises(ValueError, match=f"^{re.escape(_SAMPLES_REFUSAL)}{samples!r}$"):
            autocorrelation_demo(S1, S2, ps, 4000.0, samples)


@pytest.mark.parametrize(
    "window",
    ["4000", None, 4000j, True, np.True_],
    ids=["str", "none", "complex", "bool", "numpy-bool"],
)
def test_autocorrelation_refuses_a_window_that_is_not_a_real_number(window):
    # "4000" and None failed in np.isfinite, 4000j on <: a bare TypeError
    for ps in (PhaseSetting(0.3, 0.0, 0.0, 0.0), STACK):
        refusal = f"{_WINDOW_REFUSAL}{window!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            autocorrelation_demo(S1, S2, ps, window, 20_000)


@pytest.mark.parametrize(
    "window, samples, refusal",
    [
        (10**400, 20_000, f"{_WINDOW_REFUSAL}a 1329-bit integer"),
        (-(10**400), 20_000, f"{_WINDOW_REFUSAL}a negative 1329-bit integer"),
        (4000.0, 10**400, f"{_SAMPLES_REFUSAL}a 1329-bit integer"),
        (4000.0, MAX_SAMPLES + 1, f"{_SAMPLES_REFUSAL}{MAX_SAMPLES + 1}"),
    ],
    ids=["huge-int-window", "huge-negative-int-window", "huge-int-samples", "samples-above-max"],
)
def test_autocorrelation_refuses_an_out_of_range_integer_by_name(
    monkeypatch, window, samples, refusal
):
    # 10**400 is an int past the float range: isfinite (window) and the
    # message's float formatting (samples) raised a bare OverflowError
    def no_allocation(*args, **kwargs):
        raise AssertionError("the time grid must not be allocated")

    monkeypatch.setattr(np, "linspace", no_allocation)
    for ps in (PhaseSetting(0.3, 0.0, 0.0, 0.0), STACK):
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            autocorrelation_demo(S1, S2, ps, window, samples)


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
    for ps in (PhaseSetting(0.3, 0.0, 0.0, 0.0), STACK):
        with pytest.raises(ValueError, match="window") as info:
            autocorrelation_demo(*loud, ps, 1e9, 10_000)
        assert f"{np.finfo(float).max:.6g}" in str(info.value)


def test_autocorrelation_just_inside_the_bound_stays_finite():
    loud = SourceSpec(1e75, 1.0), SourceSpec(1e75, 1.0001)
    report = autocorrelation_demo(*loud, PhaseSetting(0.3, 0.0, 0.0, 0.0), 1e7, 10_000)
    assert np.isfinite(report.total) and np.isfinite(report.residual)


angles = st.floats(-2.0 * np.pi, 2.0 * np.pi)
complex_amplitudes = st.builds(lambda m, a: m * np.exp(1j * a), st.floats(0.2, 4.0), angles)


def _trapezoid_reference(s1, s2, ps, window, samples):
    """One setting's total the direct way: the intensity sampled on a fresh
    grid, squared, and integrated by numpy's own trapezoid routine."""
    u1, u2 = detector_amplitudes(ps)
    a1, a2 = s1.amplitude * u1, s2.amplitude * u2
    c = a1 * np.conj(a2)
    times = np.linspace(0.0, window, samples)
    intensity = 2.0 * abs(c) * np.cos((s1.omega - s2.omega) * times + np.angle(c))
    intensity += abs(a1) ** 2 + abs(a2) ** 2
    return float(np.trapezoid(intensity**2, times))


def _field_reference(s1, s2, ps, window, samples):
    """The same integral from the two fields themselves: |E1 + E2|^4 sampled
    with each source at its own frequency."""
    u1, u2 = detector_amplitudes(ps)
    times = np.linspace(0.0, window, samples)
    field = s1.amplitude * u1 * np.exp(1j * s1.omega * times)
    field = field + s2.amplitude * u2 * np.exp(1j * s2.omega * times)
    return float(np.trapezoid(np.abs(field) ** 4, times))


@seed(20150)
@settings(max_examples=20, deadline=None, database=None)
@given(a1=complex_amplitudes, a2=complex_amplitudes, phases=st.tuples(angles, angles, angles, angles))
def test_autocorrelation_intensity_is_the_squared_field_sum(a1, a2, phases):
    # the integrand is the squared intensity |E1 + E2|^2, each source at its
    # own frequency: the total is the trapezoid rule over |E1 + E2|^4
    s1, s2 = SourceSpec(a1, S1.omega), SourceSpec(a2, S2.omega)
    ps = PhaseSetting(*phases)
    window = 400.0  # 120 beats
    report = autocorrelation_demo(s1, s2, ps, window, 10_000)
    fields = _field_reference(s1, s2, ps, window, report.samples)
    assert abs(report.total - fields) <= 1e-13 * fields


@seed(20151)
@settings(max_examples=15, deadline=None, database=None)
@given(
    a1=complex_amplitudes,
    a2=complex_amplitudes,
    phases=st.tuples(angles, angles, angles, angles),
    beats=st.floats(101.0, 600.0),
    samples=st.integers(MIN_SAMPLES, MIN_SAMPLES + 2_000),
)
def test_autocorrelation_total_is_numpy_trapezoid_bit_for_bit(a1, a2, phases, beats, samples):
    # the name dates from when the kernel called np.trapezoid on a sampled
    # grid; it now sums the same trapezoid rule in closed form, so the two
    # agree to rounding rather than bit for bit
    s1, s2 = SourceSpec(a1, S1.omega), SourceSpec(a2, S2.omega)
    ps = PhaseSetting(*phases)
    window = beats / abs(s1.omega - s2.omega)
    report = autocorrelation_demo(s1, s2, ps, window, samples)
    assert report.samples == samples
    cos_form = _trapezoid_reference(s1, s2, ps, window, samples)
    assert abs(report.total - cos_form) <= 1e-14 * cos_form


def test_autocorrelation_cost_does_not_grow_with_samples(monkeypatch):
    # the closed-form sum does O(settings) work: no time grid, and a 16-setting
    # call at the largest sample count holds no per-sample array
    def no_allocation(*args, **kwargs):
        raise AssertionError("the time grid must not be allocated")

    monkeypatch.setattr(np, "linspace", no_allocation)
    autocorrelation_demo(S1, S2, STACK, 4000.0, MAX_SAMPLES)  # warm-up
    tracemalloc.start()
    try:
        report = autocorrelation_demo(S1, S2, STACK, 4000.0, MAX_SAMPLES)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.samples == MAX_SAMPLES
    assert report.total.shape == (16,)
    assert peak < 64 * 1024


phase_lists = st.lists(st.tuples(angles, angles, angles, angles), min_size=1, max_size=5)


@seed(20152)
@settings(max_examples=20, deadline=None, database=None)
@given(
    a1=complex_amplitudes,
    a2=complex_amplitudes,
    rows=phase_lists,
    fixed=st.sets(st.integers(0, 3), max_size=3),
)
# one source's phases both floats: its amplitude still has an entry per setting
@example(a1=1.0, a2=0.5j, rows=[(0.1, 0.2, 0.3, 0.4), (1.1, 1.2, 1.3, 1.4)], fixed={0, 2})
@example(a1=1.0, a2=0.5j, rows=[(0.1, 0.2, 0.3, 0.4), (1.1, 1.2, 1.3, 1.4)], fixed={1, 3})
def test_stacked_detector_calls_equal_their_single_calls(a1, a2, rows, fixed):
    # a stack gives one entry per setting, each bit for bit its single call;
    # the fields in ``fixed`` stay floats in the stack (held for every entry)
    columns = [np.array(c) for c in zip(*rows)]
    for k in fixed:
        columns[k] = rows[0][k]
    stack = PhaseSetting(*columns)
    singles = [PhaseSetting(*(c if k in fixed else c[i] for k, c in enumerate(columns)))
               for i in range(len(rows))]
    s1, s2 = SourceSpec(a1, S1.omega), SourceSpec(a2, S2.omega)

    u1, u2 = detector_amplitudes(stack)
    assert u1.shape == u2.shape == (len(rows),)
    assert [complex(u) for u in u1] == [complex(detector_amplitudes(ps)[0]) for ps in singles]
    assert [complex(u) for u in u2] == [complex(detector_amplitudes(ps)[1]) for ps in singles]

    window = 400.0
    stacked = autocorrelation_demo(s1, s2, stack, window, MIN_SAMPLES)
    reports = [autocorrelation_demo(s1, s2, ps, window, MIN_SAMPLES) for ps in singles]
    for field in dataclasses.fields(stacked):
        values = [getattr(r, field.name) for r in reports]
        if field.name == "samples":
            assert values == [stacked.samples] * len(rows)
            continue
        assert all(type(v) is float for v in values)
        column = getattr(stacked, field.name)
        assert column.shape == (len(rows),)
        assert np.array_equal(column, values, equal_nan=True)
