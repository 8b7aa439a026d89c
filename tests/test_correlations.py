import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pathpol import bench
from pathpol.bench import PhaseSetting, SourceSpec
from pathpol.cli import main
from pathpol.correlations import (
    COSINE_GUARD,
    SIGNED_SUM_FLOOR,
    correlation_closed_form,
    correlation_numeric,
    correlation_report,
    fit_scaled_cosine,
    fit_sinusoid,
    g2_generalized,
    g2_hbt,
    sum_identity,
)

UNIT = SourceSpec(1.0, 1.0), SourceSpec(1.0, 1.3)


def setting(delta: float) -> PhaseSetting:
    return PhaseSetting(delta, 0.0, 0.0, 0.0)


def random_pair(rng) -> tuple[SourceSpec, SourceSpec]:
    a1, a2 = rng.uniform(0.2, 3.0, 2)
    return SourceSpec(a1, 1.0), SourceSpec(a2, 1.3)


def test_closed_form_extremes():
    s1, s2 = UNIT
    assert correlation_closed_form(setting(0.0), s1, s2) == 1.0
    assert correlation_closed_form(setting(np.pi), s1, s2) == -1.0


def test_closed_form_unequal_intensities():
    # 4*1*9/(1+9)^2 = 0.36 at delta = 0
    c = correlation_closed_form(setting(0.0), SourceSpec(1.0, 1.0), SourceSpec(3.0, 1.3))
    assert abs(c - 0.36) < 1e-15


def test_closed_form_bounded_by_one():
    rng = np.random.default_rng(7)
    for _ in range(200):
        s1, s2 = random_pair(rng)
        c = correlation_closed_form(setting(rng.uniform(-7.0, 7.0)), s1, s2)
        assert abs(c) <= 1.0 + 1e-12


def test_numeric_route_tracks_quarter_of_closed_form():
    # operator route = -1/4 of the formula route, pointwise
    rng = np.random.default_rng(11)
    for _ in range(40):
        s1, s2 = random_pair(rng)
        ps = PhaseSetting(*rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 4))
        num = correlation_numeric(bench.run(s1, s2, ps))
        closed = correlation_closed_form(ps, s1, s2)
        assert abs(num + 0.25 * closed) < 1e-12


def test_numeric_route_cosine_fit():
    deltas = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    s1, s2 = UNIT
    values = np.array([correlation_numeric(bench.run(s1, s2, setting(d))) for d in deltas])
    kappa, resid = fit_scaled_cosine(deltas, values)
    assert abs(kappa + 0.25) < 1e-12
    assert resid < 1e-12


def test_report_ratio_and_term_count():
    s1, s2 = UNIT
    report = correlation_report(bench.run(s1, s2, setting(0.4)))
    assert abs(report.ratio + 0.25) < 1e-12
    assert len(report.terms) == 16
    signs = [t.sign for t in report.terms]
    assert signs.count(1) == 8 and signs.count(-1) == 8


def test_report_ratio_guard_near_cosine_zero():
    s1, s2 = UNIT
    report = correlation_report(bench.run(s1, s2, setting(np.pi / 2.0)))
    assert math.isnan(report.ratio)


def intensity_terms(ps, s1, s2):
    """The sixteen shifted joint-intensity terms of the report, by (k, l, m, n)."""
    return {(t.k, t.l, t.m, t.n): t for t in correlation_report(bench.run(s1, s2, ps)).terms}


def test_intensity_term_routes_are_proportional():
    rng = np.random.default_rng(23)
    for _ in range(30):
        s1, s2 = random_pair(rng)
        i1, i2 = s1.intensity, s2.intensity
        ssq = (i1 + i2) ** 2
        ps = PhaseSetting(*rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 4))
        for (k, l, m, n), term in intensity_terms(ps, s1, s2).items():
            assert term.sign == (-1) ** (k + l + m + n)
            closed = 2.0 * i1 * i2 * (1.0 - term.sign * np.cos(ps.delta)) / ssq
            assert abs(term.value - closed * ssq / 32.0) < 1e-12


def test_intensity_term_values_at_unit_amplitudes():
    s1, s2 = UNIT
    terms = intensity_terms(setting(0.0), s1, s2)
    assert abs(terms[0, 0, 0, 0].value) < 1e-15
    assert abs(terms[1, 0, 0, 0].value - 0.125) < 1e-15


def test_intensity_term_bracket_law():
    s1, s2 = UNIT
    for d in (0.0, 0.9, np.pi / 2.0, np.pi, 5.1):
        term = intensity_terms(setting(d), s1, s2)[0, 0, 0, 0]
        assert abs(term.value - (1.0 - np.cos(d)) / 16.0) < 1e-12


def test_intensity_term_shift_validation():
    # the shift indices label the terms; the formula route refuses any but 0/1
    s1, s2 = UNIT
    with pytest.raises(ValueError):
        g2_generalized(2, 0, 0, 0, setting(0.0), s1, s2)
    with pytest.raises(ValueError):
        g2_generalized(0, 0, -1, 0, setting(0.0), s1, s2)


def test_g2_hbt_landmarks():
    s1, s2 = UNIT
    assert g2_hbt(0.0, 0.0, s1, s2) == 0.5
    assert g2_hbt(np.pi, 0.0, s1, s2) == 1.5
    assert abs(g2_hbt(np.pi / 2.0, 0.0, s1, s2) - 1.0) < 1e-15


def test_g2_hbt_single_source_limit():
    # one source overwhelming the other washes the dip out
    g = g2_hbt(0.0, 0.0, SourceSpec(1.0, 1.0), SourceSpec(1e-8, 1.3))
    assert abs(g - 1.0) < 1e-15


def test_g2_generalized_reduces_to_hbt():
    # equal polarizer phases and no shifts leave only the path dependence
    rng = np.random.default_rng(31)
    for _ in range(50):
        s1, s2 = random_pair(rng)
        theta = rng.uniform(-3.0, 3.0)
        phi1, phi2 = rng.uniform(-3.0, 3.0, 2)
        ps = PhaseSetting(theta, theta, phi1, phi2)
        assert abs(
            g2_generalized(0, 0, 0, 0, ps, s1, s2) - g2_hbt(phi1, phi2, s1, s2)
        ) < 1e-12


def test_g2_generalized_range():
    rng = np.random.default_rng(41)
    for _ in range(200):
        s1, s2 = random_pair(rng)
        ps = PhaseSetting(*rng.uniform(-7.0, 7.0, 4))
        k, l, m, n = (int(v) for v in rng.integers(0, 2, 4))
        g = g2_generalized(k, l, m, n, ps, s1, s2)
        assert 0.0 <= g <= 2.0 + 1e-12


def test_sum_identity_against_brute_force():
    # re-derive the signed sum here, term by term, with no shared code path
    s1, s2 = SourceSpec(1.4, 1.0), SourceSpec(0.6, 1.3)
    i1, i2 = s1.intensity, s2.intensity
    ssq = (i1 + i2) ** 2
    for d in (0.0, 0.7, 2.0, np.pi, -1.3):
        ps = setting(d)
        expected = 0.0
        for k, l, m, n in product((0, 1), repeat=4):
            parity = (k + l + m + n) % 2
            signed = -1.0 if parity else 1.0
            g = (i1**2 + i2**2 + 2 * i1 * i2 * (1 - signed * np.cos(d))) / ssq
            expected += (1.0 if parity == 0 else -1.0) * g
        report = sum_identity(ps, s1, s2)
        assert abs(report.numeric - expected) < 1e-12


def test_sum_identity_constant_ratio():
    rng = np.random.default_rng(53)
    for _ in range(40):
        s1, s2 = random_pair(rng)
        ps = PhaseSetting(*rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 4))
        report = sum_identity(ps, s1, s2)
        if math.isnan(report.ratio):
            assert abs(np.cos(ps.delta)) < 1e-3
            continue
        assert abs(report.ratio + 8.0) < 1e-9


def test_fit_scaled_cosine_recovers_scale():
    deltas = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    kappa, resid = fit_scaled_cosine(deltas, -3.25 * np.cos(deltas))
    assert abs(kappa + 3.25) < 1e-12
    assert resid < 1e-12


def test_fit_sinusoid_recovers_coefficients():
    x = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
    y = 2.0 + 0.5 * np.cos(x) - 1.5 * np.sin(x)
    coeffs, resid = fit_sinusoid(x, y)
    assert np.max(np.abs(coeffs - [2.0, 0.5, -1.5])) < 1e-12
    assert resid < 1e-12


def test_fit_sinusoid_of_nan_data_is_nan():
    # NaN in, NaN out without raising: a NaN series fails the autocorrelation row
    x = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    y = np.cos(x)
    y[3] = np.nan
    coeffs, resid = fit_sinusoid(x, y)
    assert np.all(np.isnan(coeffs))
    assert np.isnan(resid)


angles = st.floats(-2.0 * np.pi, 2.0 * np.pi)
complex_amplitudes = st.builds(lambda m, a: m * np.exp(1j * a), st.floats(0.2, 4.0), angles)
sweeps = st.lists(st.tuples(angles, angles, angles, angles), min_size=1, max_size=8).map(
    lambda rows: PhaseSetting(*(np.array(column) for column in zip(*rows)))
)


@seed(20147)
@settings(max_examples=25, deadline=None, database=None)
@given(a1=complex_amplitudes, a2=complex_amplitudes, ps=sweeps)
def test_sigma_route_is_minus_quarter_of_closed_form(a1, a2, ps):
    # the logged -1/4, for any complex amplitudes, wherever the ratio is defined
    s1, s2 = SourceSpec(a1, 1.0), SourceSpec(a2, 1.3)
    guarded = np.abs(np.cos(ps.delta)) >= COSINE_GUARD
    numeric = correlation_numeric(bench.run(s1, s2, ps))[guarded]
    assert np.all(np.abs(numeric / correlation_closed_form(ps, s1, s2)[guarded] + 0.25) <= 1e-10)


@seed(20148)
@settings(max_examples=25, deadline=None, database=None)
@given(a1=complex_amplitudes, a2=complex_amplitudes, ps=sweeps)
def test_signed_sum_is_minus_eight_times_closed_form(a1, a2, ps):
    report = sum_identity(ps, SourceSpec(a1, 1.0), SourceSpec(a2, 1.3))
    guarded = np.abs(np.cos(ps.delta)) >= COSINE_GUARD
    assert np.all(np.abs(report.ratio[guarded] + 8.0) <= 1e-10)
    assert np.all(np.isnan(report.ratio[~guarded]))


@seed(20149)
@settings(max_examples=25, deadline=None, database=None)
@given(log_ratio=st.floats(-149.9, 0.0), ps=sweeps)
def test_signed_sum_ratio_is_minus_eight_or_nan_at_any_intensity_ratio(log_ratio, ps):
    # at I2 / I1 = 1e-16 the sum cancels to ~1e-15 and the ratio read -9.64;
    # below the floor it reads nan, and every ratio left is -8
    report = sum_identity(ps, UNIT[0], SourceSpec(10.0 ** (log_ratio / 2.0), 1.3))
    defined = np.isfinite(report.ratio)
    assert np.all(np.abs(report.ratio[defined] + 8.0) <= 1e-8)
    assert not np.any(defined & (np.abs(report.closed_form) < SIGNED_SUM_FLOOR))


def test_correlate_builds_the_symmetrized_input_once(capsys, count_calls):
    # the numeric route and the sixteen brackets read one run's input state;
    # the closed-form route reads none, so one trace serves the whole command
    calls = count_calls(bench.trace_stages)
    assert main(["correlate"]) == 0
    assert capsys.readouterr().out
    assert len(calls) == 1
