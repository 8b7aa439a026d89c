import numpy as np
import pytest

from pathpol.bench import PhaseSetting, SourceSpec
from pathpol.contextuality import (
    CASE1_SETTING,
    MAX_RESOLUTION,
    MAX_VIOLATION,
    VIOLATION_BOUND,
    c_bar,
    c_tilde,
    case2_setting,
    s_prime_value,
    s_value,
    scan_max,
)
from pathpol.correlations import correlation_closed_form


def test_pair_correlation_values():
    assert c_bar(0.0, 0.0) == 1.0
    assert abs(c_bar(np.pi / 4.0, np.pi / 4.0)) < 1e-15
    assert abs(c_bar(np.pi / 2.0, np.pi / 4.0) + np.sqrt(0.5)) < 1e-15
    assert abs(c_tilde(np.pi / 4.0, 0.0) - np.sqrt(0.5)) < 1e-15


def test_c_bar_matches_bench_correlation():
    # the pair function is the two-route bench correlation at equal amplitudes
    s1, s2 = SourceSpec(1.0, 1.0), SourceSpec(1.0, 1.3)
    rng = np.random.default_rng(3)
    for _ in range(50):
        theta, phi = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 2)
        ps = PhaseSetting(theta, 0.0, phi, 0.0)
        assert abs(c_bar(theta, phi) - correlation_closed_form(ps, s1, s2)) < 1e-12


def test_s_value_at_extremal_setting():
    assert abs(s_value(*CASE1_SETTING) - MAX_VIOLATION) < 1e-12
    assert s_value(*CASE1_SETTING) > VIOLATION_BOUND


def test_s_value_swapped_pairs_cancels():
    # feeding the primary pair into the primed slots collapses the functional
    theta, theta_p, phi, phi_p = CASE1_SETTING
    assert abs(s_value(phi, phi_p, theta, theta_p)) < 1e-12


def test_s_value_classical_point():
    assert abs(s_value(0.0, np.pi / 2.0, 0.0, 0.0) - 2.0) < 1e-15


def test_s_prime_value_matches_case2_setting():
    for anchor in np.linspace(-np.pi, np.pi, 10):
        t, tp, p, pp = case2_setting(anchor)
        assert abs(s_prime_value(t, tp, p, pp) - MAX_VIOLATION) < 1e-12


@pytest.mark.parametrize("case", [1, 2])
def test_scan_reaches_maximal_violation(case):
    result = scan_max(case, resolution=64)
    assert abs(result.max_abs - MAX_VIOLATION) < 1e-4
    assert abs(abs(result.value) - result.max_abs) < 1e-15


@pytest.mark.parametrize("case", [1, 2])
def test_scan_never_exceeds_algebraic_ceiling(case):
    result = scan_max(case, resolution=32)
    assert result.max_abs <= MAX_VIOLATION + 1e-9


@pytest.mark.parametrize("resolution", [8, 12, 13, 64, 100])
@pytest.mark.parametrize("case", [1, 2])
def test_scan_result_is_consistent(case, resolution):
    # pair(x, y) = cos(x + y) for case 1 and cos(x - y) for case 2
    result = scan_max(case, resolution)
    t, tp, p, pp = result.angles
    s = 1.0 if case == 1 else -1.0
    value = np.cos(t + s * p) + np.cos(t + s * pp) - np.cos(tp + s * p) + np.cos(tp + s * pp)
    assert result.max_abs == abs(result.value)
    assert abs(value - result.value) <= 1e-12
    assert abs(result.max_abs - MAX_VIOLATION) <= 1e-4


def test_scan_resolution_validation():
    with pytest.raises(ValueError):
        scan_max(1, resolution=7)
    with pytest.raises(ValueError, match=f"resolution must be in .*, got {MAX_RESOLUTION + 1}"):
        scan_max(1, resolution=MAX_RESOLUTION + 1)
    with pytest.raises(ValueError):
        scan_max(5, resolution=64)


def test_scan_angles_reproduce_value():
    result = scan_max(1, resolution=16)
    assert abs(s_value(*result.angles) - result.value) < 1e-12


def test_restricted_functional_respects_classical_bound():
    # collapsing primed onto unprimed settings kills the violation
    rng = np.random.default_rng(17)
    for _ in range(300):
        theta, phi, phi_p = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 3)
        assert abs(s_value(theta, theta, phi, phi_p)) <= 2.0 + 1e-12


def test_dense_grid_stays_under_ceiling():
    # brute-force case-1 evaluation over a coarse 4-d grid
    grid = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    pair = np.cos(grid[:, None] + grid[None, :])
    total = (
        pair[:, None, :, None]
        + pair[:, None, None, :]
        - pair[None, :, :, None]
        + pair[None, :, None, :]
    )
    assert np.max(np.abs(total)) <= MAX_VIOLATION + 1e-12
