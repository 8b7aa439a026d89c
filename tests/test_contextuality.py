import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pathpol import contextuality
from pathpol.bench import PhaseSetting, SourceSpec
from pathpol.contextuality import (
    CASE1_SETTING,
    MAX_RESOLUTION,
    MIN_RESOLUTION,
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
    assert abs(result.max_abs - MAX_VIOLATION) <= 1e-12
    assert abs(abs(result.value) - result.max_abs) < 1e-15


@pytest.mark.parametrize("case", [1, 2])
def test_scan_never_exceeds_algebraic_ceiling(case):
    result = scan_max(case, resolution=32)
    assert result.max_abs <= MAX_VIOLATION + 1e-9


@pytest.mark.parametrize("resolution", [8, 12, 13, 24, 64, 100, 192, MAX_RESOLUTION])
@pytest.mark.parametrize("case", [1, 2])
def test_scan_result_is_consistent(case, resolution):
    # pair(x, y) = cos(x + y) for case 1 and cos(x - y) for case 2
    result = scan_max(case, resolution)
    t, tp, p, pp = result.angles
    s = 1.0 if case == 1 else -1.0
    value = np.cos(t + s * p) + np.cos(t + s * pp) - np.cos(tp + s * p) + np.cos(tp + s * pp)
    assert result.max_abs == abs(result.value)
    assert abs(value - result.value) <= 1e-12
    # the polish keeps the orientation of S that the grid stage picked, and
    # never loses ground on it
    _, grid_value = contextuality._grid_stage(case, resolution)
    assert np.sign(result.value) == np.sign(grid_value)
    assert result.max_abs >= abs(grid_value)
    assert abs(result.max_abs - MAX_VIOLATION) <= 1e-12
    assert result.max_abs <= MAX_VIOLATION + 1e-12


def test_scan_reaches_the_ceiling_at_every_resolution():
    # stride 5 from 8 takes odd R and the multiples of 8 at 8, 48, 88, ..., 248
    for resolution in range(MIN_RESOLUTION, MAX_RESOLUTION + 1, 5):
        for case in (1, 2):
            result = scan_max(case, resolution)
            assert abs(result.max_abs - MAX_VIOLATION) <= 1e-12, (case, resolution)


@pytest.mark.parametrize("resolution", [8, 24, 48, 64, 96, 128, 192, 256])
@pytest.mark.parametrize("case", [1, 2])
def test_scan_angles_are_python_floats(case, resolution):
    # at R = 24, 48, 96 and 192 the grid point wins by an ulp over the polish
    result = scan_max(case, resolution)
    assert all(type(a) is float for a in result.angles)
    assert type(result.value) is float and type(result.max_abs) is float


def _dense_grid_stage(case, resolution):
    """Brute-force R^3 grid stage: best grid angles and value of |S|."""
    grid = 2.0 * np.pi * np.arange(resolution) / resolution
    cos_grid = np.cos(grid)
    step = np.arange(resolution)
    sign = 1 if case == 1 else -1
    pair = cos_grid[(step[:, None] + sign * step[None, :]) % resolution]  # pair[i, j]
    f = pair[:, :, None] + pair[:, None, :]
    g = -pair[:, :, None] + pair[:, None, :]
    best_abs, best = -1.0, None
    for f_part, g_part, picker in (
        (f.max(axis=0), g.max(axis=0), np.argmax),
        (f.min(axis=0), g.min(axis=0), np.argmin),
    ):
        total = f_part + g_part
        i_p, i_pp = np.unravel_index(np.argmax(np.abs(total)), total.shape)
        value = float(total[i_p, i_pp])
        if abs(value) > best_abs:
            i_t, i_tp = picker(f[:, i_p, i_pp]), picker(g[:, i_p, i_pp])
            best_abs = abs(value)
            best = ((grid[i_t], grid[i_tp], grid[i_p], grid[i_pp]), value)
    return best


@pytest.mark.parametrize("resolution", [8, 12, 13, 64, 100])
@pytest.mark.parametrize("case", [1, 2])
def test_scan_grid_stage_equals_the_dense_search(case, resolution):
    angles, value = contextuality._grid_stage(case, resolution)
    dense_angles, dense_value = _dense_grid_stage(case, resolution)
    assert angles == dense_angles
    assert value == dense_value


_ANGLE = st.floats(-2.0 * np.pi, 2.0 * np.pi, allow_nan=False)


@seed(1969)
@settings(max_examples=25, deadline=None, database=None)
@given(p=_ANGLE, p_prime=_ANGLE)
def test_best_primaries_attain_the_closed_form(p, p_prime):
    half = (p_prime - p) / 2.0
    optimum = 2.0 * (abs(np.cos(half)) + abs(np.sin(half)))
    grid = 2.0 * np.pi * np.arange(64) / 64.0
    for case, func in ((1, s_value), (2, s_prime_value)):
        t, t_prime = contextuality._best_primaries(case, p, p_prime)
        value = func(t, t_prime, p, p_prime)
        assert abs(value - optimum) <= 1e-12
        s = 1.0 if case == 1 else -1.0
        f = np.cos(grid + s * p) + np.cos(grid + s * p_prime)
        g = -np.cos(grid + s * p) + np.cos(grid + s * p_prime)
        assert value >= f.max() + g.max() - 1e-12


@pytest.mark.parametrize("case", [1, 2])
def test_scan_memory_stays_quadratic(case):
    # a cubic grid at MAX_RESOLUTION would hold 128 MiB per array
    tracemalloc.start()
    try:
        scan_max(case, MAX_RESOLUTION)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


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
