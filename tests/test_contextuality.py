import re
import tracemalloc
from math import cos, ulp

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
    case2_setting,
    functional,
    pair,
    scan_max,
)
from pathpol.correlations import correlation_closed_form


def test_pair_correlation_values():
    assert pair(1, 0.0, 0.0) == 1.0
    assert abs(pair(1, np.pi / 4.0, np.pi / 4.0)) < 1e-15
    assert abs(pair(1, np.pi / 2.0, np.pi / 4.0) + np.sqrt(0.5)) < 1e-15
    assert abs(pair(2, np.pi / 4.0, 0.0) - np.sqrt(0.5)) < 1e-15
    # case 2 flips the sign of the secondary angle
    assert pair(2, np.pi / 4.0, np.pi / 4.0) == 1.0


def test_c_bar_matches_bench_correlation():
    # the case-1 pair function (the paper's C-bar) is the two-route bench
    # correlation at equal amplitudes
    s1, s2 = SourceSpec(1.0, 1.0), SourceSpec(1.0, 1.3)
    rng = np.random.default_rng(3)
    for _ in range(50):
        theta, phi = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 2)
        ps = PhaseSetting(theta, 0.0, phi, 0.0)
        assert abs(pair(1, theta, phi) - correlation_closed_form(ps, s1, s2)) < 1e-12


# the paper's S is functional(1, ...) and its S' is functional(2, ...)
def test_s_value_at_extremal_setting():
    assert abs(functional(1, *CASE1_SETTING) - MAX_VIOLATION) < 1e-12
    assert functional(1, *CASE1_SETTING) > VIOLATION_BOUND


def test_s_value_swapped_pairs_cancels():
    # feeding the primary pair into the primed slots collapses the functional
    theta, theta_p, phi, phi_p = CASE1_SETTING
    assert abs(functional(1, phi, phi_p, theta, theta_p)) < 1e-12


def test_s_value_classical_point():
    assert abs(functional(1, 0.0, np.pi / 2.0, 0.0, 0.0) - 2.0) < 1e-15


def test_s_prime_value_matches_case2_setting():
    for anchor in np.linspace(-np.pi, np.pi, 10):
        t, tp, p, pp = case2_setting(anchor)
        assert abs(functional(2, t, tp, p, pp) - MAX_VIOLATION) < 1e-12


_ANGLE = st.floats(-2.0 * np.pi, 2.0 * np.pi, allow_nan=False)


@seed(1880)
@settings(max_examples=50)
@given(t=_ANGLE, t_prime=_ANGLE, p=_ANGLE, p_prime=_ANGLE)
def test_case_2_functional_is_the_cos_difference_sum(t, t_prime, p, p_prime):
    # x + (-1)*y is x - y in IEEE arithmetic, so the fold is exact
    explicit = cos(t - p) + cos(t - p_prime) - cos(t_prime - p) + cos(t_prime - p_prime)
    assert functional(2, t, t_prime, p, p_prime) == explicit
    explicit = cos(t + p) + cos(t + p_prime) - cos(t_prime + p) + cos(t_prime + p_prime)
    assert functional(1, t, t_prime, p, p_prime) == explicit


@pytest.mark.parametrize("case", [0, 3, -1, "1"])
def test_unknown_case_is_refused(case):
    with pytest.raises(ValueError, match="case must be 1 or 2"):
        pair(case, 0.1, 0.2)
    with pytest.raises(ValueError, match="case must be 1 or 2"):
        functional(case, 0.1, 0.2, 0.3, 0.4)
    with pytest.raises(ValueError, match="case must be 1 or 2"):
        scan_max(case, 64)


@pytest.mark.parametrize("case", [1, 2])
def test_scan_reaches_maximal_violation(case):
    result = scan_max(case, resolution=64)
    assert abs(result.max_abs - MAX_VIOLATION) <= 1e-12
    assert abs(abs(functional(case, *result.angles)) - result.max_abs) < 1e-15


@pytest.mark.parametrize("case", [1, 2])
def test_scan_never_exceeds_algebraic_ceiling(case):
    # with no slack: at R = 24, 48, 96 and 192 the grid point reads an ulp
    # above 2*sqrt(2), and the scan prints the polish, which does not
    over = [
        resolution
        for resolution in range(MIN_RESOLUTION, MAX_RESOLUTION + 1)
        if not scan_max(case, resolution).max_abs <= MAX_VIOLATION
    ]
    assert over == []


_RESOLUTION_REFUSAL = f"resolution must be an integer in [{MIN_RESOLUTION}, {MAX_RESOLUTION}], got "


@pytest.mark.parametrize("resolution", [64.0, 64.5, True, "64", None])
def test_scan_refuses_a_non_integer_resolution(resolution):
    # 64.0 and 64.5 pass the range check and used to fail as grid indices
    with pytest.raises(ValueError, match=f"^{re.escape(_RESOLUTION_REFUSAL)}{resolution!r}$"):
        scan_max(1, resolution)


@pytest.mark.parametrize("case", [1, 2])
def test_scan_takes_a_numpy_integer_resolution(case):
    assert scan_max(case, np.int64(64)) == scan_max(case, 64)


@pytest.mark.parametrize("resolution", [8, 12, 13, 24, 64, 100, 192, MAX_RESOLUTION])
@pytest.mark.parametrize("case", [1, 2])
def test_scan_result_is_consistent(case, resolution):
    # pair(x, y) = cos(x + y) for case 1 and cos(x - y) for case 2
    result = scan_max(case, resolution)
    t, tp, p, pp = result.angles
    s = 1.0 if case == 1 else -1.0
    value = np.cos(t + s * p) + np.cos(t + s * pp) - np.cos(tp + s * p) + np.cos(tp + s * pp)
    signed = functional(case, *result.angles)
    assert result.max_abs == abs(signed)
    assert abs(value - signed) <= 1e-12
    # the polish keeps the orientation of S that the grid stage picked, and
    # never reads more than 4 ulp below it: where R is a multiple of 4 the
    # grid point is the optimum up to rounding (4 ulp is the widest gap, case
    # 1 at R = 24, 48, 96 and 192), and elsewhere the polish gains on it
    _, grid_value = contextuality._grid_stage(case, resolution)
    assert np.sign(signed) == np.sign(grid_value)
    assert result.max_abs >= abs(grid_value) - 4 * ulp(MAX_VIOLATION)
    assert abs(result.max_abs - MAX_VIOLATION) <= 1e-12
    assert result.max_abs <= MAX_VIOLATION


def test_scan_reaches_the_ceiling_at_every_resolution():
    # stride 5 from 8 takes odd R and the multiples of 8 at 8, 48, 88, ..., 248
    for resolution in range(MIN_RESOLUTION, MAX_RESOLUTION + 1, 5):
        for case in (1, 2):
            result = scan_max(case, resolution)
            assert abs(result.max_abs - MAX_VIOLATION) <= 1e-12, (case, resolution)


@pytest.mark.parametrize("resolution", [8, 24, 48, 64, 96, 128, 192, 256])
@pytest.mark.parametrize("case", [1, 2])
def test_scan_angles_are_python_floats(case, resolution):
    # the polish's angles, at R where it moves p' and where it does not
    result = scan_max(case, resolution)
    assert all(type(a) is float for a in result.angles)
    assert type(result.max_abs) is float


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
    # the grid stage returns the dense search's p' and value; its p is the
    # grid's first point, which the polish takes as given
    (_, _, dense_p, dense_p_prime), dense_value = _dense_grid_stage(case, resolution)
    assert dense_p == 0.0
    assert contextuality._grid_stage(case, resolution) == (dense_p_prime, dense_value)


def _quadratic_tables(case, resolution):
    """The grid and the R x R tables h_f[a, d] and h_g[a, d]: every secondary
    difference d tabulated."""
    step = np.arange(resolution)
    grid = 2.0 * np.pi * step / resolution
    cos_grid = np.cos(grid)
    sign = 1 if case == 1 else -1
    shifted = cos_grid[(step[:, None] + sign * step[None, :]) % resolution]  # [a, d]
    return grid, cos_grid[:, None] + shifted, -cos_grid[:, None] + shifted


def _quadratic_grid_stage(case, resolution):
    """The R x R grid stage."""
    grid, h_f, h_g = _quadratic_tables(case, resolution)
    best_abs, best = -1.0, None
    for f_part, g_part, picker in (
        (h_f.max(axis=0), h_g.max(axis=0), np.argmax),
        (h_f.min(axis=0), h_g.min(axis=0), np.argmin),
    ):
        total = f_part + g_part
        d = int(np.argmax(np.abs(total)))
        value = float(total[d])
        if abs(value) > best_abs:
            i_t, i_tp = int(picker(h_f[:, d])), int(picker(h_g[:, d]))
            best_abs = abs(value)
            best = (tuple(float(grid[i]) for i in (i_t, i_tp, 0, d)), value)
    return best


def _bits(*values):
    # float.hex tells -0.0 from 0.0 and every ulp apart
    return tuple(float.hex(x) for x in values)


def _scan_bits(result):
    return _bits(*result.angles, result.max_abs)


def test_pruned_grid_stage_equals_the_quadratic_search_on_the_whole_domain(monkeypatch):
    domain = [
        (case, resolution)
        for resolution in range(MIN_RESOLUTION, MAX_RESOLUTION + 1)
        for case in (1, 2)
    ]
    grid = {key: contextuality._grid_stage(*key) for key in domain}
    scan = {key: _scan_bits(scan_max(*key)) for key in domain}
    # the quadratic search's p' and value, the part of its point the polish reads
    quadratic = {}
    for key in domain:
        (_, _, p, p_prime), value = _quadratic_grid_stage(*key)
        assert p == 0.0
        quadratic[key] = (p_prime, value)
    monkeypatch.setattr(contextuality, "_grid_stage", lambda *key: quadratic[key])
    mismatches = [
        key
        for key in domain
        if _bits(*grid[key]) != _bits(*quadratic[key]) or scan[key] != _scan_bits(scan_max(*key))
    ]
    assert len(domain) == 498
    assert mismatches == []


def test_pruned_grid_stage_skips_only_points_that_lose_by_a_margin():
    # _grid_stage evaluates the columns d within one step of R//4 and 3R//4
    # and, on each, the floor point of every peak (4a = Q - 2*s*d with Q = 0,
    # 2R for h_f and R, 3R for h_g) and the point after it. Everything else
    # loses: a skipped column to the winner, a skipped point to its column's
    # maximum and minimum. Measured least margins: 3.2e-4 for a column (case
    # 1, R = 255) and 4.2e-4 for a point (case 1, R = 255, d = 190)
    column_margins, point_margins = [], []
    for resolution in range(MIN_RESOLUTION, MAX_RESOLUTION + 1):
        for case in (1, 2):
            _, h_f, h_g = _quadratic_tables(case, resolution)
            sign = 1 if case == 1 else -1
            totals = np.abs([h_f.max(axis=0) + h_g.max(axis=0), h_f.min(axis=0) + h_g.min(axis=0)])
            quarters = (resolution // 4, 3 * resolution // 4)
            kept = np.array(sorted({(q + k) % resolution for q in quarters for k in (-1, 0, 1)}))
            skipped = np.delete(totals, kept, axis=1)
            column_margins.append((totals.max() - skipped.max(), case, resolution))
            for table, places in ((h_f, (0, 2)), (h_g, (1, 3))):
                columns = table[:, kept]  # [a, kept column]
                skip = np.ones(columns.shape, dtype=bool)
                for q in places:
                    floor = (q * resolution - 2 * sign * kept) // 4
                    skip[floor % resolution, range(kept.size)] = False
                    skip[(floor + 1) % resolution, range(kept.size)] = False
                margin = np.minimum(
                    columns.max(axis=0) - np.where(skip, columns, -np.inf).max(axis=0),
                    np.where(skip, columns, np.inf).min(axis=0) - columns.min(axis=0),
                )
                point_margins.append((margin.min(), case, resolution, int(kept[margin.argmin()])))
    assert min(column_margins)[0] >= 1e-4, min(column_margins)
    assert min(point_margins)[0] >= 1e-4, min(point_margins)


@seed(1969)
@settings(max_examples=25)
@given(p=_ANGLE, p_prime=_ANGLE)
def test_best_primaries_attain_the_closed_form(p, p_prime):
    half = (p_prime - p) / 2.0
    optimum = 2.0 * (abs(np.cos(half)) + abs(np.sin(half)))
    grid = 2.0 * np.pi * np.arange(64) / 64.0
    for case in (1, 2):
        t, t_prime = contextuality._best_primaries(case, p, p_prime)
        value = functional(case, t, t_prime, p, p_prime)
        assert abs(value - optimum) <= 1e-12
        s = 1.0 if case == 1 else -1.0
        f = np.cos(grid + s * p) + np.cos(grid + s * p_prime)
        g = -np.cos(grid + s * p) + np.cos(grid + s * p_prime)
        assert value >= f.max() + g.max() - 1e-12


@pytest.mark.parametrize("case", [1, 2])
def test_scan_memory_stays_linear(case):
    # the grid stage holds one R-point cosine table, as a two-period list
    # (a ~12 KiB peak); (R, 10) tables read ~90 KiB and (R, R) ones 1.6 MiB
    tracemalloc.start()
    try:
        scan_max(case, MAX_RESOLUTION)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**10


def test_scan_resolution_validation():
    with pytest.raises(ValueError, match=f"^{re.escape(_RESOLUTION_REFUSAL)}7$"):
        scan_max(1, resolution=7)
    with pytest.raises(ValueError, match=f"^{re.escape(_RESOLUTION_REFUSAL)}{MAX_RESOLUTION + 1}$"):
        scan_max(1, resolution=MAX_RESOLUTION + 1)
    with pytest.raises(ValueError, match="^case must be 1 or 2, got 5$"):
        scan_max(5, resolution=64)


def test_scan_angles_reproduce_value():
    result = scan_max(1, resolution=16)
    assert abs(abs(functional(1, *result.angles)) - result.max_abs) < 1e-12


def test_restricted_functional_respects_classical_bound():
    # collapsing primed onto unprimed settings kills the violation
    rng = np.random.default_rng(17)
    for _ in range(300):
        theta, phi, phi_p = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 3)
        assert abs(functional(1, theta, theta, phi, phi_p)) <= 2.0 + 1e-12


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
