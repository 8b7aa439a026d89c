"""The operator route of ``pathpol sweep`` against the ``np.kron`` model in
``reference.py``, whose input state is the documented
(A1 A2 / sqrt2)(|aVaV> - |bHbH>) and which uses no ``pathpol.tensor``, so a
fault shared by the program's tensor helpers cannot cancel out.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pathpol import bench, cli, correlations, detector, observables
from pathpol.bench import PhaseSetting, SourceSpec
from pathpol.scenario import SWEEP_VARIABLES
from reference import STAGE_FIELDS, sweep_row

TOL = 1e-12
PHASE_NAMES = ("theta1", "theta2", "phi1", "phi2")


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
@settings(max_examples=30)
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
        want_c, want_p45 = sweep_row(a1, a2, **phases)
        assert abs(c_numeric - want_c) <= TOL
        assert abs(p45 - want_p45) <= TOL
        assert abs(c_numeric + c_closed / 4.0) <= TOL
        assert abs(p45 - (1.0 - np.cos(delta)) / 2.0) <= TOL


@seed(20142)
@settings(max_examples=20)
@given(
    mags=st.tuples(st.floats(0.2, 4.0), st.floats(0.2, 4.0)),
    args=st.tuples(angles, angles),
    phases=st.lists(st.tuples(angles, angles, angles, angles), min_size=1, max_size=5),
)
def test_batched_route_equals_per_point_calls(mags, args, phases):
    # complex amplitudes; a sweep setting gives, entry by entry, the per-point values
    s1 = SourceSpec(mags[0] * np.exp(1j * args[0]), 1.0)
    s2 = SourceSpec(mags[1] * np.exp(1j * args[1]), 1.3)
    sweep = PhaseSetting(*(np.array(column) for column in zip(*phases)))
    swept = bench.run(s1, s2, sweep)
    numeric = correlations.correlation_numeric(swept)
    p45 = detector.p45_intensity(swept.output)
    for k, row in enumerate(phases):
        one = bench.run(s1, s2, PhaseSetting(*row))
        want_c, want_p45 = sweep_row(s1.amplitude, s2.amplitude, *row)
        assert abs(numeric[k] - want_c) <= TOL
        assert abs(p45[k] - want_p45) <= TOL
        assert numeric[k] == correlations.correlation_numeric(one)
        assert p45[k] == detector.p45_intensity(one.output)


# shifts of (theta1, theta2, phi1, phi2) along these directions keep delta fixed
DELTA_KEEPING = ((1, 1, 0, 0), (1, 0, -1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1), (0, 1, 0, -1))


@seed(20143)
@settings(max_examples=30)
@given(
    mags=st.tuples(st.floats(0.2, 4.0), st.floats(0.2, 4.0)),
    args=st.tuples(angles, angles),
    base=st.tuples(angles, angles, angles, angles),
    direction=st.sampled_from(DELTA_KEEPING),
    shift=angles,
)
def test_both_routes_depend_on_delta_alone(mags, args, base, direction, shift):
    s1 = SourceSpec(mags[0] * np.exp(1j * args[0]), 1.0)
    s2 = SourceSpec(mags[1] * np.exp(1j * args[1]), 1.3)
    moved = tuple(x + shift * k for x, k in zip(base, direction))
    swept = bench.run(s1, s2, PhaseSetting(*(np.array(column) for column in zip(base, moved))))
    numeric = correlations.correlation_numeric(swept)
    p45 = detector.p45_intensity(swept.output)
    closed = [correlations.correlation_closed_form(PhaseSetting(*p), s1, s2) for p in (base, moved)]
    assert abs(numeric[1] - numeric[0]) < TOL
    assert abs(p45[1] - p45[0]) < TOL
    assert abs(closed[1] - closed[0]) < TOL


def test_operator_route_never_touches_closed_form_or_delta(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the operator route reached the closed-form code")

    monkeypatch.setattr(correlations, "correlation_closed_form", forbidden)
    monkeypatch.setattr(correlations, "g2_generalized", forbidden)
    monkeypatch.setattr(PhaseSetting, "delta", property(forbidden))

    s1, s2 = SourceSpec(0.8, 1.0), SourceSpec(1.7j, 1.3)
    theta1, theta2, phi1, phi2 = np.random.default_rng(3).uniform(-np.pi, np.pi, (4, 8))
    swept = bench.run(s1, s2, PhaseSetting(theta1, theta2, phi1, phi2))
    numeric = correlations.correlation_numeric(swept)
    p45 = detector.p45_intensity(swept.output)
    assert numeric.shape == p45.shape == (8,)

    ps = PhaseSetting(theta1[0], theta2[0], phi1[0], phi2[0])
    one = bench.run(s1, s2, ps)
    assert correlations.correlation_numeric(one) == numeric[0]
    assert detector.p45_intensity(one.output) == p45[0]
    with pytest.raises(AssertionError, match="closed-form"):
        ps.delta


def test_closed_form_route_never_runs_the_bench(patch_everywhere):
    # the reverse of the test above: with no bench run to be had, every
    # closed-form function still evaluates over a sweep
    def forbidden(*args, **kwargs):
        raise AssertionError("the closed-form route ran the bench")

    for original in (bench.run, bench.phase_stage, bench.bs_prime_stage):
        patch_everywhere(original, forbidden)

    s1, s2 = SourceSpec(0.8, 1.0), SourceSpec(1.7j, 1.3)
    theta1, theta2, phi1, phi2 = np.random.default_rng(5).uniform(-np.pi, np.pi, (4, 8))
    sweep = PhaseSetting(theta1, theta2, phi1, phi2)
    closed = correlations.correlation_closed_form(sweep, s1, s2)
    g2 = correlations.g2_generalized(0, 1, 1, 0, sweep, s1, s2)
    hbt = correlations.g2_hbt(phi1, phi2, s1, s2)
    report = correlations.sum_identity(sweep, s1, s2)
    assert closed.shape == g2.shape == hbt.shape == report.ratio.shape == (8,)
    assert np.all(np.isfinite(closed) & np.isfinite(g2) & np.isfinite(hbt))
    with pytest.raises(AssertionError, match="closed-form route ran the bench"):
        bench.run(s1, s2, sweep)


magnitudes = st.floats(0.2, 4.0)
pairs = st.tuples(magnitudes, angles, magnitudes, angles, st.tuples(angles, angles, angles, angles))


@seed(20151)
@settings(max_examples=12)
@given(drawn=st.lists(pairs, min_size=1, max_size=6))
def test_a_batch_of_sources_equals_its_single_runs_bit_for_bit(drawn):
    # N drawn source pairs, as a batch at one setting and with a sweep of N:
    # every stage, the operator route and the closed form, entry k equal to
    # the single run of pair k
    a1 = np.array([m1 * np.exp(1j * x1) for m1, x1, _, _, _ in drawn])
    a2 = np.array([m2 * np.exp(1j * x2) for _, _, m2, x2, _ in drawn])
    rows = np.array([row for *_, row in drawn])
    s1, s2 = SourceSpec(a1, 1.0), SourceSpec(a2, 1.3)
    for ps, setting_of in (
        (PhaseSetting(*rows[0]), lambda k: PhaseSetting(*rows[0])),
        (PhaseSetting(*rows.T), lambda k: PhaseSetting(*rows[k])),
    ):
        batch = bench.run(s1, s2, ps)
        numeric = correlations.correlation_numeric(batch)
        closed = correlations.correlation_closed_form(ps, s1, s2)
        assert numeric.shape == closed.shape == (len(drawn),)
        for name in STAGE_FIELDS:
            assert getattr(batch, name).shape == (len(drawn), 2, 2, 2, 2)
        for k in range(len(drawn)):
            one_s1, one_s2 = SourceSpec(a1[k], 1.0), SourceSpec(a2[k], 1.3)
            one = bench.run(one_s1, one_s2, setting_of(k))
            for name in STAGE_FIELDS:
                assert np.array_equal(getattr(batch, name)[k], getattr(one, name))
            assert numeric[k] == correlations.correlation_numeric(one)
            assert closed[k] == correlations.correlation_closed_form(setting_of(k), one_s1, one_s2)


def assert_a_batch_rounds_as_its_single_entries():
    """Batch intensities, closed forms and g2 equal their single entries'.

    numpy's square and pow round apart on ~1e-3 of doubles; the pairs kept
    are ones where they do for |A1| or for I1 + I2, so a batch that squares
    where a single source takes pow cannot pass.
    """
    rng = np.random.default_rng(20152)
    mags, args = rng.uniform(0.2, 4.0, (2, 2, 40_000)), rng.uniform(-np.pi, np.pi, (2, 2, 40_000))
    a1, a2 = mags * np.exp(1j * args)
    m1, m2 = np.hypot(a1.real, a1.imag), np.hypot(a2.real, a2.imag)

    def apart(x):
        return np.square(x) != np.float_power(x, 2)

    keep = apart(m1) | apart(np.float_power(m1, 2) + np.float_power(m2, 2))
    a1, a2 = a1[keep][:40], a2[keep][:40]
    assert len(a1) == 40
    ps = PhaseSetting(0.3, -0.1, 0.7, 0.2)
    batch = SourceSpec(a1, 1.0), SourceSpec(a2, 1.3)
    closed = correlations.correlation_closed_form(ps, *batch)
    g2 = correlations.g2_generalized(1, 0, 0, 0, ps, *batch)
    for k in range(len(a1)):
        one = SourceSpec(a1[k], 1.0), SourceSpec(a2[k], 1.3)
        assert one[0].intensity == batch[0].intensity[k]
        assert one[1].intensity == batch[1].intensity[k]
        assert closed[k] == correlations.correlation_closed_form(ps, *one)
        assert g2[k] == correlations.g2_generalized(1, 0, 0, 0, ps, *one)


def test_a_batch_closed_form_rounds_as_its_single_entries():
    assert_a_batch_rounds_as_its_single_entries()


def _squared_intensity(spec):
    a = spec.amplitude
    return np.square(np.hypot(a.real, a.imag)) if isinstance(a, np.ndarray) else abs(a) ** 2


def _squared_total(s1, s2):
    i1, i2 = s1.intensity, s2.intensity
    total = i1 + i2
    return i1, i2, np.square(total) if isinstance(total, np.ndarray) else total**2


@pytest.mark.parametrize(
    "owner, name, fault",
    [
        (SourceSpec, "intensity", property(_squared_intensity)),
        (correlations, "_intensities", _squared_total),
    ],
    ids=["batch-intensity-by-square", "batch-total-by-square"],
)
def test_a_batch_that_squares_fails_the_rounding_check(monkeypatch, owner, name, fault):
    # under either fault every verify row and every digest is unchanged: this
    # check is the only one that fails
    monkeypatch.setattr(owner, name, fault)
    with pytest.raises(AssertionError):
        assert_a_batch_rounds_as_its_single_entries()


def test_a_batch_is_refused_by_name_where_one_run_is_meant():
    batch = SourceSpec(np.array([1.0, 0.5j, 2.0]), 1.0)
    one, ps = SourceSpec(0.8, 1.3), PhaseSetting(0.3, 0.1, -0.2, 0.4)
    batch_run = bench.run(batch, one, ps)
    for report in (correlations.correlation_report, observables.transfer_check):
        with pytest.raises(ValueError, match=r"single run, not a batch of s1\.amplitude$"):
            report(batch_run)
    with pytest.raises(ValueError, match=r"^s2\.amplitude must be one amplitude, not a batch$"):
        detector.autocorrelation_demo(one, batch, ps, 1000.0, 10_000)
    # a batch and a sweep of another length, in the run and the closed form
    sweep = PhaseSetting(np.zeros(2), 0.0, 0.0, 0.0)
    for call in (
        lambda: bench.run(one, batch, sweep),
        lambda: bench.run(batch, SourceSpec(np.ones(2), 1.3), ps),
        lambda: correlations.correlation_closed_form(sweep, batch, one),
        lambda: correlations.g2_generalized(0, 0, 0, 0, sweep, one, batch),
    ):
        with pytest.raises(ValueError, match=r"equal lengths, got \{'s.\.amplitude': \(3,\)"):
            call()
