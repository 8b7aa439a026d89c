"""One-shot verification suite: every acceptance check, one row each.

This module is the one home of the package's guarantees. Each row name
(``pipeline-golden-states``, ``hbt-reduction``, ...) identifies one
guarantee, and its oracle and tolerance are defined here only; the test
suite's acceptance gate asserts the rows by name instead of re-deriving
them.

Rows carry one of three statuses, each set by ``_row``. ``pass``/``fail``
report ordinary checks against tolerances. ``discrepancy-logged`` rows
cover the cross-route comparisons whose functional form must hold exactly
while the two routes differ by a constant, amplitude-independent scale;
both constants are printed and the row only turns into ``fail`` when the
functional form or the constancy breaks. Fixed-source rows use the default
pair, ``Scenario().sources()``; a seed gives a byte-identical report.

The randomized checks draw all their instances first, one generator call
per field in a fixed order, then evaluate the operator route for every
instance in one bench run of a sweep and a batch of sources (seven
``bench.run`` calls per verify); the oracles they are compared with are
written out independently and never share its intermediate results.

The property suite checks its 16-dim operator identities without building a
16x16 matrix: both sides act, slot by slot, on one random unit probe state
per instance. A nonzero A - B annihilates only the vectors of its kernel, a
proper subspace of measure zero, so a probe drawn from a continuous
distribution exposes it almost surely (Freivalds' check). The probes come
from a child of the verify seed, so the rows' own draws never move.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import cos, isnan, nan, pi, sqrt

import numpy as np

from . import bench, contextuality, correlations, detector, elements, observables
from .bench import PhaseSetting, SourceSpec
from .observables import BRANCHES, sigma
from .scenario import Scenario, phase_setting_for
from .tensor import DIM, STATE_SHAPE, apply_factors, basis_state, dagger, matmul2, norms_squared

PASS = "pass"
FAIL = "fail"
LOGGED = "discrepancy-logged"

_TOL = 1e-12
_GRID = 2.0 * pi * np.arange(64) / 64.0
# theta1 carries delta; the other three phases keep these values
_DELTA_BASE = PhaseSetting(0.0, 0.15, -0.4, 0.2)
_DELTA_SETTINGS = phase_setting_for("delta", _GRID, _DELTA_BASE)


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    status: str
    measured: float
    expected: float
    tolerance: float
    note: str = ""


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    checks: tuple[VerifyCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != FAIL for c in self.checks)


def _row(
    name: str,
    ok: bool,
    measured: float,
    expected: float = 0.0,
    tol: float = _TOL,
    note: str = "",
    logged: bool = False,
) -> VerifyCheck:
    """A row that fails unless ``ok``; a logged row otherwise reads LOGGED."""
    status = FAIL if not ok else LOGGED if logged else PASS
    return VerifyCheck(name, status, measured, expected, tol, note)


def _random_amplitudes(rng: np.random.Generator, count: int = 1) -> np.ndarray:
    """A1 and A2 of ``count`` random source pairs, one row each: |A| in
    [0.5, 1.5], any phase."""
    mags = rng.uniform(0.5, 1.5, (count, 2))
    args = rng.uniform(-pi, pi, (count, 2))
    return mags * np.exp(1j * args)


def _source_pair(a1: complex | np.ndarray, a2: complex | np.ndarray) -> tuple[SourceSpec, ...]:
    return SourceSpec(a1, detector.DEFAULT_OMEGA_1), SourceSpec(a2, detector.DEFAULT_OMEGA_2)


def _random_sources(rng: np.random.Generator) -> tuple[SourceSpec, SourceSpec]:
    return _source_pair(*_random_amplitudes(rng)[0])


def _random_phases(rng: np.random.Generator, count: int = 1) -> np.ndarray:
    """theta1, theta2, phi1 and phi2 of ``count`` random settings, one row each."""
    return rng.uniform(-2.0 * pi, 2.0 * pi, (count, 4))


def _amplitudes(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A1 and A2 of each drawn pair (one row each), and the norm |A1 A2|^2
    every stage must keep."""
    a1, a2 = np.transpose(pairs)
    # rounded as the scalar (abs(x) * abs(y)) ** 2 of each pair rounds, which
    # the report's printed deviations from this norm keep: a numpy complex's
    # abs is the hypot of its parts and a float's ** 2 is pow, where np.abs
    # and np.square of an array may round apart
    product = np.hypot(a1.real, a1.imag) * np.hypot(a2.real, a2.imag)
    return a1, a2, np.float_power(product, 2)


def _max_abs(x: np.ndarray) -> float:
    # an empty stack (no instance drew that case) has nothing to violate
    return float(np.abs(x).max(initial=0.0))


def _worst(*deviations: float) -> float:
    # a NaN anywhere reaches the row (max(0.0, nan) alone is 0.0), and of
    # equal values (0.0 and -0.0) the last wins, where np.max's tie between
    # them depends on the SIMD loop numpy dispatches
    return nan if any(map(isnan, deviations)) else float(max(reversed(deviations)))


def _check_ghz_closed_form() -> VerifyCheck:
    s1, s2 = Scenario().sources()
    ps = _DELTA_SETTINGS
    ref = np.cos(ps.theta1 - ps.theta2 + ps.phi1 - ps.phi2)
    worst = _max_abs(correlations.correlation_closed_form(ps, s1, s2) - ref)
    at_zero = correlations.correlation_closed_form(PhaseSetting(0, 0, 0, 0), s1, s2)
    at_pi = correlations.correlation_closed_form(PhaseSetting(pi, 0, 0, 0), s1, s2)
    exact = at_zero == 1.0 and at_pi == -1.0
    note = f"extremes {at_zero:+.1f}/{at_pi:+.1f} exact={exact}"
    return _row("ghz-correlation-closed-form", worst <= _TOL and exact, worst, note=note)


def _check_hbt_reduction() -> VerifyCheck:
    s1, s2 = Scenario().sources()
    theta1, theta2 = 0.37, 0.11
    ps = PhaseSetting(theta1, theta2, _GRID + 0.25, 0.25)
    g2 = correlations.g2_generalized(0, 0, 0, 0, ps, s1, s2)
    ref = 1.0 - 0.5 * np.cos(_GRID + (theta1 - theta2))
    shifted = PhaseSetting(theta1, theta2, _GRID + 0.25 + 1.7, 0.25 + 1.7)
    worst = _worst(
        _max_abs(g2 - ref),
        _max_abs(g2 - correlations.g2_generalized(0, 0, 0, 0, shifted, s1, s2)),
    )
    values = correlations.g2_generalized(0, 0, 0, 0, PhaseSetting(_GRID, 0.0, 0.0, 0.0), s1, s2)
    lo, hi = values.min(), values.max()
    range_exact = lo == 0.5 and hi == 1.5
    note = f"range [{lo:.1f}, {hi:.1f}] exact={range_exact}"
    return _row("hbt-reduction", worst <= _TOL and range_exact, worst, note=note)


def _check_noncontextuality(rng: np.random.Generator) -> VerifyCheck:
    target = contextuality.MAX_VIOLATION
    dev_case1 = abs(contextuality.functional(1, *contextuality.CASE1_SETTING) - target)
    dev_case2 = 0.0
    for anchor in rng.uniform(-pi, pi, 10):
        value = contextuality.functional(2, *contextuality.case2_setting(float(anchor)))
        dev_case2 = _worst(dev_case2, abs(value - target))
    scan1 = contextuality.scan_max(1, 64)
    scan2 = contextuality.scan_max(2, 64)
    dev_scan = _worst(abs(scan1.max_abs - target), abs(scan2.max_abs - target))
    setting_dev = _worst(dev_case1, dev_case2)
    ok = setting_dev <= _TOL and dev_scan <= _TOL
    note = f"scan max dev {dev_scan:.3e} (tol {_TOL:.0e})"
    return _row("noncontextuality-violations", ok, setting_dev, note=note)


def _check_detection_law(delta_run: bench.BenchRun) -> VerifyCheck:
    worst = _max_abs(detector.p45_intensity(delta_run.output) - 0.5 * (1.0 - np.cos(_GRID)))
    return _row("detection-law-45deg", worst <= _TOL, worst)


def _relative_phase(ps: PhaseSetting) -> np.ndarray:
    return np.exp(1j * (ps.theta1 + ps.phi1)) * np.exp(-1j * (ps.theta2 + ps.phi2))


def _literal_prestate(a1, a2, ps: PhaseSetting) -> np.ndarray:
    """(A1 A2 / sqrt2)(|aVaV> - e^{i delta}|bHbH>), one row per entry."""
    n = a1 * a2 / sqrt(2.0)
    rel = _relative_phase(ps)
    return n[:, None] * (basis_state(0, 0, 0, 0) - rel[:, None] * basis_state(1, 1, 1, 1))


def _literal_poststate(a1, a2, ps: PhaseSetting) -> np.ndarray:
    """The literal prestate after the second splitter, one row per entry."""
    n = a1 * a2 / sqrt(2.0)
    rel = _relative_phase(ps)
    plus_branch = 0.5 * (
        basis_state(0, 0, 0, 0)
        + basis_state(0, 0, 1, 0)
        + basis_state(1, 0, 0, 0)
        + basis_state(1, 0, 1, 0)
    )
    minus_branch = 0.5 * (
        basis_state(0, 1, 0, 1)
        - basis_state(0, 1, 1, 1)
        - basis_state(1, 1, 0, 1)
        + basis_state(1, 1, 1, 1)
    )
    return n[:, None] * (plus_branch - rel[:, None] * minus_branch)


def _check_pipeline_goldens(rng: np.random.Generator) -> VerifyCheck:
    # every other instance keeps the unit sources
    pairs = np.empty((100, 2), dtype=complex)
    pairs[0::2] = [s.amplitude for s in Scenario().sources()]
    pairs[1::2] = _random_amplitudes(rng, 50)
    rows = _random_phases(rng, 100)
    a1, a2, target = _amplitudes(pairs)
    ps = PhaseSetting(*np.transpose(rows))

    batch = bench.run(*_source_pair(a1, a2), ps)
    pre = batch.phased.reshape(len(rows), DIM)
    post = batch.output.reshape(len(rows), DIM)
    want_pre = _literal_prestate(a1, a2, ps)
    want_post = _literal_poststate(a1, a2, ps)
    worst = _worst(
        _max_abs(pre - want_pre),
        _max_abs(post - want_post),
        _max_abs(norms_squared(post) - target),
    )

    aa = detector.project_aa(batch.output)
    phase_n = a1 * a2
    phase_n = phase_n / np.abs(phase_n)
    pol_shape = np.zeros((len(rows), 4), dtype=complex)  # VV, VH, HV, HH
    pol_shape[:, 0], pol_shape[:, 3] = 1.0, -_relative_phase(ps)
    expected_unit = (phase_n / sqrt(2.0))[:, None] * pol_shape
    worst = _worst(
        worst,
        _max_abs(aa.branch_fraction - 0.25),
        _max_abs(aa.pol_unit - expected_unit),
        _max_abs(np.exp(1j * aa.delta) - np.exp(1j * ps.delta)),
    )
    # the single-setting run a caller makes, on a unit- and a random-source instance
    for k in (0, 1):
        one = bench.run(*_source_pair(*pairs[k]), PhaseSetting(*rows[k]))
        worst = _worst(
            worst,
            _max_abs(one.phased.reshape(DIM) - want_pre[k]),
            _max_abs(one.output.reshape(DIM) - want_post[k]),
            _max_abs(detector.project_aa(one.output).pol_unit - expected_unit[k]),
        )
    return _row("pipeline-golden-states", worst <= _TOL, worst)


def _probes(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` random unit states, one per instance: normalized complex
    Gaussian vectors, so uniform on the 16-dim unit sphere."""
    real, imag = rng.standard_normal((2, count, DIM))
    z = real + 1j * imag
    z /= np.sqrt(norms_squared(z))[:, None]
    return z.reshape((count,) + STATE_SHAPE)


def _check_property_suite(
    rng: np.random.Generator, probe_rng: np.random.Generator
) -> VerifyCheck:
    # every random instance first, one draw per field; the probe states come
    # from their own generator, so they never move a later row's draws
    x = rng.uniform(-2.0 * pi, 2.0 * pi, 100)
    advance = (rng.integers(0, 2, 100) == 0)[:, None]
    ps = PhaseSetting(*np.transpose(_random_phases(rng, 100)))
    sources = rng.integers(1, 3, 100)
    dofs = np.where(rng.integers(0, 2, 100) == 0, "path", "pol")
    branches = np.array(BRANCHES)[rng.integers(0, 3, 100)]
    pairs = _random_amplitudes(rng, 100)

    worst_unitary = 0.0
    for m in (elements.beam_splitter(), elements.pol_swap()):
        resid = matmul2(dagger(m), m) - np.eye(2)
        worst_unitary = _worst(worst_unitary, _max_abs(resid))
    # each plate is the diagonal phase_diagonal gives the bench, either sign
    plates = np.where(advance, elements.phase_diagonal(x, 1), elements.phase_diagonal(x, -1))
    worst_unitary = _worst(worst_unitary, _max_abs(plates.conj() * plates - 1.0))
    # every phase-stage core is diagonal, so the stage applied to the
    # all-ones tensor is its 16-dim diagonal, which must have unit modulus
    diagonal = bench.phase_stage(np.ones(STATE_SHAPE), ps)
    worst_unitary = _worst(worst_unitary, _max_abs(diagonal.conj() * diagonal - 1.0))

    # the 2x2 cores every observable applies, each source with its own sense
    eye = np.eye(2)
    worst_proj = 0.0
    for source in (1, 2):
        full, plus, minus = (sigma(source, "pol", x[sources == source], b)[0] for b in BRANCHES)
        worst_proj = _worst(
            worst_proj,
            _max_abs(matmul2(full, full) - eye),
            _max_abs(matmul2(plus, plus) - plus),
            _max_abs(matmul2(plus, minus)),
            _max_abs(plus + minus - eye),
        )
    # products of factors on several slots need the 16-dim action: each
    # source's intensity projector, then cross-source commutation. Both
    # sides of each identity act, as the operator route acts, on one random
    # probe state per instance (Freivalds' check; see the module docstring)
    probes = _probes(probe_rng, len(x))
    plus = [(s, sigma(s, dof, angle, "plus")) for s, dof, angle in ps.plates()]
    i1, i2 = ([f for s, f in plus if s == source] for source in (1, 2))
    i1_probe, i2_probe = apply_factors(probes, i1), apply_factors(probes, i2)
    worst_proj = _worst(
        worst_proj,
        _max_abs(apply_factors(i1_probe, i1) - i1_probe),
        _max_abs(apply_factors(i2_probe, i2) - i2_probe),
    )

    worst_comm = _max_abs(apply_factors(i2_probe, i1) - apply_factors(i1_probe, i2))
    other = {"path": "pol", "pol": "path"}
    for dof, branch in product(other, BRANCHES):
        rows = (dofs == dof) & (branches == branch)
        a = [sigma(1, dof, x[rows], branch)]
        b = [sigma(2, other[dof], -1.3 * x[rows])]
        probe = probes[rows]
        worst_comm = _worst(
            worst_comm, _max_abs(apply_factors(probe, a + b) - apply_factors(probe, b + a))
        )

    a1, a2, target = _amplitudes(pairs)
    batch = bench.run(*_source_pair(a1, a2), ps)
    stages = (batch.source, batch.post_bs, batch.input, batch.phased, batch.output)
    worst_norm = _worst(
        *(_max_abs(norms_squared(stage.reshape(len(pairs), DIM)) - target) for stage in stages)
    )

    worst = _worst(worst_unitary, worst_proj, worst_comm, worst_norm)
    note = (
        f"unitarity {worst_unitary:.2e} projectors {worst_proj:.2e} "
        f"commutation {worst_comm:.2e} norms {worst_norm:.2e}"
    )
    return _row("algebraic-property-suite", worst <= _TOL, worst, note=note)


def _check_sigma_route(rng: np.random.Generator, delta_run: bench.BenchRun) -> VerifyCheck:
    values = correlations.correlation_numeric(delta_run)
    kappa, resid = correlations.fit_scaled_cosine(_GRID, values)

    # six source pairs, one draw each, as one batch at one probe setting
    ra, rb = _source_pair(*np.concatenate([_random_amplitudes(rng) for _ in range(6)]).T)
    probe = phase_setting_for("delta", 0.9, _DELTA_BASE)
    ratio = correlations.correlation_numeric(bench.run(ra, rb, probe)) / (
        correlations.correlation_closed_form(probe, ra, rb)
    )
    dev = _max_abs(ratio - (-0.25))

    ok = resid <= 1e-10 and dev <= 1e-10
    note = f"fit residual {resid:.2e}; ratio -1/4 across amplitudes (max dev {dev:.2e})"
    return _row("sigma-route-vs-closed-form", ok, kappa, 1.0, 1e-10, note, logged=True)


def _check_signed_sum(rng: np.random.Generator) -> VerifyCheck:
    s1, s2 = _random_sources(rng)
    ratios = correlations.sum_identity(_DELTA_SETTINGS, s1, s2).ratio
    ratios = ratios[np.abs(np.cos(_GRID)) >= correlations.COSINE_GUARD]
    mean = float(ratios.mean())
    dev = float(np.abs(ratios - mean).max())
    # the constant itself is documented: a constant ratio alone is not enough
    ok = dev <= 1e-10 and abs(mean - (-8.0)) <= 1e-10
    note = f"signed 16-term sum = {mean:.12g} x closed form (ratio spread {dev:.2e})"
    return _row("signed-sum-vs-closed-form", ok, mean, 1.0, 1e-10, note, logged=True)


def _check_transfer_chain(rng: np.random.Generator) -> VerifyCheck:
    s1, s2 = _random_sources(rng)
    ps = PhaseSetting(*_random_phases(rng)[0])
    report = observables.transfer_check(bench.run(s1, s2, ps))
    i1, i2 = s1.intensity, s2.intensity
    formula = 2.0 * i1 * i2 * (1.0 - cos(ps.delta)) / (i1 + i2) ** 2
    ok = report.max_difference <= _TOL and report.conjugation_residual <= _TOL
    note = (
        f"brackets {report.value_symmetrized:.12g} / {report.value_prestate:.12g} "
        f"/ {report.value_final:.12g} (max gap {report.max_difference:.2e}); "
        f"formula route {formula:.12g}"
    )
    measured = report.value_symmetrized
    return _row("transfer-bracket-chain", ok, measured, formula, note=note, logged=True)


def _sampled_total(
    s1: SourceSpec, s2: SourceSpec, ps: PhaseSetting, window: float, samples: int
) -> float:
    """One setting's windowed integral the direct way: the intensity
    I1 + I2 + 2|c| cos((omega1 - omega2) t + arg c) sampled on the time grid,
    squared, and integrated by numpy's trapezoid rule."""
    u1, u2 = detector.detector_amplitudes(ps)
    e1, e2 = s1.amplitude * u1, s2.amplitude * u2
    c = e1 * np.conj(e2)
    times = np.linspace(0.0, window, samples)
    beat = 2.0 * abs(c) * np.cos((s1.omega - s2.omega) * times + np.angle(c))
    return float(np.trapezoid((abs(e1) ** 2 + abs(e2) ** 2 + beat) ** 2, times))


def _check_autocorrelation() -> VerifyCheck:
    s1, s2 = Scenario().sources()
    beat = abs(s1.omega - s2.omega)
    ps = PhaseSetting(0.7, 0.2, 0.4, -0.3)

    window = 1000.0 / beat
    base = detector.autocorrelation_demo(s1, s2, ps, window, 10_000)
    # the kernel sums the trapezoid rule in closed form; sampling the same
    # grid must give the same total to rounding
    sampled = _sampled_total(s1, s2, ps, window, base.samples)
    sampled_gap = abs(base.total - sampled) / sampled

    # windows sized to an odd number of beat half-periods: the surviving
    # endpoint contribution of the slowest term is then window-independent,
    # so the relative residual halves when the window (nearly) doubles
    residuals = [
        detector.autocorrelation_demo(s1, s2, ps, m * pi / beat, n).residual
        for m, n in ((317, 20_001), (635, 40_064), (1271, 80_191))
    ]
    ratio_a = residuals[1] / residuals[0]
    ratio_b = residuals[2] / residuals[1]
    halving = 0.4 <= ratio_a <= 0.6 and 0.4 <= ratio_b <= 0.6

    # whole-beat window kills every oscillatory term in the trapezoid sum,
    # leaving the pure cos(delta) law of the cross term
    fit_window = 2.0 * pi * 160 / beat
    deltas = 2.0 * pi * np.arange(16) / 16.0
    sweep = phase_setting_for("delta", deltas, ps)
    cross = detector.autocorrelation_demo(s1, s2, sweep, fit_window, 10_000).cross_measured
    coeffs, fit_resid = correlations.fit_sinusoid(deltas, cross)
    amplitude = float(np.hypot(coeffs[1], coeffs[2]))
    fit_ok = fit_resid <= 1e-12 * amplitude

    ok = base.residual <= 1e-2 and halving and fit_ok and sampled_gap <= 1e-13
    note = (
        f"residual ratios {ratio_a:.3f}, {ratio_b:.3f}; "
        f"cos-fit residual {fit_resid / amplitude:.2e} of amplitude; "
        f"sampled-total gap {sampled_gap:.2e}"
    )
    return _row("autocorrelation-averaging", ok, base.residual, tol=1e-2, note=note)


def run_verify(seed: int = 0) -> VerifyReport:
    """Run every acceptance check once and collect the rows."""
    # the same stream as default_rng(seed); its first child draws the probes
    seeds = np.random.SeedSequence(seed)
    rng = np.random.default_rng(seeds)
    (probe_seeds,) = seeds.spawn(1)
    # one run of the default sources over the delta grid: the detection law
    # reads its output stage, the sigma route its input
    delta_run = bench.run(*Scenario().sources(), _DELTA_SETTINGS)
    checks = (
        _check_ghz_closed_form(),
        _check_hbt_reduction(),
        _check_noncontextuality(rng),
        _check_detection_law(delta_run),
        _check_pipeline_goldens(rng),
        _check_property_suite(rng, np.random.default_rng(probe_seeds)),
        _check_sigma_route(rng, delta_run),
        _check_signed_sum(rng),
        _check_transfer_chain(rng),
        _check_autocorrelation(),
    )
    return VerifyReport(seed, checks)


def format_report(report: VerifyReport) -> str:
    lines = [f"verify (seed {report.seed})"]
    name_w = max(len(c.name) for c in report.checks)
    for c in report.checks:
        lines.append(
            f"  {c.name:<{name_w}}  {c.status:<19} "
            f"measured {c.measured: .12e}  expected {c.expected: .12e}  "
            f"tol {c.tolerance:.0e}"
        )
        if c.note:
            lines.append(f"  {'':<{name_w}}  {c.note}")
    n_fail = sum(1 for c in report.checks if c.status == FAIL)
    n_logged = sum(1 for c in report.checks if c.status == LOGGED)
    verdict = "PASS" if report.ok else "FAIL"
    lines.append(
        f"result: {verdict} ({len(report.checks)} checks, "
        f"{n_logged} discrepancies logged, {n_fail} failures)"
    )
    return "\n".join(lines)
