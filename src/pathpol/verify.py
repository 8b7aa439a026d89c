"""One-shot verification suite: every acceptance check, one row each.

This module is the one home of the package's guarantees. Each row name
(``pipeline-golden-states``, ``hbt-reduction``, ...) identifies one
guarantee, and its oracle and tolerance are defined here only; the test
suite's acceptance gate asserts the rows by name instead of re-deriving
them.

Rows carry one of three statuses. ``pass``/``fail`` report ordinary checks
against tolerances. ``discrepancy-logged`` rows cover the cross-route
comparisons whose functional form must hold exactly while the two routes
differ by a constant, amplitude-independent scale; both constants are
printed and the row only turns into ``fail`` when the functional form or
the constancy itself breaks. Given the same seed the report is
byte-identical across runs.

The randomized checks draw all their instances first, in a fixed order,
then evaluate the operator route for every instance in one batched pass of
slot-local stacks; the oracles they are compared with are written out
independently and never share its intermediate results.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import cos, pi, sqrt

import numpy as np

from . import bench, contextuality, correlations, detector, elements, observables
from .bench import BenchState, PhaseSetting, SourceSpec, Stage
from .observables import BRANCHES, sigma
from .scenario import phase_setting_for
from .tensor import DIM, STATE_SHAPE, apply_factors, basis_state, dagger, norms_squared

PASS = "pass"
FAIL = "fail"
LOGGED = "discrepancy-logged"

_TOL = 1e-12
_GRID = 2.0 * pi * np.arange(64) / 64.0
# theta1 carries delta; the other three phases keep these values
_DELTA_BASE = PhaseSetting(0.0, 0.15, -0.4, 0.2)
_DELTA_SETTINGS = phase_setting_for("delta", _GRID, _DELTA_BASE)
# the 16 basis tensors, with an axis for the instances of an operator stack
_BASIS = np.eye(DIM, dtype=complex).reshape((DIM, 1) + STATE_SHAPE)


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


def _unit_sources() -> tuple[SourceSpec, SourceSpec]:
    return (
        SourceSpec(1.0, detector.DEFAULT_OMEGA_1),
        SourceSpec(1.0, detector.DEFAULT_OMEGA_2),
    )


def _random_sources(rng: np.random.Generator) -> tuple[SourceSpec, SourceSpec]:
    mags = rng.uniform(0.5, 1.5, 2)
    args = rng.uniform(-pi, pi, 2)
    return (
        SourceSpec(mags[0] * np.exp(1j * args[0]), detector.DEFAULT_OMEGA_1),
        SourceSpec(mags[1] * np.exp(1j * args[1]), detector.DEFAULT_OMEGA_2),
    )


def _random_phases(rng: np.random.Generator) -> np.ndarray:
    """theta1, theta2, phi1 and phi2 of one random setting."""
    return rng.uniform(-2.0 * pi, 2.0 * pi, 4)


def _amplitudes(
    sources: list[tuple[SourceSpec, SourceSpec]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A1 and A2 as arrays, and the norm |A1 A2|^2 every stage must keep."""
    return (
        np.array([s1.amplitude for s1, _ in sources], dtype=complex),
        np.array([s2.amplitude for _, s2 in sources], dtype=complex),
        np.array([(abs(s1.amplitude) * abs(s2.amplitude)) ** 2 for s1, s2 in sources]),
    )


def _max_abs(x: np.ndarray) -> float:
    # an empty stack (no instance drew that case) has nothing to violate
    return float(np.max(np.abs(x), initial=0.0))


def _worst(*deviations: float) -> float:
    # np.max, not max: max(0.0, nan) is 0.0, and a NaN must reach the row
    return float(np.max(deviations))


def _check_ghz_closed_form() -> VerifyCheck:
    s1, s2 = _unit_sources()
    ps = _DELTA_SETTINGS
    ref = np.cos(ps.theta1 - ps.theta2 + ps.phi1 - ps.phi2)
    worst = _max_abs(correlations.correlation_closed_form(ps, s1, s2) - ref)
    at_zero = correlations.correlation_closed_form(PhaseSetting(0, 0, 0, 0), s1, s2)
    at_pi = correlations.correlation_closed_form(PhaseSetting(pi, 0, 0, 0), s1, s2)
    exact = at_zero == 1.0 and at_pi == -1.0
    status = PASS if worst <= _TOL and exact else FAIL
    return VerifyCheck(
        "ghz-correlation-closed-form",
        status,
        worst,
        0.0,
        _TOL,
        f"extremes {at_zero:+.1f}/{at_pi:+.1f} exact={exact}",
    )


def _check_hbt_reduction() -> VerifyCheck:
    s1, s2 = _unit_sources()
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
    lo, hi = np.min(values), np.max(values)
    range_exact = lo == 0.5 and hi == 1.5
    status = PASS if worst <= _TOL and range_exact else FAIL
    return VerifyCheck(
        "hbt-reduction",
        status,
        worst,
        0.0,
        _TOL,
        f"range [{lo:.1f}, {hi:.1f}] exact={range_exact}",
    )


def _check_noncontextuality(rng: np.random.Generator) -> VerifyCheck:
    target = contextuality.MAX_VIOLATION
    dev_case1 = abs(contextuality.s_value(*contextuality.CASE1_SETTING) - target)
    dev_case2 = 0.0
    for anchor in rng.uniform(-pi, pi, 10):
        value = contextuality.s_prime_value(*contextuality.case2_setting(float(anchor)))
        dev_case2 = _worst(dev_case2, abs(value - target))
    scan1 = contextuality.scan_max(1, 64)
    scan2 = contextuality.scan_max(2, 64)
    dev_scan = _worst(abs(scan1.max_abs - target), abs(scan2.max_abs - target))
    setting_dev = _worst(dev_case1, dev_case2)
    status = PASS if setting_dev <= _TOL and dev_scan <= _TOL else FAIL
    return VerifyCheck(
        "noncontextuality-violations",
        status,
        setting_dev,
        0.0,
        _TOL,
        f"scan max dev {dev_scan:.3e} (tol {_TOL:.0e})",
    )


def _check_detection_law() -> VerifyCheck:
    s1, s2 = _unit_sources()
    post = bench.apply_bs_prime(bench.evolve_prestate(s1, s2, _DELTA_SETTINGS))
    worst = _max_abs(detector.p45_intensity(post) - 0.5 * (1.0 - np.cos(_GRID)))
    status = PASS if worst <= _TOL else FAIL
    return VerifyCheck("detection-law-45deg", status, worst, 0.0, _TOL)


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
    sources, rows = [], []
    for i in range(100):
        sources.append(_unit_sources() if i % 2 == 0 else _random_sources(rng))
        rows.append(_random_phases(rng))
    a1, a2, target = _amplitudes(sources)
    ps = PhaseSetting(*np.transpose(rows))

    *_, pre, post = bench.trace_stages(a1, a2, ps)
    pre = pre.reshape(len(rows), DIM)
    post = post.reshape(len(rows), DIM)
    want_pre = _literal_prestate(a1, a2, ps)
    want_post = _literal_poststate(a1, a2, ps)
    worst = _worst(
        _max_abs(pre - want_pre),
        _max_abs(post - want_post),
        _max_abs(norms_squared(post) - target),
    )

    aa = detector.project_aa(BenchState(Stage.POST_BS_PRIME, post))
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
    # the single-state chain a caller runs, on a unit- and a random-source instance
    for k in (0, 1):
        one_pre = bench.evolve_prestate(*sources[k], PhaseSetting(*rows[k]))
        one_post = bench.apply_bs_prime(one_pre)
        worst = _worst(
            worst,
            _max_abs(one_pre.vector - want_pre[k]),
            _max_abs(one_post.vector - want_post[k]),
            _max_abs(detector.project_aa(one_post).pol_unit - expected_unit[k]),
        )
    status = PASS if worst <= _TOL else FAIL
    return VerifyCheck("pipeline-golden-states", status, worst, 0.0, _TOL)


def _matrices(*factors: tuple[np.ndarray, int]) -> np.ndarray:
    """``(N, 16, 16)`` matrices of f_0 f_1 ..., each factor applied as the
    operator route applies it (its 2x2 core on its own slot) to the 16
    basis tensors; column k is the image of basis tensor k."""
    images = apply_factors(_BASIS, factors)
    return np.moveaxis(images.reshape(DIM, images.shape[1], DIM), 0, -1)


def _check_property_suite(rng: np.random.Generator) -> VerifyCheck:
    # every random instance first, drawn in the same order as one at a time
    xs, signs, rows, sources, dofs, branches, beams = [], [], [], [], [], [], []
    for _ in range(100):
        xs.append(float(rng.uniform(-2.0 * pi, 2.0 * pi)))
        signs.append(1 if rng.integers(0, 2) == 0 else -1)
        rows.append(_random_phases(rng))
        sources.append(int(rng.integers(1, 3)))
        dofs.append("path" if rng.integers(0, 2) == 0 else "pol")
        branches.append(BRANCHES[int(rng.integers(0, 3))])
        beams.append(_random_sources(rng))
    x = np.array(xs)
    sources, dofs, branches = np.array(sources), np.array(dofs), np.array(branches)
    theta1, theta2, phi1, phi2 = np.transpose(rows)
    ps = PhaseSetting(theta1, theta2, phi1, phi2)

    advance = (np.array(signs) == 1)[:, None, None]
    worst_unitary = 0.0
    for m in (
        elements.beam_splitter(),
        elements.pol_swap(),
        np.where(advance, elements.pol_phase(x, 1), elements.pol_phase(x, -1)),
        np.where(advance, elements.path_phase(x, 1), elements.path_phase(x, -1)),
    ):
        resid = dagger(m) @ m - np.eye(m.shape[-1])
        worst_unitary = _worst(worst_unitary, _max_abs(resid))
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
            _max_abs(full @ full - eye),
            _max_abs(plus @ plus - plus),
            _max_abs(plus @ minus),
            _max_abs(plus + minus - eye),
        )
    # products of factors on several slots need the 16-dim action: each
    # source's intensity projector, then cross-source commutation
    i1 = _matrices(sigma(1, "path", phi1, "plus"), sigma(1, "pol", theta1, "plus"))
    i2 = _matrices(sigma(2, "path", phi2, "plus"), sigma(2, "pol", theta2, "plus"))
    worst_proj = _worst(worst_proj, _max_abs(i1 @ i1 - i1), _max_abs(i2 @ i2 - i2))

    worst_comm = _max_abs(i1 @ i2 - i2 @ i1)
    other = {"path": "pol", "pol": "path"}
    for dof, branch in product(other, BRANCHES):
        rows = (dofs == dof) & (branches == branch)
        a = _matrices(sigma(1, dof, x[rows], branch))
        b = _matrices(sigma(2, other[dof], -1.3 * x[rows]))
        worst_comm = _worst(worst_comm, _max_abs(a @ b - b @ a))

    a1, a2, target = _amplitudes(beams)
    worst_norm = _worst(
        *(
            _max_abs(norms_squared(stage.reshape(len(beams), DIM)) - target)
            for stage in bench.trace_stages(a1, a2, ps)
        )
    )

    worst = _worst(worst_unitary, worst_proj, worst_comm, worst_norm)
    status = PASS if worst <= _TOL else FAIL
    note = (
        f"unitarity {worst_unitary:.2e} projectors {worst_proj:.2e} "
        f"commutation {worst_comm:.2e} norms {worst_norm:.2e}"
    )
    return VerifyCheck("algebraic-property-suite", status, worst, 0.0, _TOL, note)


def _check_sigma_route(rng: np.random.Generator) -> VerifyCheck:
    s1, s2 = _unit_sources()
    values = correlations.correlation_numeric(_DELTA_SETTINGS, s1, s2)
    kappa, resid = correlations.fit_scaled_cosine(_GRID, values)

    dev = 0.0
    probe = phase_setting_for("delta", 0.9, _DELTA_BASE)
    for _ in range(6):
        ra, rb = _random_sources(rng)
        ratio = correlations.correlation_numeric(probe, ra, rb) / (
            correlations.correlation_closed_form(probe, ra, rb)
        )
        dev = _worst(dev, abs(ratio - (-0.25)))

    ok = resid <= 1e-10 and dev <= 1e-10
    return VerifyCheck(
        "sigma-route-vs-closed-form",
        LOGGED if ok else FAIL,
        kappa,
        1.0,
        1e-10,
        f"fit residual {resid:.2e}; ratio -1/4 across amplitudes (max dev {dev:.2e})",
    )


def _check_signed_sum(rng: np.random.Generator) -> VerifyCheck:
    s1, s2 = _random_sources(rng)
    ratios = correlations.sum_identity(_DELTA_SETTINGS, s1, s2).ratio
    ratios = ratios[np.abs(np.cos(_GRID)) >= correlations.COSINE_GUARD]
    mean = float(np.mean(ratios))
    dev = float(np.max(np.abs(ratios - mean)))
    # the constant itself is documented: a constant ratio alone is not enough
    ok = dev <= 1e-10 and abs(mean - (-8.0)) <= 1e-10
    return VerifyCheck(
        "signed-sum-vs-closed-form",
        LOGGED if ok else FAIL,
        mean,
        1.0,
        1e-10,
        f"signed 16-term sum = {mean:.12g} x closed form (ratio spread {dev:.2e})",
    )


def _check_transfer_chain(rng: np.random.Generator) -> VerifyCheck:
    s1, s2 = _random_sources(rng)
    ps = PhaseSetting(*_random_phases(rng))
    pre = bench.evolve_prestate(s1, s2, ps)
    post = bench.apply_bs_prime(pre)
    report = observables.transfer_check(pre, post, ps)
    i1, i2 = s1.intensity, s2.intensity
    formula = 2.0 * i1 * i2 * (1.0 - cos(ps.delta)) / (i1 + i2) ** 2
    ok = report.max_difference <= _TOL and report.conjugation_residual <= _TOL
    note = (
        f"brackets {report.value_symmetrized:.12g} / {report.value_prestate:.12g} "
        f"/ {report.value_final:.12g} (max gap {report.max_difference:.2e}); "
        f"formula route {formula:.12g}"
    )
    return VerifyCheck(
        "transfer-bracket-chain",
        LOGGED if ok else FAIL,
        report.value_symmetrized,
        formula,
        _TOL,
        note,
    )


def _check_autocorrelation() -> VerifyCheck:
    s1 = SourceSpec(1.0, detector.DEFAULT_OMEGA_1)
    s2 = SourceSpec(1.0, detector.DEFAULT_OMEGA_2)
    beat = abs(s1.omega - s2.omega)
    ps = PhaseSetting(0.7, 0.2, 0.4, -0.3)

    base = detector.autocorrelation_demo(s1, s2, ps, 1000.0 / beat, 10_000)

    # windows sized to an odd number of beat half-periods: the surviving
    # endpoint contribution of the slowest term is then window-independent,
    # so the relative residual halves when the window (nearly) doubles
    residuals = []
    for m, n in ((317, 20_001), (635, 40_064), (1271, 80_191)):
        window = m * pi / beat
        residuals.append(
            detector.autocorrelation_demo(s1, s2, ps, window, n).residual
        )
    ratio_a = residuals[1] / residuals[0]
    ratio_b = residuals[2] / residuals[1]
    halving = 0.4 <= ratio_a <= 0.6 and 0.4 <= ratio_b <= 0.6

    # whole-beat window kills every oscillatory term in the trapezoid sum,
    # leaving the pure cos(delta) law of the cross term
    fit_window = 2.0 * pi * 160 / beat
    deltas = 2.0 * pi * np.arange(16) / 16.0
    cross = np.array(
        [
            detector.autocorrelation_demo(
                s1, s2, phase_setting_for("delta", float(d), ps), fit_window, 10_000
            ).cross_measured
            for d in deltas
        ]
    )
    coeffs, fit_resid = correlations.fit_sinusoid(deltas, cross)
    amplitude = float(np.hypot(coeffs[1], coeffs[2]))
    fit_ok = fit_resid <= 1e-3 * amplitude

    ok = base.residual <= 1e-2 and halving and fit_ok
    note = (
        f"residual ratios {ratio_a:.3f}, {ratio_b:.3f}; "
        f"cos-fit residual {fit_resid / amplitude:.2e} of amplitude"
    )
    return VerifyCheck(
        "autocorrelation-averaging",
        PASS if ok else FAIL,
        base.residual,
        0.0,
        1e-2,
        note,
    )


def run_verify(seed: int = 0) -> VerifyReport:
    """Run every acceptance check once and collect the rows."""
    rng = np.random.default_rng(seed)
    checks = (
        _check_ghz_closed_form(),
        _check_hbt_reduction(),
        _check_noncontextuality(rng),
        _check_detection_law(),
        _check_pipeline_goldens(rng),
        _check_property_suite(rng),
        _check_sigma_route(rng),
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
