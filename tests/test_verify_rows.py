"""``pathpol verify`` rows pinned across seeds, the fault catalogue, and the
work one run may do.

The catalogue plants every fault the rows must catch, one entry each, and
pins it to the exact rows it fails at seed 0, after a clean run in the same
process, so a value cached across calls would show. The work: no Kronecker
builds, seven bench runs per verify, reducers that let a NaN reach the row,
a property suite that leaves the random stream where its field draws leave
it, and a bounded peak of memory in that suite.

The pinned strings are the rows as printed before the checks were batched:
every row's name and status, and the logged constants to their printed
digits. Residual-scale ``measured`` values are not pinned.
"""

import dataclasses
import itertools
import math
import re
import sys
import tracemalloc
from math import inf, nan, pi

import numpy as np
import pytest

from pathpol import bench, contextuality, correlations, detector, elements, observables, tensor
from pathpol.cli import main
from pathpol.verify import _check_property_suite, _max_abs, _worst, run_verify

ROWS = (
    ("ghz-correlation-closed-form", "pass"),
    ("hbt-reduction", "pass"),
    ("noncontextuality-violations", "pass"),
    ("detection-law-45deg", "pass"),
    ("pipeline-golden-states", "pass"),
    ("algebraic-property-suite", "pass"),
    ("sigma-route-vs-closed-form", "discrepancy-logged"),
    ("signed-sum-vs-closed-form", "discrepancy-logged"),
    ("transfer-bracket-chain", "discrepancy-logged"),
    ("autocorrelation-averaging", "pass"),
)

# seed: (bracket as measured, formula as expected, bracket and formula in the note)
TRANSFER = {
    0: ("3.951185838476e-03", "1.047494799570e-01", "0.00395118583848", "0.104749479957"),
    1: ("2.035215282544e-01", "6.916183585724e-01", "0.203521528254", "0.691618358572"),
    7: ("1.372873495225e-02", "6.528434412020e-01", "0.0137287349522", "0.652843441202"),
    12345: ("1.984611190654e-01", "4.170759977459e-01", "0.198461119065", "0.417075997746"),
}

ROW_RE = re.compile(r"^  (\S+)\s+(\S+)\s+measured\s+(\S+)\s+expected\s+(\S+)\s+tol (\S+)$")


def run(capsys, *argv):
    code = main(["verify", *argv])
    return code, capsys.readouterr().out


def parse_rows(out):
    """name -> (status, measured, expected, note) as printed."""
    rows = {}
    last = None
    for line in out.splitlines():
        m = ROW_RE.match(line)
        if m:
            last = m.group(1)
            rows[last] = [m.group(2), m.group(3), m.group(4), ""]
        elif last is not None and line.startswith("    "):
            rows[last][3] = line.strip()
    return {name: tuple(row) for name, row in rows.items()}


@pytest.mark.parametrize("seed", sorted(TRANSFER))
def test_verify_rows_and_logged_constants_are_pinned(capsys, seed):
    code, out = run(capsys, "--seed", str(seed))
    assert code == 0
    rows = parse_rows(out)
    assert [(name, rows[name][0]) for name in rows] == list(ROWS)

    assert rows["sigma-route-vs-closed-form"][1] == "-2.500000000000e-01"
    sigma_note = rows["sigma-route-vs-closed-form"][3]
    assert "; ratio -1/4 across amplitudes (max dev " in sigma_note
    assert rows["signed-sum-vs-closed-form"][1] == "-8.000000000000e+00"
    assert rows["signed-sum-vs-closed-form"][3].startswith("signed 16-term sum = -8 x closed form ")

    measured, expected, bracket, formula = TRANSFER[seed]
    _, got_measured, got_expected, note = rows["transfer-bracket-chain"]
    assert (got_measured, got_expected) == (measured, expected)
    assert note.startswith(f"brackets {bracket} / {bracket} / {bracket} (max gap ")
    assert note.endswith(f"); formula route {formula}")
    assert out.splitlines()[-1] == "result: PASS (10 checks, 3 discrepancies logged, 0 failures)"


def failing_rows(out):
    return {name for name, row in parse_rows(out).items() if row[0] == "fail"}


# The fault catalogue. Each entry plants one fault: a builder of the
# (original, replacement) pair that patch_everywhere swaps in wherever the
# package binds the original, and the exact set of rows `pathpol verify`
# then fails at seed 0. To add a fault, add an entry; its test id is its name.

GHZ, HBT, CHSH, DETECTION, GOLDEN, PROPERTY, SIGMA, SIGNED_SUM, TRANSFER_CHAIN, AUTOCORRELATION = (
    name for name, _ in ROWS
)


def planted(original, args=None, result=None):
    """``original`` and a replacement that calls it on ``args(*a)`` in place
    of its arguments ``a`` and returns ``result`` of what it returns."""

    def replacement(*a):
        out = original(*(args(*a) if args else a))
        return result(out) if result else out

    return original, replacement


def first_entry(x, core_ndim):
    """``x`` with every entry of its batch axis read as the first."""
    x = np.asarray(x)
    return np.broadcast_to(x[:1], x.shape) if x.ndim > core_ndim else x


def plate_fault(source, dof, change):
    """``elements.plate`` with ``change`` applied to one plate's diagonal."""

    original = elements.plate

    def plate(s, d, x):
        diagonal, slot = original(s, d, x)
        return (change(diagonal) if (s, d) == (source, dof) else diagonal), slot

    return original, plate


def nan_off_diagonal(m):
    m[0, 1] = nan
    return m


def scaled_plus_branch_core():
    original = observables._sigma_core

    def core(phase, sense, branch):
        out = original(phase, sense, branch)
        return 1.01 * out if branch == "plus" else out

    return original, core


def apply_slot_fault(fault):
    """``tensor.apply_slot`` with one fault, wrapped around the original."""
    original = tensor.apply_slot

    def apply_slot(op, state, slot):
        op = np.asarray(op, dtype=complex)
        if fault == "leaks-a-neighbouring-flip":
            out = original(op, state, slot)
            # 1e-9 of the output flipped on the next slot
            return out + 1e-9 * np.flip(out, axis=(slot + 1) % 4 - 4)
        if fault == "stacked-core-rows-swapped" and op.ndim > 2:
            op = op[..., ::-1, :]
        if fault == "second-term-dropped-on-slot-2" and slot == 2:
            op = op.copy()
            op[..., :, 1] = 0.0
        return original(op, state, slot)

    return original, apply_slot


def plates_skipped(run):
    phased = np.broadcast_to(run.input, run.phased.shape).copy()
    return dataclasses.replace(run, phased=phased, output=bench.bs_prime_stage(phased))


def window_sum_fault(fault):
    """``detector._trapezoid_integral`` written out again with one fault."""

    def integral(s, c, omega, window, n):
        mag, phase = np.abs(c), np.angle(c)
        a = s * s + 2.0 * mag * mag
        b = 4.0 * s * mag
        d = 2.0 * mag * mag
        if fault == "flipped-2theta-sign":
            d = -d
        h = window / (n - 1)
        half = 0.5 * omega * h
        last = phase if fault == "last-sample-is-first" else phase + omega * window
        m = n - 1 if fault == "n-1-in-geometric-sum" else n
        series = (n if fault == "dropped-end-halves" else n - 1) * a
        for k, weight in ((1, b), (2, d)):
            geometric = np.cos(k * (phase + (m - 1) * half)) * np.sin(m * k * half) / np.sin(k * half)
            ends = np.cos(k * phase) + np.cos(k * last)
            if fault == "dropped-end-halves":
                ends = 0.0
            series = series + weight * (geometric - 0.5 * ends)
        return h * series

    return detector._trapezoid_integral, integral


_BIASED = np.array([[np.cos(0.6), np.sin(0.6)], [np.sin(0.6), -np.cos(0.6)]], dtype=complex)
# the rows that read the phased or output stage of a run against an oracle
_STAGE_ROWS = {DETECTION, GOLDEN, TRANSFER_CHAIN}
# and the property suite, which sees a state that drifts off its norm
_DRIFT_ROWS = _STAGE_ROWS | {PROPERTY}

CATALOGUE = {
    # elements: source 2's phases (or one of its plates) advance as e^{+ix};
    # a plate's diagonal swapped moves the relative phase by twice its angle
    "source-2-phases-with-wrong-sign": (
        lambda: planted(elements.phase_diagonal, args=lambda x, sign: (x, abs(sign))),
        _STAGE_ROWS,
    ),
    "source-2-pol-plate-with-wrong-sign": (lambda: plate_fault(2, "pol", np.conj), _STAGE_ROWS),
    "source-2-path-plate-with-wrong-sign": (lambda: plate_fault(2, "path", np.conj), _STAGE_ROWS),
    "plate-diagonal-entries-swapped": (
        lambda: plate_fault(1, "path", lambda diagonal: diagonal[..., ::-1]),
        _STAGE_ROWS,
    ),
    "lossy-rotator": (
        lambda: planted(elements.pol_swap, result=lambda m: 0.99 * m),
        {PROPERTY, DETECTION, GOLDEN, SIGMA},
    ),
    # max(0.0, nan) is 0.0: each row must combine its deviations so a NaN reaches it
    "nan-rotator-entry": (
        lambda: planted(elements.pol_swap, result=nan_off_diagonal),
        {PROPERTY, DETECTION, GOLDEN, SIGMA, TRANSFER_CHAIN, AUTOCORRELATION},
    ),
    "biased-splitter": (
        lambda: (elements.beam_splitter, lambda: _BIASED.copy()),
        {DETECTION, GOLDEN, SIGMA, TRANSFER_CHAIN},
    ),
    # tensor: a transposed second factor turns every front-end beam's
    # (path, pol) axes and every checked 2x2 identity
    "matmul2-second-factor-transposed": (
        lambda: planted(
            tensor.matmul2,
            args=lambda a, b: (a, np.swapaxes(b, -1, -2) if b.shape[-2:] == (2, 2) else b),
        ),
        {PROPERTY, DETECTION, GOLDEN, SIGMA},
    ),
    "apply-slot-leaks-a-neighbouring-flip": (
        lambda: apply_slot_fault("leaks-a-neighbouring-flip"),
        _DRIFT_ROWS,
    ),
    "apply-slot-stacked-core-rows-swapped": (
        lambda: apply_slot_fault("stacked-core-rows-swapped"),
        {PROPERTY},
    ),
    "apply-slot-second-term-dropped-on-slot-2": (
        lambda: apply_slot_fault("second-term-dropped-on-slot-2"),
        _DRIFT_ROWS | {SIGMA},
    ),
    # bench: a stage replaced, or a batch of sources read as its first entry
    # (the goldens and the property suite run a batch through every stage)
    "output-taken-before-bs-prime": (
        lambda: planted(bench.run, result=lambda run: dataclasses.replace(run, output=run.phased)),
        _STAGE_ROWS,
    ),
    "phased-with-plates-skipped": (
        lambda: planted(bench.run, result=plates_skipped),
        _STAGE_ROWS,
    ),
    "front-end-reads-first-source-1-amplitude": (
        lambda: planted(bench._front_end, args=lambda a1, a2: (first_entry(a1, 0), a2)),
        {PROPERTY, GOLDEN, SIGMA},
    ),
    # observables: the sigma route's six source pairs are the one batch of
    # states an observable reads
    "product-expectation-reads-first-state": (
        lambda: planted(
            observables.product_expectation,
            args=lambda state, factors: (first_entry(state, 4), factors),
        ),
        {SIGMA},
    ),
    "scaled-plus-branch-core": (scaled_plus_branch_core, {PROPERTY, TRANSFER_CHAIN}),
    # correlations: g2's parity taken from k alone keeps the signed-sum ratio
    # constant, at 0 instead of -8
    "g2-parity-from-k-alone": (
        lambda: planted(
            correlations.g2_generalized, args=lambda k, l, m, n, *rest: (k, 0, 0, 0, *rest)
        ),
        {SIGNED_SUM},
    ),
    # the closed form reads delta with phi2's sign flipped
    "closed-form-phi2-with-wrong-sign": (
        lambda: planted(
            correlations.correlation_closed_form,
            args=lambda ps, *sources: (dataclasses.replace(ps, phi2=-ps.phi2), *sources),
        ),
        {GHZ, SIGMA, SIGNED_SUM},
    ),
    # g2 reads source 1's polarization phase as source 2's, and back
    "g2-swaps-the-polarization-phases": (
        lambda: planted(
            correlations.g2_generalized,
            args=lambda k, l, m, n, ps, *sources: (
                k, l, m, n, dataclasses.replace(ps, theta1=ps.theta2, theta2=ps.theta1), *sources
            ),
        ),
        {HBT, SIGNED_SUM},
    ),
    # contextuality: case 2's pair correlation taken with case 1's sign
    "pair-reads-case-2-as-case-1": (
        lambda: planted(contextuality.pair, args=lambda case, x, y: (1, x, y)),
        {CHSH},
    ),
    # detector: a NaN amplitude makes every integral NaN, and nothing raises;
    # each window-sum fault moves the total by under 1e-3 and keeps the
    # residual ratios at 0.499: the sampled-total gap sees every one, the cos
    # fit two of them
    "nan-detector-amplitude": (
        lambda: (detector.detector_amplitudes, lambda ps: (complex("nan"), 0.5)),
        {AUTOCORRELATION},
    ),
    **{
        f"window-sum-{fault}": (lambda fault=fault: window_sum_fault(fault), {AUTOCORRELATION})
        for fault in (
            "dropped-end-halves",
            "flipped-2theta-sign",
            "n-1-in-geometric-sum",
            "last-sample-is-first",
        )
    },
}


@pytest.fixture(scope="module")
def after_a_clean_run():
    """One clean verify in this process before any fault is planted: an
    element, front end or row cached across calls would hide every later
    fault. Returns a setting and its detector amplitudes, read before it."""
    ps = bench.PhaseSetting(0.7, 0.2, 0.4, -0.3)
    amplitudes = detector.detector_amplitudes(ps)
    assert run_verify(0).ok
    return ps, amplitudes


@pytest.mark.parametrize("name", list(CATALOGUE))
def test_fault_fails_exactly_its_rows(capsys, after_a_clean_run, patch_everywhere, name):
    build, rows = CATALOGUE[name]
    patch_everywhere(*build())
    code, out = run(capsys)
    assert code == 1
    assert list(parse_rows(out)) == [row for row, _ in ROWS]
    assert failing_rows(out) == rows


def test_the_catalogue_fails_every_row():
    assert set().union(*(rows for _, rows in CATALOGUE.values())) == set(dict(ROWS))


@pytest.mark.parametrize("name", ["lossy-rotator", "biased-splitter"])
def test_detector_amplitudes_move_under_an_element_fault(after_a_clean_run, patch_everywhere, name):
    # the autocorrelation row's oracle reads the same detector amplitudes as
    # the row, so no row sees a front end cached by the clean run: they must move
    ps, clean = after_a_clean_run
    patch_everywhere(*CATALOGUE[name][0]())
    assert not np.allclose(detector.detector_amplitudes(ps), clean)


def test_verify_call_budget(count_calls):
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "pathpol"]
    # operators act slot by slot: no namespace offers a 16x16 Kronecker build
    assert [(m.__name__, a) for m in modules for a in ("kron", "embed") if hasattr(m, a)] == []

    # bench runs, whichever namespace reaches them: the delta-grid run the
    # detection law and sigma route share 1, goldens 3 (the batch and two
    # single runs), property suite 1, the sigma route's batch of six random
    # source pairs 1, transfer chain 1
    calls = count_calls(bench.run)
    # and no check's work is dropped: the autocorrelation row integrates 5
    # times, one per window, each projecting both sources' outputs (plus its
    # sampled oracle's 6th); hbt 3 and the signed sum 16 g2 terms; 2 CHSH scans
    demos = count_calls(detector.autocorrelation_demo)
    outputs = count_calls(bench.source_outputs)
    g2 = count_calls(correlations.g2_generalized)
    scans = count_calls(contextuality.scan_max)
    assert run_verify(0).ok
    assert len(calls) == 7
    assert (len(demos), len(outputs), len(g2), len(scans)) == (5, 6, 19, 2)


def test_verify_reducers_let_a_nan_through_wherever_it_sits():
    # a bare max drops a NaN that is not first (max(0.0, nan) is 0.0) or,
    # scanning in reverse, not last; the row must see it in every position
    for n in range(1, 6):
        for k in range(n):
            values = [1e-16 * (j + 1) for j in range(n)]
            values[k] = nan
            assert math.isnan(_worst(*values))
            assert math.isnan(_max_abs(np.array(values)))
            stack = np.full((3, n), 1e-16 + 1e-16j)
            stack[1, k] = complex(nan, 0.0)
            assert math.isnan(_max_abs(stack))
    # an empty stack (no instance drew that case) has nothing to violate
    assert _max_abs(np.empty(0)) == 0.0
    assert _max_abs(np.empty((0, 16), dtype=complex)) == 0.0
    # signed zeros and infinities by the rule written out, not read from
    # np.max, whose tie between 0.0 and -0.0 depends on the SIMD loop numpy
    # dispatches: the largest value, and of equal values (0.0 == -0.0) the
    # last; every absolute value is +0.0 or above
    for n in range(1, 5):
        for values in itertools.product((0.0, -0.0, 1.0, inf, -inf), repeat=n):
            largest = max(values)
            last_largest = [v for v in values if v == largest][-1]
            for got, want in (
                (_worst(*values), last_largest),
                (_max_abs(np.array(values)), max(map(abs, values))),
            ):
                assert type(got) is float
                assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))


@pytest.mark.parametrize("seed", [0, 12345])
def test_property_suite_leaves_the_stream_where_its_field_draws_do(seed):
    rng = np.random.default_rng(seed)
    assert _check_property_suite(rng, np.random.default_rng(seed + 1)).status == "pass"

    # the suite's seven field draws alone, in its order: the probes come
    # from their own generator, so every later row draws what it drew before
    alone = np.random.default_rng(seed)
    alone.uniform(-2.0 * pi, 2.0 * pi, 100)  # x
    alone.integers(0, 2, 100)  # advance
    alone.uniform(-2.0 * pi, 2.0 * pi, (100, 4))  # phases
    alone.integers(1, 3, 100)  # sources
    alone.integers(0, 2, 100)  # dofs
    alone.integers(0, 3, 100)  # branches
    alone.uniform(0.5, 1.5, (100, 2))  # amplitude pairs: magnitudes,
    alone.uniform(-pi, pi, (100, 2))  # then phases
    assert rng.bit_generator.state == alone.bit_generator.state


def test_property_suite_memory_stays_at_probe_scale():
    # one 16-dim probe per instance; (100, 16, 16) operator stacks read 1.9 MiB
    tracemalloc.start()
    try:
        _check_property_suite(np.random.default_rng(0), np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 768 * 2**10

