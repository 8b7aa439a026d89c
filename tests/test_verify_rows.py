"""``pathpol verify`` rows pinned across seeds, the faults its batched checks
and its autocorrelation row must catch, and the work one run may do: no
Kronecker builds, seven bench runs per verify, a fault patched in after a
clean run caught as in a fresh one (nothing cached across calls), reducers
that let a NaN reach the row, a property suite that leaves the random stream
where its field draws leave it, and a bounded peak of memory in that suite.

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


def test_verify_catches_source_2_phases_with_wrong_sign(capsys, monkeypatch):
    # source 2's polarization and path phases enter as e^{+ix} instead of
    # e^{-ix}, in the plates' diagonals and in the matrices made from them
    original = elements.phase_diagonal
    flipped = []

    def wrong_sign(x, sign):
        flipped.append(sign)
        return original(x, abs(sign))

    monkeypatch.setattr(elements, "phase_diagonal", wrong_sign)
    code, out = run(capsys)
    assert -1 in flipped
    assert code == 1
    assert {"pipeline-golden-states", "detection-law-45deg"} <= failing_rows(out)


@pytest.mark.parametrize("element", ["pol_phase", "path_phase"])
def test_verify_catches_source_2_phase_with_wrong_sign(capsys, monkeypatch, element):
    # one of source 2's plates, polarization (theta2) or path (phi2), enters as
    # e^{+ix} instead of e^{-ix}: its diagonal is conjugated wherever it is made
    dof = {"pol_phase": "pol", "path_phase": "path"}[element]
    original = elements.plate
    flipped = []

    def wrong_sign(source, plate_dof, x):
        diagonal, slot = original(source, plate_dof, x)
        if (source, plate_dof) == (2, dof):
            flipped.append(slot)
            diagonal = diagonal.conj()
        return diagonal, slot

    monkeypatch.setattr(elements, "plate", wrong_sign)
    code, out = run(capsys)
    assert flipped
    assert code == 1
    assert {"pipeline-golden-states", "detection-law-45deg"} <= failing_rows(out)


def test_verify_catches_scaled_plus_branch_core(capsys, monkeypatch):
    original = observables._sigma_core

    def scaled(phase, sense, branch):
        core = original(phase, sense, branch)
        return 1.01 * core if branch == "plus" else core

    monkeypatch.setattr(observables, "_sigma_core", scaled)
    code, out = run(capsys)
    assert code == 1
    assert "algebraic-property-suite" in failing_rows(out)


def test_verify_catches_lossy_rotator(capsys, monkeypatch):
    # a rotator that loses 1 % of the amplitude breaks the batched norms and goldens
    original = elements.pol_swap
    monkeypatch.setattr(elements, "pol_swap", lambda: 0.99 * original())
    code, out = run(capsys)
    assert code == 1
    assert {"algebraic-property-suite", "pipeline-golden-states"} <= failing_rows(out)


def test_verify_catches_a_wrong_signed_sum_constant(capsys, monkeypatch):
    # g2's parity taken from k alone keeps the ratio constant, at 0 instead of -8
    original = correlations.g2_generalized
    monkeypatch.setattr(
        correlations, "g2_generalized", lambda k, l, m, n, *rest: original(k, 0, 0, 0, *rest)
    )
    code, out = run(capsys)
    assert code == 1
    assert "signed-sum-vs-closed-form" in failing_rows(out)


def planted_trapezoid_integral(fault):
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

    return integral


@pytest.mark.parametrize(
    "fault",
    ["dropped-end-halves", "flipped-2theta-sign", "n-1-in-geometric-sum", "last-sample-is-first"],
)
def test_verify_catches_a_wrong_closed_form_window_sum(capsys, monkeypatch, fault):
    # each fault moves the total by under 1e-3 and keeps the residual ratios
    # at 0.499: the sampled-total gap sees every one, the cos fit two of them
    monkeypatch.setattr(detector, "_trapezoid_integral", planted_trapezoid_integral(fault))
    code, out = run(capsys)
    assert code == 1
    assert failing_rows(out) == {"autocorrelation-averaging"}


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


def lossy_rotator():
    original = elements.pol_swap
    return original, lambda: 0.99 * original()


def biased_splitter():
    cos, sin = np.cos(0.6), np.sin(0.6)
    return elements.beam_splitter, lambda: np.array([[cos, sin], [sin, -cos]], dtype=complex)


# the rows each element fault fails at seed 0, whether the process has run
# verify before or not: the lossy rotator of test_verify_catches_lossy_rotator
# and the biased splitter of test_cli.py's test_verify_catches_tampered_splitter
LATE_FAULTS = {
    lossy_rotator: {
        "algebraic-property-suite",
        "detection-law-45deg",
        "pipeline-golden-states",
        "sigma-route-vs-closed-form",
    },
    biased_splitter: {
        "detection-law-45deg",
        "pipeline-golden-states",
        "sigma-route-vs-closed-form",
        "transfer-bracket-chain",
    },
}


@pytest.mark.parametrize("fault", list(LATE_FAULTS), ids=lambda fault: fault.__name__)
def test_a_fault_patched_in_after_a_clean_run_is_caught(patch_everywhere, fault):
    # an element, front end or row cached by the clean run would hide the
    # fault from the next: every call must build what it reads again
    ps = bench.PhaseSetting(0.7, 0.2, 0.4, -0.3)
    clean = detector.detector_amplitudes(ps)
    assert run_verify(0).ok
    patch_everywhere(*fault())
    report = run_verify(0)
    assert {c.name for c in report.checks if c.status == "fail"} == LATE_FAULTS[fault]
    # the autocorrelation row's oracle reads the same detector amplitudes, so
    # no row sees a stale source_outputs front end; the amplitudes must move
    assert not np.allclose(detector.detector_amplitudes(ps), clean)


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


def planted_apply_slot(fault):
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

    return apply_slot


# the rows each fault fails at seed 0, the same on the 16x16 matrix route
# the probe-state suite replaced
_DRIFT_ROWS = {
    "algebraic-property-suite",
    "detection-law-45deg",
    "pipeline-golden-states",
    "transfer-bracket-chain",
}
APPLY_SLOT_FAULTS = {
    "leaks-a-neighbouring-flip": _DRIFT_ROWS,
    "stacked-core-rows-swapped": {"algebraic-property-suite"},
    "second-term-dropped-on-slot-2": _DRIFT_ROWS | {"sigma-route-vs-closed-form"},
}


@pytest.mark.parametrize("fault", sorted(APPLY_SLOT_FAULTS))
def test_verify_catches_a_faulty_apply_slot(capsys, patch_everywhere, fault):
    # bench binds apply_slot by name; patch every binding of the original
    patch_everywhere(tensor.apply_slot, planted_apply_slot(fault))
    code, out = run(capsys)
    assert code == 1
    assert failing_rows(out) == APPLY_SLOT_FAULTS[fault]


def planted_run(fault):
    """``bench.run`` with one stage replaced, wrapped around the original."""
    original = bench.run

    def run(s1, s2, ps):
        bench_run = original(s1, s2, ps)
        if fault == "output-taken-before-bs-prime":
            return dataclasses.replace(bench_run, output=bench_run.phased)
        phased = np.broadcast_to(bench_run.input, bench_run.phased.shape).copy()
        return dataclasses.replace(bench_run, phased=phased, output=bench.bs_prime_stage(phased))

    return run


# the rows each stage fault fails at seed 0: the ones that read the phased or
# output stage of a run against an oracle; the sigma route reads the input
# and the property suite only norms, which both faults keep
_STAGE_ROWS = {"detection-law-45deg", "pipeline-golden-states", "transfer-bracket-chain"}
STAGE_FAULTS = {
    "output-taken-before-bs-prime": _STAGE_ROWS,
    "phased-with-plates-skipped": _STAGE_ROWS,
}


@pytest.mark.parametrize("fault", sorted(STAGE_FAULTS))
def test_verify_catches_a_wrong_bench_stage(capsys, patch_everywhere, fault):
    patch_everywhere(bench.run, planted_run(fault))
    code, out = run(capsys)
    assert code == 1
    assert failing_rows(out) == STAGE_FAULTS[fault]


def planted_element(fault):
    """The original and a faulty replacement of ``tensor.matmul2`` or
    ``elements.plate``, the replacement wrapped around the original."""
    if fault == "matmul2-second-factor-transposed":
        original = tensor.matmul2

        def matmul2(a, b):
            b = np.asarray(b)
            if b.shape[-2:] == (2, 2):
                b = np.swapaxes(b, -1, -2)
            return original(a, b)

        return original, matmul2
    original = elements.plate

    def plate(source, dof, x):
        diagonal, slot = original(source, dof, x)
        if fault == "plate-diagonal-entries-swapped" and (source, dof) == (1, "path"):
            diagonal = diagonal[..., ::-1]
        return diagonal, slot

    return original, plate


# the rows each fault fails at seed 0. A transposed second factor turns
# every front-end beam's (path, pol) axes and every checked 2x2 identity; a
# plate's swapped diagonal moves the relative phase by twice its angle
ELEMENT_FAULTS = {
    "matmul2-second-factor-transposed": {
        "algebraic-property-suite",
        "detection-law-45deg",
        "pipeline-golden-states",
        "sigma-route-vs-closed-form",
    },
    "plate-diagonal-entries-swapped": _STAGE_ROWS,
}


@pytest.mark.parametrize("fault", sorted(ELEMENT_FAULTS))
def test_verify_catches_a_faulty_product_or_plate(capsys, patch_everywhere, fault):
    patch_everywhere(*planted_element(fault))
    code, out = run(capsys)
    assert code == 1
    assert failing_rows(out) == ELEMENT_FAULTS[fault]


def planted_batch_fault(fault):
    """The original and a faulty replacement of a function on the batched
    path, the replacement reading only the first entry of a batch."""
    if fault == "product-expectation-reads-first-state":
        original = observables.product_expectation

        def product_expectation(state, factors):
            state = np.asarray(state, dtype=complex)
            if state.ndim > 4:
                state = np.broadcast_to(state[:1], state.shape)
            return original(state, factors)

        return original, product_expectation
    original = bench._front_end

    def front_end(a1, a2):
        a1 = np.asarray(a1)
        return original(np.broadcast_to(a1[:1], a1.shape) if a1.ndim else a1, a2)

    return original, front_end


# the rows each fault fails at seed 0: the sigma route's six source pairs
# are the one batch of states an observable reads, and the goldens and the
# property suite run a batch of sources through every stage
BATCH_FAULTS = {
    "product-expectation-reads-first-state": {"sigma-route-vs-closed-form"},
    "front-end-reads-first-source-1-amplitude": {
        "algebraic-property-suite",
        "pipeline-golden-states",
        "sigma-route-vs-closed-form",
    },
}


@pytest.mark.parametrize("fault", sorted(BATCH_FAULTS))
def test_verify_catches_a_batch_read_as_its_first_entry(capsys, patch_everywhere, fault):
    patch_everywhere(*planted_batch_fault(fault))
    code, out = run(capsys)
    assert code == 1
    assert failing_rows(out) == BATCH_FAULTS[fault]


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

