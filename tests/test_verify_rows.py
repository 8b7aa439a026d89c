"""``pathpol verify`` rows pinned across seeds, the faults its batched checks
and its autocorrelation row must catch, and the work one run may do: no
Kronecker builds, one bench trace per run a row makes, a property suite
that leaves the random stream where its field draws leave it, and a bounded
peak of memory in that suite.

The pinned strings are the rows as printed before the checks were batched:
every row's name and status, and the logged constants to their printed
digits. Residual-scale ``measured`` values are not pinned.
"""

import re
import sys
import tracemalloc
from math import pi

import numpy as np
import pytest

from pathpol import bench, correlations, detector, elements, observables, tensor
from pathpol.cli import main
from pathpol.verify import _check_property_suite, run_verify

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

    # one bench trace per run, whichever namespace it is reached through:
    # the delta-grid run the detection law and sigma route share 1, goldens 3
    # (the batch and two single runs), property suite 1, the sigma route's
    # random sources 6, transfer chain 1
    calls = count_calls(bench.trace_stages)
    assert run_verify(0).ok
    assert len(calls) == 12


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


def planted_trace_stages(fault):
    """``bench.trace_stages`` with one stage replaced, wrapped around the original."""
    original = bench.trace_stages

    def trace_stages(a1, a2, ps):
        source, post_bs, post_pr, phased, output = original(a1, a2, ps)
        if fault == "output-taken-before-bs-prime":
            output = phased
        if fault == "phased-with-plates-skipped":
            phased = np.broadcast_to(post_pr, phased.shape).copy()
            output = bench.bs_prime_stage(phased)
        return source, post_bs, post_pr, phased, output

    return trace_stages


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
    patch_everywhere(bench.trace_stages, planted_trace_stages(fault))
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

