"""The benchmark's own tests: inputs are reproducible and well formed, each
oracle accepts the program's real output and rejects a corrupted copy.

    python3 -m pytest -q perfbench/test_oracles.py
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from itertools import islice

import pytest

import launch
from workloads import WORKLOADS, OracleError, op_stream

pathpol, _ = launch.import_pathpol()


def first_op(name: str, seed: int = 7):
    return next(op_stream(WORKLOADS[name], seed))


def run(op) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = pathpol.cli.main(list(op.argv))
    return code, out.getvalue()


def replace_once(text: str, old: str, new: str) -> str:
    assert old in text, old
    return text.replace(old, new, 1)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_ops(name):
    a = [op.argv for op in islice(op_stream(WORKLOADS[name], 3), 5)]
    b = [op.argv for op in islice(op_stream(WORKLOADS[name], 3), 5)]
    c = [op.argv for op in islice(op_stream(WORKLOADS[name], 4), 5)]
    assert a == b
    if name != "chsh-scan":  # chsh draws only the start of a 3-cycle
        assert a != c


def test_generated_values_are_plain_float_reprs():
    for op in islice(op_stream(WORKLOADS["sweep-dense"], 5), 20):
        for key, value in op.params.items():
            assert type(value) is float
            assert f"{key}={value!r}" in op.argv


@pytest.fixture(scope="module")
def outputs():
    """Real output of the first op of every workload."""
    return {name: (first_op(name), *run(first_op(name))) for name in WORKLOADS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_oracle_accepts_real_output(outputs, name):
    op, code, out = outputs[name]
    WORKLOADS[name].check(op.params, code, out)


def corrupt_sweep(out: str) -> list[str]:
    lines = out.splitlines()
    row = lines[40].split(",")
    numeric = row[:3] + [repr(float(row[3]) * (1 + 1e-9) + 1e-11)] + row[4:]
    p45 = row[:5] + [repr(1.0 - float(row[5]))]
    return [
        "\n".join(lines[:-1]),  # a row short
        "\n".join([lines[0].replace("g2", "G2")] + lines[1:]),
        "\n".join(lines[:40] + [",".join(numeric)] + lines[41:]),
        "\n".join(lines[:40] + [",".join(p45)] + lines[41:]),
    ]


def corrupt_verify(out: str) -> list[str]:
    lines = out.splitlines()
    row = next(l for l in lines if " pass " in l)
    return [
        replace_once(out, row, row.replace(" pass ", " fail ")),
        "\n".join(l for l in lines if l != row),
        out.replace("result: PASS", "result: FAIL"),
    ]


def corrupt_chsh(out: str) -> list[str]:
    lines = out.splitlines()
    scan = next(l for l in lines if l.startswith("case 2 scan max"))
    value = scan.split("= ")[1].split()[0]
    fixed = next(l for l in lines if l.startswith("case 1 fixed set"))
    fixed_value = fixed.split("= ")[1].split()[0]
    first_angle = scan.split("at (")[1].split(",")[0]
    moved = scan.replace(f"at ({first_angle},", f"at ({float(first_angle) + 0.1!r},")
    return [
        replace_once(out, scan, scan.replace(value, repr(float(value) - 2e-4), 1)),
        replace_once(out, scan, moved),
        replace_once(out, fixed, fixed.replace(fixed_value, repr(float(fixed_value) + 1e-11), 1)),
        "\n".join(lines[:-1]),
    ]


CORRUPTIONS = {
    "sweep-dense": corrupt_sweep,
    "verify-seeds": corrupt_verify,
    "chsh-scan": corrupt_chsh,
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_oracle_rejects_corrupted_output(outputs, name):
    op, code, out = outputs[name]
    bad_outputs = CORRUPTIONS[name](out)
    for bad in bad_outputs:
        assert bad != out
        with pytest.raises(OracleError):
            WORKLOADS[name].check(op.params, code, bad)
    with pytest.raises(OracleError):
        WORKLOADS[name].check(op.params, 1, out)


def test_scale_to_reference_speed():
    from speed import scale

    assert scale(0.4, 0.025, 0.025, 0.025) == pytest.approx(0.4)
    # a host running at half speed doubles the reference task and the interval alike
    assert scale(0.8, 0.05, 0.05, 0.025) == pytest.approx(0.4)
    assert scale(0.6, 0.025, 0.05, 0.025) == pytest.approx(0.4)
