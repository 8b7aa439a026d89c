"""The three benchmark workloads: seeded CLI inputs and independent oracles.

An *op* is one ``pathpol`` CLI invocation. Each workload turns a
``random.Random`` stream into the argv of its next op, and checks the op's
exit code and captured stdout against formulas written out here. The
oracles never import pathpol, so the program's two correlation routes are
checked against a third, independent derivation:

* ``sweep-dense``: ``pathpol sweep`` of 256 delta points at random
  intensities in [0.2, 5] and random base phases (the batch path).
* ``verify-seeds``: ``pathpol verify --seed s`` with ``s`` from the stream
  (the acceptance path: observables, goldens, autocorrelation, CHSH).
* ``chsh-scan``: ``pathpol chsh --resolution R`` with R cycling
  64 -> 128 -> 192 (R^3 float grids of 2 / 17 / 57 MiB); builds no 16-dim
  state, so operator-route changes should leave it unchanged.

Every generated number reaches the CLI as ``repr(float(x))``.
"""

from __future__ import annotations

import ast
import random
import re
from dataclasses import dataclass
from math import cos, pi, sqrt
from typing import Callable

TOL = 1e-12
SCAN_TOL = 1e-4
TSIRELSON = 2.0 * sqrt(2.0)

SWEEP_POINTS = 256
SWEEP_HEADER = "var,delta,C_closed,C_numeric,g2,p45"
CHSH_RESOLUTIONS = (64, 128, 192)
VERIFY_ROWS = 10


class OracleError(ValueError):
    """An op's output disagrees with the independent derivation."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the generated values behind it."""

    argv: tuple[str, ...]
    params: dict


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise OracleError(what)


def _close(name: str, got: float, want: float, tol: float = TOL) -> None:
    _expect(abs(got - want) <= tol, f"{name}: got {got!r}, expected {want!r} (tol {tol:g})")


def _scenario_sets(params: dict) -> list[str]:
    argv = []
    for key, value in params.items():
        argv += ["--set", f"{key}={float(value)!r}"]
    return argv


def _random_setting(rng: random.Random) -> dict:
    return {
        "amplitudes.i1": rng.uniform(0.2, 5.0),
        "amplitudes.i2": rng.uniform(0.2, 5.0),
        "phases.theta1": rng.uniform(-pi, pi),
        "phases.theta2": rng.uniform(-pi, pi),
        "phases.phi1": rng.uniform(-pi, pi),
        "phases.phi2": rng.uniform(-pi, pi),
    }


# --- sweep-dense ----------------------------------------------------------


def make_sweep(rng: random.Random, index: int) -> Op:
    params = _random_setting(rng)
    params.update({"sweep.start": 0.0, "sweep.stop": 2.0 * pi})
    argv = ["sweep", "--set", "sweep.variable=delta", "--set", f"sweep.points={SWEEP_POINTS}"]
    return Op(tuple(argv + _scenario_sets(params)), params)


def check_sweep(params: dict, code: int, out: str) -> None:
    _expect(code == 0, f"exit code {code}")
    lines = out.splitlines()
    _expect(bool(lines) and lines[0] == SWEEP_HEADER, "CSV header")
    rows = lines[1:]
    _expect(len(rows) == SWEEP_POINTS, f"{len(rows)} rows, expected {SWEEP_POINTS}")
    i1, i2 = params["amplitudes.i1"], params["amplitudes.i2"]
    ssq = (i1 + i2) ** 2
    start, stop = params["sweep.start"], params["sweep.stop"]
    step = (stop - start) / (SWEEP_POINTS - 1)
    for k, row in enumerate(rows):
        cols = [float(c) for c in row.split(",")]
        _expect(len(cols) == 6, f"row {k}: {len(cols)} columns")
        var, delta, c_closed, c_numeric, g2, p45 = cols
        want_var = stop if k == SWEEP_POINTS - 1 else start + k * step
        c = cos(want_var)
        closed = 4.0 * i1 * i2 * c / ssq
        _close(f"row {k} var", var, want_var)
        _close(f"row {k} delta", delta, want_var)
        _close(f"row {k} C_closed", c_closed, closed)
        _close(f"row {k} C_numeric", c_numeric, -closed / 4.0)
        _close(f"row {k} g2", g2, 1.0 - 2.0 * i1 * i2 * c / ssq)
        _close(f"row {k} p45", p45, (1.0 - c) / 2.0)


# --- verify-seeds ---------------------------------------------------------

_VERIFY_ROW = re.compile(r"^  (\S+)\s+(pass|fail|discrepancy-logged)\s+measured ")


def make_verify(rng: random.Random, index: int) -> Op:
    seed = rng.randrange(2**31)
    return Op(("verify", "--seed", str(seed)), {"seed": seed})


def check_verify(params: dict, code: int, out: str) -> None:
    _expect(code == 0, f"exit code {code}")
    lines = out.splitlines()
    _expect(bool(lines) and lines[0] == f"verify (seed {params['seed']})", "verify title")
    rows = [m.groups() for m in map(_VERIFY_ROW.match, lines) if m]
    _expect(len(rows) == VERIFY_ROWS, f"{len(rows)} rows, expected {VERIFY_ROWS}")
    failed = [name for name, status in rows if status == "fail"]
    _expect(not failed, f"failing rows {failed}")
    _expect(lines[-1].startswith(f"result: PASS ({VERIFY_ROWS} checks"), "verify verdict")


# --- chsh-scan ------------------------------------------------------------

_CHSH_LINE = re.compile(r"^case ([12]) (fixed set|scan max)\s+(S|S'|\|S\|)\s+= (\S+)\s+at (\(.*\))$")


def make_chsh(rng: random.Random, index: int) -> Op:
    resolution = CHSH_RESOLUTIONS[index % len(CHSH_RESOLUTIONS)]
    return Op(("chsh", "--resolution", str(resolution)), {"resolution": resolution})


def _functional(case: int, t: float, tp: float, p: float, pp: float) -> float:
    s = 1.0 if case == 1 else -1.0
    return cos(t + s * p) + cos(t + s * pp) - cos(tp + s * p) + cos(tp + s * pp)


def check_chsh(params: dict, code: int, out: str) -> None:
    _expect(code == 0, f"exit code {code}")
    found = {}
    for line in out.splitlines():
        m = _CHSH_LINE.match(line)
        _expect(m is not None, f"unexpected line {line!r}")
        case, kind, _, value, angles = m.groups()
        angles = ast.literal_eval(angles)
        _expect(len(angles) == 4, f"angles {angles!r}")
        found[(int(case), kind)] = (float(value), [float(a) for a in angles])
    _expect(len(found) == 4, f"{len(found)} result lines, expected 4")
    for case in (1, 2):
        value, angles = found[(case, "fixed set")]
        _close(f"case {case} fixed set", value, TSIRELSON)
        _close(f"case {case} fixed set at its angles", _functional(case, *angles), TSIRELSON)
        value, angles = found[(case, "scan max")]
        _close(f"case {case} scan max", value, TSIRELSON, SCAN_TOL)
        _expect(value <= TSIRELSON + TOL, f"case {case} scan max {value!r} above 2 sqrt 2")
        # printed angles are rounded to 12 decimals, moving each term by <= 1e-12
        _close(f"case {case} scan max at its angles", abs(_functional(case, *angles)), value, 1e-10)


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random, int], Op]
    check: Callable[[dict, int, str], None]
    # length of the workload's input cycle; the seed picks where it starts,
    # and a traced run holds whole cycles so its per-op counts repeat
    period: int = 1
    # shape of the reference round that corrects its op times (speed.py)
    probe: str = "calls"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-dense", make_sweep, check_sweep),
        Workload("verify-seeds", make_verify, check_verify),
        Workload("chsh-scan", make_chsh, check_chsh, period=len(CHSH_RESOLUTIONS), probe="grid"),
    )
}


def op_stream(workload: Workload, seed: int):
    """The seeded, endless sequence of ops of one workload."""
    rng = random.Random(seed)
    offset = rng.randrange(workload.period)
    index = 0
    while True:
        yield workload.make(rng, offset + index)
        index += 1
