"""Acceptance gate: every row of ``pathpol verify``, asserted by its ID.

Each shipped guarantee is one verify row, and its oracle and tolerance are
defined once, in ``pathpol.verify``; the row IDs and the status each must
reach are the ones pinned in ``test_verify_rows.ROWS``. The gate runs the
suite once and prints a single

    acceptance <row-id>: PASS|FAIL (measured <measured>, tol <tolerance>)

line per row straight to the terminal. The three rows comparing the
operator route with the closed form pass as ``discrepancy-logged``: the
functional form holds, and the constant between the routes is the
measured value on their line. The time-domain ``autocorrelation-averaging``
row keeps its own named test; every other row is one parametrised case.
"""

import pytest

from pathpol.verify import run_verify
from test_verify_rows import ROWS


@pytest.fixture(scope="module")
def checks():
    return {check.name: check for check in run_verify(0).checks}


def gate(capsys, checks, row_id, status):
    check = checks[row_id]
    ok = check.status == status
    with capsys.disabled():
        print(
            f"acceptance {row_id}: {'PASS' if ok else 'FAIL'} "
            f"(measured {check.measured:.6e}, tol {check.tolerance:.0e})"
        )
    assert ok, f"{row_id}: {check.status}, expected {status} ({check.note})"


STATE_ROWS = [row for row in ROWS if row[0] != "autocorrelation-averaging"]


@pytest.mark.parametrize(
    "row_id, status", STATE_ROWS, ids=[row_id for row_id, _ in STATE_ROWS]
)
def test_verify_row(capsys, checks, row_id, status):
    gate(capsys, checks, row_id, status)


def test_8_time_domain_autocorrelation(capsys, checks):
    # the one row read from the time-domain detector rather than the state vector
    gate(capsys, checks, "autocorrelation-averaging", "pass")
