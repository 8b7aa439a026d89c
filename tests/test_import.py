"""``import pathpol`` in a fresh interpreter, and the golden outputs under a
second BLAS kernel.

The session's fresh interpreter (``conftest.fresh_interpreter``) runs with
``OPENBLAS_CORETYPE=Prescott``, which makes a DYNAMIC_ARCH OpenBLAS (the one
numpy wheels bundle) use its oldest x86-64 kernels in place of the ones it
picks for the host. It imports pathpol and writes the stdout of every golden
command as JSON, so the goldens are compared once on the host's kernel
(``test_cli.py``) and once on another. Where numpy's BLAS is not a
DYNAMIC_ARCH OpenBLAS the variable is inert and the comparison still runs,
on the host's own kernel.
"""

import pytest

from test_cli import GOLDEN, GOLDEN_COMMANDS


def test_import_pathpol_in_fresh_interpreter(fresh_interpreter):
    # a fault at import time shows here by name, not only as collection errors
    assert fresh_interpreter.goldens is not None, fresh_interpreter.stderr.decode()


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_goldens_hold_on_another_blas_kernel(fresh_interpreter, name):
    assert fresh_interpreter.goldens is not None, fresh_interpreter.stderr.decode()
    code, out = fresh_interpreter.goldens[name]
    assert code == 0
    assert out == (GOLDEN / name).read_bytes().decode("utf-8")
