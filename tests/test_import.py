"""``import pathpol`` in a fresh interpreter, and the golden outputs under a
second BLAS kernel.

The fresh interpreter runs with ``OPENBLAS_CORETYPE=Prescott``, which makes
a DYNAMIC_ARCH OpenBLAS (the one numpy wheels bundle) use its oldest x86-64
kernels in place of the ones it picks for the host. It imports pathpol and
prints the stdout of every golden command as JSON, so the goldens are
compared once on the host's kernel (``test_cli.py``) and once on another.
Where numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS the variable is inert and
the comparison still runs, on the host's own kernel.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import GOLDEN, GOLDEN_COMMANDS

SRC = Path(__file__).resolve().parent.parent / "src"

_PRINT_GOLDENS = """
import contextlib, io, json, sys
import pathpol
from pathpol.cli import main

outputs = {}
for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    outputs[name] = [code, out.getvalue()]
print(json.dumps(outputs))
"""


@pytest.fixture(scope="module")
def fresh_interpreter(tmp_path_factory):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", _PRINT_GOLDENS, json.dumps(GOLDEN_COMMANDS)],
        cwd=tmp_path_factory.mktemp("fresh"),
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": "Prescott"},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_import_pathpol_in_fresh_interpreter(fresh_interpreter):
    # a fault at import time shows here by name, not only as collection errors
    assert fresh_interpreter.returncode == 0, fresh_interpreter.stderr


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_goldens_hold_on_another_blas_kernel(fresh_interpreter, name):
    assert fresh_interpreter.returncode == 0, fresh_interpreter.stderr
    code, out = json.loads(fresh_interpreter.stdout)[name]
    assert code == 0
    assert out == (GOLDEN / name).read_bytes().decode("utf-8")
