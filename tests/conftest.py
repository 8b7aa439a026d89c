"""The suite's Hypothesis policy, its one fresh interpreter, and fixtures
that reach a pathpol function wherever the package binds it.

Every property test runs under one profile: no deadline (a drawn example's
time depends on the host, not on the code) and no example database (a run
replays only its ``@seed``'s draws, never a failure saved by an earlier run).
Each ``@settings`` sets its own ``max_examples`` and inherits the rest.

``from .tensor import apply_slot`` copies a binding into the importing
module, so a patch of the defining module alone would miss those callers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import settings

settings.register_profile("pathpol", deadline=None, database=None)
settings.load_profile("pathpol")

SRC = Path(__file__).resolve().parents[1] / "src"
# ~2,000 rows (~250 KB) outgrow a pipe buffer, so the sweep is still writing
# when its reader leaves after one line (`pathpol sweep | head -1`)
CLOSED_PIPE_SWEEP = ("sweep", "--set", "sweep.variable=delta", "--set", "sweep.points=2000")

# argv: the goldens' output file, the golden commands, the sweep's argv
_FRESH_SESSION = """
import contextlib, io, json, runpy, sys
import pathpol
from pathpol.cli import main

outputs = {}
for name, argv in json.loads(sys.argv[2]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    outputs[name] = [code, out.getvalue()]
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(outputs, fh)

# then `python -m pathpol.cli <sweep>`: -m finds pathpol.cli not yet
# imported, and runpy warns on stderr if it is
sweep = json.loads(sys.argv[3])
del sys.modules["pathpol.cli"]
sys.argv = ["pathpol.cli", *sweep]
runpy.run_module("pathpol.cli", run_name="__main__")
"""


@pytest.fixture(scope="session")
def fresh_interpreter(tmp_path_factory):
    """One interpreter for the session, under ``OPENBLAS_CORETYPE=Prescott``:
    it imports pathpol and writes the stdout of every golden command as JSON
    (``goldens``, None if it never got that far), then runs the closed-pipe
    sweep as ``-m pathpol.cli``, whose stdout is closed after the first line
    (``header``). ``stderr`` and ``returncode`` are the whole run's."""
    from test_cli import GOLDEN_COMMANDS

    cwd = tmp_path_factory.mktemp("fresh")
    goldens, stderr = cwd / "goldens.json", cwd / "stderr"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    argv = [json.dumps(GOLDEN_COMMANDS), json.dumps(CLOSED_PIPE_SWEEP)]
    with stderr.open("wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", _FRESH_SESSION, str(goldens), *argv],
            cwd=cwd,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": "Prescott"},
            stdout=subprocess.PIPE,
            stderr=err,
        )
        try:
            header = proc.stdout.readline()
            proc.stdout.close()
            proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.wait()
    return SimpleNamespace(
        goldens=json.loads(goldens.read_text(encoding="utf-8")) if goldens.exists() else None,
        header=header,
        stderr=stderr.read_bytes(),
        returncode=proc.returncode,
    )


def _bindings(value):
    """Every (module, name) of a pathpol module that is bound to ``value``."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "pathpol"]
    return [(m, attr) for m in modules for attr, v in vars(m).items() if v is value]


@pytest.fixture
def patch_everywhere(monkeypatch):
    """``patch(original, replacement)`` swaps a pathpol function in every
    pathpol namespace that binds it, its own module included."""

    def patch(original, replacement):
        bound = _bindings(original)
        assert (sys.modules[original.__module__], original.__name__) in bound
        for module, attr in bound:
            monkeypatch.setattr(module, attr, replacement)

    return patch


@pytest.fixture
def count_calls(patch_everywhere):
    """``count(original)`` wraps a pathpol function everywhere it is bound
    and returns the list its calls' arguments are appended to."""

    def count(original):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        patch_everywhere(original, counting)
        return calls

    return count
