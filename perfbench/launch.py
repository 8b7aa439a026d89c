"""Start-up shared by the benchmark process and its set-up probes.

The package sits in ``src/`` of the checkout; nothing is installed. numpy
2.4 removed ``np.trapz``, which ``pathpol.detector`` still names at import
time, so before the first ``import pathpol`` the launcher binds the old name
to ``np.trapezoid`` (the same routine) when, and only when, it is missing.

Run as a script, this file is the set-up probe that ``setup_s`` times: a
fresh interpreter that imports pathpol and parses one CLI invocation
(``python3 perfbench/launch.py '<argv as JSON>'``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# one BLAS thread: the benchmark is a single-caller closed loop
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def apply_trapz_alias() -> bool:
    """Bind ``np.trapz`` to ``np.trapezoid`` if it is missing; True if bound."""
    import numpy as np

    if hasattr(np, "trapz"):
        return False
    np.trapz = np.trapezoid
    return True


def import_pathpol():
    """Import the package from the checkout's ``src`` (alias applied first).

    Returns ``(pathpol, alias_applied)``.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    alias = apply_trapz_alias()
    import pathpol
    import pathpol.cli

    return pathpol, alias


def parse_first_scenario(pathpol, argv: list[str]) -> None:
    """What a user's first invocation does before any physics: parse it."""
    args = pathpol.cli.build_parser().parse_args(argv)
    if hasattr(args, "set"):
        pathpol.scenario.parse_scenario("", tuple(args.set))


if __name__ == "__main__":
    module, _ = import_pathpol()
    parse_first_scenario(module, json.loads(sys.argv[1]))
