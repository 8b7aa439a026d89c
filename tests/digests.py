"""One sha256 per printed output, for checking that a change moves no byte.

    python tests/digests.py                 # print "<sha256>  <output>" lines
    python tests/digests.py > tests/golden/digests.txt   # re-capture
    python tests/digests.py --check         # compare with the committed file

The outputs are the stdout of 336 commands, run in process:
``verify --seed s`` for s in 0..59 and 12345, ``chsh`` at every resolution
in 8..256, ``sweep`` of each of the five variables at 7, 64 and 300
points, ``correlate`` and ``report`` at two settings, and the seven demos.
``--check`` names every output whose digest moved, and every output missing
from either side, and exits 1 if there is any. The name does not match
pytest's ``test_*.py`` pattern, so the suite does not collect it;
``test_digests.py`` recomputes a trimmed subset through ``digests(names)``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import runpy
import sys
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "golden" / "digests.txt"
sys.path.insert(0, str(ROOT / "src"))

from pathpol import cli  # noqa: E402

_SET = ("--set", "phases.theta1=0.4", "--set", "phases.phi1=1.1", "--set", "amplitudes.i2=2.5")


def commands() -> dict[str, tuple[str, ...]]:
    """The argv of every CLI output, by output name."""
    argvs = [("verify", "--seed", str(s)) for s in (*range(60), 12345)]
    argvs += [("chsh", "--resolution", str(r)) for r in range(8, 257)]
    argvs += [
        ("sweep", "--set", f"sweep.variable={var}", "--set", f"sweep.points={n}")
        for var in ("theta1", "theta2", "phi1", "phi2", "delta")
        for n in (7, 64, 300)
    ]
    for command in ("correlate", "report"):
        argvs += [(command,), (command, *_SET)]
    return {" ".join(argv): argv for argv in argvs}


def _stdout(action) -> bytes:
    out = io.StringIO()
    with redirect_stdout(out):
        action()
    return out.getvalue().encode("utf-8")


def digests(names: Iterable[str] | None = None) -> dict[str, str]:
    """sha256 of each output's stdout, by output name: every output, or only
    the ``names`` given."""
    actions = {name: partial(cli.main, list(argv)) for name, argv in commands().items()}
    for path in sorted((ROOT / "demos").glob("*.py")):
        actions[f"demo {path.name}"] = partial(runpy.run_path, str(path), run_name="__main__")
    return {
        name: hashlib.sha256(_stdout(actions[name])).hexdigest()
        for name in (actions if names is None else names)
    }


def read_digests(path: Path) -> dict[str, str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines if line)}


def moved(now: dict[str, str], committed: dict[str, str]) -> list[str]:
    """One line per output that differs, is new, or is gone."""
    lines = []
    for name in sorted(now.keys() | committed.keys()):
        if name not in committed:
            lines.append(f"new: {name}")
        elif name not in now:
            lines.append(f"gone: {name}")
        elif now[name] != committed[name]:
            lines.append(f"moved: {name}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help=f"compare with {DIGESTS.name}")
    args = parser.parse_args(argv)
    now = digests()
    if not args.check:
        print("\n".join(f"{digest}  {name}" for name, digest in now.items()))
        return 0
    lines = moved(now, read_digests(DIGESTS))
    print("\n".join(lines) if lines else f"{len(now)} outputs unchanged")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
