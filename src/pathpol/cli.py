"""Command-line harness: correlate, sweep, chsh, verify, report.

Each command's options are declared once, in ``_COMMANDS``. An argv of the
form ``<command> (<flag> <value>)*``, with every flag spelled out and no
value starting with ``-``, is read straight off that table; argparse, built
from the same table by ``build_parser``, reads every other argv and prints
all help, usage and error text. Both give the same ``argparse.Namespace``.

Exit codes: 0 success, 1 verify found failing checks, 2 usage or
configuration error, 141 stdout closed before the output was complete. All
angles are radians; CSV output carries full double precision (17
significant digits).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from math import inf
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import bench, contextuality, correlations, detector, observables
from .scenario import ConfigError, Scenario, parse_scenario, phase_setting_for
from .verify import format_report, run_verify

CSV_HEADER = ("var", "delta", "C_closed", "C_numeric", "g2", "p45")
# sweep rows per formatting call: one call per row is about a tenth slower
# at 256 rows, and a bigger block gains nothing more
_CSV_BLOCK_ROWS = 64
# stdout closed early: the status a shell reports for a writer that SIGPIPE
# ended (128 + 13), so `set -o pipefail` sees the cut output as before
EXIT_STDOUT_CLOSED = 141


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _bounded_int(lo: int, hi: float = inf):
    """Option converter: an int in [lo, hi]; a refusal is an
    ``argparse.ArgumentTypeError``, worded as argparse words its own."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:  # worded as argparse words it for type=int
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not lo <= value <= hi:
            bound = f">= {lo}" if hi == inf else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def _load_scenario(args: argparse.Namespace) -> Scenario:
    text = ""
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    return parse_scenario(text, tuple(args.set))


def _scenario_run(args: argparse.Namespace) -> bench.BenchRun:
    """The bench run of the scenario the arguments name, at its phases."""
    scn = _load_scenario(args)
    return bench.run(*scn.sources(), scn.phases)


def _print_correlation(run: bench.BenchRun) -> correlations.CorrelationReport:
    report = correlations.correlation_report(run)
    print(f"delta     = {_fmt(report.delta)}")
    print(f"C_numeric = {_fmt(report.numeric)}")
    print(f"C_closed  = {_fmt(report.closed_form)}")
    print(f"ratio     = {_fmt(report.ratio)}")
    return report


def cmd_correlate(args: argparse.Namespace) -> int:
    _print_correlation(_scenario_run(args))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Write the sweep's CSV: the header, then one row per point.

    Every column is computed for the whole sweep in one call. Rows are
    formatted a block of ``_CSV_BLOCK_ROWS`` at a time, one ``%`` call per
    block, so only one block's Python floats and text exist at once.
    """
    scn = _load_scenario(args)
    if scn.sweep is None:
        raise ConfigError("sweep requires a sweep block (at least sweep.variable)")
    s1, s2 = scn.sources()
    values = np.linspace(scn.sweep.start, scn.sweep.stop, scn.sweep.points)
    ps = phase_setting_for(scn.sweep.variable, values, scn.phases)
    run = bench.run(s1, s2, ps)
    table = np.column_stack(
        (
            values,
            ps.delta,
            correlations.correlation_closed_form(ps, s1, s2),
            correlations.correlation_numeric(run),
            correlations.g2_generalized(0, 0, 0, 0, ps, s1, s2),
            detector.p45_intensity(run.output),
        )
    )
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    block = row * _CSV_BLOCK_ROWS

    def _write(stream) -> None:
        stream.write(",".join(CSV_HEADER) + "\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            rows = table[start : start + _CSV_BLOCK_ROWS]
            # formatted from Python floats (numpy scalars format the same,
            # but slower); the last block may be short
            text = block if len(rows) == _CSV_BLOCK_ROWS else row * len(rows)
            stream.write(text % tuple(rows.ravel().tolist()))

    if scn.output is None:
        _write(sys.stdout)
    else:
        try:
            with open(scn.output, "w", encoding="utf-8", newline="") as fh:
                _write(fh)
        except OSError as exc:
            raise ConfigError(f"cannot write output {scn.output!r}: {exc}") from None
    return 0


def cmd_chsh(args: argparse.Namespace) -> int:
    s_fixed = contextuality.functional(1, *contextuality.CASE1_SETTING)
    angles2 = contextuality.case2_setting(0.0)
    sp_fixed = contextuality.functional(2, *angles2)
    print(f"case 1 fixed set   S  = {_fmt(s_fixed)}  at {contextuality.CASE1_SETTING}")
    print(f"case 2 fixed set   S' = {_fmt(sp_fixed)}  at {angles2}")
    for case in (1, 2):
        scan = contextuality.scan_max(case, args.resolution)
        angles = tuple(round(a, 12) for a in scan.angles)
        print(f"case {case} scan max  |S| = {_fmt(scan.max_abs)}  at {angles}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_verify(args.seed)
    print(format_report(report))
    return 0 if report.ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    run = _scenario_run(args)
    print("[correlation]")
    corr = _print_correlation(run)
    print()
    print("[intensity terms]  k l m n sign bracket")
    for t in corr.terms:
        print(f"  {t.k} {t.l} {t.m} {t.n} {t.sign:+d} {_fmt(t.value)}")
    print()
    print("[transfer check]")
    transfer = observables.transfer_check(run)
    print(f"bracket on symmetrized input = {_fmt(transfer.value_symmetrized)}")
    print(f"bracket on phased prestate   = {_fmt(transfer.value_prestate)}")
    print(f"bracket on output state      = {_fmt(transfer.value_final)}")
    print(f"max pairwise difference      = {_fmt(transfer.max_difference)}")
    print(f"conjugation residual         = {_fmt(transfer.conjugation_residual)}")
    print()
    print("[signed-sum identity]")
    total = correlations.sum_identity(run.ps, run.s1, run.s2)
    print(f"signed 16-term sum = {_fmt(total.numeric)}")
    print(f"closed form        = {_fmt(total.closed_form)}")
    print(f"ratio              = {_fmt(total.ratio)}")
    return 0


class _Option(NamedTuple):
    """One option of a command: ``flag VALUE`` stores ``convert(VALUE)``
    under the flag's name without ``--``, or appends it to a copy of
    ``default`` when that is a list. ``help`` and ``metavar`` are for
    argparse's help text."""

    flag: str
    convert: Callable[[str], object]
    default: object
    help: str
    metavar: str | None = None


_SCENARIO_OPTIONS = (
    _Option("--config", str, None, "scenario file (key = value lines)"),
    _Option("--set", str, [], "override one scenario key (repeatable)", metavar="KEY=VALUE"),
)

# command -> (help, options), in the order the help text lists them
_COMMANDS = {
    "correlate": ("both correlation routes at one setting", _SCENARIO_OPTIONS),
    "sweep": ("CSV sweep of one phase variable", _SCENARIO_OPTIONS),
    "chsh": (
        "four-term functionals and their scan maxima",
        (
            _Option(
                "--resolution",
                _bounded_int(contextuality.MIN_RESOLUTION, contextuality.MAX_RESOLUTION),
                64,
                "scan grid points per angle "
                f"({contextuality.MIN_RESOLUTION}..{contextuality.MAX_RESOLUTION})",
            ),
        ),
    ),
    "verify": (
        "run every acceptance check",
        (_Option("--seed", _bounded_int(0), 0, "seed for randomized checks (>= 0)"),),
    ),
    "report": ("correlate + transfer check + signed sum", _SCENARIO_OPTIONS),
}
# command -> {flag: option}, as _read_args looks flags up
_FLAGS = {command: {o.flag: o for o in options} for command, (_, options) in _COMMANDS.items()}


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``_COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="pathpol",
        description="Two-source path/polarization interference bench simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for o in options:
            p.add_argument(
                o.flag,
                action="append" if isinstance(o.default, list) else "store",
                type=o.convert,
                default=o.default,
                metavar=o.metavar,
                help=o.help,
            )
    return parser


def _read_args(argv: Sequence[str]) -> argparse.Namespace | None:
    """``argv`` read off ``_COMMANDS``, or None unless it is a command and
    then flag-value pairs, each flag exact, each value not starting with
    ``-`` and accepted by its converter.

    None sends ``-h``, ``--flag=value``, an abbreviated or unknown flag, a
    missing value and a refused value to argparse, which words every help
    and error. A namespace returned equals ``build_parser().parse_args(argv)``.
    """
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is None or len(argv) % 2 == 0:
        return None
    # by each flag's name, with a copy of each list default for the appends below
    values = {
        o.flag[2:]: list(o.default) if isinstance(o.default, list) else o.default
        for o in flags.values()
    }
    for i in range(1, len(argv), 2):
        option, text = flags.get(argv[i]), argv[i + 1]
        if option is None or text.startswith("-"):
            return None
        try:
            value = option.convert(text)
        except argparse.ArgumentTypeError:
            return None
        if isinstance(option.default, list):
            values[option.flag[2:]].append(value)
        else:
            values[option.flag[2:]] = value
    return argparse.Namespace(command=argv[0], **values)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_args(argv) or build_parser().parse_args(argv)
    try:
        # looked up at call time, so a wrapped or patched command is the one run
        code = globals()[f"cmd_{args.command}"](args)
        # flushed here, so a reader that stopped early is met inside this try
        sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader left before the output ended (`pathpol sweep | head`):
        # end quietly, with stdout on the null device so that the
        # interpreter's own flush at exit meets no closed pipe either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_STDOUT_CLOSED


if __name__ == "__main__":
    sys.exit(main())
