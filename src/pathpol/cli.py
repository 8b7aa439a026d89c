"""Command-line harness: correlate, sweep, chsh, verify, report.

Exit codes: 0 success, 1 verify found failing checks, 2 usage or
configuration error. All angles are radians; CSV output carries full double
precision (17 significant digits).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from . import bench, contextuality, correlations, detector, observables
from .scenario import ConfigError, Scenario, parse_scenario, phase_setting_for
from .verify import format_report, run_verify

CSV_HEADER = ("var", "delta", "C_closed", "C_numeric", "g2", "p45")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _resolution(text: str) -> int:
    lo, hi = contextuality.MIN_RESOLUTION, contextuality.MAX_RESOLUTION
    try:
        value = int(text)
    except ValueError:  # worded as argparse words it for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not lo <= value <= hi:
        raise argparse.ArgumentTypeError(f"must be in [{lo}, {hi}], got {value}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # worded as argparse words it for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _load_scenario(args: argparse.Namespace) -> Scenario:
    text = ""
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    return parse_scenario(text, tuple(args.set))


def _print_correlation(scn: Scenario) -> correlations.CorrelationReport:
    s1, s2 = scn.sources()
    report = correlations.correlation_report(scn.phases, s1, s2)
    print(f"delta     = {_fmt(report.delta)}")
    print(f"C_numeric = {_fmt(report.numeric)}")
    print(f"C_closed  = {_fmt(report.closed_form)}")
    print(f"ratio     = {_fmt(report.ratio)}")
    return report


def cmd_correlate(args: argparse.Namespace) -> int:
    _print_correlation(_load_scenario(args))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    scn = _load_scenario(args)
    if scn.sweep is None:
        raise ConfigError("sweep requires a sweep block (at least sweep.variable)")
    s1, s2 = scn.sources()
    values = np.linspace(scn.sweep.start, scn.sweep.stop, scn.sweep.points)
    ps = phase_setting_for(scn.sweep.variable, values, scn.phases)
    post = bench.apply_bs_prime(bench.evolve_prestate(s1, s2, ps))
    columns = (
        values,
        ps.delta,
        correlations.correlation_closed_form(ps, s1, s2),
        correlations.correlation_numeric(ps, s1, s2),
        correlations.g2_generalized(0, 0, 0, 0, ps, s1, s2),
        detector.p45_intensity(post),
    )

    row = ",".join(["%.17g"] * len(columns)) + "\n"

    def _write(stream) -> None:
        stream.write(",".join(CSV_HEADER) + "\n")
        # formatted as written: no list of every row is held
        stream.writelines(row % r for r in zip(*columns))

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
    s_fixed = contextuality.s_value(*contextuality.CASE1_SETTING)
    angles2 = contextuality.case2_setting(0.0)
    sp_fixed = contextuality.s_prime_value(*angles2)
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
    scn = _load_scenario(args)
    s1, s2 = scn.sources()
    print("[correlation]")
    corr = _print_correlation(scn)
    print()
    print("[intensity terms]  k l m n sign bracket")
    for t in corr.terms:
        print(f"  {t.k} {t.l} {t.m} {t.n} {t.sign:+d} {_fmt(t.value)}")
    print()
    print("[transfer check]")
    pre = bench.evolve_prestate(s1, s2, scn.phases)
    post = bench.apply_bs_prime(pre)
    transfer = observables.transfer_check(pre, post, scn.phases)
    print(f"bracket on symmetrized input = {_fmt(transfer.value_symmetrized)}")
    print(f"bracket on phased prestate   = {_fmt(transfer.value_prestate)}")
    print(f"bracket on output state      = {_fmt(transfer.value_final)}")
    print(f"max pairwise difference      = {_fmt(transfer.max_difference)}")
    print(f"conjugation residual         = {_fmt(transfer.conjugation_residual)}")
    print()
    print("[signed-sum identity]")
    total = correlations.sum_identity(scn.phases, s1, s2)
    print(f"signed 16-term sum = {_fmt(total.numeric)}")
    print(f"closed form        = {_fmt(total.closed_form)}")
    print(f"ratio              = {_fmt(total.ratio)}")
    return 0


def _add_scenario_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="scenario file (key = value lines)")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one scenario key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathpol",
        description="Two-source path/polarization interference bench simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("correlate", help="both correlation routes at one setting")
    _add_scenario_args(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("sweep", help="CSV sweep of one phase variable")
    _add_scenario_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("chsh", help="four-term functionals and their scan maxima")
    p.add_argument(
        "--resolution",
        type=_resolution,
        default=64,
        help="scan grid points per angle "
        f"({contextuality.MIN_RESOLUTION}..{contextuality.MAX_RESOLUTION})",
    )
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("verify", help="run every acceptance check")
    p.add_argument("--seed", type=_seed, default=0, help="seed for randomized checks (>= 0)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="correlate + transfer check + signed sum")
    _add_scenario_args(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
