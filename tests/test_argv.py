"""How ``pathpol`` reads its argv: the option-table reader and argparse.

``cli._read_args`` reads a well-formed argv straight off the option table
and leaves every other argv to ``cli.build_parser()``. The reader must give
argparse's own namespace, never decide an argv argparse would refuse, and
carry every command the digests and the benchmark's workloads run
without building the parser.
"""

import argparse
import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import digests
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pathpol import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture
def commands_read(monkeypatch):
    """Every command stubbed to keep its namespace and return 0; the list
    of the namespaces kept."""
    read = []
    for command in cli._COMMANDS:
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: read.append(args) or 0)
    return read


def _outcome(capsys, call, argv):
    """What ``call(argv)`` returns, or the code it exits with, then its
    stdout and stderr."""
    try:
        result = call(list(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("bogus",),
        ("chsh", "--resolution=64"),
        ("chsh", "--res", "64"),
        ("-h",),
        ("chsh", "-h"),
        ("chsh", "--bogus"),
        ("sweep", "--set"),
    ],
    ids=["no-command", "unknown-command", "joined", "abbreviated", "help", "chsh-help",
         "unknown-flag", "missing-value"],
)
def test_argparse_reads_what_the_table_leaves(capsys, commands_read, argv):
    assert cli._read_args(list(argv)) is None
    direct = _outcome(capsys, cli.build_parser().parse_args, argv)
    if isinstance(direct[0], argparse.Namespace):
        # the joined and abbreviated flags are valid: main runs the command
        # on the namespace argparse gives
        assert commands_read == []
        assert _outcome(capsys, cli.main, argv) == (0, "", "")
        assert commands_read == [direct[0]] and direct[0].resolution == 64
        return
    assert direct[0] in (0, 2) and (direct[1] or direct[2])
    assert _outcome(capsys, cli.main, argv) == direct
    assert commands_read == []


COMMANDS = st.sampled_from(["correlate", "sweep", "chsh", "verify", "report", "bogus", "chs"])
EXACT = {"chsh": ["--resolution"], "verify": ["--seed"]}
FLAGS = st.sampled_from(
    ["--resolution", "--seed", "--set", "--config", "--res", "--se", "--conf", "-h", "--help", "--"]
)
VALUES = st.sampled_from(
    # valid, out-of-range, negative and non-integer ints; key=value, '' and -
    ["8", "64", "256", "0", "12345", " 16", "+7", "3", "257", "1048576", "-1", "-5", "x",
     "1.5", "", "-", "phases.theta1=0.4", "sweep.points=7", "a=b", "--set"]
)
TOKENS = st.one_of(
    COMMANDS, FLAGS, VALUES, st.builds(lambda flag, value: f"{flag}={value}", FLAGS, VALUES)
)


@st.composite
def argvs(draw):
    """A command and flag-value pairs of its own flags, often with one token
    inserted that may break the form; or any few tokens."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.lists(TOKENS, max_size=6))
    command = draw(COMMANDS)
    flags = st.sampled_from(EXACT.get(command, ["--config", "--set"]))
    argv = [command]
    for _ in range(draw(st.integers(0, 3))):
        argv += [draw(flags), draw(VALUES)]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(TOKENS))
    return argv


@seed(20280)
@settings(max_examples=150)
@given(argv=argvs())
def test_what_the_table_reads_argparse_reads_the_same(argv):
    read = cli._read_args(argv)
    if read is not None:
        assert cli.build_parser().parse_args(argv) == read


def _without_argparse(monkeypatch):
    """Make building the parser fail; return the parser built before."""
    parser = cli.build_parser()

    def no_parser():
        raise AssertionError("argparse built for a well-formed argv")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    return parser


def test_every_digest_command_is_read_without_argparse(monkeypatch, commands_read):
    parser = _without_argparse(monkeypatch)
    argvs = list(digests.commands().values())
    assert [cli.main(list(argv)) for argv in argvs] == [0] * len(argvs)
    assert commands_read == [parser.parse_args(list(argv)) for argv in argvs]


def test_every_workload_op_runs_without_argparse(monkeypatch):
    # one op of each benchmark workload, run and checked by its own oracle
    _without_argparse(monkeypatch)
    bench = runpy.run_path(str(WORKLOADS))
    assert len(bench["WORKLOADS"]) == 3
    for workload in bench["WORKLOADS"].values():
        op = next(bench["op_stream"](workload, 28))
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(list(op.argv))
        workload.check(op.params, code, out.getvalue())
