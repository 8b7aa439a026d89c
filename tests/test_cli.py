import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pathpol import cli
from pathpol.cli import CSV_HEADER, main
from pathpol.contextuality import MAX_RESOLUTION, MIN_RESOLUTION


SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_correlate_defaults(capsys):
    code, out, err = run_cli(capsys, "correlate")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "delta     = 0"
    assert lines[2] == "C_closed  = 1"
    assert abs(float(lines[1].split("=")[1]) + 0.25) < 1e-12
    assert abs(float(lines[3].split("=")[1]) + 0.25) < 1e-12


def test_correlate_at_pi(capsys):
    code, out, _ = run_cli(
        capsys, "correlate", "--set", f"phases.theta1={np.pi}"
    )
    assert code == 0
    assert "C_closed  = -1" in out
    numeric = next(l for l in out.splitlines() if l.startswith("C_numeric"))
    assert abs(float(numeric.split("=")[1]) - 0.25) < 1e-12


def test_correlate_unequal_intensities(capsys):
    code, out, _ = run_cli(
        capsys,
        "correlate",
        "--set", "amplitudes.i1=1",
        "--set", "amplitudes.i2=3",
    )
    assert code == 0
    assert "C_closed  = 0.75" in out


def test_sweep_writes_csv_to_stdout(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--set", "sweep.variable=delta",
        "--set", "sweep.points=5",
        "--set", f"sweep.stop={2.0 * np.pi}",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 6  # header + points
    first = lines[1].split(",")
    assert float(first[1]) == 0.0  # delta
    assert float(first[2]) == 1.0  # C_closed
    assert abs(float(first[3]) + 0.25) < 1e-12  # C_numeric
    assert float(first[5]) < 1e-15  # p45
    # column laws across the sweep
    for row in lines[1:]:
        var, delta, c_closed, c_numeric, g2, p45 = (float(x) for x in row.split(","))
        assert abs(var - delta) < 1e-12
        assert abs(c_closed - np.cos(delta)) < 1e-12
        assert abs(c_numeric + 0.25 * np.cos(delta)) < 1e-12
        assert abs(g2 - (1.0 + (1.0 - np.cos(delta))) / 2.0) < 1e-12
        assert abs(p45 - (1.0 - np.cos(delta)) / 2.0) < 1e-12


@pytest.mark.parametrize(
    "argv", [("sweep", "--set", "sweep.variable=delta"), ("report",)], ids=["sweep", "report"]
)
def test_command_traces_the_bench_once(capsys, count_calls, argv):
    # one bench run serves every operator-route column or section, whichever
    # namespace reaches it (``correlate`` is counted in
    # test_correlations.py); the closed-form route runs nothing
    calls = count_calls(cli.bench.run)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out
    assert len(calls) == 1


def test_sweep_writes_file_and_is_deterministic(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "sweep.variable = delta\n"
        "sweep.points = 9\n"
        f"output = {out_path}\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert out == ""
    first = out_path.read_bytes()
    code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert out_path.read_bytes() == first
    assert first.startswith(b"var,delta,")
    assert len(first.splitlines()) == 10


def test_sweep_fields_print_17_significant_digits(capsys, monkeypatch):
    # signed zero, the smallest subnormal, a huge value and a non-terminating one
    special = np.array([-0.0, 5e-324, 1e300, -1.0 / 3.0])
    for module, name in (
        (cli.correlations, "correlation_closed_form"),
        (cli.correlations, "correlation_numeric"),
        (cli.correlations, "g2_generalized"),
        (cli.detector, "p45_intensity"),
    ):
        monkeypatch.setattr(module, name, lambda *args: special)
    code, out, _ = run_cli(
        capsys, "sweep", "--set", "sweep.variable=delta", "--set", "sweep.points=4",
        "--set", "sweep.stop=-1.0",
    )
    assert code == 0
    values = np.linspace(0.0, -1.0, 4)
    want = [",".join(CSV_HEADER)] + [
        ",".join(f"{x:.17g}" for x in (v, v, s, s, s, s)) for v, s in zip(values, special)
    ]
    assert out.splitlines() == want
    assert out.splitlines()[1].split(",")[2] == "-0"


# the exact stdout of three sweeps, captured at a78dec0 and re-captured once,
# when every 2x2 product became tensor.matmul2 (the p45 column moved by at
# most 6 ulp): any byte that moves fails; 100 rows are not a whole number of
# formatting blocks
_SWEEP_GOLDENS = {
    "sweep_delta_64.csv": ("--set", "sweep.variable=delta"),
    "sweep_theta1_256.csv": (
        "--set", "sweep.variable=theta1", "--set", "sweep.points=256",
        "--set", "amplitudes.i2=2.5",
    ),
    "sweep_phi2_100.csv": (
        "--set", "sweep.variable=phi2", "--set", "sweep.points=100",
        "--set", "sweep.start=-1.5", "--set", "sweep.stop=2.5",
        "--set", "phases.theta2=0.3", "--set", "phases.phi1=-0.7",
        "--set", "amplitudes.i1=0.4",
    ),
}


@pytest.mark.parametrize("name", sorted(_SWEEP_GOLDENS))
def test_sweep_prints_the_golden_output(tmp_path, capsys, name):
    golden = (GOLDEN / name).read_bytes().decode("utf-8")
    code, out, err = run_cli(capsys, "sweep", *_SWEEP_GOLDENS[name])
    assert (code, err) == (0, "")
    assert out == golden
    # a file gets the same bytes
    path = tmp_path / name
    code, out, _ = run_cli(capsys, "sweep", *_SWEEP_GOLDENS[name], "--set", f"output={path}")
    assert (code, out) == (0, "")
    assert path.read_bytes() == golden.encode("utf-8")


# the exact stdout of verify, correlate and report, captured at 2f02ac6: they
# pin the autocorrelation row, the report's sixteen brackets and the transfer
# check. The verify files were re-captured twice: when the property suite's
# commutators moved from 16x16 matrices to probe states, and when every 2x2
# product became tensor.matmul2. No printed byte goes through BLAS, so these
# bytes do not depend on the kernel numpy's BLAS picks for the host;
# test_import.py compares them under a second OpenBLAS kernel.
_SET = (
    "--set", "phases.theta1=0.4", "--set", "phases.phi1=1.1", "--set", "amplitudes.i2=2.5",
)
_TEXT_GOLDENS = {
    "verify_seed_0.txt": ("verify", "--seed", "0"),
    "verify_seed_12345.txt": ("verify", "--seed", "12345"),
    "correlate_default.txt": ("correlate",),
    "correlate_set.txt": ("correlate", *_SET),
    "report_default.txt": ("report",),
    "report_set.txt": ("report", *_SET),
}
# the full argv of every golden, by file name
GOLDEN_COMMANDS = {
    **{name: ("sweep", *args) for name, args in _SWEEP_GOLDENS.items()},
    **_TEXT_GOLDENS,
}


@pytest.mark.parametrize("name", sorted(_TEXT_GOLDENS))
def test_command_prints_the_golden_output(capsys, name):
    golden = (GOLDEN / name).read_bytes().decode("utf-8")
    code, out, err = run_cli(capsys, *_TEXT_GOLDENS[name])
    assert (code, err) == (0, "")
    assert out == golden


def test_sweep_goldens_cover_whole_and_short_blocks():
    rows = {len((GOLDEN / name).read_bytes().splitlines()) - 1 for name in _SWEEP_GOLDENS}
    assert rows == {64, 100, 256}
    assert {n % cli._CSV_BLOCK_ROWS == 0 for n in rows} == {True, False}


def test_sweep_into_a_closed_pipe_ends_quietly(tmp_path):
    # ~2,000 rows (~250 KB) outgrow a pipe buffer, so the sweep is still
    # writing when its reader leaves after one line (`pathpol sweep | head -1`)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    argv = ["sweep", "--set", "sweep.variable=delta", "--set", "sweep.points=2000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "pathpol.cli", *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == (",".join(CSV_HEADER) + "\n").encode()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert err == b""
    assert proc.returncode == cli.EXIT_STDOUT_CLOSED == 141


def test_sweep_without_block_is_config_error(capsys):
    code, out, err = run_cli(capsys, "sweep")
    assert code == 2
    assert "config error: sweep requires a sweep block" in err


def test_sweep_into_a_missing_directory_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "sweep.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--set", "sweep.variable=delta", "--set", f"output={path}"
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: cannot write output {str(path)!r}: ")
    assert err.count("\n") == 1
    assert not path.parent.exists()


def test_sweep_other_variables_change_delta(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--set", "sweep.variable=phi2",
        "--set", "sweep.points=3",
        "--set", "sweep.stop=1.0",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    # delta = -phi2 when every other phase is zero
    for row in rows:
        assert abs(float(row[0]) + float(row[1])) < 1e-15


def test_unknown_set_key_exits_2(capsys):
    code, _, err = run_cli(capsys, "correlate", "--set", "bogus.key=1")
    assert code == 2
    assert "config error: unknown key 'bogus.key'" in err


def test_missing_config_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "correlate", "--config", "/nonexistent/path.cfg")
    assert code == 2
    assert "cannot read config" in err


def test_undecodable_config_file_exits_2(tmp_path, capsys):
    # a Latin-1 byte in a comment raised a UnicodeDecodeError traceback
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"# caf\xe9\nphases.theta1 = 0.4\n")
    code, out, err = run_cli(capsys, "correlate", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: cannot read config {str(cfg)!r}: ")
    assert err.count("\n") == 1


def test_chsh_reports_maximal_violation(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--resolution", "32")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    two_sqrt2 = 2.0 * np.sqrt(2.0)
    fixed_s = float(lines[0].split("=")[1].split()[0])
    fixed_sp = float(lines[1].split("=")[1].split()[0])
    assert abs(fixed_s - two_sqrt2) < 1e-12
    assert abs(fixed_sp - two_sqrt2) < 1e-12
    for line in lines[2:]:
        scanned = float(line.split("=")[1].split()[0])
        assert scanned >= fixed_s - 1e-9
        assert scanned <= two_sqrt2 + 1e-9


@pytest.mark.parametrize("resolution", [8, 24, 48, 64, 96, 128, 192, 256])
def test_chsh_scan_angles_print_as_a_literal_tuple(capsys, resolution):
    code, out, _ = run_cli(capsys, "chsh", "--resolution", str(resolution))
    assert code == 0
    for line in out.splitlines()[2:]:
        assert len(ast.literal_eval(line.split("  at ")[1])) == 4


_CHSH_FIXED = (
    "case 1 fixed set   S  = 2.8284271247461903  at "
    "(0.0, 1.5707963267948966, 0.7853981633974483, -0.7853981633974483)\n"
    "case 2 fixed set   S' = 2.8284271247461903  at "
    "(0.0, 1.5707963267948966, -0.7853981633974483, 0.7853981633974483)\n"
)
# at R = 24 and 192 the grid picks the negative orientation of S, and case 1
# picks p' = 3*pi/2; its grid point reads an ulp above 2*sqrt(2), but the scan
# prints the polish, four ulp (case 1) and two ulp (case 2) below the grid point
_CHSH_GRID_POINT = (
    "case 1 scan max  |S| = 2.828427124746189  at "
    "(3.926990816987, 5.497787143782, 0.0, 4.712388980385)\n"
    "case 2 scan max  |S| = 2.8284271247461898  at "
    "(3.926990816987, 5.497787143782, 0.0, 1.570796326795)\n"
)
_CHSH_POLISHED = (
    "case 1 scan max  |S| = 2.8284271247461903  at "
    "(-0.785398163397, -2.356194490192, 0.0, 1.570796326795)\n"
    "case 2 scan max  |S| = 2.8284271247461903  at "
    "(0.785398163397, 2.356194490192, 0.0, 1.570796326795)\n"
)
_CHSH_SCANS = {24: _CHSH_GRID_POINT, 64: _CHSH_POLISHED, 128: _CHSH_POLISHED, 192: _CHSH_GRID_POINT}


@pytest.mark.parametrize("resolution", sorted(_CHSH_SCANS))
def test_chsh_prints_the_golden_output(capsys, resolution):
    code, out, err = run_cli(capsys, "chsh", "--resolution", str(resolution))
    assert (code, err) == (0, "")
    assert out == _CHSH_FIXED + _CHSH_SCANS[resolution]


@pytest.mark.parametrize("value", ["3", "-5", "7", str(MAX_RESOLUTION + 1), "1048576"])
def test_chsh_resolution_out_of_range_is_usage_error(capsys, monkeypatch, value):
    # R = 1048576 would need 8 TiB R^2 tables: refused before any grid is built
    def no_grid(*args, **kwargs):
        raise AssertionError("the scan grid must not be built")

    monkeypatch.setattr(np, "arange", no_grid)
    with pytest.raises(SystemExit) as info:
        main(["chsh", "--resolution", value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--resolution: must be in [{MIN_RESOLUTION}, {MAX_RESOLUTION}]" in captured.err


def test_chsh_non_integer_resolution_is_worded_as_int(capsys):
    with pytest.raises(SystemExit) as info:
        main(["chsh", "--resolution", "x"])
    assert info.value.code == 2
    assert "argument --resolution: invalid int value: 'x'" in capsys.readouterr().err


def test_report_sections_and_identities(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--set", "phases.theta1=0.9", "--set", "phases.phi2=-0.2"
    )
    assert code == 0
    assert "[correlation]" in out
    assert "[intensity terms]" in out
    assert "[transfer check]" in out
    assert "[signed-sum identity]" in out
    lines = out.splitlines()
    term_lines = [l for l in lines if l.startswith("  ") and len(l.split()) == 6]
    assert len(term_lines) == 16

    def section(name):
        i = lines.index(name)
        end = next(
            (k for k in range(i + 1, len(lines)) if lines[k].startswith("[")),
            len(lines),
        )
        fields = {}
        for line in lines[i + 1 : end]:
            key, eq, raw = line.partition(" = ")
            if eq:
                try:
                    fields[key.strip()] = float(raw)
                except ValueError:
                    pass
        return fields

    corr = section("[correlation]")
    assert abs(corr["ratio"] + 0.25) < 1e-12
    transfer = section("[transfer check]")
    assert transfer["max pairwise difference"] < 1e-12
    assert transfer["conjugation residual"] < 1e-12
    b = transfer["bracket on symmetrized input"]
    assert abs(b - transfer["bracket on phased prestate"]) < 1e-15
    assert abs(b - transfer["bracket on output state"]) < 1e-15
    summed = section("[signed-sum identity]")
    assert abs(summed["ratio"] + 8.0) < 1e-9
    assert abs(summed["signed 16-term sum"] + 8.0 * summed["closed form"]) < 1e-9


def test_report_signed_sum_ratio_is_nan_below_the_floor(capsys):
    # the sum cancels to rounding error here; it printed ratio = -9.64...
    code, out, _ = run_cli(
        capsys, "report", "--set", "amplitudes.i2=1e-16", "--set", "phases.theta1=0.4"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "ratio              = nan"
    assert lines[-4] == "[signed-sum identity]"


def test_verify_passes_and_is_deterministic(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "0")
    assert code == 0
    assert "result: PASS" in out
    assert "discrepancies logged" in out
    first = out
    code, out, _ = run_cli(capsys, "verify", "--seed", "0")
    assert code == 0
    assert out == first


def test_verify_reports_documented_discrepancies(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    logged = [line for line in out.splitlines() if "discrepancy-logged" in line]
    assert len(logged) == 3


def test_verify_negative_seed_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--seed", "-1"])
    assert info.value.code == 2
    assert "argument --seed: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, intensity",
    [("correlate", "1e154"), ("sweep", "1e154"), ("report", "1e154"),
     ("correlate", "1e-170"), ("sweep", "1e-200"), ("report", "1e-200")],
)
def test_intensity_out_of_range_is_config_error(capsys, command, intensity):
    # these crashed with OverflowError, printed NaN or found an empty aa branch
    code, out, err = run_cli(
        capsys, command, "--set", "sweep.variable=delta",
        "--set", f"amplitudes.i1={intensity}", "--set", f"amplitudes.i2={intensity}",
    )
    assert code == 2
    assert out == ""
    assert "amplitudes.i1 must be in [1e-150, 1e+150]" in err


_DELTA = "delta = theta1 + phi1 - theta2 - phi2"


@pytest.mark.parametrize(
    "argv, field",
    [
        (["sweep", "--set", "sweep.variable=phi1", "--set", "sweep.start=-1e308",
          "--set", "sweep.stop=1e308", "--set", "sweep.points=3"], "sweep.stop - sweep.start"),
        (["sweep", "--set", "sweep.variable=delta", "--set", "phases.theta2=1e308",
          "--set", "sweep.stop=1e308", "--set", "sweep.points=3"], "theta1"),
        (["correlate", "--set", "phases.theta1=1e308", "--set", "phases.phi1=1e308"], _DELTA),
        (["report", "--set", "phases.theta1=1e308", "--set", "phases.phi1=1e308"], _DELTA),
    ],
    ids=["sweep-span", "sweep-delta", "correlate", "report"],
)
def test_finite_phases_that_overflow_are_config_errors(capsys, argv, field):
    # these raised a traceback, or printed inf and NaN under RuntimeWarnings
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"{field} must be finite" in err


def test_consecutive_calls_share_no_parser_state(capsys):
    # the parser is built once; an override must not leak into the next call
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run_cli(capsys, "correlate", "--set", f"phases.theta1={np.pi}")
    assert code == 0 and "C_closed  = -1" in out
    code, out, _ = run_cli(capsys, "correlate")
    assert code == 0 and "C_closed  = 1" in out
    assert cli.build_parser().parse_args(["correlate"]).set == []
    assert cli.build_parser().parse_args(["chsh", "--resolution", "8"]).resolution == 8
    assert cli.build_parser().parse_args(["chsh"]).resolution == 64


def test_config_file_loading(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("phases.theta1 = 3.141592653589793\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "correlate", "--config", str(cfg))
    assert code == 0
    assert "C_closed  = -1" in out
