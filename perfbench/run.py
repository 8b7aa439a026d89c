"""pathpol benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

The benchmark drives ``pathpol.cli.main(argv)`` in-process as a closed loop:
one caller, one thread, BLAS pinned to one thread, the next op issued when
the previous one returns. Ops come from ``--seed`` (see ``workloads.py``);
stdout is captured in memory and checked by an independent oracle outside
the timed region. One untimed warm-up op runs before the loop.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
set-up time (median of fresh interpreters that import pathpol and parse the
workload's first op), throughput of passing ops, median and tail op latency,
and this process's peak RSS. Every time among them is corrected for the
host's drifting speed by a reference task run before and after each timed
interval (``speed.py``); the raw wall-clock figures go on the context line.
``--trace 1`` runs each op untraced and then traced, and reports per-op
layer metrics from ``tracer.py`` (wall-clock, uncorrected) plus import times
from ``python -X importtime``; its spans go to
``perfbench/out/spans-<workload>.csv.gz``.

The last line of stdout is the result object; the line before it holds the
run's context (versions, seed, tail percentile and sample count, fail
ratio). Exit status is 2, with no result, when the package is missing.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import launch

# before numpy is first imported; set-up probes inherit it
os.environ.update(launch.BLAS_ENV)

from speed import REF_LAUNCH_S, REFERENCE_LAUNCH, SpeedProbe, scale  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, OracleError, op_stream  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 7
IMPORTTIME_LAUNCHES = 3
TAIL_BEYOND = 10


def run_op(cli, op) -> tuple[float, int, str]:
    """One CLI invocation; returns (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(list(op.argv))
        elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue()


def run_checked(cli, workload, op) -> tuple[float, bool]:
    """Run and check one op; a raised exception or oracle miss is a failure."""
    try:
        elapsed, code, out = run_op(cli, op)
    except Exception:  # the op failed; the loop must go on and count it
        traceback.print_exc(file=sys.stderr)
        return float("nan"), False
    try:
        workload.check(op.params, code, out)
    except (OracleError, ValueError, IndexError, KeyError, SyntaxError) as exc:
        print(f"oracle: {' '.join(op.argv)}: {exc}", file=sys.stderr)
        return elapsed, False
    return elapsed, True


def timed_launch(argv: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_seconds(first_argv: tuple[str, ...]):
    """Wall and speed-corrected times of fresh interpreters that import
    pathpol and parse one op, each between two reference launches."""
    argv = [sys.executable, str(HERE / "launch.py"), json.dumps(list(first_argv))]
    reference = [sys.executable, *REFERENCE_LAUNCH]
    timed_launch(argv)  # warms the file cache (and bytecode caches, where written)
    wall, scaled = [], []
    before = timed_launch(reference)
    for _ in range(SETUP_LAUNCHES):
        seconds = timed_launch(argv)
        after = timed_launch(reference)
        wall.append(seconds)
        scaled.append(scale(seconds, before, after, REF_LAUNCH_S))
        before = after
    return wall, scaled


def import_seconds(first_argv: tuple[str, ...]) -> dict[str, float]:
    """Median cumulative import time of pathpol and scipy.optimize."""
    argv = [sys.executable, "-X", "importtime", str(HERE / "launch.py"), json.dumps(list(first_argv))]
    samples: dict[str, list[float]] = {"pathpol": [], "scipy.optimize": []}
    for _ in range(IMPORTTIME_LAUNCHES):
        proc = subprocess.run(argv, check=True, capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            # "import time: self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {name: statistics.median(v) for name, v in samples.items()}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with 10 ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def loop(cli, workload, stream, seconds: float, probe: SpeedProbe):
    """Closed loop: the next op starts when the previous one returns, after
    a reference round that closes the previous op's interval and opens
    this one's. Returns wall and speed-corrected latencies (nan where the op
    raised) and the number of failed ops."""
    wall, scaled, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    before = probe.round()
    while time.perf_counter() < deadline:
        elapsed, ok = run_checked(cli, workload, next(stream))
        after = probe.round()
        wall.append(elapsed)
        scaled.append(scale(elapsed, before, after, probe.reference_s))
        failed += not ok
        before = after
    return wall, scaled, failed


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def latency_metrics(latencies: list[float], failed: int, setup: list[float]) -> dict:
    timed = [t for t in latencies if t == t]  # nan: the op raised
    _, tail_s = tail(timed)
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric((len(latencies) - failed) / sum(timed), "1/s"),
        "op_p50_ms": metric(statistics.median(timed) * 1e3, "ms"),
        "op_tail_ms": metric(tail_s * 1e3, "ms"),
    }


def end_to_end(cli, workload, stream, seconds: float, setup, probe: SpeedProbe):
    setup_wall, setup_scaled = setup
    wall, scaled, failed = loop(cli, workload, stream, seconds, probe)
    metrics = latency_metrics(scaled, failed, setup_scaled)
    metrics["peak_rss_mib"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
    )
    timed = [t for t in wall if t == t]
    pct, _ = tail(timed)
    context = {
        "wall": latency_metrics(wall, failed, setup_wall),
        "setup_s.samples": setup_scaled,
        "op_tail_ms.percentile": pct,
        "op_tail_ms.samples": len(timed),
        "speed.round_ms.median": probe.median_round_ms(),
        "speed.round_shape": workload.probe,
        "speed.round_ms.reference": 1e3 * probe.reference_s,
        "speed.reference_launch_s.reference": REF_LAUNCH_S,
        "fail_ratio": metric(failed / len(wall), "ratio"),
    }
    return len(wall), failed, metrics, context


def per_layer(cli, workload, stream, seconds: float, first_argv, spans_path: Path):
    """Each op runs untraced, then traced right after, for ``seconds``.

    Back-to-back pairs keep the overhead ratio clear of slow drifts in
    machine speed; a traced run holds whole input cycles of the workload.
    """
    imports = import_seconds(first_argv)
    tracer = Tracer()
    plain, traced, failed, n = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or n % workload.period:
        op = next(stream)
        elapsed, ok = run_checked(cli, workload, op)
        plain.append(elapsed)
        failed += not ok
        tracer.begin_op(n)
        tracer.install()
        try:
            elapsed, ok = run_checked(cli, workload, op)
        finally:
            tracer.uninstall()
        tracer.end_op()
        traced.append(elapsed)
        failed += not ok
        n += 1
    tracer.write_spans(spans_path)

    metrics = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        metrics[f"{layer}.calls"] = metric(calls / n, "calls/op")
        metrics[f"{layer}.self_s"] = metric(self_s / n, "s/op")
    for layer, name in (("tensor", "kron"), ("tensor", "embed"), ("observables", "expectation")):
        metrics[f"{layer}.{name}.calls_per_op"] = metric(
            tracer.calls[(layer, name)] / n, "calls/op"
        )
    sym_calls = tracer.calls[("bench", "symmetrized_input")]
    metrics["bench.symmetrized_input.calls_per_op"] = metric(sym_calls / n, "calls/op")
    metrics["bench.symmetrized_input.distinct_ratio"] = metric(
        tracer.counters["symmetrized_input.distinct"] / sym_calls if sym_calls else 0.0,
        "ratio",
    )
    metrics["contextuality.scan_max.self_s"] = metric(
        tracer.self_s[("contextuality", "scan_max")] / n, "s/op"
    )
    metrics["contextuality.grid_bytes_computed"] = metric(
        tracer.counters["contextuality.grid_bytes"] / n, "B/op"
    )
    samples = tracer.counters["detector.samples"] / n
    metrics["detector.autocorrelation.samples"] = metric(samples, "samples/op")
    # times, intensity, its square (float64) and the two fields (complex128)
    metrics["detector.autocorrelation.bytes_computed"] = metric(samples * 56, "B/op")
    metrics["setup.import_pathpol_s"] = metric(imports["pathpol"], "s")
    metrics["setup.import_scipy_optimize_s"] = metric(imports["scipy.optimize"], "s")
    metrics["trace.overhead_ratio"] = metric(sum(traced) / sum(plain), "ratio")
    context = {
        "traced_ops": n,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(launch.ROOT)),
        "layers": list(LAYERS),
    }
    return 2 * n, failed, metrics, context


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    stream = op_stream(workload, args.seed)
    warmup = next(stream)
    if not args.trace:
        setup = setup_seconds(warmup.argv)

    pathpol, alias = launch.import_pathpol()
    import numpy
    import scipy

    cli = pathpol.cli
    _, warm_ok = run_checked(cli, workload, warmup)
    if args.trace:
        spans = HERE / "out" / f"spans-{workload.name}.csv.gz"
        attempted, failed, metrics, context = per_layer(
            cli, workload, stream, args.seconds, warmup.argv, spans
        )
    else:
        attempted, failed, metrics, context = end_to_end(
            cli, workload, stream, args.seconds, setup, SpeedProbe(workload.probe)
        )
    context.update(
        {
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "compat.np_trapz_alias": alias,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "warmup_ok": warm_ok,
        }
    )
    print(json.dumps({"context": context}))
    result = {
        "correct": warm_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                check=True, capture_output=True, text=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            status = "ok" if result["correct"] else "FAILED"
            print(f"{name} trace={trace} {status} "
                  f"({result['failed']}/{result['attempted']} ops failed)")
            for key, m in result["metrics"].items():
                print(f"  {key:<42} {m['value']:.6g} {m['unit']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (launch.SRC / "pathpol" / "__init__.py").is_file():
        print(f"run from a pathpol checkout: no package under {launch.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
