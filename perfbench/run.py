"""ncmetro benchmark: seeded closed-loop CLI workloads with checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload oracle-scans --seed 1 --seconds 20 --trace 0

One client, no think time: each op is one CLI command run in-process
through ``ncmetro.cli.main(argv)`` with stdout captured, so parsing,
dispatch, computation and emit all fall inside the timed op.  Each op's
output is checked against a closed-form reference after the timer stops.

``--trace 0`` measures the end-to-end metrics for ``--seconds``; its timing
metrics are divided by the machine's slowdown, read from a fixed
calibration kernel timed all through the run (``calibration.py``), and the
raw figures go to the record.
``--trace 1`` runs a fixed number of rounds (set by ``--seconds``) with the
layer wrappers of ``tracer.py`` installed, interleaved with as many
untraced rounds, and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is the run
record: environment, sample counts, set-up samples and every failed cell
with its reason.  ``correct`` is false when an op gave a trusted value off
its reference that truncation does not explain, or printed output that
cannot be parsed.
"""

from __future__ import annotations

import os

# One BLAS thread (never more than nproc), set before anything imports numpy.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up samples per run, spread over the run; the median is reported.
SETUP_SAMPLES = 11
#: The tail is read at the highest percentile, up to TAIL_MAX, with at least
#: TAIL_BEYOND samples beyond it; above p95 the machine's per-op jitter, not
#: the program, decides it.
TAIL_BEYOND = 10
TAIL_MAX = 0.95

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def load_cli():
    """Import ncmetro from this checkout's ``src/`` (never an installed copy)."""
    if not (SRC / "ncmetro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ncmetro package under {SRC}; "
                         "run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ncmetro.cli

    if Path(ncmetro.cli.__file__).resolve().parent != (SRC / "ncmetro").resolve():
        raise SystemExit(f"perfbench: imported ncmetro from {ncmetro.cli.__file__}, "
                         f"not from {SRC}")
    return ncmetro.cli.main


def call(cli_main, argv):
    """Run one CLI command in-process; returns (code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli_main(list(argv))
        except Exception as exc:  # an uncaught exception: the CLI would exit 1
            code = 1
            err.write(f"uncaught {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


class Ledger:
    """Latencies and verdicts of the ops run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.starts: list[float] = []  # run time at which each op started
        self.attempted = 0
        self.failed = 0
        self.unexplained = 0
        self.failures: dict = {}
        self.fock_rel_err = 0.0

    def add(self, op, code, out, err, elapsed, started=0.0):
        verdict = checks.judge(code, out, err, op.fmt, op.check)
        self.latencies.append(elapsed)
        self.starts.append(started)
        self.attempted += 1
        self.fock_rel_err = max(self.fock_rel_err, verdict.fock_rel_err)
        if not verdict.failed:
            return
        self.failed += 1
        if verdict.status == checks.WRONG and not verdict.explained:
            self.unexplained += 1
        entry = self.failures.setdefault(op.cell, {
            "cell": op.cell, "argv": op.argv, "status": verdict.status,
            "reason": verdict.reason, "note": op.note, "count": 0,
        })
        entry["count"] += 1

    def run_op(self, cli_main, op, started=0.0):
        code, out, err, elapsed = call(cli_main, op.argv)
        self.add(op, code, out, err, elapsed, started)
        return elapsed

    def run_round(self, cli_main, ops):
        return sum(self.run_op(cli_main, op) for op in ops)


def setup_sample(warmup) -> float:
    """Seconds from starting a fresh interpreter to the end of its warm-up op."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), json.dumps(warmup)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["end"] - start


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "platform": platform.platform(),
    }


def tail(latencies):
    """(value, percentile, samples): the highest percentile up to TAIL_MAX
    with TAIL_BEYOND samples beyond it (nearest rank), or the maximum when
    there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(0, min(n - TAIL_BEYOND - 1, math.ceil(TAIL_MAX * n) - 1))
    return ordered[rank], 100.0 * (rank + 1) / n, n


def measure(workload, cli_main, seconds):
    """Untraced rounds for ``seconds``; returns the ledger, the end-to-end
    metrics and the run record.

    Every op's latency is divided by the machine's slowdown around its
    start, read from the calibration kernel (``calibration.py``), before
    the timing metrics are taken.  Set-up samples are spread evenly over
    the run, each between two kernel samples and divided the same way.  The
    raw figures are kept in the record.
    """
    ledger = Ledger()
    t0 = time.perf_counter()
    cal = calibration.Calibration(lambda: time.perf_counter() - t0)
    setup = []  # (run time, seconds)
    rounds = 0
    while rounds == 0 or cal.clock() < seconds:
        for op in workload.round(rounds):
            if len(setup) < SETUP_SAMPLES and cal.clock() >= len(setup) * seconds / SETUP_SAMPLES:
                cal.sample()
                at = cal.clock()
                setup.append((at, setup_sample(workload.warmup)))
                cal.sample()
            cal.tick()
            ledger.run_op(cli_main, op, cal.clock())
        rounds += 1
    cal.sample()
    steady = [lat / cal.slowdown(t) for lat, t in zip(ledger.latencies, ledger.starts)]
    tail_s, tail_pct, n = tail(steady)
    metrics = {
        "ops_per_s": n / sum(steady),
        "op_p50_ms": 1000.0 * statistics.median(steady),
        "op_tail_ms": 1000.0 * tail_s,
        "ok_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(s / cal.slowdown(t) for t, s in setup),
    }
    raw = ledger.latencies
    record = {
        "rounds": rounds, "cells": len(workload.cells), "samples": n,
        "op_tail_percentile": tail_pct, "op_tail_beyond": TAIL_BEYOND,
        "slowdown": cal.summary(),
        "raw": {"ops_per_s": len(raw) / sum(raw),
                "op_p50_ms": 1000.0 * statistics.median(raw),
                "op_tail_ms": 1000.0 * tail(raw)[0],
                "setup_s": statistics.median(s for _, s in setup)},
        "setup_samples_s": [s for _, s in setup],
        "setup_slowdowns": [cal.slowdown(t) for t, _ in setup],
        "measured_s": cal.clock(),
    }
    return ledger, metrics, record


def measure_traced(workload, cli_main, seconds):
    """Traced and untraced rounds, interleaved; the traced ones feed the
    per-layer metrics, the pair gives the tracing overhead."""
    pairs = max(1, round(seconds * workload.traced_rounds_per_s))
    spans = tracer.Tracer()
    ledger = Ledger()
    plain_s = traced_s = 0.0
    for k in range(pairs):
        plain_s += ledger.run_round(cli_main, workload.round(2 * k))
        with spans:
            traced_s += ledger.run_round(cli_main, workload.round(2 * k + 1))
    metrics = spans.metrics()
    metrics["fock.max_rel_err"] = ledger.fock_rel_err
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics.update(tracer.source_lines(SRC))
    values = {name: float(metrics.get(name, 0)) for name, _, _ in tracer.PER_LAYER}
    record = {"rounds_traced": pairs, "rounds_untraced": pairs,
              "samples": ledger.attempted, "missing_spans": spans.missing}
    return ledger, values, record


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    cli_main = load_cli()
    code, _, err, _ = call(cli_main, workload.warmup)
    if code != 0:
        raise SystemExit(f"perfbench: warm-up op failed: {err.strip()}")

    if args.trace:
        ledger, values, record = measure_traced(workload, cli_main, args.seconds)
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        ledger, values, record = measure(workload, cli_main, args.seconds)
        units = dict(END_TO_END)
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "failed_frac": ledger.failed / ledger.attempted,
        "unexplained_wrong": ledger.unexplained,
        "failures": sorted(ledger.failures.values(), key=lambda e: e["cell"]),
    })
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": ledger.unexplained == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
