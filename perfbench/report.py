"""Run every workload and print its metrics as a table.

Usage (from the root of a checkout):

    python3 perfbench/report.py --seed 1 --seconds 35 [--trace]

Each workload runs in its own process through run.py.  The end-to-end
table gives each metric with its unit and the sample counts behind it; with
--trace a traced run of each workload follows and its per-layer metrics are
printed too.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_workload(name, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: run.py exited {proc.returncode}: {proc.stderr[-1000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", action="store_true", help="also print per-layer metrics")
    args = parser.parse_args()
    for name in WORKLOADS:
        record, result = run_workload(name, args.seed, args.seconds, 0)
        print(f"\n== {name} (seed {args.seed}): {result['attempted']} ops, "
              f"{result['failed']} failed, correct={result['correct']}")
        counts = {
            "ops_per_s": f"{record['samples']} ops: {record['cells']} cells x "
                         f"{record['rounds']} rounds",
            "op_p50_ms": f"{record['samples']} samples",
            "op_tail_ms": f"p{record['op_tail_percentile']:.2f} of {record['samples']}, "
                          f"{record['op_tail_beyond']} beyond",
            "ok_frac": f"{result['attempted'] - result['failed']}/{result['attempted']}",
            "setup_s": f"median of {len(record['setup_samples_s'])}",
        }
        for metric, m in result["metrics"].items():
            print(f"  {metric:14s} {m['value']:14.6g} {m['unit']:6s} {counts.get(metric, '')}")
        print(f"  {'failed_frac':14s} {record['failed_frac']:14.6g} {'frac':6s} "
              f"{result['failed']}/{result['attempted']}")
        raw = record["raw"]
        slow = record["slowdown"]
        print(f"  raw, before the calibration: ops_per_s {raw['ops_per_s']:.6g}, "
              f"op_p50_ms {raw['op_p50_ms']:.6g}, op_tail_ms {raw['op_tail_ms']:.6g}, "
              f"setup_s {raw['setup_s']:.6g}; machine slowdown median "
              f"{slow['median']:.3f}, range {slow['min']:.3f}-{slow['max']:.3f} "
              f"over {slow['samples']} kernel samples")
        for failure in record["failures"]:
            print(f"  failed x{failure['count']}: {failure['cell']}: {failure['reason'][:120]}")
        if args.trace:
            _, traced = run_workload(name, args.seed, args.seconds, 1)
            print(f"  -- per layer ({traced['attempted']} traced and untraced ops)")
            for metric, m in traced["metrics"].items():
                print(f"  {metric:44s} {m['value']:14.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
