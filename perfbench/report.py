"""Run every workload twice, untraced and traced, and print all metrics.

    python3 perfbench/report.py [--seed 1] [--seconds 10]

Each workload runs ``run.py`` with ``--trace 0`` and ``--trace 1``, one
process at a time, and the whole set is run twice. The table lists every
metric by name and unit for both sets. Counts and the plan's quality
(cost, fleet, stops) must repeat exactly between the sets; any
difference, or any run that is not correct, is reported as a failure
and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import COUNT_METRICS
from workloads import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
EXACT = {"plan_cost", "fleet_size", "n_stops", "vrp.stops_per_trip", *COUNT_METRICS}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=seconds + 170,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}
    # the run's own summary (plan counts, layer self times), not the metrics
    for line in lines[:-1]:
        if not line.startswith("  "):
            print(line)
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()
    problems = []
    print(f"{'workload':16s} {'metric':28s} {'unit':10s} {'set 1':>22s} {'set 2':>22s}")
    for name in WORKLOADS:
        for trace in (0, 1):
            a, b = (run_once(name, args.seed, args.seconds, trace) for _ in range(2))
            for i, r in enumerate((a, b), start=1):
                if not r["correct"]:
                    problems.append(f"{name} trace={trace} set {i}: not correct")
            for metric, m in a["metrics"].items():
                other = b["metrics"].get(metric, {}).get("value")
                print(f"{name:16s} {metric:28s} {m['unit']:10s} "
                      f"{m['value']!r:>22} {other!r:>22}")
                if metric in EXACT and m["value"] != other:
                    problems.append(f"{name} {metric}: {m['value']!r} != {other!r}")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
