"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workloads ingest-p3 draws-p2.5 \\
        --seeds 1 2 3 4 5 6 7 8 9 10

Each run is a fresh, untraced interpreter.  For every workload and metric it prints
the median over the seeds and the interquartile range as a share of the
median, computed with ``statistics.quantiles(values, n=4)``, next to the
metric's bound from ``BENCHMARK.json``, and the same spread of the
metric as measured, before scaling to reference speed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    """The result line, the as-measured values, and the run's wall time."""
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    wall = time.perf_counter() - start
    *_, measured, result = completed.stdout.strip().splitlines()
    return json.loads(result), json.loads(measured)["as_measured"], wall


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range as a share of the median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("a spread needs at least two seeds")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"]}
    for workload in args.workloads:
        results, measured, walls = [], [], []
        for seed in args.seeds:
            result, as_measured, wall = run_once(workload, seed, spec["run_seconds"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT {result}")
            results.append(result)
            measured.append(as_measured)
            walls.append(wall)
        print(f"\n{workload}: run wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median, iqr = spread(values)
            _, measured_iqr = spread([m[name] for m in measured])
            bound = bounds[name]
            flag = "" if iqr <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:24s} median {median:12.6g}  iqr/median {iqr:7.4f}"
                  f"  as measured {measured_iqr:7.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
