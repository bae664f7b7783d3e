"""End-to-end benchmark of the paper's samplers: construct, ingest, draw.

Run from the repository root:

    python3 perfbench/run.py --workload ingest-p3 --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of one untraced pass, with warm ingest and
draw times at reference speed (see ``speed.py``); the line before it gives
the same metrics as measured.  ``--trace 1`` runs the workload untraced,
then again with every layer wrapped in spans, and reports the per-layer
metrics of the traced pass.  The load is one closed loop on the main
thread: each call waits for the previous one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

# Run hygiene, before numpy is imported: no library overrides from the
# environment, and BLAS pinned to the main thread.
SCRUBBED = sorted(key for key in os.environ if key.startswith("REPRO_"))
for _key in SCRUBBED:
    del os.environ[_key]
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.getcwd(), "src")
if not os.path.isdir(os.path.join(SOURCE, "repro")):
    sys.exit(f"no src/repro under {os.getcwd()}: run from the repository root")
sys.path.insert(0, HERE)
sys.path.insert(0, SOURCE)

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro import ExecutionConfig  # noqa: E402
from tracing import ENTRY_SPANS, SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, check, end_to_end_metrics, measure, outcome_metrics  # noqa: E402

# Traced-run coverage target: timed work that no layer span covers must stay
# below this share of the timed wall.
COVERAGE_TOLERANCE = 0.05


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "repro_env_scrubbed": SCRUBBED,
    }


def thread_count() -> int:
    return len(os.listdir("/proc/self/task"))


def per_layer_metrics(tracer: Tracer, traced, untraced) -> tuple[dict, list[str]]:
    """Per-span self time and calls, the count ratios, and the coverage check."""
    self_s, calls, root_s = tracer.summary()
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics[f"{name}.calls"] = (calls[name], "count")
    replica_draws = calls["samplers.l2_ensemble.sample_replica"]
    candidates = tracer.counts["candidates"]
    metrics.update({
        "core.lp.candidates": (candidates, "count"),
        "core.lp.accept_ratio": (tracer.counts["accepted"] / candidates if candidates else 0.0,
                                 "ratio"),
        "samplers.l2_ensemble.gap_pass_ratio": (candidates / replica_draws
                                                if replica_draws else 0.0, "ratio"),
        "core.lp.clip_events": (traced.clip_events, "count"),
        "utils.table_cache.misses": (traced.cache_misses, "count"),
        "utils.table_cache.hits": (traced.cache_hits, "count"),
        "utils.table_cache.bytes": (traced.cache_bytes, "bytes"),
    })
    # Work in the sampler entry points themselves, outside every layer
    # span, is as unattributed as timed work outside every span.
    wall = traced.wall_s
    unattributed = (wall - root_s) + sum(self_s[name] for name in ENTRY_SPANS)
    metrics["unattributed.self_s"] = (unattributed, "s")
    # The first instance of a process also pays one-off costs (imports,
    # first allocations), so the overhead compares the later instances.
    metrics["trace_overhead"] = (sum(traced.instance_s[1:]) / sum(untraced.instance_s[1:]),
                                 "ratio")
    problems = []
    if not 0.0 <= unattributed <= COVERAGE_TOLERANCE * wall:
        problems.append(f"unattributed {unattributed:.4f} s of wall {wall:.4f} s")
    print("span                                                 self_s     calls")
    for name in sorted(SPAN_NAMES, key=lambda k: -self_s[k]):
        print(f"{name:50s} {self_s[name]:9.4f} {calls[name]:9d}")
    print(f"{'unattributed (entry self + outside spans)':50s} {unattributed:9.4f}")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    workload = WORKLOADS[args.workload]
    problems = []
    if ExecutionConfig.from_env() != ExecutionConfig():
        problems.append("ExecutionConfig differs from its defaults")
    print(json.dumps({"environment": environment(), "repro": repro.__file__}))

    inputs = workload.inputs(args.seed, args.seconds)
    untraced = measure(workload, inputs, args.seed)
    checked = check(workload, inputs, untraced)
    problems += checked.failures
    attempted = untraced.operations
    if args.trace:
        with Tracer() as tracer:
            traced = measure(workload, inputs, args.seed)
        problems += check(workload, inputs, traced).failures
        attempted += traced.operations
        metrics, coverage_problems = per_layer_metrics(tracer, traced, untraced)
        problems += coverage_problems
        metrics.update(outcome_metrics(untraced, checked))
    else:
        metrics = end_to_end_metrics(untraced)
        as_measured = end_to_end_metrics(untraced, scaled=False)
        print(json.dumps({
            "as_measured": {name: value for name, (value, _) in as_measured.items()},
            "speed_factor_median": untraced.speed.median_factor(),
        }))
    if thread_count() != 1:
        problems.append(f"{thread_count()} threads running, expected only the main one")

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
