"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The inputs are generated from ``--seed``;
the timed phases together measure for ``--seconds``.  Every time metric
is scaled to a nominal machine speed measured during the run (see
``perfbench/speed.py``); the unscaled figures are printed beside them.

With ``--trace 0`` the last stdout line is a JSON object whose metrics
are the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run instead (half the time untraced, half traced,
for ``trace.overhead_ratio``).  Lines before it give the run metadata,
every metric by name with its unit, and the program's STATS counters.
The exit code is non-zero when any output check failed.  ``--list``
prints which end-to-end metric each layer metric should move, and where.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import metrics  # noqa: E402


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _drivers():
    from perfbench import inproc, wire

    return {
        "noisy-lockstep": inproc.noisy_lockstep,
        "wire-small-frames": wire.wire_small_frames,
        "routed-durable-events": wire.routed_durable_events,
        "sharded-trace-models": inproc.sharded_trace_models,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print the metric catalogue")
    args = parser.parse_args(argv)
    if args.list:
        for entry in metrics.BENCHMARK["per_layer"]:
            moves = metrics.MOVES[entry["name"]]
            where = "; ".join(f"{w}: {m}" for w, m in moves.items()) or "benchmark health"
            print(f"{entry['name']} [{entry['unit']}, {entry['better']} is better] -> {where}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    from repro import kernels
    from perfbench import procs
    from perfbench.common import end_to_end

    procs.become_subreaper()

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "kernel_backend": kernels.backend_name(),
        "git_rev": _git_rev(),
    }
    print("meta " + json.dumps(meta), flush=True)
    driver = _drivers()[args.workload]
    # Span files and durable server state stay inside the checkout.
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
            out, layers = driver(args.seed, args.seconds, scratch, bool(args.trace))
    finally:
        # Every process the run started has ended before it reports.
        procs.stop_resource_tracker()
        leftover = procs.reap_children()
    print(f"leftover processes reaped = {leftover}")
    measured = end_to_end(out)
    e2e = {m["name"]: measured[m["name"]] for m in metrics.BENCHMARK["end_to_end"]}
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}", flush=True)
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {metrics.UNITS[name]}")
    print(f"attempted = {out.attempted}, failed = {out.failed}")
    if args.trace:
        values = metrics.per_layer(layers, out.counters)
    else:
        for name, value in sorted(out.counters.items()):
            print(f"{name} = {value:.6g}")
        values = e2e
    result = {name: {"value": value, "unit": metrics.UNITS[name]} for name, value in values.items()}
    correct = out.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": result,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
