"""Process entry point for everything the benchmark launches.

``python perfbench/launcher.py [--trace-dir DIR] serve ...`` (or
``route ...``) runs ``repro.cli.main`` with the given arguments; with
``--trace-dir`` it first installs the span wrappers of
:mod:`perfbench.tracing` and writes this process's spans into ``DIR``
when the command returns.

``python perfbench/launcher.py ready WORKLOAD`` builds what an in-process
workload needs before its first ingest (the pool, warmed kernels, and for
the sharded workload its worker processes), prints ``ready`` and exits:
the benchmark times it from launch as that workload's set-up.
"""

from __future__ import annotations

import os
import sys

sys.path[:0] = [
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
]


def ready(workload: str) -> int:
    # Only the program and the settings: the benchmark's own modules are
    # not part of the set-up being timed.
    from perfbench import configs
    from repro import kernels
    from repro.service.pool import DetectorPool
    from repro.service.sharding import ShardedDetectorPool

    kernels.warmup()
    if workload == "sharded-trace-models":
        with ShardedDetectorPool(configs.SHARDED_POOL, configs.SHARDING) as pool:
            pool.stats()  # one round trip to every worker
            print("ready", flush=True)
    else:
        DetectorPool(configs.LOCKSTEP_POOL)
        print("ready", flush=True)
    return 0


def main(argv: list[str]) -> int:
    try:
        return _main(argv)
    finally:
        # Wait for the tracker the sharded pool's shared memory starts,
        # so that nothing this process started outlives it.  Imported
        # here, after ``ready``, to stay out of the timed set-up.
        from perfbench import procs

        procs.stop_resource_tracker()


def _main(argv: list[str]) -> int:
    if argv[:1] == ["ready"]:
        return ready(argv[1])
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    from repro import cli

    if trace_dir is None:
        return cli.main(argv)
    from perfbench import tracing

    tracer = tracing.install(tracing.Tracer())
    tracer.enabled = True
    try:
        return cli.main(argv)
    finally:
        tracer.dump(trace_dir, argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
