"""The two in-process workloads: noisy lockstep and sharded trace models."""

from __future__ import annotations

import os
import time

import numpy as np

from perfbench import common, procs, tracing, workloads
from perfbench.common import EventLog, Outcome
from perfbench.configs import EVAL_INTERVAL, LOCKSTEP_POOL, SHARDED_POOL, SHARDING
from repro import kernels
from repro.service import sharding
from repro.service.pool import DetectorPool
from repro.service.sharding import ShardedDetectorPool

#: Columns per ``ingest_lockstep`` call: one evaluation per stream per call.
LOCKSTEP_CHUNK = EVAL_INTERVAL
#: Untimed ``ingest_lockstep`` calls made before the timed region.
WARMUP_CALLS = 16
#: Per-stream samples per ``ingest_many`` call are drawn from this range.
SHARDED_CHUNKS = (4, 24)

#: Streams per run replayed through the scalar engine by the oracle.
ORACLE_STREAMS = 8


def measure_setup(name: str, out: Outcome) -> None:
    """Launch-to-ready of a fresh process building this workload's pool."""
    argv = [os.path.join(common.HERE, "launcher.py"), "ready", name]
    for _ in range(common.SETUP_REPEATS):
        proc, _line = out.timed_setup(lambda: common.launch_ready(argv, "ready"))
        proc.wait(60)
        proc.stdout.close()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe of {name} failed")


def _oracle_sample(seed: int, ids: list[str]) -> list[str]:
    rng = np.random.default_rng([seed, 99])
    return sorted(rng.choice(ids, size=min(ORACLE_STREAMS, len(ids)), replace=False))


def _scalar_oracle(out: Outcome, config, work, log: EventLog) -> None:
    common.compare_streams(
        out,
        "scalar oracle",
        log.kept,
        {sid: common.scalar_events(config, work.streams[sid]) for sid in log.kept},
    )


def _finish(out: Outcome, work, first: EventLog, later: list[EventLog], final: dict) -> None:
    out.truth = dict(work.truth)
    out.kinds = dict(work.kinds)
    out.final_periods = {sid: final.get(sid) for sid in work.ids}
    out.first_lock = list(first.first.values())
    for log in later:
        first.compare(out, log)


# ----------------------------------------------------------------------
# noisy-lockstep
# ----------------------------------------------------------------------
def _lockstep_pass(chunks, streams, out, log, deadline, finish, sampler):
    """One pass over the inputs on a fresh pool; returns the pool and
    whether the pass ran to the end."""
    pool = DetectorPool(LOCKSTEP_POOL)
    for batch in chunks:
        if not finish and time.perf_counter() >= deadline:
            return pool, False
        cpu = time.thread_time()
        started = time.perf_counter()
        got = pool.ingest_lockstep(batch)
        ended = time.perf_counter()
        out.cpu_s += time.thread_time() - cpu
        out.call(started, ended, streams * LOCKSTEP_CHUNK)
        out.latency(started, (ended - started) * 1e3)
        out.attempted += 1
        # Every event's sample arrived in this call, so the call is their
        # lag: one lag sample per call that returned events.
        if got:
            out.lag(started, (ended - started) * 1e3)
        log.add(got)
        out.probe.tick()
        if sampler is not None:
            sampler.sample()
    return pool, True


def _lockstep_phase(work, seconds, out, keep):
    chunks = [
        {sid: values[off : off + LOCKSTEP_CHUNK] for sid, values in work.streams.items()}
        for off in range(0, len(next(iter(work.streams.values()))), LOCKSTEP_CHUNK)
    ]
    streams = len(work.streams)
    # Untimed warm-up: first-touch allocations of a fresh bank.
    _lockstep_pass(
        chunks[:WARMUP_CALLS], streams, Outcome(), EventLog(work.truth, ()), 0.0, True, None
    )
    sampler = procs.ResourceSampler([os.getpid()], exclude_bytes=work.nbytes)
    sampler.start()
    out.probe.tick(force=True)
    started = time.perf_counter()
    deadline = started + seconds
    first = EventLog(work.truth, keep)
    pool, _ = _lockstep_pass(chunks, streams, out, first, deadline, True, sampler)
    later = []
    while time.perf_counter() < deadline:
        log = EventLog(work.truth, ())
        _pool, complete = _lockstep_pass(chunks, streams, out, log, deadline, False, sampler)
        if complete:
            later.append(log)
    out.probe.tick(force=True)
    sampler.stop()
    out.cpu_window = (started, time.perf_counter())
    out.cpu_samples = out.samples
    out.rss_mb = sampler.rss_peak_mb
    return pool.current_periods(), first, later


def noisy_lockstep(seed: int, seconds: float, scratch: str, trace: bool):
    # The set-up probes inherit the one CPU.
    with common.one_cpu():
        return _noisy_lockstep(seed, seconds, scratch, trace)


def _noisy_lockstep(seed: int, seconds: float, scratch: str, trace: bool):
    out = Outcome()
    measure_setup("noisy-lockstep", out)
    kernels.warmup()
    work = workloads.noisy_lockstep(seed)
    keep = _oracle_sample(seed, work.ids)
    layers = None
    if not trace:
        final, first, later = _lockstep_phase(work, seconds, out, keep)
    else:
        base = Outcome()
        _lockstep_phase(work, seconds / 2, base, keep)
        tracer = tracing.install(tracing.Tracer())
        tracer.enabled = True
        window_start = time.perf_counter()
        final, first, later = _lockstep_phase(work, seconds / 2, out, keep)
        window = (window_start, time.perf_counter())
        tracer.enabled = False
        path = tracer.dump(os.path.join(scratch, "spans"), "bench")
        tracer.uninstall()
        layers = tracing.summarize([path], driver_pid=os.getpid(), window=window)
        layers["overhead_ratio"] = out.throughput() / base.throughput()
    _finish(out, work, first, later, final)
    _scalar_oracle(out, LOCKSTEP_POOL.detector_config, work, first)
    return out, layers


# ----------------------------------------------------------------------
# sharded-trace-models
# ----------------------------------------------------------------------
def _sharded_pass(pool, work, plan, number, out, log, deadline, finish, sampler):
    suffix = f".p{number}" if number else ""
    ids = [sid + suffix for sid in work.ids]
    column = {sid: j for j, sid in enumerate(ids)}
    log.rename = {alias: sid for alias, sid in zip(ids, work.ids)}
    arrays = list(work.streams.values())
    ends = np.cumsum(plan, axis=0)
    starts: list[float] = []

    def arrived(got, when):
        # Pipelined replies can return an event calls after the one that
        # carried its sample; the lag runs from that call's start.  Events
        # returned together from one call share a lag: one sample each.
        calls = {
            int(np.searchsorted(ends[:, column[e.stream_id]], e.index, side="right"))
            for e in got
        }
        for call in calls:
            out.lag(starts[call], (when - starts[call]) * 1e3)
        log.add(got)

    offsets = np.zeros(len(ids), dtype=np.int64)
    complete = True
    for row in plan:
        if not finish and time.perf_counter() >= deadline:
            complete = False
            break
        batch = {
            sid: arrays[j][offsets[j] : offsets[j] + n]
            for j, (sid, n) in enumerate(zip(ids, row))
            if n
        }
        offsets += row
        cpu = time.thread_time()
        started = time.perf_counter()
        starts.append(started)
        got = pool.ingest_many(batch)
        ended = time.perf_counter()
        out.cpu_s += time.thread_time() - cpu
        out.call(started, ended, int(row.sum()))
        out.latency(started, (ended - started) * 1e3)
        out.attempted += 1
        arrived(got, ended)
        out.probe.tick()
        sampler.sample()
    cpu = time.thread_time()
    started = time.perf_counter()
    got = pool.flush()
    ended = time.perf_counter()
    out.cpu_s += time.thread_time() - cpu
    out.call(started, ended, 0)
    arrived(got, ended)
    return complete


def _sharded_phase(work, plan, seconds, out, pool, keep):
    """Closed-loop passes over the inputs (fresh stream names per pass,
    removed after it), then the pool is closed; returns the final periods
    of the first pass and the event logs."""
    try:
        workers = procs.children(os.getpid())
        sampler = procs.ResourceSampler([os.getpid(), *workers], exclude_bytes=work.nbytes)
        sampler.start()
        out.probe.tick(force=True)
        started = time.perf_counter()
        deadline = started + seconds
        first = EventLog(work.truth, keep)
        _sharded_pass(pool, work, plan, 0, out, first, deadline, True, sampler)
        later = []
        number = 1
        while time.perf_counter() < deadline:
            log = EventLog(work.truth, ())
            if _sharded_pass(pool, work, plan, number, out, log, deadline, False, sampler):
                later.append(log)
            # Untimed: drop this pass's streams, so that the workers hold
            # two passes' state however many passes the run gets through.
            for sid in work.ids:
                pool.remove_stream(f"{sid}.p{number}")
            number += 1
        out.probe.tick(force=True)
        sampler.stop()
        final = pool.current_periods()
    finally:
        pool.close()
    out.cpu_s += sum(sampler.cpu_by_pid[pid] for pid in workers)
    out.cpu_window = (started, time.perf_counter())
    out.cpu_samples = out.samples
    out.rss_mb = sampler.rss_peak_mb
    return final, first, later


def _traced_worker(tracer, trace_dir, original):
    def worker(*args):
        tracer.reset()
        tracer.enabled = True
        try:
            original(*args)
        finally:
            tracer.dump(trace_dir, "shard")

    return worker


def sharded_trace_models(seed: int, seconds: float, scratch: str, trace: bool):
    out = common.multi_process_outcome()
    measure_setup("sharded-trace-models", out)
    # Workers fork before the inputs exist, so their memory holds none.
    pool = ShardedDetectorPool(SHARDED_POOL, SHARDING)
    work = workloads.sharded_traces(seed)
    length = len(next(iter(work.streams.values())))
    plan = workloads.chunk_plan(seed, len(work.streams), length, *SHARDED_CHUNKS)
    keep = _oracle_sample(seed, work.ids)
    layers = None
    if not trace:
        final, first, later = _sharded_phase(work, plan, seconds, out, pool, keep)
    else:
        trace_dir = os.path.join(scratch, "spans")
        base = common.multi_process_outcome()
        _sharded_phase(work, plan, seconds / 2, base, pool, keep)
        tracer = tracing.install(tracing.Tracer())
        original = sharding._shard_worker_main
        sharding._shard_worker_main = _traced_worker(tracer, trace_dir, original)
        try:
            pool = ShardedDetectorPool(SHARDED_POOL, SHARDING)
        finally:
            sharding._shard_worker_main = original
        tracer.enabled = True
        window_start = time.perf_counter()
        final, first, later = _sharded_phase(work, plan, seconds / 2, out, pool, keep)
        window = (window_start, time.perf_counter())
        tracer.enabled = False
        tracer.dump(trace_dir, "bench")
        tracer.uninstall()
        files = [os.path.join(trace_dir, name) for name in sorted(os.listdir(trace_dir))]
        layers = tracing.summarize(files, driver_pid=os.getpid(), window=window)
        layers["overhead_ratio"] = out.throughput() / base.throughput()
    _finish(out, work, first, later, final)
    _scalar_oracle(out, SHARDED_POOL.detector_config, work, first)
    return out, layers
