"""Metric catalogue: what each layer metric should move.

Names, units, directions, bounds and the workloads are read from
``BENCHMARK.json``.  The one thing its schema cannot hold, the prediction
of which end-to-end metric a layer metric moves and on which workload,
lives here and is printed by ``run.py --list``.
"""

from __future__ import annotations

import json
import os
import re

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(_ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

WORKLOADS = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
#: Unit of every metric, end-to-end and per-layer, by name.
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
#: Per-layer metric names, in the order of ``BENCHMARK.json``.
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]

NL, WS, RD, SH = (
    "noisy-lockstep",
    "wire-small-frames",
    "routed-durable-events",
    "sharded-trace-models",
)

#: For each per-layer metric, ``{workload: end-to-end metrics it should
#: move}``.  An empty mapping marks a health metric of the benchmark itself.
MOVES = {
    "kernels.select_periods_batch_impl.calls": {NL: "throughput_sps ingest_tail_ms"},
    "kernels.select_periods_batch_impl.rows": {NL: "throughput_sps ingest_tail_ms"},
    "kernels.select_periods_batch_impl.self_s": {NL: "throughput_sps ingest_tail_ms"},
    "kernels.harmonic_kept_mask.calls": {NL: "throughput_sps ingest_tail_ms", SH: "throughput_sps"},
    "kernels.magnitude_advance_sums.calls": {NL: "throughput_sps"},
    "kernels.magnitude_advance_sums.self_s": {NL: "throughput_sps"},
    "kernels.event_step_mismatches.calls": {RD: "cpu_us_per_sample"},
    "kernels.event_step_mismatches.self_s": {RD: "cpu_us_per_sample"},
    "core.select_periods_batch.self_s": {NL: "throughput_sps"},
    "core.LockTrackerBank.apply_batch.self_s": {NL: "throughput_sps"},
    "core.select_period.calls": {SH: "throughput_sps"},
    "core.select_period.self_s": {SH: "throughput_sps"},
    "core.DynamicPeriodicityDetector.update_batch.samples": {SH: "throughput_sps"},
    "core.DynamicPeriodicityDetector.update_batch.self_s": {SH: "throughput_sps"},
    "service.DetectorPool.ingest_lockstep.calls": {NL: "throughput_sps", WS: "throughput_sps", RD: "throughput_sps"},
    "service.DetectorPool.ingest_lockstep.samples": {NL: "throughput_sps", WS: "throughput_sps", RD: "throughput_sps"},
    "service.DetectorPool.ingest_lockstep.self_s": {NL: "throughput_sps ingest_p50_ms", WS: "ingest_p50_ms", RD: "ingest_p50_ms"},
    # No workload reaches it today: the wire sends lockstep frames and shard
    # workers ingest stream by stream.  Kept so a change that routes work
    # through it shows.
    "service.DetectorPool.ingest_many.calls": {WS: "throughput_sps", SH: "throughput_sps"},
    "service.DetectorPool.ingest_many.samples": {WS: "throughput_sps", SH: "throughput_sps"},
    "service.DetectorPool.ingest_many.self_s": {WS: "ingest_p50_ms", SH: "throughput_sps"},
    "service.MagnitudeSoABank.process.self_s": {NL: "throughput_sps", WS: "ingest_p50_ms"},
    "service.EventSoABank.process.self_s": {RD: "ingest_p50_ms throughput_sps"},
    "service.ShardedDetectorPool.ingest_many.self_s": {SH: "throughput_sps"},
    "service.ShardedDetectorPool.wait_s": {SH: "throughput_sps"},
    "service.ShmSpanWriter.write.bytes": {SH: "throughput_sps"},
    "server.profile.encode_s": {WS: "ingest_tail_ms cpu_us_per_sample"},
    "server.profile.syscall_s": {WS: "ingest_tail_ms cpu_us_per_sample"},
    "server.profile.dispatch_s": {WS: "ingest_tail_ms cpu_us_per_sample"},
    "server.profile.detect_s": {WS: "ingest_tail_ms cpu_us_per_sample"},
    "server.profile.fanout_s": {WS: "ingest_tail_ms cpu_us_per_sample"},
    "server.unattributed_s": {WS: "ingest_tail_ms cpu_us_per_sample"},
    "server.coalesce.jobs_per_batch": {WS: "ingest_p50_ms"},
    "server.writer.frames_per_batch": {WS: "ingest_p50_ms"},
    "server.protocol.decode_payload.calls": {WS: "cpu_us_per_sample", RD: "cpu_us_per_sample"},
    "server.protocol.decode_payload.bytes": {WS: "cpu_us_per_sample", RD: "cpu_us_per_sample"},
    "server.protocol.decode_payload.self_s": {WS: "cpu_us_per_sample", RD: "cpu_us_per_sample"},
    "server.protocol.encode_hot_ingest.calls": {WS: "cpu_us_per_sample", RD: "cpu_us_per_sample"},
    "server.protocol.encode_hot_ingest.bytes": {WS: "cpu_us_per_sample", RD: "cpu_us_per_sample"},
    "server.protocol.encode_hot_ingest.self_s": {WS: "cpu_us_per_sample", RD: "cpu_us_per_sample"},
    "server.protocol.encode_hot_events.calls": {WS: "cpu_us_per_sample", RD: "cpu_us_per_sample"},
    "server.protocol.encode_hot_events.bytes": {WS: "cpu_us_per_sample", RD: "cpu_us_per_sample"},
    "server.protocol.encode_hot_events.self_s": {WS: "cpu_us_per_sample", RD: "cpu_us_per_sample"},
    "server.busy_replies": {WS: "error_rate", RD: "error_rate"},
    "server.dropped_events": {WS: "error_rate", RD: "error_rate"},
    "server.journal.appended": {RD: "event_lag_tail_ms"},
    "server.replays_served": {RD: "event_lag_tail_ms"},
    "server.replay_gaps": {RD: "error_rate"},
    "router.profile.slice_s": {RD: "ingest_tail_ms throughput_sps"},
    "router.profile.forward_s": {RD: "ingest_tail_ms throughput_sps"},
    "router.profile.encode_s": {RD: "ingest_tail_ms throughput_sps"},
    "router.profile.syscall_s": {RD: "ingest_tail_ms throughput_sps"},
    "router.profile.fanin_s": {RD: "ingest_tail_ms throughput_sps"},
    "router.unattributed_s": {RD: "ingest_tail_ms throughput_sps"},
    "router.hot_forwards": {RD: "throughput_sps"},
    "router.json_forwards": {RD: "throughput_sps (must stay 0)"},
    "router.fanin_batches": {RD: "event_lag_p50_ms"},
    "checkpoint.passes": {RD: "ingest_tail_ms rss_peak_mb"},
    "checkpoint.streams_written": {RD: "ingest_tail_ms rss_peak_mb"},
    "checkpoint.bytes_written": {RD: "ingest_tail_ms rss_peak_mb"},
    "checkpoint.write_delta.self_s": {RD: "ingest_tail_ms rss_peak_mb"},
    "client.ingest_self_s": {WS: "ingest_p50_ms", RD: "ingest_p50_ms"},
    "client.wait_s": {WS: "ingest_p50_ms", RD: "ingest_p50_ms"},
    "client.next_events.events": {WS: "event_lag_p50_ms", RD: "event_lag_p50_ms"},
    # The end-to-end tails: reported in every run, but not gated.  On a
    # 2-vCPU virtual machine even p95 of the wire workloads doubled in two
    # of ten identical runs, wider than any bound the benchmark may set.
    "ingest_tail_ms": {"every workload": "itself, reported but not gated"},
    "event_lag_tail_ms": {"every workload": "itself, reported but not gated"},
    # sine plus 1% noise on its own (ROADMAP item 2's workload); every
    # kind's lock fraction is printed as bench.lock_fraction.<kind>.
    "bench.lock_fraction.sine": {NL: "lock_fraction"},
    "bench.generator_late_tail_ms": {},
    "bench.speed_factor": {},
    "bench.steal_share": {},
    "bench.offered_sps": {},
    "bench.error_rate": {},
    "bench.ingest_tail_pct": {},
    "bench.ingest_requests": {},
    "bench.event_lag_tail_pct": {},
    "bench.event_lag_events": {},
    "trace.coverage": {},
    "trace.overhead_ratio": {},
}

#: Span-derived metric suffixes and the span summary field they read.
_SPAN_FIELDS = {
    "calls": "calls",
    "self_s": "self_s",
    "rows": "work",
    "samples": "work",
    "bytes": "work",
    "events": "work",
}
#: Metrics read from a span under another name.
_SPAN_ALIASES = {
    "service.ShardedDetectorPool.wait_s": ("service.ShardedDetectorPool.wait", "total_s"),
    "client.ingest_self_s": ("client.ingest", "self_s"),
    "client.wait_s": ("client.wait", "self_s"),
}


def per_layer(summary: dict, counters: dict) -> dict[str, float]:
    """Every per-layer metric's value from the span summary and the
    counters a driver collected (STATS diffs, generator health).  A layer
    the workload does not reach reads 0."""
    layers = summary["layers"]
    out: dict[str, float] = {}
    for name in PER_LAYER:
        if name in counters:
            out[name] = counters[name]
        elif name == "trace.coverage":
            out[name] = summary["coverage"]
        elif name == "trace.overhead_ratio":
            out[name] = summary["overhead_ratio"]
        elif name in _SPAN_ALIASES:
            span, fieldname = _SPAN_ALIASES[name]
            out[name] = layers.get(span, {}).get(fieldname, 0)
        else:
            span, _, suffix = name.rpartition(".")
            fieldname = _SPAN_FIELDS.get(suffix)
            out[name] = layers.get(span, {}).get(fieldname, 0) if fieldname else 0
    return out
