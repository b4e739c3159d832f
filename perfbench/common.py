"""What every workload driver produces, and the end-to-end metrics of it."""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import stats
from perfbench.speed import SpeedProbe
from repro.core.detector import DetectorConfig, DynamicPeriodicityDetector
from repro.core.events import EventPeriodicityDetector

#: (index, period, confidence, new_detection, seq) of one period-start event.
EventKey = tuple

#: Seconds between machine-speed reference readings during a run.
PROBE_INTERVAL = 0.25
#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 9

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


@dataclass
class Outcome:
    """Raw measurements of one run, before they become metrics.

    Times are stored as measured, each with the moment it was taken, so
    that :func:`end_to_end` can scale them by the machine speed the probe
    saw at that moment (see :mod:`perfbench.speed`).
    """

    probe: SpeedProbe = field(default_factory=lambda: SpeedProbe(PROBE_INTERVAL))
    setup_s: list[float] = field(default_factory=list)  # already scaled
    samples: int = 0  # closed-loop samples completed
    busy_at: list[float] = field(default_factory=list)  # closed-loop calls
    busy_s: list[float] = field(default_factory=list)
    latency_at: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    lag_at: list[float] = field(default_factory=list)
    lags_ms: list[float] = field(default_factory=list)
    final_periods: dict = field(default_factory=dict)
    truth: dict = field(default_factory=dict)
    kinds: dict = field(default_factory=dict)  # stream -> kind of signal
    first_lock: list[int] = field(default_factory=list)
    cpu_s: float = 0.0
    cpu_window: tuple[float, float] = (0.0, 0.0)
    cpu_samples: int = 0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        """Count one checked operation; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    def call(self, started: float, ended: float, samples: int) -> None:
        """Record one closed-loop request."""
        self.busy_at.append(started)
        self.busy_s.append(ended - started)
        self.samples += samples

    def latency(self, at: float, ms: float) -> None:
        self.latency_at.append(at)
        self.latencies_ms.append(ms)

    def lag(self, at: float, ms: float) -> None:
        self.lag_at.append(at)
        self.lags_ms.append(ms)

    def begin_setup(self) -> float:
        """Take a speed reading and start timing one set-up."""
        self.probe.tick(force=True)
        return time.perf_counter()

    def end_setup(self, started: float) -> None:
        """Record the set-up begun at ``started``, scaled by the speed
        readings taken just before and after it."""
        ended = time.perf_counter()
        self.probe.tick(force=True)
        factor = float(np.mean(self.probe.wall_factors([started, ended])))
        self.setup_s.append((ended - started) * factor)

    def timed_setup(self, launch) -> object:
        """Run ``launch()`` as one timed set-up; returns its result."""
        started = self.begin_setup()
        result = launch()
        self.end_setup(started)
        return result

    def throughput(self, scaled: bool = True) -> float:
        busy = np.asarray(self.busy_s)
        if scaled:
            busy = busy * self.probe.wall_factors(self.busy_at)
        return self.samples / float(busy.sum())


@contextlib.contextmanager
def one_cpu():
    """Run the block, and every process it launches, on one CPU.

    Every workload that does not need both CPUs runs this way, so that the
    speed and steal readings, taken between requests by the driving
    thread, are of the CPU all of its work runs on: the two virtual CPUs
    of the machine the benchmark was built on change speed independently
    (their readings did not correlate).  Unpinned, one of four runs of
    wire-small-frames lost a third of its capacity, and ten runs of
    routed-durable-events spread by 0.28-0.55 in throughput, latency and
    CPU per sample.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def multi_process_outcome() -> Outcome:
    """An :class:`Outcome` whose speed readings cover every CPU, for the
    workloads whose processes run on all of them."""
    return Outcome(probe=SpeedProbe(PROBE_INTERVAL, every_cpu=True))


def end_to_end(out: Outcome) -> dict[str, float]:
    """The gated end-to-end metrics of a run as ``{name: value}``;
    every time is scaled to the nominal machine speed.  The tails and the
    other run figures go into ``out.counters``."""
    latencies = np.asarray(out.latencies_ms) * out.probe.wall_factors(out.latency_at)
    lags = np.asarray(out.lags_ms) * out.probe.wall_factors(out.lag_at)
    ingest_pct, ingest_tail, ingest_n = stats.tail(latencies)
    lag_pct, lag_tail, lag_n = stats.tail(lags)
    cpu_s = out.cpu_s * out.probe.mean_factor(*out.cpu_window)
    locked = {sid: out.final_periods.get(sid) == p for sid, p in out.truth.items()}
    for kind in sorted(set(out.kinds.values())):
        mine = [locked[sid] for sid, k in out.kinds.items() if k == kind]
        out.counters[f"bench.lock_fraction.{kind}"] = sum(mine) / len(mine)
    out.counters.update(
        {
            "ingest_tail_ms": ingest_tail,
            "event_lag_tail_ms": lag_tail,
            "bench.ingest_tail_pct": ingest_pct,
            "bench.ingest_requests": ingest_n,
            "bench.event_lag_tail_pct": lag_pct,
            "bench.event_lag_events": lag_n,
            "bench.error_rate": out.failed / max(out.attempted, 1),
            "bench.speed_factor": float(np.mean(out.probe.factors(out.busy_at))),
            "bench.steal_share": float(np.mean(out.probe.stolen_share(out.busy_at))),
            "bench.unscaled_throughput_sps": out.throughput(scaled=False),
            "bench.unscaled_ingest_p50_ms": stats.median(out.latencies_ms),
        }
    )
    return {
        "setup_s": stats.median(out.setup_s),
        "throughput_sps": out.throughput(),
        "ingest_p50_ms": stats.median(latencies),
        "event_lag_p50_ms": stats.median(lags),
        "lock_fraction": sum(locked.values()) / len(locked),
        "first_lock_samples_p50": stats.grid_median(out.first_lock),
        "cpu_us_per_sample": 1e6 * cpu_s / out.cpu_samples,
        "rss_peak_mb": out.rss_mb,
    }


class EventLog:
    """What a run keeps of the events of one pass over its streams.

    Holding every event object would make the benchmark's own memory the
    largest part of ``rss_peak_mb``, so per stream it keeps a digest (for
    comparing passes), the first sample index at the true period, and the
    full list only for the streams the oracle replays.
    """

    def __init__(self, truth: dict[str, int], keep, rename=None) -> None:
        self.truth = truth
        self.rename = rename or {}
        self.kept: dict[str, list[EventKey]] = {sid: [] for sid in keep}
        self.digest: dict[str, int] = {}
        self.first: dict[str, int] = {}

    def add(self, events) -> None:
        for event in events:
            sid = self.rename.get(event.stream_id, event.stream_id)
            key = event_key(event)
            self.digest[sid] = hash((self.digest.get(sid, 0), key))
            if sid not in self.first and event.period == self.truth[sid]:
                self.first[sid] = event.index + 1
            if sid in self.kept:
                self.kept[sid].append(key)

    def compare(self, out: "Outcome", other: "EventLog") -> None:
        """Check that ``other`` (a later pass) saw the same events."""
        for sid in self.truth:
            out.check(
                self.digest.get(sid) == other.digest.get(sid),
                f"repeated pass: stream {sid} produced different events",
            )


def scalar_events(config, values: np.ndarray) -> list[EventKey]:
    """Events of one stream replayed through the scalar engine."""
    if isinstance(config, DetectorConfig):
        engine = DynamicPeriodicityDetector(config)
    else:
        engine = EventPeriodicityDetector(config)
    results = [r for r in engine.update_batch(values) if r.is_period_start and r.period]
    return [
        (r.index, int(r.period), r.confidence, r.new_detection, seq)
        for seq, r in enumerate(results)
    ]


def event_key(event) -> EventKey:
    return (event.index, event.period, event.confidence, event.new_detection, event.seq)


def group_events(events) -> dict[str, list[EventKey]]:
    out: dict[str, list[EventKey]] = {}
    for event in events:
        out.setdefault(event.stream_id, []).append(event_key(event))
    return out


def compare_streams(
    out: Outcome, label: str, got: dict[str, list[EventKey]], want: dict[str, list[EventKey]]
) -> None:
    """Field-for-field comparison of per-stream event lists."""
    for sid, expected in want.items():
        actual = got.get(sid, [])
        if actual == expected:
            out.check(True, "")
            continue
        first = next(
            (i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
            min(len(actual), len(expected)),
        )
        out.check(
            False,
            f"{label}: stream {sid} differs at event {first} "
            f"({len(actual)} events vs {len(expected)} expected)",
        )


def launch_ready(argv: list[str], marker: str, timeout: float = 60.0) -> tuple[subprocess.Popen, str]:
    """Start ``python argv`` and wait for a stdout line containing
    ``marker``; returns the process and that line."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    deadline = started + timeout
    seen = []
    assert proc.stdout is not None
    while time.perf_counter() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        seen.append(line)
        if marker in line:
            return proc, line
    proc.kill()
    proc.wait()
    raise RuntimeError(f"{argv} did not become ready:\n{''.join(seen)}")


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGTERM ``proc``, wait for it, and return its exit code."""
    if proc.poll() is None:
        proc.terminate()
    try:
        proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode
