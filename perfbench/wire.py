"""The two wire workloads: small frames to one server, and routed events.

Both run the real daemons as subprocesses (through ``launcher.py``, which
adds the span wrappers in a traced run) and drive them with
:class:`~repro.server.client.AsyncDetectionClient` from one asyncio loop:
one producer connection and one subscriber connection.  A closed-loop
phase measures capacity; an open-loop phase then offers a fixed rate,
and ingest latency there is timed from when each frame was due.

The driver and every daemon run on one CPU (see ``common.one_cpu``).
"""

from __future__ import annotations

import asyncio
import gc
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import common, configs, procs, tracing, workloads
from perfbench.common import Outcome
from repro.core.detector import DetectorConfig
from repro.core.events import EventDetectorConfig
from repro.server.client import AsyncDetectionClient, ServerError
from repro.service.pool import DetectorPool, PoolConfig

#: Share of ``--seconds`` spent in the closed-loop phase; the rest is the
#: open-loop phase.
CLOSED_SHARE = 0.3
#: Frames the closed loop keeps in flight.  With one, every request waits
#: out two process wake-ups, and capacity measures the host's wake-up
#: latency, which swings from run to run, more than the program.
CLOSED_WINDOW = 4
#: A request unanswered after this long counts as failed.
REQUEST_TIMEOUT = 10.0
#: How long the subscriber may trail the producer once the run ends.
DRAIN_TIMEOUT = 10.0
#: Idle seconds between the closed and the open loop.
SETTLE_S = 0.5
#: Seconds the subscriber waits for a push before it checks whether to stop.
LISTEN_POLL = 0.05
#: Samples per stream replayed through the scalar engine by the oracle.
ORACLE_PREFIX = 4096
ORACLE_STREAMS = 2
#: Smallest gap before the next open-loop frame in which a speed reading
#: (about a millisecond per CPU) is taken.
PROBE_GAP = 0.005
#: Unanswered requests a connection may hold before the server answers
#: BUSY; the open loop keeps few in flight, this only guards stalls.
MAX_INFLIGHT = "256"

_LISTEN = re.compile(r"listening on ([\d.]+):(\d+)")


@dataclass
class Spec:
    """What distinguishes the two wire workloads."""

    mode: str
    window: int
    columns: int  # samples per stream per frame
    offered_sps: float  # open-loop rate, fixed
    routed: bool
    length: int  # samples generated per stream
    lock_at: int  # lock_fraction is read after this many samples per stream
    config: object  # detector config of the in-process reference pool
    pool: PoolConfig = field(init=False)

    def __post_init__(self) -> None:
        if self.mode == "magnitude":
            self.pool = PoolConfig(mode="magnitude", detector_config=self.config)
        else:
            self.pool = PoolConfig(mode="event", window_size=self.window)


#: Open-loop rates: about a fifth of the closed-loop capacity here, a
#: ninth on the routed workload.  Much lower and the CPU halts between
#: frames, so latency becomes the virtual machine's wake-up time, which no
#: speed reading scales (small frames at 4000/s: p50 spread 0.26 over ten
#: runs, against 0.15 at 8000/s).  Much higher and a slow stretch of the
#: machine queues frames (routed frames at 8000/s: scaled p50 up 40%).
SMALL = Spec(
    mode="magnitude",
    window=configs.MAGNITUDE_WINDOW,
    columns=4,
    offered_sps=8_000.0,
    routed=False,
    length=65_536,
    lock_at=4096,
    config=DetectorConfig(
        window_size=configs.MAGNITUDE_WINDOW,
        evaluation_interval=configs.EVAL_INTERVAL,
    ),
)
ROUTED = Spec(
    mode="event",
    window=configs.EVENT_WINDOW,
    columns=2,
    offered_sps=4_000.0,
    routed=True,
    length=32_768,
    lock_at=1024,
    config=EventDetectorConfig(window_size=configs.EVENT_WINDOW),
)
#: Seconds between checkpoint passes of the durable backends.
CHECKPOINT_INTERVAL = "2.0"


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def _launch(args: list[str], trace_dir: str | None):
    argv = [os.path.join(common.HERE, "launcher.py")]
    if trace_dir is not None:
        argv += ["--trace-dir", trace_dir]
    proc, line = common.launch_ready(argv + args, "listening on")
    host, port = _LISTEN.search(line).groups()
    return proc, f"{host}:{port}"


class Cluster:
    """The daemons of one run: a server, or a router over two backends."""

    def __init__(self, spec: Spec, scratch: str, trace_dir: str | None) -> None:
        self.procs = []
        serve = [
            "serve", "--port", "0", "--mode", spec.mode, "--window", str(spec.window),
            "--eval-interval", str(configs.EVAL_INTERVAL), "--max-inflight", MAX_INFLIGHT,
        ]
        try:
            if not spec.routed:
                proc, self.address = _launch(serve, trace_dir)
                self.procs.append(proc)
                return
            backends = []
            for index in range(2):
                state = os.path.join(scratch, f"state-{index}")
                proc, address = _launch(
                    serve + ["--state-dir", state, "--checkpoint-interval", CHECKPOINT_INTERVAL],
                    trace_dir,
                )
                self.procs.append(proc)
                backends.append(address)
            route = ["route", "--port", "0", "--max-inflight", MAX_INFLIGHT]
            for address in backends:
                route += ["--backend", address]
            proc, self.address = _launch(route, trace_dir)
            self.procs.insert(0, proc)  # stop the router first
        except BaseException:
            self.stop()
            raise

    @property
    def pids(self) -> list[int]:
        return [proc.pid for proc in self.procs]

    def stop(self) -> list[int]:
        return [common.stop(proc) for proc in self.procs]


# ----------------------------------------------------------------------
# one measured run against one cluster
# ----------------------------------------------------------------------
class Driver:
    """Producer plus subscriber over one cluster, and what they saw."""

    def __init__(self, spec: Spec, work: workloads.Workload, out: Outcome) -> None:
        self.spec = spec
        self.work = work
        self.out = out
        self.ids = work.ids
        stacked = np.stack([work.streams[sid] for sid in self.ids])
        cols = spec.columns
        self.frames = [
            np.ascontiguousarray(stacked[:, off : off + cols])
            for off in range(0, stacked.shape[1] - cols + 1, cols)
        ]
        self.sent_at = np.full(len(self.frames), np.nan)
        self.next_frame = 0
        self.replies: list = []
        self.delivered: dict[str, list] = {sid: [] for sid in self.ids}
        # From the subscriber's disconnect until it has caught up again.
        self.offline = (np.inf, -np.inf)
        self.open_first = len(self.frames)  # first open-loop frame
        self.resumed = np.inf  # when the subscriber came back
        self.sampler: procs.ResourceSampler | None = None

    async def connect(self, address: str) -> None:
        """HELLO on both connections, SUBSCRIBE, and handle registration:
        the first frame, sent alone, interns the stream names on the
        producer's connection and, through the router, on each backend
        link.  (Several frames in flight on links that have not
        registered yet can reach a backend out of order; see CHANGES.md.)"""
        url = f"repro://{address}"
        self.producer = await AsyncDetectionClient.connect(url, namespace="bench")
        self.subscriber = await AsyncDetectionClient.connect(url, namespace="bench")
        await self.subscriber.subscribe()
        await self.send(self.next_frame, None)
        self.next_frame += 1

    def reset(self) -> None:
        """Forget a discarded set-up's frame (its cluster is gone)."""
        self.replies.clear()
        self.next_frame = 0

    async def close(self) -> None:
        await self.producer.close()
        await self.subscriber.close()

    # -- requests ---------------------------------------------------------
    async def send(self, k: int, due: float | None) -> None:
        """Send frame ``k``; in the open loop its latency runs from ``due``."""
        started = time.perf_counter()
        self.sent_at[k] = started
        token = tracing.REQUEST.set(k)
        try:
            events = await asyncio.wait_for(
                self.producer.ingest_rows(self.ids, self.frames[k], lockstep=True),
                REQUEST_TIMEOUT,
            )
        except (ServerError, asyncio.TimeoutError) as exc:
            self.out.check(False, f"frame {k}: {type(exc).__name__}: {exc}")
            return
        finally:
            tracing.REQUEST.reset(token)
        ended = time.perf_counter()
        self.out.check(True, "")
        self.replies.extend(events)
        if due is not None:
            self.out.latency(due, (ended - due) * 1e3)

    async def closed_loop(self, seconds: float) -> None:
        """``CLOSED_WINDOW`` frames in flight for ``seconds``: each reply
        lets the next frame go.  Throughput is counted per stretch of
        about a probe interval, so each stretch is scaled by the machine
        speed of its own time."""
        size = self.frames[0].size
        start = time.perf_counter()
        deadline = start + seconds
        pending: set = set()
        done_samples = 0
        while True:
            while (
                len(pending) < CLOSED_WINDOW
                and time.perf_counter() < deadline
                and self.next_frame < len(self.frames)
            ):
                pending.add(asyncio.ensure_future(self.send(self.next_frame, None)))
                self.next_frame += 1
            if not pending:
                break
            done, pending = await asyncio.wait(pending, return_when=asyncio.FIRST_COMPLETED)
            done_samples += size * len(done)
            now = time.perf_counter()
            if now - start >= self.out.probe.interval or not pending:
                self.out.call(start, now, done_samples)
                start, done_samples = now, 0
                self.out.probe.tick()
                self.sampler.sample()

    async def open_loop(self, seconds: float, bounce: bool) -> None:
        """Frames at the fixed offered rate for ``seconds``, not waiting
        for replies; with ``bounce`` the subscriber is away for the first
        part of it, so that what it missed must come back by replay."""
        rate = self.spec.offered_sps / self.frames[0].size  # frames per second
        count = min(int(seconds * rate), len(self.frames) - self.next_frame)
        if count <= 0:
            raise RuntimeError("inputs exhausted before the open-loop phase")
        first = self.open_first = self.next_frame
        self.out.probe.tick(force=True)
        probe_cpu = self.out.probe.spent
        start = time.perf_counter()
        cpu0 = sum(procs.cpu_seconds(pid) for pid in self.sampler.pids)
        late = []
        tasks = []
        bounced = asyncio.ensure_future(self.bounce_subscriber()) if bounce else None
        for i in range(count):
            due = start + i / rate
            now = time.perf_counter()
            if due - now > PROBE_GAP:
                # A speed reading fits before this frame is due.
                self.out.probe.tick()
                now = time.perf_counter()
            if due > now:
                await asyncio.sleep(due - now)
                now = time.perf_counter()
            late.append((now - due) * 1e3)
            tasks.append(asyncio.ensure_future(self.send(first + i, due)))
            self.sampler.sample()
        await asyncio.gather(*tasks)
        if bounced is not None:
            await bounced
        cpu1 = sum(procs.cpu_seconds(pid) for pid in self.sampler.pids)
        self.next_frame = first + count
        end = time.perf_counter()
        elapsed = end - start
        # The speed readings ran in this process; their CPU is not the
        # program's.
        self.out.cpu_s = cpu1 - cpu0 - (self.out.probe.spent - probe_cpu)
        self.out.cpu_window = (start, end)
        self.out.cpu_samples = count * self.frames[0].size
        _pct, late_tail, _n = common.stats.tail(late)
        self.out.counters["bench.generator_late_tail_ms"] = late_tail
        self.out.counters["bench.offered_sps"] = self.out.cpu_samples / elapsed

    # -- subscriber -------------------------------------------------------
    async def listen(self) -> None:
        """Collect pushed events until :meth:`stop_listening`; one lag
        sample per pushed batch and producer frame (events of one frame
        delivered together share it)."""
        while not self.stopping:
            # Never cancelled: a cancel inside next_events() during its gap
            # replay would drop a batch the client already counted as
            # delivered.  A short timeout lets the loop see ``stopping``.
            batch = await self.subscriber.next_events(timeout=LISTEN_POLL)
            if batch is None:
                continue
            now = time.perf_counter()
            origins = set()
            for event in batch:
                self.delivered[event.stream_id].append(common.event_key(event))
                origins.add(event.index // self.spec.columns)
            lo, hi = self.offline
            if hi == np.inf and all(self.sent_at[k] > self.resumed for k in origins):
                # First batch of only post-reconnect frames: caught up.
                hi = now
                self.offline = (lo, hi)
            for k in origins:
                sent = self.sent_at[k]
                # Lag is read at the open loop's fixed rate.  Events whose
                # frame went out before the subscriber had caught up and
                # that arrive after it left came by replay or waited behind
                # it: their delay is the outage, not the lag.
                if k >= self.open_first and not (sent < hi and now > lo):
                    self.out.lag(sent, (now - sent) * 1e3)

    def start_listening(self) -> None:
        self.stopping = False
        self.listener = asyncio.ensure_future(self.listen())

    async def stop_listening(self) -> None:
        self.stopping = True
        await self.listener

    async def bounce_subscriber(self) -> None:
        """Disconnect the subscriber, then resume it from its last seqs."""
        await self.stop_listening()
        resume = self.subscriber.last_seqs
        address = self.subscriber.endpoint
        self.offline = (time.perf_counter(), np.inf)
        await self.subscriber.close()
        await asyncio.sleep(0.2)
        self.subscriber = await AsyncDetectionClient.connect(
            address, namespace="bench", resume_seqs=resume
        )
        await self.subscriber.subscribe()
        self.resumed = time.perf_counter()
        self.start_listening()

    async def catch_up(self) -> None:
        """Wait (boundedly) for the subscriber to reach every seq the
        producer saw."""
        want = {}
        for event in self.replies:
            want[event.stream_id] = max(want.get(event.stream_id, -1), event.seq)
        deadline = time.perf_counter() + DRAIN_TIMEOUT
        while time.perf_counter() < deadline:
            have = self.subscriber.last_seqs
            if all(have.get(sid, -1) >= seq for sid, seq in want.items()):
                return
            await asyncio.sleep(0.05)

    async def drain(self) -> None:
        """Catch up, then fetch any tail a push has not delivered yet."""
        await self.catch_up()
        await self.stop_listening()
        for event in await self.subscriber.resync(self.ids):
            self.delivered[event.stream_id].append(common.event_key(event))

    # -- the run ----------------------------------------------------------
    async def run(self, seconds: float, counters) -> None:
        self.start_listening()
        before = await self.producer.stats()
        self.sampler.start()
        started = time.perf_counter()
        # This process keeps every event it receives for the oracle; a
        # cyclic collection over them would stall the client for tens of
        # milliseconds, a cost of the benchmark and not of the program
        # (the daemons keep their collector).
        gc.disable()
        try:
            await self.closed_loop(seconds * CLOSED_SHARE)
            # The open loop starts from a settled system: the subscriber
            # has caught up and the daemons have worked off the closed
            # loop's backlog (checkpoint passes included).
            await self.catch_up()
            await asyncio.sleep(SETTLE_S)
            await self.open_loop(seconds * (1 - CLOSED_SHARE), self.spec.routed)
        finally:
            gc.enable()
        wall = time.perf_counter() - started
        self.sampler.stop()
        after = await self.producer.stats()
        await self.drain()
        counters(before, after, wall, self.out.counters)


# ----------------------------------------------------------------------
# STATS diffs
# ----------------------------------------------------------------------
def _diff(after: dict, before: dict, *keys: str) -> float:
    for key in keys:
        after, before = after.get(key, {}), before.get(key, {})
    return float((after or 0) - (before or 0))


def _server_counters(after: dict, before: dict, wall: float, into: dict) -> None:
    """Counters of one backend's ``server`` STATS block, summed into ``into``."""
    profile = 0.0
    for layer in ("encode", "syscall", "dispatch", "detect", "fanout"):
        value = _diff(after, before, "profile", layer)
        profile += value
        into[f"server.profile.{layer}_s"] = into.get(f"server.profile.{layer}_s", 0) + value
    into["server.unattributed_s"] = into.get("server.unattributed_s", 0) + wall - profile
    for name, keys in (
        ("server.busy_replies", ("busy_replies",)),
        ("server.dropped_events", ("dropped_events",)),
        ("server.journal.appended", ("journal", "appended")),
        ("server.replays_served", ("replays_served",)),
        ("server.replay_gaps", ("replay_gaps",)),
        ("checkpoint.passes", ("checkpoint", "passes")),
        ("checkpoint.streams_written", ("checkpoint", "streams_written")),
        ("checkpoint.bytes_written", ("checkpoint", "bytes_written")),
        ("bench.ingest_jobs", ("ingest_jobs",)),
        ("bench.executor_calls", ("executor_calls",)),
        ("bench.writer_frames", ("writer", "frames")),
        ("bench.writer_batches", ("writer", "batches")),
    ):
        into[name] = into.get(name, 0) + _diff(after, before, *keys)


def _ratios(into: dict) -> None:
    into["server.coalesce.jobs_per_batch"] = into.pop("bench.ingest_jobs") / max(
        into.pop("bench.executor_calls"), 1
    )
    into["server.writer.frames_per_batch"] = into.pop("bench.writer_frames") / max(
        into.pop("bench.writer_batches"), 1
    )


def small_counters(before: dict, after: dict, wall: float, into: dict) -> None:
    _server_counters(after["server"], before["server"], wall, into)
    _ratios(into)


def routed_counters(before: dict, after: dict, wall: float, into: dict) -> None:
    router_after, router_before = after["server"], before["server"]
    profile = 0.0
    for layer in ("slice", "forward", "encode", "syscall", "fanin"):
        value = _diff(router_after, router_before, "profile", layer)
        profile += value
        into[f"router.profile.{layer}_s"] = value
    into["router.unattributed_s"] = wall - profile
    for name in ("hot_forwards", "json_forwards", "fanin_batches"):
        into[f"router.{name}"] = _diff(router_after, router_before, "router", name)
    for address, block in router_after["backends"].items():
        _server_counters(
            block["server"], router_before["backends"][address]["server"], wall, into
        )
    _ratios(into)


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
def check_outputs(spec: Spec, driver: Driver, out: Outcome, seed: int) -> None:
    sent = driver.next_frame * spec.columns
    replies = common.group_events(driver.replies)
    # The same frames through an in-process pool.  Lockstep results do not
    # depend on how the columns are chunked, so two calls carry them all:
    # the first ends where lock_fraction is read.  How far the closed
    # loop got varies from run to run; that fixed point does not.
    reference = DetectorPool(spec.pool)
    cut = min(spec.lock_at, sent)
    events = reference.ingest_lockstep(
        {sid: driver.work.streams[sid][:cut] for sid in driver.ids}
    )
    out.final_periods = reference.current_periods()
    events += reference.ingest_lockstep(
        {sid: driver.work.streams[sid][cut:sent] for sid in driver.ids}
    )
    expected = common.group_events(events)
    expected = {sid: expected.get(sid, []) for sid in driver.ids}
    common.compare_streams(out, "in-process pool", replies, expected)
    # The scalar engine over a prefix of a seeded sample of streams.
    rng = np.random.default_rng([seed, 98])
    prefix = min(ORACLE_PREFIX, sent)
    for sid in sorted(rng.choice(driver.ids, size=ORACLE_STREAMS, replace=False)):
        scalar = common.scalar_events(spec.config, driver.work.streams[sid][:prefix])
        head = [e for e in replies.get(sid, []) if e[0] < prefix]
        common.compare_streams(out, "scalar oracle", {sid: head}, {sid: scalar})
    # The subscriber saw every event, in seq order, without gaps.
    common.compare_streams(out, "subscriber", driver.delivered, expected)
    if spec.routed:
        # The router's hot path stays binary end to end.
        forwards = out.counters["router.json_forwards"]
        out.check(forwards == 0, f"router.json_forwards = {forwards:g}, not 0")
    log = common.EventLog(driver.work.truth, ())
    log.add(events)
    out.first_lock = list(log.first.values())


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
async def _session(spec, work, out, seconds, scratch, trace_dir, setups):
    """Set up (timed ``setups`` times, keeping the last), run, tear down."""
    driver = Driver(spec, work, out)
    cluster = None
    for attempt in range(setups):
        state = os.path.join(scratch, f"state-{id(out)}-{attempt}")
        started = out.begin_setup()
        cluster = Cluster(spec, state, trace_dir)
        try:
            await driver.connect(cluster.address)
            out.end_setup(started)
            if attempt < setups - 1:
                await driver.close()
                driver.reset()
        except BaseException:
            cluster.stop()
            raise
        if attempt < setups - 1 and any(code != 0 for code in cluster.stop()):
            raise RuntimeError("a daemon did not exit cleanly")
    driver.sampler = procs.ResourceSampler([os.getpid(), *cluster.pids])
    tracer = None
    try:
        if trace_dir is not None:
            tracer = tracing.install(tracing.Tracer(), client=True)
            tracer.enabled = True
        window_start = time.perf_counter()
        await driver.run(seconds, routed_counters if spec.routed else small_counters)
        window = (window_start, time.perf_counter())
    finally:
        if tracer is not None:
            tracer.enabled = False
        await driver.close()
        codes = cluster.stop()
    if any(code != 0 for code in codes):
        out.check(False, f"daemon exit codes {codes}")
    # Memory is the daemons': the driving process's is the inputs and every
    # event it keeps for the oracle, which grows with how far it got.
    out.rss_mb = sum(driver.sampler.peak.get(pid, 0) for pid in cluster.pids) / (1 << 20)
    summary = None
    if tracer is not None:
        tracer.dump(trace_dir, "bench")
        tracer.uninstall()
        files = [os.path.join(trace_dir, name) for name in sorted(os.listdir(trace_dir))]
        summary = tracing.summarize(files, driver_pid=os.getpid(), window=window)
    return driver, summary


def _sessions(spec: Spec, work, seconds: float, scratch: str, trace: bool):
    out = Outcome()
    out.truth = dict(work.truth)
    out.kinds = dict(work.kinds)
    if not trace:
        driver, layers = asyncio.run(
            _session(spec, work, out, seconds, scratch, None, common.SETUP_REPEATS)
        )
    else:
        base = Outcome()
        asyncio.run(_session(spec, work, base, seconds / 2, scratch, None, 1))
        driver, layers = asyncio.run(
            _session(spec, work, out, seconds / 2, scratch, os.path.join(scratch, "spans"), 1)
        )
        layers["overhead_ratio"] = out.throughput() / base.throughput()
    return out, driver, layers


def _run(spec: Spec, work, seed: int, seconds: float, scratch: str, trace: bool):
    # The daemons inherit the driver's affinity when they are launched.
    with common.one_cpu():
        out, driver, layers = _sessions(spec, work, seconds, scratch, trace)
    check_outputs(spec, driver, out, seed)
    return out, layers


def wire_small_frames(seed: int, seconds: float, scratch: str, trace: bool):
    work = workloads.wire_small_frames(seed, length=SMALL.length)
    return _run(SMALL, work, seed, seconds, scratch, trace)


def routed_durable_events(seed: int, seconds: float, scratch: str, trace: bool):
    work = workloads.routed_events(seed, length=ROUTED.length)
    return _run(ROUTED, work, seed, seconds, scratch, trace)
