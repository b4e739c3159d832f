"""Spans around the program's public functions, recorded from outside.

The benchmark never edits the program to trace it.  :func:`install`
replaces functions on their modules and classes with wrappers that record
one span per call: name, start, end, parent span, request id and a work
count (rows, samples or bytes).  Where a module imported a function under
its own name, that binding is wrapped too, or the call site would stay
hidden.  Spans stay in memory until :meth:`Tracer.dump` writes one file
per process; :func:`summarize` reads them back and computes self time (a
span's duration minus the part of it its child spans cover).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import time
from collections import defaultdict
from typing import Callable

import numpy as np

#: The enclosing span of the running thread or asyncio task.
_PARENT: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_span", default=-1)
#: Request id set by the benchmark around each request it issues.
REQUEST: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_request", default=-1)


class Tracer:
    """In-memory span store of one process."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        # (span id, name id, start, end, parent id, request id, work)
        self.rows: list[tuple[int, int, float, float, int, int, int]] = []
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def reset(self) -> None:
        self.rows = []

    def wrap(self, owner, attr: str, name: str, work: Callable | None = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = getattr(owner, attr)
        nid = self.name_id(name)
        tracer = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await original(*args, **kwargs)
                sid = next(tracer._ids)
                token = _PARENT.set(sid)
                start = time.perf_counter()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _PARENT.reset(token)
                count = work(args, kwargs, result) if work else 0
                tracer.rows.append(
                    (sid, nid, start, end, _PARENT.get(), REQUEST.get(), count)
                )
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                sid = next(tracer._ids)
                token = _PARENT.set(sid)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _PARENT.reset(token)
                count = work(args, kwargs, result) if work else 0
                tracer.rows.append(
                    (sid, nid, start, end, _PARENT.get(), REQUEST.get(), count)
                )
                return result

        self._undo.append((owner, attr, owner.__dict__.get(attr, original)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, directory: str, role: str) -> str:
        """Write this process's spans to ``directory/spans-<pid>.npz``."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"spans-{os.getpid()}.npz")
        rows = np.array(self.rows, dtype=SPAN_DTYPE) if self.rows else np.zeros(0, SPAN_DTYPE)
        meta = json.dumps({"pid": os.getpid(), "role": role, "names": self.names})
        np.savez(path, spans=rows, meta=np.array(meta))
        return path


SPAN_DTYPE = np.dtype(
    [
        ("id", np.int64),
        ("name", np.int32),
        ("start", np.float64),
        ("end", np.float64),
        ("parent", np.int64),
        ("request", np.int64),
        ("work", np.int64),
    ]
)


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------
def _rows(args, kwargs, result) -> int:
    return int(np.shape(args[0])[0])


def _matrix_samples(args, kwargs, result) -> int:
    return int(np.size(args[2]))


def _samples_arg1(args, kwargs, result) -> int:
    return int(np.size(args[1]))


def _mapping_samples(args, kwargs, result) -> int:
    return int(sum(np.size(v) for v in args[1].values()))


def _nbytes_arg1(args, kwargs, result) -> int:
    return int(np.asarray(args[1]).nbytes)


def _payload_bytes(args, kwargs, result) -> int:
    return len(args[1])


def _buffers_bytes(args, kwargs, result) -> int:
    return int(sum(memoryview(b).nbytes for b in result))


def _len_result(args, kwargs, result) -> int:
    return len(result) if result else 0


#: (module, attribute path, span name, work count).  Attribute paths with a
#: dot name a method on a class of that module.
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    # kernels: the dispatch functions every caller goes through, plus the
    # per-row harmonic fallback under both names it is called by.
    ("repro.kernels", "select_periods_batch_impl", "kernels.select_periods_batch_impl", _rows),
    ("repro.kernels", "magnitude_advance_sums", "kernels.magnitude_advance_sums", None),
    ("repro.kernels", "event_step_mismatches", "kernels.event_step_mismatches", None),
    ("repro.kernels.numpy_backend", "harmonic_kept_mask", "kernels.harmonic_kept_mask", None),
    ("repro.core.minima", "_harmonic_kept_mask", "kernels.harmonic_kept_mask", None),
    # core
    ("repro.core.minima", "select_periods_batch", "core.select_periods_batch", None),
    ("repro.service.soa", "select_periods_batch", "core.select_periods_batch", None),
    ("repro.core.minima", "select_period", "core.select_period", None),
    ("repro.core.detector", "select_period", "core.select_period", None),
    ("repro.core.engine", "LockTrackerBank.apply_batch", "core.LockTrackerBank.apply_batch", None),
    (
        "repro.core.detector",
        "DynamicPeriodicityDetector.update_batch",
        "core.DynamicPeriodicityDetector.update_batch",
        _samples_arg1,
    ),
    # service
    ("repro.service.pool", "DetectorPool.ingest_lockstep", "service.DetectorPool.ingest_lockstep", _mapping_samples),
    ("repro.service.pool", "DetectorPool.ingest_many", "service.DetectorPool.ingest_many", _mapping_samples),
    ("repro.service.soa", "MagnitudeSoABank.process", "service.MagnitudeSoABank.process", None),
    ("repro.service.event_soa", "EventSoABank.process", "service.EventSoABank.process", None),
    (
        "repro.service.sharding",
        "ShardedDetectorPool.ingest_many",
        "service.ShardedDetectorPool.ingest_many",
        _mapping_samples,
    ),
    ("repro.service.sharding", "_ShardClient.flush", "service.ShardedDetectorPool.wait", None),
    ("repro.service.sharding", "_ShardClient.settle", "service.ShardedDetectorPool.wait", None),
    ("repro.service.shm_ring", "ShmSpanWriter.write", "service.ShmSpanWriter.write", _nbytes_arg1),
    # server
    ("repro.server.protocol", "decode_payload", "server.protocol.decode_payload", _payload_bytes),
    ("repro.server.protocol", "encode_hot_ingest", "server.protocol.encode_hot_ingest", _buffers_bytes),
    ("repro.server.protocol", "encode_hot_events", "server.protocol.encode_hot_events", _buffers_bytes),
    ("repro.server.persistence", "CheckpointStore.write_delta", "checkpoint.write_delta", None),
]

#: Client-side spans, installed only in the driving process (the router
#: uses the same client class to reach its backends).
CLIENT_TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("repro.server.client", "AsyncDetectionClient.ingest_rows", "client.ingest", _matrix_samples),
    ("repro.server.client", "AsyncDetectionClient._request_hot", "client.wait", None),
    ("repro.server.client", "AsyncDetectionClient.next_events", "client.next_events", _len_result),
]


def install(tracer: Tracer, *, client: bool = False) -> Tracer:
    """Wrap every target (and the client ones when ``client``)."""
    for module_name, path, name, work in TARGETS + (CLIENT_TARGETS if client else []):
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, name, work)
    return tracer


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: np.ndarray) -> np.ndarray:
    """Per span: duration minus the union of its children, clipped to it."""
    duration = spans["end"] - spans["start"]
    position = {int(sid): i for i, sid in enumerate(spans["id"])}
    kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for row in spans:
        parent = position.get(int(row["parent"]))
        if parent is None:
            continue
        lo = max(row["start"], spans["start"][parent])
        hi = min(row["end"], spans["end"][parent])
        if hi > lo:
            kids[parent].append((float(lo), float(hi)))
    out = duration.copy()
    for parent, intervals in kids.items():
        out[parent] -= covered(intervals)
    return out


def summarize(files: list[str], *, driver_pid: int, window: tuple[float, float]) -> dict:
    """Aggregate span files into per-name ``calls``/``self_s``/``work``
    plus ``coverage``: the share of the driving process's timed window
    that lies inside one of its spans."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0}
    )
    coverage = 0.0
    for path in files:
        with np.load(path) as data:
            spans = data["spans"]
            meta = json.loads(str(data["meta"]))
        if spans.size == 0:
            continue
        own = self_times(spans)
        names = meta["names"]
        for nid in np.unique(spans["name"]):
            mask = spans["name"] == nid
            entry = totals[names[nid]]
            entry["calls"] += int(mask.sum())
            entry["self_s"] += float(own[mask].sum())
            entry["total_s"] += float((spans["end"][mask] - spans["start"][mask]).sum())
            entry["work"] += int(spans["work"][mask].sum())
        if meta["pid"] == driver_pid:
            lo, hi = window
            clipped = [
                (max(float(s), lo), min(float(e), hi))
                for s, e in zip(spans["start"], spans["end"])
                if e > lo and s < hi
            ]
            coverage = covered(clipped) / (hi - lo)
    return {"layers": dict(totals), "coverage": coverage}
