"""Client libraries of the network detection service.

Two clients over the same wire protocol (:mod:`repro.server.protocol`):

* :class:`DetectionClient` — blocking sockets, no asyncio required.
  This is what the CLI's ``repro pool --connect``, the loopback
  benchmark and most tests use.  Request/reply is strictly in order;
  asynchronous ``EVENT`` pushes for subscribers are demultiplexed into a
  local buffer so they can interleave with replies at any point.
  :meth:`DetectionClient.pipeline` keeps several ingest requests in
  flight to hide round-trip latency (bounded by the server's
  ``max_inflight`` — beyond it the server answers ``BUSY``).
* :class:`AsyncDetectionClient` — the asyncio twin for callers that
  already live on an event loop; a background reader task resolves
  reply futures in FIFO order and queues event pushes.

Both raise :class:`ServerBusy` on ``BUSY`` replies (the explicit
backpressure signal — back off and retry) and :class:`ServerError` when
the server reports a failed request.

Both negotiate the wire protocol in HELLO (``max_protocol`` caps what
the client offers — ``max_protocol=2`` *is* the frozen-v2 helper the
compatibility tests use, emitting byte-identical v2 traffic).  Against
a v3 server the hot paths (``ingest``/``ingest_many``/
``ingest_lockstep``/``pipeline`` and subscriber pushes) intern stream
names into per-connection int32 handles and travel as binary hot
frames; ragged batches, mixed dtypes and dtypes without a wire code
fall back to the JSON frames transparently.

Both also *resume transparently*: every event carries the pool's
per-stream monotonic ``seq``, and the subscription delivery path
(``next_events``) tracks the last seq seen per stream.  When a pushed
batch reveals a gap — the server dropped pushes on this slow consumer,
or the client reconnected mid-stream — the client silently issues
``REPLAY`` for exactly the missed range and splices the recovered
events in front, so consumers observe the complete ordered sequence.
Only when the server's bounded journal has already evicted part of the
range does the loss surface, through the optional ``on_gap(stream_id,
from_seq, first_available)`` callback (fired exactly once per evicted
range).
"""

from __future__ import annotations

import asyncio
import random
import select
import socket
import ssl
import time
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.server import protocol
from repro.server.endpoint import _UNSET, Endpoint, resolve_endpoint
from repro.server.protocol import Frame, FrameType, ProtocolError
from repro.service.events import PeriodStartEvent

__all__ = [
    "AsyncDetectionClient",
    "ConnectionClosedError",
    "DetectionClient",
    "RETRY_DELAY_CAP",
    "ServerBusy",
    "ServerError",
    "backoff_delay",
]


class ServerError(Exception):
    """The server answered a request with an ERROR frame."""


class ServerBusy(ServerError):
    """The server answered BUSY: its per-connection inflight bound is hit."""


class ConnectionClosedError(ConnectionError):
    """The server said BYE (drain) or the connection is gone."""


#: Cap on one reconnect backoff step.  Growth is exponential from the
#: caller's ``retry_delay`` but bounded: a fleet waiting out a long
#: router restart should retry every few seconds, not every few minutes.
RETRY_DELAY_CAP = 5.0

#: Connect-time errors worth retrying: the daemon is not listening yet
#: (refused) or is mid-restart and dropped the half-open handshake
#: (reset / aborted, or an EOF mid-TLS-handshake).
_RETRYABLE_CONNECT_ERRORS = (
    ConnectionRefusedError,
    ConnectionResetError,
    ConnectionAbortedError,
    ssl.SSLEOFError,
)


def backoff_delay(
    attempt: int, base: float, cap: float = RETRY_DELAY_CAP
) -> float:
    """Bounded exponential backoff with jitter for reconnect attempt N.

    ``base * 2**attempt``, capped at ``cap``, then jittered uniformly
    into ``[0.5, 1.0]`` of that bound so a fleet of clients reconnecting
    to one restarted router (or backend) does not hammer it in lockstep.
    """
    bound = min(base * (2.0 ** max(attempt, 0)), cap)
    return bound * (0.5 + 0.5 * random.random())


def _as_batch(samples) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(samples).ravel())


def _events_from_frame(frame: Frame) -> list[PeriodStartEvent]:
    ids = frame.meta.get("streams", [])
    if not frame.arrays:
        return []
    return protocol.events_from_array(frame.arrays[0], ids)


def _hot_matrix(arrays: Sequence[np.ndarray]) -> np.ndarray | None:
    """Stack 1-D batches into a hot-frame matrix, or None for the JSON path.

    Hot frames need equal-length rows of one wire-codeable dtype;
    anything else (ragged batches, mixed or exotic dtypes, an empty
    request) keeps the fully supported JSON frames.
    """
    if not arrays:
        return None
    first = arrays[0]
    if protocol.hot_dtype_code(first.dtype) is None:
        return None
    length = first.shape[0]
    for arr in arrays[1:]:
        if arr.dtype != first.dtype or arr.shape[0] != length:
            return None
    if len(arrays) == 1:
        return first.reshape(1, -1)
    return np.stack(arrays)


class _HandleRegistry:
    """Per-connection stream-handle state shared by both clients."""

    __slots__ = ("of_name", "names")

    def __init__(self) -> None:
        self.of_name: dict[str, int] = {}  # name -> handle (sent frames)
        self.names: dict[int, str] = {}  # handle -> name (received frames)

    def learn(self, name: str, handle: int) -> None:
        self.of_name[name] = handle
        self.names[handle] = name

    def decode_events(self, frame: Frame) -> list[PeriodStartEvent]:
        """Decode an EVENTS_HOT/EVENT_HOT frame against the registry."""
        for handle, name in frame.meta.get("announce", ()):
            self.names[handle] = name
        ids = []
        for handle in frame.meta.get("handles", ()):
            name = self.names.get(handle)
            if name is None:
                raise ProtocolError(
                    f"server referenced unannounced stream handle {handle}"
                )
            ids.append(name)
        if not frame.arrays:
            return []
        return protocol.events_from_array(frame.arrays[0], ids)


class DetectionClient:
    """Blocking client of a :class:`~repro.server.server.DetectionServer`.

    Parameters
    ----------
    endpoint:
        Where (and how) to connect: an
        :class:`~repro.server.endpoint.Endpoint`, or a URL string such
        as ``"repro://127.0.0.1:8757"`` / ``"repros://token@host:port"``
        (TLS), or a bare ``"HOST:PORT"``.  The endpoint carries the TLS
        parameters and the auth token; the keyword ``token`` /
        ``tls_ca`` / ``tls_insecure`` / ``timeout`` arguments override
        its fields.  The old positional ``host, port`` pair still works
        as a deprecated shim (it warns ``DeprecationWarning``).
    namespace:
        Stream namespace on the server.  ``None`` lets the server assign
        a fresh one; pass a stable name to reconnect to previous streams
        (combine with ``fresh=True`` to drop them instead).
    fresh:
        Ask the server to remove any resident streams of this namespace
        during the handshake (a clean-slate reconnect).
    connect_retries, retry_delay:
        Retry refused/reset connects — a daemon that was *just* started
        (CI smoke jobs, examples) or is mid-restart (a router bounce)
        may not be listening yet.  ``retry_delay`` seeds a *bounded
        exponential backoff with jitter* (see :func:`backoff_delay`):
        attempt N sleeps ``min(retry_delay * 2**N,`` ``RETRY_DELAY_CAP)``
        scaled by a uniform ``[0.5, 1.0]`` jitter, so a reconnecting
        fleet spreads out instead of hammering the daemon in lockstep.
        Every attempt re-resolves the endpoint's security material — a
        fresh TLS context per try, the token re-sent in the new HELLO —
        so a client riding out a TLS+auth server restart resumes
        exactly like a plaintext one.
    timeout:
        Socket timeout in seconds for connect and replies (overrides
        the endpoint's).
    token, tls_ca, tls_insecure:
        Endpoint field overrides — the auth token presented in HELLO,
        the CA bundle the server certificate is verified against, and
        the verification kill-switch for testing.
    on_gap:
        ``on_gap(stream_id, from_seq, first_available)`` — called
        (exactly once per evicted range) when an automatic replay finds
        that the server's journal no longer holds part of the missed
        range ``[from_seq, first_available)``; those events are lost.
        ``None`` ignores unrecoverable gaps.
    auto_replay:
        When True (default), :meth:`next_events` detects per-stream seq
        gaps in pushed batches and recovers them via :meth:`replay`
        before delivering; False hands batches through verbatim (seqs
        are still tracked).
    resume_seqs:
        Seed for the per-stream last-seen seq map — pass a previous
        client's :attr:`last_seqs` when reconnecting, and the first push
        of each stream then reveals (and replays) everything missed
        while disconnected.  Without it a fresh client treats the first
        event it sees as the baseline.
    max_protocol:
        Highest wire protocol version to offer in HELLO; the connection
        runs ``min(offered, server's)`` (see
        :attr:`protocol_version`).  ``2`` freezes the client to the
        JSON-only v2 wire format, byte-identical to an old client — the
        compatibility tests use exactly that.
    """

    def __init__(
        self,
        endpoint: "Endpoint | str",
        port: int | None = None,
        *,
        namespace: str | None = None,
        fresh: bool = False,
        connect_retries: int = 0,
        retry_delay: float = 0.25,
        timeout: float | None = _UNSET,  # type: ignore[assignment]
        on_gap=None,
        auto_replay: bool = True,
        resume_seqs: Mapping[str, int] | None = None,
        max_protocol: int = protocol.PROTOCOL_VERSION,
        token: str | None = _UNSET,  # type: ignore[assignment]
        tls_ca: str | None = _UNSET,  # type: ignore[assignment]
        tls_insecure: bool = _UNSET,  # type: ignore[assignment]
    ) -> None:
        self.endpoint = resolve_endpoint(
            endpoint,
            port,
            token=token,
            tls_ca=tls_ca,
            tls_insecure=tls_insecure,
            timeout=timeout,
        )
        if not (
            protocol.BASELINE_VERSION <= max_protocol <= protocol.PROTOCOL_VERSION
        ):
            raise ValueError(
                f"max_protocol must be in "
                f"[{protocol.BASELINE_VERSION}, {protocol.PROTOCOL_VERSION}], "
                f"got {max_protocol}"
            )
        last_error: Exception | None = None
        self._sock: socket.socket | None = None
        for attempt in range(connect_retries + 1):
            try:
                self._sock = self._open_socket(self.endpoint)
                break
            except _RETRYABLE_CONNECT_ERRORS as exc:
                last_error = exc
                if attempt < connect_retries:
                    time.sleep(backoff_delay(attempt, retry_delay))
        if self._sock is None:
            raise last_error  # type: ignore[misc]
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._events: list[list[PeriodStartEvent]] = []  # buffered pushes
        self._closed = False
        self._saw_bye = False
        self._on_gap = on_gap
        self._auto_replay = bool(auto_replay)
        self._scope = "own"
        # Per stream (named as delivered), the last seq handed to the
        # consumer; seeded from resume_seqs on a reconnect.
        self._last_seq: dict[str, int] = dict(resume_seqs or {})
        self._max_protocol = max_protocol
        self._version = protocol.BASELINE_VERSION
        self._handles = _HandleRegistry()
        hello_meta: dict = {"namespace": namespace, "fresh": bool(fresh)}
        if self.endpoint.token is not None:
            hello_meta["token"] = self.endpoint.token
        if max_protocol > protocol.BASELINE_VERSION:
            # A v2 peer has no "protocol" key; omitting it at
            # max_protocol=2 keeps the frozen-v2 handshake byte-identical.
            hello_meta["protocol"] = max_protocol
        try:
            reply = self._request(FrameType.HELLO, hello_meta)
        except BaseException:
            # A failed handshake (ERROR reply, rejected token, draining
            # server, protocol mismatch) must not leak the socket.
            self._sock.close()
            raise
        self.server_info = reply.meta
        self.namespace = reply.meta["namespace"]
        offered = reply.meta.get("protocol", protocol.BASELINE_VERSION)
        self._version = max(
            protocol.BASELINE_VERSION, min(int(offered), max_protocol)
        )

    @staticmethod
    def _open_socket(endpoint: Endpoint) -> socket.socket:
        """One connect attempt, TLS-wrapped when the endpoint asks.

        The TLS context is built *inside* the attempt (see
        :meth:`Endpoint.client_ssl_context`), so every backoff retry
        negotiates from a fresh context.
        """
        sock = socket.create_connection(
            (endpoint.host, endpoint.port), timeout=endpoint.timeout
        )
        if not endpoint.tls:
            return sock
        try:
            context = endpoint.client_ssl_context()
            assert context is not None
            return context.wrap_socket(sock, server_hostname=endpoint.host)
        except BaseException:
            sock.close()
            raise

    @property
    def protocol_version(self) -> int:
        """The negotiated wire protocol version of this connection."""
        return self._version

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _send(
        self, ftype: FrameType, meta=None, arrays: Iterable[np.ndarray] = ()
    ) -> None:
        if self._closed:
            raise ConnectionClosedError("client is closed")
        if self._saw_bye:
            raise ConnectionClosedError("server is draining (BYE received)")
        protocol.write_frame(self._sock, ftype, meta, arrays, version=self._version)

    def _send_hot(self, ftype: FrameType, handles, matrix: np.ndarray) -> None:
        """Ship a pre-validated hot ingest frame (v3 connections only)."""
        if self._closed:
            raise ConnectionClosedError("client is closed")
        if self._saw_bye:
            raise ConnectionClosedError("server is draining (BYE received)")
        protocol.send_buffers(
            self._sock,
            protocol.encode_hot_ingest(ftype, handles, matrix, version=self._version),
        )

    def _events_of(self, frame: Frame) -> list[PeriodStartEvent]:
        """Decode an events reply, JSON (EVENTS) or binary (EVENTS_HOT)."""
        if frame.type in (FrameType.EVENTS_HOT, FrameType.EVENT_HOT):
            return self._handles.decode_events(frame)
        return _events_from_frame(frame)

    def _read_reply(self) -> Frame:
        """Next non-push frame; EVENT pushes are buffered on the side."""
        while True:
            frame = protocol.read_frame(self._sock)
            if frame.type == FrameType.EVENT:
                self._events.append(_events_from_frame(frame))
                continue
            if frame.type == FrameType.EVENT_HOT:
                self._events.append(self._handles.decode_events(frame))
                continue
            if frame.type == FrameType.BYE:
                self._saw_bye = True
                raise ConnectionClosedError("server is draining (BYE received)")
            return frame

    def _ensure_handles(self, ids: Sequence[str]) -> list[int]:
        """Handles for ``ids``, registering the missing ones (one request)."""
        known = self._handles.of_name
        missing = [sid for sid in ids if sid not in known]
        if missing:
            reply = self._request(FrameType.REGISTER, {"streams": missing})
            for sid, handle in zip(missing, reply.meta["handles"]):
                self._handles.learn(sid, int(handle))
        return [known[sid] for sid in ids]

    def _request(
        self, ftype: FrameType, meta=None, arrays: Iterable[np.ndarray] = ()
    ) -> Frame:
        self._send(ftype, meta, arrays)
        return self._check(self._read_reply())

    @staticmethod
    def _check(frame: Frame) -> Frame:
        if frame.type == FrameType.BUSY:
            raise ServerBusy(f"server busy (inflight={frame.meta.get('inflight')})")
        if frame.type == FrameType.ERROR:
            raise ServerError(frame.meta.get("message", "unknown server error"))
        return frame

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, stream_id: str, samples) -> list[PeriodStartEvent]:
        """Feed one batch into one stream; returns its period-start events."""
        return self.ingest_many({stream_id: samples})

    def ingest_many(
        self, batches: Mapping[str, Sequence | np.ndarray]
    ) -> list[PeriodStartEvent]:
        """Feed one batch per stream in a single request/reply round trip."""
        ids = list(batches)
        arrays = [_as_batch(batches[sid]) for sid in ids]
        matrix = _hot_matrix(arrays) if self._version >= 3 else None
        if matrix is not None:
            handles = self._ensure_handles(ids)
            self._send_hot(FrameType.INGEST_HOT, handles, matrix)
            return self._events_of(self._check(self._read_reply()))
        reply = self._request(FrameType.INGEST, {"streams": ids}, arrays)
        return _events_from_frame(reply)

    def ingest_lockstep(
        self, traces: Mapping[str, Sequence | np.ndarray]
    ) -> list[PeriodStartEvent]:
        """Feed equally long traces into many streams as one 2-D matrix."""
        ids = list(traces)
        matrix = np.ascontiguousarray(
            np.stack([np.asarray(traces[sid]).ravel() for sid in ids])
        )
        if self._version >= 3 and protocol.hot_dtype_code(matrix.dtype) is not None:
            handles = self._ensure_handles(ids)
            self._send_hot(FrameType.LOCKSTEP_HOT, handles, matrix)
            return self._events_of(self._check(self._read_reply()))
        reply = self._request(FrameType.INGEST_LOCKSTEP, {"streams": ids}, [matrix])
        return _events_from_frame(reply)

    def pipeline(
        self,
        requests: Iterable[Mapping[str, Sequence | np.ndarray]],
        *,
        window: int = 8,
        on_busy: str = "raise",
    ) -> list[PeriodStartEvent]:
        """Pipelined ``ingest_many``: keep up to ``window`` requests in flight.

        ``on_busy`` is ``"raise"`` (default) or ``"count"``; with
        ``"count"``, BUSY replies are tallied on
        :attr:`busy_replies` and the corresponding request's samples are
        *not* retried (the caller opted into lossy backpressure).
        """
        if on_busy not in ("raise", "count"):
            raise ValueError("on_busy must be 'raise' or 'count'")
        events: list[PeriodStartEvent] = []
        outstanding = 0
        busy: ServerBusy | None = None

        def collect_one() -> None:
            nonlocal outstanding, busy
            try:
                frame = self._check(self._read_reply())
            except ServerBusy as exc:
                # Never raise with replies still outstanding: the
                # request/reply FIFO must stay paired or every later
                # call on this client would read a stale reply.
                self.busy_replies += 1
                if on_busy == "raise" and busy is None:
                    busy = exc
            else:
                events.extend(self._events_of(frame))
            finally:
                outstanding -= 1

        for batches in requests:
            if busy is not None:
                break  # stop feeding a server that already said BUSY
            ids = list(batches)
            arrays = [_as_batch(batches[sid]) for sid in ids]
            matrix = _hot_matrix(arrays) if self._version >= 3 else None
            handles = None
            if matrix is not None:
                known = self._handles.of_name
                if all(sid in known for sid in ids):
                    handles = [known[sid] for sid in ids]
                elif outstanding == 0:
                    # REGISTER is its own request/reply; only safe with
                    # nothing in flight (the reply FIFO must stay
                    # paired).  In the steady state every id is already
                    # interned and this round trip never happens.
                    handles = self._ensure_handles(ids)
                # else: unregistered ids mid-flight -> JSON fallback
            if handles is not None:
                self._send_hot(FrameType.INGEST_HOT, handles, matrix)
            else:
                self._send(FrameType.INGEST, {"streams": ids}, arrays)
            outstanding += 1
            while outstanding >= window:
                collect_one()
        while outstanding:
            collect_one()
        if busy is not None:
            raise busy
        return events

    busy_replies: int = 0

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------
    @property
    def last_seqs(self) -> dict[str, int]:
        """Last delivered seq per stream — hand to ``resume_seqs`` on
        reconnect to recover everything missed while disconnected."""
        return dict(self._last_seq)

    def subscribe(self, scope: str = "own") -> None:
        """Receive EVENT pushes for ``"own"`` streams or ``"all"`` streams."""
        self._request(FrameType.SUBSCRIBE, {"scope": scope})
        self._scope = scope

    def replay(
        self,
        stream_id: str,
        from_seq: int,
        *,
        upto: int | None = None,
        scope: str | None = None,
    ) -> tuple[list[PeriodStartEvent], int | None]:
        """Re-fetch journaled events of one stream from the server.

        Returns ``(events, first_available)`` with the events of
        ``[from_seq, upto)`` (open-ended without ``upto``) still inside
        the server's journal, oldest first.  ``first_available`` is
        ``None`` when the whole requested head was served; otherwise the
        range ``[from_seq, first_available)`` has been evicted and is
        unrecoverable.  ``scope`` defaults to the current subscription
        scope: ``"own"`` resolves ``stream_id`` inside this connection's
        namespace, ``"all"`` takes a full ``<namespace>/<stream>`` id.
        """
        meta: dict = {
            "stream": stream_id,
            "from_seq": int(from_seq),
            "scope": scope or self._scope,
        }
        if upto is not None:
            meta["upto"] = int(upto)
        self._send(FrameType.REPLAY, meta)
        frame = self._read_reply()
        if frame.type == FrameType.EVENTS_GAP:
            return _events_from_frame(frame), int(frame.meta["first_available"])
        return _events_from_frame(self._check(frame)), None

    def resync(self, stream_ids: Iterable[str]) -> list[PeriodStartEvent]:
        """Catch up to the journal's tail without waiting for a push.

        Push-revealed gap recovery only triggers when a *later* push
        arrives; if the very last pushes were dropped there is nothing
        left to reveal them.  ``resync`` closes that hole: for each
        stream it replays everything after the last delivered seq
        (streams never seen start at 0) and advances the tracking, with
        ``on_gap`` fired for unrecoverable heads exactly like automatic
        replay.  Meant for quiescent moments (shutdown, after a
        producer pause) — events pushed concurrently with a resync may
        be delivered twice.
        """
        out: list[PeriodStartEvent] = []
        for stream_id in stream_ids:
            from_seq = self._last_seq.get(stream_id, -1) + 1
            events, first_available = self.replay(stream_id, from_seq)
            if first_available is not None:
                if self._on_gap is not None:
                    self._on_gap(stream_id, from_seq, first_available)
                # Advance past the reported loss so it is not re-reported
                # by the next resync or push-revealed replay.  (An
                # unknown-extent loss — first_available == from_seq, the
                # journal never saw the stream — cannot advance anything
                # and is re-reported by every explicit resync until a
                # live push re-baselines the stream.)
                self._last_seq[stream_id] = max(
                    self._last_seq.get(stream_id, -1), first_available - 1
                )
            for event in events:
                self._last_seq[stream_id] = event.seq
            out.extend(events)
        return out

    def _resolve_gaps(self, batch: list[PeriodStartEvent]) -> list[PeriodStartEvent]:
        """Splice automatically replayed events into a pushed batch.

        For every event whose seq jumps past the stream's last delivered
        seq, the missed range is replayed (bounded: ``[last + 1, seq)``,
        so nothing already in hand is re-fetched) and inserted in front
        of it; an unrecoverable head fires ``on_gap`` exactly once.  A
        seq at or below the last delivered one resets the baseline — the
        stream was re-created (LRU eviction, ``fresh`` reconnect), not
        rewound.
        """
        out: list[PeriodStartEvent] = []
        for event in batch:
            last = self._last_seq.get(event.stream_id)
            if self._auto_replay and last is not None and event.seq > last + 1:
                recovered, first_available = self.replay(
                    event.stream_id, last + 1, upto=event.seq
                )
                if first_available is not None and self._on_gap is not None:
                    self._on_gap(event.stream_id, last + 1, first_available)
                out.extend(recovered)
            self._last_seq[event.stream_id] = event.seq
            out.append(event)
        return out

    def next_events(
        self, timeout: float | None = None
    ) -> list[PeriodStartEvent] | None:
        """Next pushed event batch, or ``None`` when ``timeout`` expires.

        Per-stream seq gaps are recovered transparently before delivery
        (see the class docstring); the returned list therefore may be
        longer than the pushed batch — missed events appear in front of
        the push that revealed them, in seq order.

        The timeout gates only the *wait for the first byte* (via
        ``select``); once a frame starts arriving it is read to
        completion.  A per-read socket timeout would be wrong here: it
        could fire mid-frame, discard the consumed bytes and leave the
        connection permanently desynchronised.
        """
        if self._events:
            return self._resolve_gaps(self._events.pop(0))
        if timeout is not None:
            readable, _, _ = select.select([self._sock], [], [], timeout)
            if not readable:
                return None
        frame = protocol.read_frame(self._sock)
        if frame.type == FrameType.EVENT:
            return self._resolve_gaps(_events_from_frame(frame))
        if frame.type == FrameType.EVENT_HOT:
            return self._resolve_gaps(self._handles.decode_events(frame))
        if frame.type == FrameType.BYE:
            self._saw_bye = True
            raise ConnectionClosedError("server is draining (BYE received)")
        raise ProtocolError(f"unexpected {frame.type.name} frame outside a request")

    # ------------------------------------------------------------------
    # state + stats
    # ------------------------------------------------------------------
    def snapshot(self, stream_ids: Sequence[str] | None = None) -> dict[str, dict]:
        """Engine snapshots of (some of) this namespace's streams.

        Returns ``stream_id -> {"state", "samples", "events"}`` — opaque
        blobs to hand back to :meth:`restore` after a reconnect.
        """
        meta = {"streams": list(stream_ids)} if stream_ids is not None else {}
        reply = self._request(FrameType.SNAPSHOT, meta)
        return protocol.unpack_object(reply.meta["states"], reply.arrays)

    def restore(self, states: Mapping[str, dict]) -> int:
        """Reinstate streams from :meth:`snapshot` blobs; returns the count."""
        tree, arrays = protocol.pack_object(dict(states))
        reply = self._request(FrameType.RESTORE, {"states": tree}, arrays)
        return int(reply.meta["restored"])

    def remove_streams(self, stream_ids: Sequence[str]) -> int:
        """Drop named streams from this namespace; returns how many were
        resident.  The namespace's journal keeps their already-produced
        events replayable (see the server's REMOVE handler)."""
        reply = self._request(FrameType.REMOVE, {"streams": list(stream_ids)})
        return int(reply.meta["removed"])

    def stats(self, *, periods: bool = False) -> dict:
        """Pool + server statistics; ``periods=True`` adds this
        namespace's per-stream locked periods."""
        return self._request(FrameType.STATS, {"periods": periods}).meta

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the connection (idempotent)."""
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "DetectionClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AsyncDetectionClient:
    """Asyncio client; create it with :meth:`connect`.

    A background reader task demultiplexes the socket: replies resolve
    their request futures in FIFO order, EVENT pushes land on
    :attr:`events` (an ``asyncio.Queue`` of event-batch lists).

    Examples
    --------
    ::

        client = await AsyncDetectionClient.connect(f"repro://127.0.0.1:{port}")
        events = await client.ingest("app", batch)
        await client.close()
    """

    def __init__(
        self,
        reader,
        writer,
        namespace_hint,
        fresh: bool,
        on_gap=None,
        auto_replay: bool = True,
        resume_seqs: Mapping[str, int] | None = None,
        max_protocol: int = protocol.PROTOCOL_VERSION,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: list[asyncio.Future] = []
        self.events: asyncio.Queue = asyncio.Queue()
        self._closed = False
        self._saw_bye = False
        self._conn_error: Exception | None = None
        self._hello = (namespace_hint, fresh)
        self._reader_task: asyncio.Task | None = None
        self.namespace = ""
        self.server_info: dict = {}
        self.endpoint: Endpoint | None = None
        self._on_gap = on_gap
        self._auto_replay = bool(auto_replay)
        self._scope = "own"
        if not (
            protocol.BASELINE_VERSION <= max_protocol <= protocol.PROTOCOL_VERSION
        ):
            raise ValueError(
                f"max_protocol must be in "
                f"[{protocol.BASELINE_VERSION}, {protocol.PROTOCOL_VERSION}], "
                f"got {max_protocol}"
            )
        self._max_protocol = max_protocol
        self._version = protocol.BASELINE_VERSION
        self._handles = _HandleRegistry()
        # Hot requests that must wait for a REGISTER queue here, FIFO;
        # while any waits, later ones queue too (see _ensure_handles).
        self._register_lock = asyncio.Lock()
        self._registering = 0
        # Per stream (named as delivered), the last seq handed to the
        # consumer; seeded from resume_seqs on a reconnect.
        self._last_seq: dict[str, int] = dict(resume_seqs or {})

    @property
    def protocol_version(self) -> int:
        """The negotiated wire protocol version of this connection."""
        return self._version

    @classmethod
    async def connect(
        cls,
        endpoint: "Endpoint | str",
        port: int | None = None,
        *,
        namespace: str | None = None,
        fresh: bool = False,
        connect_retries: int = 0,
        retry_delay: float = 0.25,
        on_gap=None,
        auto_replay: bool = True,
        resume_seqs: Mapping[str, int] | None = None,
        max_protocol: int = protocol.PROTOCOL_VERSION,
        token: str | None = _UNSET,  # type: ignore[assignment]
        tls_ca: str | None = _UNSET,  # type: ignore[assignment]
        tls_insecure: bool = _UNSET,  # type: ignore[assignment]
    ) -> "AsyncDetectionClient":
        """Connect and handshake.

        ``endpoint`` follows :class:`DetectionClient`: an
        :class:`~repro.server.endpoint.Endpoint`, a ``repro://`` /
        ``repros://`` URL string, or the deprecated positional ``host,
        port`` pair.  ``connect_retries`` / ``retry_delay`` retry
        refused/reset connects with the same bounded exponential
        backoff + jitter as the blocking client (:func:`backoff_delay`)
        — the router leans on this to ride out a backend respawn.
        Every attempt builds a fresh TLS context and the HELLO it
        completes re-presents the endpoint's auth token, so a restarted
        TLS+auth backend is rejoined with full credentials."""
        resolved = resolve_endpoint(
            endpoint,
            port,
            token=token,
            tls_ca=tls_ca,
            tls_insecure=tls_insecure,
            _deprecated_caller="AsyncDetectionClient.connect",
        )
        reader = writer = None
        last_error: Exception | None = None
        for attempt in range(connect_retries + 1):
            try:
                ssl_context = resolved.client_ssl_context()  # fresh per try
                if ssl_context is not None:
                    reader, writer = await asyncio.open_connection(
                        resolved.host,
                        resolved.port,
                        ssl=ssl_context,
                        server_hostname=resolved.host,
                    )
                else:
                    reader, writer = await asyncio.open_connection(
                        resolved.host, resolved.port
                    )
                break
            except _RETRYABLE_CONNECT_ERRORS as exc:
                last_error = exc
                if attempt < connect_retries:
                    await asyncio.sleep(backoff_delay(attempt, retry_delay))
        if reader is None:
            raise last_error  # type: ignore[misc]
        client = cls(
            reader,
            writer,
            namespace,
            fresh,
            on_gap,
            auto_replay,
            resume_seqs,
            max_protocol,
        )
        client.endpoint = resolved
        client._reader_task = asyncio.ensure_future(client._read_loop())
        hello_meta: dict = {"namespace": namespace, "fresh": bool(fresh)}
        if resolved.token is not None:
            hello_meta["token"] = resolved.token
        if max_protocol > protocol.BASELINE_VERSION:
            hello_meta["protocol"] = max_protocol
        try:
            reply = await client._request(FrameType.HELLO, hello_meta)
        except BaseException:
            # A failed handshake (rejected token, draining server) must
            # not leak the reader task + writer transport.
            await client.close()
            raise
        client.server_info = reply.meta
        client.namespace = reply.meta["namespace"]
        offered = reply.meta.get("protocol", protocol.BASELINE_VERSION)
        client._version = max(
            protocol.BASELINE_VERSION, min(int(offered), max_protocol)
        )
        return client

    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await protocol.read_frame_async(self._reader)
                if frame.type == FrameType.EVENT:
                    self.events.put_nowait(_events_from_frame(frame))
                elif frame.type == FrameType.EVENT_HOT:
                    self.events.put_nowait(self._handles.decode_events(frame))
                elif frame.type == FrameType.BYE:
                    self._saw_bye = True
                    self._fail_pending(ConnectionClosedError("server is draining"))
                else:
                    if not self._pending:
                        raise ProtocolError(
                            f"unsolicited {frame.type.name} reply"
                        )
                    future = self._pending.pop(0)
                    if not future.done():
                        future.set_result(frame)
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.CancelledError,
        ) as exc:
            self._fail_pending(ConnectionClosedError(f"connection lost: {exc!r}"))
        except ProtocolError as exc:
            self._fail_pending(exc)

    def _fail_pending(self, exc: Exception) -> None:
        # Remember the terminal error: a request issued *after* the read
        # loop died would otherwise enqueue a future nothing resolves.
        self._conn_error = exc
        pending, self._pending = self._pending, []
        for future in pending:
            if not future.done():
                future.set_exception(exc)

    def _check_usable(self) -> None:
        if self._closed or self._saw_bye:
            raise ConnectionClosedError("client is closed")
        if self._conn_error is not None:
            raise ConnectionClosedError(
                f"connection unusable: {self._conn_error}"
            ) from self._conn_error

    async def _request_raw(
        self, ftype: FrameType, meta=None, arrays: Iterable[np.ndarray] = ()
    ) -> Frame:
        self._check_usable()
        future = asyncio.get_running_loop().create_future()
        self._pending.append(future)
        self._writer.writelines(
            protocol.encode_frame(ftype, meta, arrays, version=self._version)
        )
        await self._writer.drain()
        return await future

    async def _request(
        self, ftype: FrameType, meta=None, arrays: Iterable[np.ndarray] = ()
    ) -> Frame:
        return DetectionClient._check(await self._request_raw(ftype, meta, arrays))

    async def _request_hot(
        self, ftype: FrameType, handles, matrix: np.ndarray
    ) -> Frame:
        self._check_usable()
        future = asyncio.get_running_loop().create_future()
        self._pending.append(future)
        self._writer.writelines(
            protocol.encode_hot_ingest(ftype, handles, matrix, version=self._version)
        )
        await self._writer.drain()
        return DetectionClient._check(await future)

    async def _ensure_handles(self, ids: Sequence[str]) -> list[int]:
        """Handles for ``ids``, registering the missing ones (one request).

        Returns in call order, because each caller sends its hot frame
        right after: a later frame must not overtake one still waiting
        for its REGISTER reply, or a stream's samples arrive reordered.
        """
        known = self._handles.of_name
        if not self._registering and all(sid in known for sid in ids):
            return [known[sid] for sid in ids]
        self._registering += 1
        try:
            async with self._register_lock:
                missing = [sid for sid in ids if sid not in known]
                if missing:
                    meta = {"streams": missing}
                    reply = await self._request(FrameType.REGISTER, meta)
                    for sid, handle in zip(missing, reply.meta["handles"]):
                        self._handles.learn(sid, int(handle))
                return [known[sid] for sid in ids]
        finally:
            self._registering -= 1

    def _events_of(self, frame: Frame) -> list[PeriodStartEvent]:
        if frame.type in (FrameType.EVENTS_HOT, FrameType.EVENT_HOT):
            return self._handles.decode_events(frame)
        return _events_from_frame(frame)

    # ------------------------------------------------------------------
    async def ingest(self, stream_id: str, samples) -> list[PeriodStartEvent]:
        """Feed one batch into one stream."""
        return await self.ingest_many({stream_id: samples})

    async def ingest_many(self, batches: Mapping) -> list[PeriodStartEvent]:
        """Feed one batch per stream in one round trip."""
        ids = list(batches)
        arrays = [_as_batch(batches[sid]) for sid in ids]
        matrix = _hot_matrix(arrays) if self._version >= 3 else None
        if matrix is not None:
            handles = await self._ensure_handles(ids)
            reply = await self._request_hot(FrameType.INGEST_HOT, handles, matrix)
            return self._events_of(reply)
        reply = await self._request(FrameType.INGEST, {"streams": ids}, arrays)
        return _events_from_frame(reply)

    async def ingest_lockstep(self, traces: Mapping) -> list[PeriodStartEvent]:
        """Feed equally long traces into many streams as one matrix."""
        ids = list(traces)
        matrix = np.ascontiguousarray(
            np.stack([np.asarray(traces[sid]).ravel() for sid in ids])
        )
        return await self.ingest_rows(ids, matrix, lockstep=True)

    async def ingest_rows(
        self, ids: Sequence[str], matrix: np.ndarray, *, lockstep: bool = False
    ) -> list[PeriodStartEvent]:
        """Feed one pre-built matrix row per stream, without re-stacking.

        The router's forwarding fast path: it already holds a decoded
        hot-frame sample matrix and the per-backend row slice *is* the
        payload — re-splitting it into per-stream dicts only to have
        ``ingest_many`` stack them again would add a copy and a Python
        loop per stream.  Hot-codeable dtypes go out as binary hot
        frames (handles re-interned against *this* connection); anything
        else falls back to the JSON frames.
        """
        ids = list(ids)
        if matrix.ndim != 2 or matrix.shape[0] != len(ids):
            raise ValueError("ingest_rows needs one matrix row per stream id")
        if self._version >= 3 and protocol.hot_dtype_code(matrix.dtype) is not None:
            handles = await self._ensure_handles(ids)
            reply = await self._request_hot(
                FrameType.LOCKSTEP_HOT if lockstep else FrameType.INGEST_HOT,
                handles,
                matrix,
            )
            return self._events_of(reply)
        if lockstep:
            reply = await self._request(
                FrameType.INGEST_LOCKSTEP,
                {"streams": ids},
                [np.ascontiguousarray(matrix)],
            )
        else:
            reply = await self._request(
                FrameType.INGEST, {"streams": ids}, list(matrix)
            )
        return _events_from_frame(reply)

    @property
    def last_seqs(self) -> dict[str, int]:
        """Last delivered seq per stream (see
        :attr:`DetectionClient.last_seqs`)."""
        return dict(self._last_seq)

    async def subscribe(self, scope: str = "own") -> None:
        """Receive EVENT pushes on :attr:`events`."""
        await self._request(FrameType.SUBSCRIBE, {"scope": scope})
        self._scope = scope

    async def replay(
        self,
        stream_id: str,
        from_seq: int,
        *,
        upto: int | None = None,
        scope: str | None = None,
    ) -> tuple[list[PeriodStartEvent], int | None]:
        """Re-fetch journaled events (see :meth:`DetectionClient.replay`)."""
        meta: dict = {
            "stream": stream_id,
            "from_seq": int(from_seq),
            "scope": scope or self._scope,
        }
        if upto is not None:
            meta["upto"] = int(upto)
        frame = await self._request_raw(FrameType.REPLAY, meta)
        if frame.type == FrameType.EVENTS_GAP:
            return _events_from_frame(frame), int(frame.meta["first_available"])
        return _events_from_frame(DetectionClient._check(frame)), None

    async def resync(self, stream_ids: Iterable[str]) -> list[PeriodStartEvent]:
        """Catch up to the journal's tail without waiting for a push
        (see :meth:`DetectionClient.resync`)."""
        out: list[PeriodStartEvent] = []
        for stream_id in stream_ids:
            from_seq = self._last_seq.get(stream_id, -1) + 1
            events, first_available = await self.replay(stream_id, from_seq)
            if first_available is not None:
                if self._on_gap is not None:
                    self._on_gap(stream_id, from_seq, first_available)
                # Advance past the reported loss — see the blocking twin.
                self._last_seq[stream_id] = max(
                    self._last_seq.get(stream_id, -1), first_available - 1
                )
            for event in events:
                self._last_seq[stream_id] = event.seq
            out.extend(events)
        return out

    async def next_events(
        self, timeout: float | None = None
    ) -> list[PeriodStartEvent] | None:
        """Next pushed event batch (or ``None`` on timeout), with
        per-stream seq gaps transparently replayed before delivery —
        the asyncio twin of :meth:`DetectionClient.next_events`.
        Reading :attr:`events` directly bypasses gap recovery.
        """
        try:
            if timeout is not None:
                batch = await asyncio.wait_for(self.events.get(), timeout)
            else:
                batch = await self.events.get()
        except asyncio.TimeoutError:
            return None
        out: list[PeriodStartEvent] = []
        for event in batch:
            last = self._last_seq.get(event.stream_id)
            if self._auto_replay and last is not None and event.seq > last + 1:
                recovered, first_available = await self.replay(
                    event.stream_id, last + 1, upto=event.seq
                )
                if first_available is not None and self._on_gap is not None:
                    self._on_gap(event.stream_id, last + 1, first_available)
                out.extend(recovered)
            self._last_seq[event.stream_id] = event.seq
            out.append(event)
        return out

    async def snapshot(self, stream_ids=None) -> dict[str, dict]:
        """Engine snapshots of this namespace's streams."""
        meta = {"streams": list(stream_ids)} if stream_ids is not None else {}
        reply = await self._request(FrameType.SNAPSHOT, meta)
        return protocol.unpack_object(reply.meta["states"], reply.arrays)

    async def restore(self, states: Mapping[str, dict]) -> int:
        """Reinstate streams from snapshot blobs."""
        tree, arrays = protocol.pack_object(dict(states))
        reply = await self._request(FrameType.RESTORE, {"states": tree}, arrays)
        return int(reply.meta["restored"])

    async def remove_streams(self, stream_ids: Sequence[str]) -> int:
        """Drop named streams from this namespace (journal untouched —
        see :meth:`DetectionClient.remove_streams`)."""
        reply = await self._request(
            FrameType.REMOVE, {"streams": list(stream_ids)}
        )
        return int(reply.meta["removed"])

    async def stats(self, *, periods: bool = False) -> dict:
        """Pool + server statistics."""
        return (await self._request(FrameType.STATS, {"periods": periods})).meta

    async def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass
