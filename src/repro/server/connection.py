"""The connection core shared by ``repro serve`` and ``repro route``.

Both daemons face their clients with the same wire contract, so
everything on the client-facing side of a connection lives here once:

* :class:`Connection` — one peer's state: namespace, subscription,
  inflight count, negotiated version, the bounded outbox and the
  per-connection handle table (``intern`` / ``resolve_handles``), plus
  subscriber pushes with drop-and-count overflow.
* The writer (:meth:`Connection.write_loop`) — flushes the outbox in
  FIFO order, one coalesced scatter-gather write per wakeup with pooled
  scratch buffers, and times its work into the daemon's
  ``profile["encode"]`` / ``profile["syscall"]``.
* :class:`Daemon` — the accept loop and the HELLO handshake: the first
  frame must be HELLO, the token is checked before anything else, then
  the namespace rule and the version negotiation.  Subclasses supply
  only their HELLO reply, their request dispatch and their disconnect
  clean-up.
* The request-field checks both daemons apply (stream lists, REGISTER,
  subscribe scope, REPLAY range) and :class:`LoopThread`, which hosts
  either daemon on a private event loop in a daemon thread.

:class:`~repro.server.server.DetectionServer` adds the pool,
dispatcher, journals, quotas and checkpoints;
:class:`~repro.server.router.DetectionRouter` adds the hash ring,
backend links, migration and fan-in.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np

from repro.server import protocol
from repro.server.auth import AuthError, TokenAuthenticator
from repro.server.client import ServerBusy
from repro.server.endpoint import server_ssl_context
from repro.server.protocol import Frame, FrameType, ProtocolError
from repro.service.events import PeriodStartEvent
from repro.util.logging import get_logger
from repro.util.validation import ValidationError, check_positive_int

__all__ = [
    "Connection",
    "Daemon",
    "LoopThread",
    "UnknownHandleError",
    "build_authenticator",
]

_logger = get_logger(__name__)

_CLOSE = object()  # outbox sentinel: flush and stop the writer task

#: Writer-loop buffer pooling: frame buffers at or below the copy limit
#: coalesce into a reused scratch bytearray (one allocation serves many
#: wakeups); larger buffers — raw sample/event arrays — pass through to
#: the scatter-gather write uncopied.  A scratch that ballooned past the
#: cap is dropped instead of being pooled, and at most ``_SCRATCH_POOL``
#: buffers are retained per connection.
_SCRATCH_COPY_LIMIT = 1 << 15
_SCRATCH_CAP = 1 << 20
_SCRATCH_POOL = 4


class UnknownHandleError(Exception):
    """A hot frame referenced a stream handle this connection never
    registered.

    Deliberately *not* a :class:`ProtocolError`: the frame itself was
    well formed — the peer merely raced a ``fresh`` reconnect (handle
    tables are per connection and start empty) or skipped ``REGISTER``.
    The daemon answers with an ``ERROR`` frame, in order, and keeps the
    connection alive; only malformed frames disconnect.
    """


def build_authenticator(config) -> TokenAuthenticator | None:
    """The config's HELLO authenticator, or ``None`` when auth is off.

    Shared by ``ServerConfig`` and ``RouterConfig`` — both expose the
    same ``auth_token`` / ``auth_token_file`` / ``auth_tokens`` trio.
    """
    return TokenAuthenticator.from_config(
        token=config.auth_token,
        token_file=config.auth_token_file,
        tokens=config.auth_tokens,
    )


def check_daemon_config(config) -> None:
    """Validate the fields ``ServerConfig`` and ``RouterConfig`` share:
    the listen port, the per-connection bounds, the protocol cap and the
    TLS certificate/key pair."""
    check_positive_int(config.max_inflight, "max_inflight")
    check_positive_int(config.push_queue, "push_queue")
    if not 0 <= config.port <= 65535:
        raise ValidationError(f"port must be in [0, 65535], got {config.port}")
    lowest, highest = protocol.BASELINE_VERSION, protocol.PROTOCOL_VERSION
    if not lowest <= config.max_protocol <= highest:
        raise ValidationError(
            f"max_protocol must be in [{lowest}, {highest}], got {config.max_protocol}"
        )
    if bool(config.tls_cert) != bool(config.tls_key):
        raise ValidationError(
            "tls_cert and tls_key must be given together (or neither)"
        )


# ----------------------------------------------------------------------
# request-field checks
# ----------------------------------------------------------------------
def stream_list(frame: Frame) -> list[str]:
    """The request's ``streams`` meta: a duplicate-free list of names."""
    ids = frame.meta.get("streams")
    if not isinstance(ids, list) or not all(isinstance(s, str) for s in ids):
        raise ProtocolError("'streams' must be a list of stream names")
    if len(set(ids)) != len(ids):
        raise ProtocolError("duplicate stream names in one request")
    return ids


def json_ingest_payload(frame: Frame, ids: list[str]):
    """The samples of a JSON ``INGEST`` (one array per stream, a list) or
    ``INGEST_LOCKSTEP`` (one 2-D matrix, a row per stream)."""
    if frame.type == FrameType.INGEST:
        if len(frame.arrays) != len(ids):
            raise ProtocolError(
                f"INGEST carries {len(frame.arrays)} arrays for {len(ids)} streams"
            )
        return list(frame.arrays)
    if len(frame.arrays) != 1 or frame.arrays[0].ndim != 2:
        raise ProtocolError("INGEST_LOCKSTEP carries one 2-D matrix")
    matrix = frame.arrays[0]
    if matrix.shape[0] != len(ids):
        raise ProtocolError("lockstep matrix rows must match 'streams'")
    return matrix


def request_scope(frame: Frame, request: str) -> str:
    """A SUBSCRIBE or REPLAY request's scope, ``"own"`` or ``"all"``."""
    scope = frame.meta.get("scope", "own")
    if scope not in ("own", "all"):
        raise ProtocolError(f"{request} scope must be 'own' or 'all', got {scope!r}")
    return scope


def replay_request(frame: Frame) -> tuple[str, str, int, int | None]:
    """A REPLAY request's ``(stream, scope, from_seq, upto)``."""
    stream = frame.meta.get("stream")
    if not isinstance(stream, str) or not stream:
        raise ProtocolError("'stream' must be a non-empty stream name")
    scope = request_scope(frame, "replay")
    try:
        from_seq = int(frame.meta["from_seq"])
        upto_raw = frame.meta.get("upto")
        upto = None if upto_raw is None else int(upto_raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            "'from_seq' (and optional 'upto') must be integers"
        ) from exc
    if from_seq < 0 or (upto is not None and upto < from_seq):
        raise ProtocolError("replay range must satisfy 0 <= from_seq <= upto")
    return stream, scope, from_seq, upto


def replay_reply(
    stream: str,
    from_seq: int,
    upto: int | None,
    events: list[PeriodStartEvent],
    first_available: int | None,
) -> tuple:
    """A REPLAY answer: ``EVENTS``, or ``EVENTS_GAP`` naming the first
    still available seq when the head of the range is lost."""
    table = protocol.events_to_array(events, {stream: 0})
    meta: dict = {"streams": [stream], "stream": stream, "from_seq": from_seq}
    if upto is not None:
        meta["upto"] = upto
    if first_available is None:
        return FrameType.EVENTS, meta, (table,)
    meta["first_available"] = first_available
    return FrameType.EVENTS_GAP, meta, (table,)


def restore_states(frame: Frame) -> dict:
    """A RESTORE request's ``stream -> snapshot entry`` mapping."""
    states = protocol.unpack_object(frame.meta.get("states"), frame.arrays)
    if not isinstance(states, dict):
        raise ProtocolError("RESTORE meta must carry a 'states' mapping")
    return states


def snapshot_reply(states: dict) -> tuple:
    """A SNAPSHOT answer: the ``stream -> entry`` mapping, packed."""
    tree, arrays = protocol.pack_object(states)
    return FrameType.OK, {"states": tree}, tuple(arrays)


# ----------------------------------------------------------------------
# one peer
# ----------------------------------------------------------------------
class Connection:
    """Per-connection state: namespace, bounded queues, handle table."""

    def __init__(self, daemon: "Daemon", writer: asyncio.StreamWriter) -> None:
        self.daemon = daemon
        self.writer = writer
        self.namespace = ""
        self.prefix = ""
        self.subscription: str | None = None  # None | "own" | "all"
        self.inflight = 0
        self.queued_pushes = 0
        self.dropped_events = 0
        self.dead = False
        #: Negotiated wire protocol version; the v2 baseline until HELLO
        #: says otherwise.  Every frame this connection emits is stamped
        #: with it.
        self.version = protocol.BASELINE_VERSION
        # The handle table: one intern space per connection, shared by
        # client registrations (REGISTER) and push announcements.
        # ``handle_ids[h]`` is the name exactly as the peer sees it
        # (namespace-local for its own streams, full ``<ns>/<stream>``
        # ids for scope-"all" pushes); ``peer_known`` tracks which
        # handles the peer has been told about, so the first EVENT_HOT
        # using a daemon-assigned handle announces it.
        self.handle_ids: list[str] = []
        self.handle_of: dict[str, int] = {}
        self.peer_known: set[int] = set()
        cfg = daemon.config
        # Replies (bounded by max_inflight plus the BUSY notices the
        # writer has not flushed yet) and pushes share one FIFO so reply
        # order is preserved; capacity beyond it closes the connection.
        self.outbox: asyncio.Queue = asyncio.Queue(
            maxsize=2 * cfg.max_inflight + cfg.push_queue + 8
        )
        self.writer_task: asyncio.Task | None = None

    # -- outbound ------------------------------------------------------
    def _enqueue(self, entry) -> None:
        """Queue a reply (ready tuple or ``(future, formatter)``), FIFO.

        Overflow means the peer stopped reading while pipelining hard;
        the connection is aborted rather than buffering without bound.
        """
        try:
            self.outbox.put_nowait(entry)
        except asyncio.QueueFull:
            _logger.warning(
                "%s connection %s: outbound queue overflow, closing",
                self.daemon.role,
                self.namespace,
            )
            self.abort()

    def reply(self, ftype: FrameType, meta: dict, arrays: tuple = ()) -> None:
        """Queue a ready reply frame, in request order."""
        self._enqueue(("reply", ftype, meta, arrays))

    def error(self, message: str, **extra) -> None:
        """Queue an in-order ERROR reply; the connection stays open."""
        self.reply(FrameType.ERROR, {"message": message, **extra})

    def reply_later(self, awaitable, formatter) -> asyncio.Future:
        """Answer in request order once ``awaitable`` (a future, or a
        coroutine run as a task) is done.  ``formatter(result)`` returns
        ``(type, meta, arrays)`` or ``("raw", buffers)``; an exception
        becomes an ERROR reply (BUSY for a backend's ``ServerBusy``)."""
        future = asyncio.ensure_future(awaitable)
        self._enqueue(("future", future, formatter))
        return future

    def hello_meta(self, mode, window_size, removed: int) -> dict:
        """The HELLO reply's meta; ``mode`` and ``window_size`` describe
        the pool, ``removed`` counts streams a ``fresh`` HELLO dropped."""
        return {
            "namespace": self.namespace,
            "protocol": self.version,
            "mode": mode,
            "window_size": window_size,
            "removed_streams": int(removed),
        }

    # -- handle table --------------------------------------------------
    def intern(self, name: str) -> int:
        """The peer-visible name's handle, assigned on first use."""
        handle = self.handle_of.get(name)
        if handle is None:
            handle = len(self.handle_ids)
            self.handle_ids.append(name)
            self.handle_of[name] = handle
        return handle

    def resolve_handles(self, handles: list[int]) -> list[str]:
        """Map hot-frame handles back to local stream names."""
        table = self.handle_ids
        names = []
        for handle in handles:
            if not 0 <= handle < len(table):
                raise UnknownHandleError(
                    f"unknown stream handle {handle}; REGISTER it first "
                    "(handle tables are per connection and reset on reconnect)"
                )
            names.append(table[handle])
        return names

    def register(self, frame: Frame) -> None:
        """Answer REGISTER: intern stream names into int32 handles.

        Served on the event loop (the handle table is loop-local); the
        reply's ``handles`` list aligns with the request's ``streams``
        list.  Re-registering a name returns its existing handle, so the
        call is idempotent.
        """
        handles = []
        for name in stream_list(frame):
            if not name:
                raise ProtocolError("stream names must be non-empty")
            handle = self.intern(name)
            self.peer_known.add(handle)
            handles.append(handle)
        self.reply(FrameType.OK, {"handles": handles})

    def hot_request(self, frame: Frame) -> tuple[list[int], list[str], np.ndarray]:
        """An INGEST_HOT / LOCKSTEP_HOT request's ``(handles, local
        names, sample matrix)``; the decoder guarantees one matrix row
        per handle.  Raises :class:`UnknownHandleError` for a handle
        this connection never registered."""
        handles = list(frame.meta["handles"])
        local_ids = self.resolve_handles(handles)
        if len(set(local_ids)) != len(local_ids):
            raise ProtocolError("duplicate stream handles in one request")
        return handles, local_ids, frame.arrays[0]

    def ingest_formatter(
        self, local_ids: list[str], handles: list[int] | None, prefix: str = ""
    ):
        """Reply formatter of one ingest request.

        Events name streams ``prefix + local id``.  A hot request
        (``handles`` given) is answered by an ``EVENTS_HOT`` frame keyed
        by the request's own handles, a JSON one by ``EVENTS``.
        """
        positions = {prefix + sid: pos for pos, sid in enumerate(local_ids)}

        def fmt(events: list[PeriodStartEvent]):
            table = protocol.events_to_array(events, positions)
            if handles is not None:
                return (
                    "raw",
                    protocol.encode_hot_events(
                        FrameType.EVENTS_HOT, handles, table, version=self.version
                    ),
                )
            return FrameType.EVENTS, {"streams": local_ids}, (table,)

        return fmt

    def push_events(self, ids: list[str], events: list[PeriodStartEvent]) -> None:
        """Queue a subscriber EVENT push, dropping (and counting) on overflow.

        ``ids`` are the distinct stream names of ``events`` as the peer
        sees them.
        """
        daemon = self.daemon
        if self.dead or self.queued_pushes >= daemon.config.push_queue:
            self.dropped_events += len(events)
            daemon.dropped_events += len(events)
            return
        positions = {sid: pos for pos, sid in enumerate(ids)}
        table = protocol.events_to_array(events, positions)
        self.queued_pushes += 1
        if self.version >= 3:
            # EVENT_HOT: handles instead of repeated names, announcing
            # each daemon-assigned handle exactly once (outbox FIFO
            # guarantees the announce is decoded before any later frame
            # relies on it).
            handles = []
            announce = []
            for sid in ids:
                handle = self.intern(sid)
                if handle not in self.peer_known:
                    self.peer_known.add(handle)
                    announce.append((handle, sid))
                handles.append(handle)
            self._enqueue(("push_hot", handles, announce, table))
        else:
            self._enqueue(("push", FrameType.EVENT, {"streams": ids}, (table,)))

    def abort(self) -> None:
        self.dead = True
        try:
            self.writer.transport.abort()
        except Exception:  # pragma: no cover - transport already gone
            pass

    # -- writer task ---------------------------------------------------
    def _encode_entry(self, entry) -> list:
        """Encode one resolved outbox entry into frame buffers."""
        start = time.perf_counter()
        try:
            if entry[0] == "push_hot":
                _, handles, announce, table = entry
                return protocol.encode_hot_events(
                    FrameType.EVENT_HOT, handles, table, announce, version=self.version
                )
            _, ftype, meta, arrays = entry
            return protocol.encode_frame(ftype, meta, arrays, version=self.version)
        finally:
            self.daemon.profile["encode"] += time.perf_counter() - start

    def _resolve(self, future: asyncio.Future, formatter):
        """A finished reply future as an outbox entry, ``("raw",
        buffers)`` or ``None`` (cancelled).  A failure becomes an ERROR
        frame; a backend's BUSY (the router's forwards) passes through
        as BUSY."""
        if future.cancelled():
            return None
        exc = future.exception()
        if isinstance(exc, ServerBusy):
            self.daemon.busy_replies += 1
            return ("reply", FrameType.BUSY, {}, ())
        if exc is not None:
            message = f"{type(exc).__name__}: {exc}"
            return ("reply", FrameType.ERROR, {"message": message}, ())
        start = time.perf_counter()
        formatted = formatter(future.result())
        self.daemon.profile["encode"] += time.perf_counter() - start
        if formatted[0] == "raw":
            return formatted
        return ("reply", *formatted)

    async def write_loop(self) -> None:
        """Flush the outbox in FIFO order, batched per wakeup.

        Every wakeup drains the outbox greedily: each ready entry's
        frame buffers are appended to one pending write vector, small
        buffers coalescing into pooled (reused) scratch bytearrays, and
        the whole vector goes to the transport as a single
        ``writelines`` + ``drain`` — one coalesced write per wakeup
        instead of one write and one drain per reply.  An unresolved
        future mid-batch first flushes everything already encoded (the
        peer keeps receiving while the daemon works), then waits.

        A write failure marks the connection dead but keeps consuming
        entries (futures still resolve; results are discarded) so the
        daemon's tasks and its drain logic never block on a gone peer.
        """
        daemon = self.daemon
        pool: list[bytearray] = []  # reusable scratch buffers
        pending: list = []  # write vector of the current batch
        borrowed: list[bytearray] = []  # scratch in use by `pending`
        scratch: bytearray | None = None

        async def flush() -> None:
            nonlocal scratch
            if pending and not self.dead:
                start = time.perf_counter()
                try:
                    self.writer.writelines(pending)
                    await self.writer.drain()
                except (ConnectionError, RuntimeError):
                    self.dead = True
                daemon.profile["syscall"] += time.perf_counter() - start
                daemon.writer_batches += 1
            pending.clear()
            # The selector transport copies on write (immediate send or
            # buffer extend), so the scratch bytearrays are free again.
            while borrowed and len(pool) < _SCRATCH_POOL:
                buf = borrowed.pop()
                if len(buf) <= _SCRATCH_CAP:
                    pool.append(buf)
            borrowed.clear()
            scratch = None

        def put(buffers: list) -> None:
            nonlocal scratch
            daemon.writer_frames += 1
            for buf in buffers:
                if len(buf) <= _SCRATCH_COPY_LIMIT:
                    if scratch is None or len(scratch) > _SCRATCH_CAP:
                        scratch = pool.pop() if pool else bytearray()
                        scratch.clear()
                        borrowed.append(scratch)
                        pending.append(scratch)
                    scratch += buf
                else:
                    # Large (array) buffers pass through uncopied; later
                    # small buffers must start a fresh scratch to keep
                    # byte order.
                    pending.append(buf)
                    scratch = None

        while True:
            entry = await self.outbox.get()
            batch = [entry]
            while entry is not _CLOSE:
                try:
                    entry = self.outbox.get_nowait()
                except asyncio.QueueEmpty:
                    break
                batch.append(entry)
            closing = False
            for entry in batch:
                if entry is _CLOSE:
                    closing = True
                    break
                if entry[0] == "future":
                    _, future, formatter = entry
                    if not future.done():
                        # Ship what is already encoded before blocking.
                        await flush()
                        await asyncio.wait([future])
                    entry = self._resolve(future, formatter)
                    if entry is None:
                        continue
                    if entry[0] == "raw":
                        if not self.dead:
                            put(entry[1])
                        continue
                elif entry[0] == "push_hot" or (
                    entry[0] == "push" and entry[1] == FrameType.EVENT
                ):
                    self.queued_pushes = max(0, self.queued_pushes - 1)
                if self.dead:
                    continue
                put(self._encode_entry(entry))
            await flush()
            if closing:
                return


# ----------------------------------------------------------------------
# the accept loop and the handshake
# ----------------------------------------------------------------------
class Daemon:
    """What ``repro serve`` and ``repro route`` share: the listener, the
    per-connection lifecycle, the HELLO handshake and the counters STATS
    reports.

    A subclass sets :attr:`role` and :attr:`namespace_tag`, fills
    ``self.profile`` with at least ``"encode"`` and ``"syscall"``,
    implements :meth:`_reply_hello` and :meth:`_handle_request`, and
    may override :meth:`_on_disconnect`.
    """

    role: str  # "server" | "router", used in messages
    namespace_tag: str  # prefix letter of auto-assigned namespaces
    connection_class: type[Connection] = Connection

    def __init__(self, config) -> None:
        self.config = config
        # Built before the socket ever opens, so no connection is
        # admitted under a half-configured policy.
        self._auth = build_authenticator(config)
        self._conns: set = set()  # of connection_class
        self._server: asyncio.AbstractServer | None = None
        self._conn_counter = 0
        self._draining = False
        self.profile: dict[str, float] = {}
        self.auth_accepted = 0
        self.auth_rejected = 0
        self.busy_replies = 0
        self.dropped_events = 0
        self.writer_batches = 0
        self.writer_frames = 0

    # -- listener ------------------------------------------------------
    async def _listen(self) -> bool:
        """Bind the listener (TLS when configured); True when TLS."""
        ssl_context = (
            server_ssl_context(self.config.tls_cert, self.config.tls_key)
            if self.config.tls_cert
            else None
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port, ssl=ssl_context
        )
        return ssl_context is not None

    @property
    def host(self) -> str:
        return self._server.sockets[0].getsockname()[0]

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 to the ephemeral choice)."""
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled (the CLI runs this)."""
        await self._server.serve_forever()

    # -- one connection ------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = self.connection_class(self, writer)
        conn.writer_task = asyncio.ensure_future(conn.write_loop())
        self._conns.add(conn)
        try:
            await self._serve_frames(conn, reader)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # peer disconnected
        except ProtocolError as exc:
            conn._enqueue(("push", FrameType.ERROR, {"message": str(exc)}, ()))
        except Exception:  # pragma: no cover - defensive
            _logger.exception(
                "%s connection %s: unexpected error", self.role, conn.namespace
            )
        finally:
            self._conns.discard(conn)
            conn._enqueue(_CLOSE)
            try:
                await conn.writer_task
            except asyncio.CancelledError:  # pragma: no cover
                pass
            await self._on_disconnect(conn)
            try:
                writer.close()
            except Exception:  # pragma: no cover
                pass

    async def _serve_frames(self, conn: Connection, reader) -> None:
        hello = await protocol.read_frame_async(reader)
        if hello.type != FrameType.HELLO:
            raise ProtocolError("the first frame must be HELLO")
        # Authentication happens before *anything* the handshake does —
        # the connection is not counted, no namespace exists, and in
        # particular a `fresh` handshake's stream purge never runs for
        # an unauthenticated peer.  HELLO is always a v2 frame, so v2
        # and v3 peers pass through the same gate.
        forced_namespace: str | None = None
        if self._auth is not None:
            try:
                forced_namespace = self._auth.authenticate(hello.meta.get("token"))
            except AuthError as exc:
                self.auth_rejected += 1
                conn.error(f"authentication failed: {exc}", auth="denied")
                return  # _handle_connection flushes the ERROR and closes
            self.auth_accepted += 1
        self._conn_counter += 1
        namespace = (
            forced_namespace
            or hello.meta.get("namespace")
            or f"{self.namespace_tag}{self._conn_counter}"
        )
        if not isinstance(namespace, str) or "/" in namespace or not namespace:
            raise ProtocolError("namespace must be a non-empty string without '/'")
        conn.namespace = namespace
        conn.prefix = namespace + "/"
        # Version negotiation: both sides name the highest protocol they
        # speak, the connection runs the minimum.  A v2 peer sends no
        # "protocol" key at all — absence means the v2 baseline.
        requested = hello.meta.get("protocol", protocol.BASELINE_VERSION)
        if not isinstance(requested, int) or requested < 1:
            raise ProtocolError("'protocol' must be a positive integer")
        conn.version = max(
            protocol.BASELINE_VERSION,
            min(requested, self.config.max_protocol, protocol.PROTOCOL_VERSION),
        )
        self._reply_hello(conn, bool(hello.meta.get("fresh")))
        while True:
            frame = await protocol.read_frame_async(reader)
            try:
                self._handle_request(conn, frame)
            except UnknownHandleError as exc:
                # An ERROR reply in request order — the connection (and
                # its other in-flight requests) survive.
                conn.error(str(exc))
            await asyncio.sleep(0)  # let the writer and the daemon breathe

    # The hooks take their own connection_class, hence no annotation.
    def _reply_hello(self, conn, fresh: bool) -> None:
        """Queue the accepted HELLO's reply (``fresh``: a clean-slate
        reconnect that drops the namespace's streams)."""
        raise NotImplementedError

    def _handle_request(self, conn, frame: Frame) -> None:
        raise NotImplementedError

    async def _on_disconnect(self, conn) -> None:
        """Release what the connection held, after its writer finished."""

    def _protocol_stats(self, conn: Connection) -> dict:
        """STATS ``protocol`` block: the versions spoken here."""
        return {
            "supported": protocol.PROTOCOL_VERSION,
            "max": self.config.max_protocol,
            "connection": conn.version,
        }

    def _auth_stats(self) -> dict:
        """STATS ``auth`` block (reported when token auth is on)."""
        return {"accepted": self.auth_accepted, "rejected": self.auth_rejected}

    def _say_bye(self) -> list[asyncio.Task]:
        """Queue BYE and then the writer's stop on every connection;
        returns the writer tasks, which finish once flushed."""
        for conn in self._conns:
            conn._enqueue(("push", FrameType.BYE, {}, ()))
            conn._enqueue(_CLOSE)
        return [conn.writer_task for conn in self._conns if conn.writer_task]

    def _refuse_ingest(self, conn: Connection) -> bool:
        """Answer an ingest in order when it cannot be taken: ERROR while
        draining, BUSY with ``max_inflight`` requests unanswered."""
        if self._draining:
            conn.error(f"{self.role} is draining")
            return True
        if conn.inflight >= self.config.max_inflight:
            self.busy_replies += 1
            conn.reply(FrameType.BUSY, {"inflight": conn.inflight})
            return True
        return False


# ----------------------------------------------------------------------
# threaded hosting (tests, benchmarks, examples)
# ----------------------------------------------------------------------
class LoopThread:
    """Host a :class:`Daemon` on a private event loop in a daemon thread.

    ``start()`` (or ``__enter__``) returns ``(host, port)`` once the
    daemon is listening and re-raises a bind error; ``stop()`` (or
    ``__exit__``) runs the daemon's graceful ``stop()`` and joins the
    thread.
    """

    def __init__(self, daemon: Daemon, name: str) -> None:
        self._daemon = daemon
        self._name = name
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        """Start the loop thread; returns ``(host, port)`` when listening."""
        if self._thread is not None:
            raise ValidationError(f"{self._daemon.role} thread already started")
        self._thread = threading.Thread(target=self._run, name=self._name, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self._daemon.host, self._daemon.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._daemon.start())
        except BaseException as exc:  # surface bind errors in start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def _call(self, coro, timeout: float):
        """Run ``coro`` on the daemon's loop and wait for its result."""
        if self._loop is None:
            coro.close()
            raise ValidationError(f"{self._daemon.role} thread not started")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully stop the daemon and join the loop thread."""
        if self._thread is None or self._loop is None:
            return
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(self._daemon.stop(), self._loop)
            try:
                future.result(timeout=timeout)
            finally:
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join(timeout=timeout)

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
