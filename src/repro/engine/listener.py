"""Single-listener server core: one listening coordinator, N dialing clients.

This module is the production-topology heart of the socket stack.  One
:class:`CoordinatorListener` owns **one** ``asyncio.start_server`` port
speaking framed TCP (:class:`repro.wire.frame.TCPLink`) and accepts
every client connection on it; devices are :class:`DialingClient`
workers that dial *in*.  :class:`SocketTransport` (a private listener
plus in-process dialers per round) and :class:`ListenerTransport` (an
externally-owned listener, the cross-process ``repro.cli serve``/``join``
path) are the two shells over this core.

Per accepted connection the listener runs:

1. the wire handshake — the dialer opens with a ``HELLO`` frame carrying
   the explicit :class:`repro.wire.frame.Hello` schema (client id, wire
   version, optional auth token); the listener validates version, token,
   membership, and uniqueness, answering ``WELCOME`` or a descriptive
   ``ERROR`` frame before hanging up — a peer that opens with anything
   but a frame (an HTTP request, say) is refused at its header;
2. a dedicated **reader task** (the accept task itself) that receives
   response frames and resolves in-flight exchanges in FIFO order, and a
   dedicated **writer task** draining a *bounded* send queue — the
   backpressure seam: a coordinator fanning requests to thousands of
   connections blocks on a full queue instead of buffering unboundedly.

A connection that drops mid-round — process killed (even halfway
through writing a frame), socket reset, clean close — is *retired*:
every in-flight exchange and every later request for that client raises
:class:`~repro.engine.transport.ClientUnavailable`, which the engine
folds into the existing dropout machinery (exactly like
:class:`~repro.engine.transport.DropoutTransport` dropping it).  A dead
connection never crashes the round; *malformed* bytes (bad magic,
unknown kind, oversize prefix) are a protocol violation and fail loud
into the first in-flight exchange.

Traced per-stage traffic sums the frames of *completed* deliveries: an
ERROR exchange is counted in its connection's :class:`ConnectionStats`
(the bytes really crossed) but produces no delivery — the engine aborts
the round on the re-raised exception — so ``traced == Σ frame_bytes``
holds exactly for every round that runs to completion.

Byte accounting is measured from both socket ends, as everywhere in the
repo: the listener books its view into :class:`ConnectionStats` (every
accepted socket lands in ``closed_connection_stats`` when it dies, even
one rejected or aborted mid-handshake), and in-process
:class:`DialingClient` workers keep the ground-truth counters for the
device end of the same socket.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional

from repro.engine.transport import (
    Channel,
    ClientUnavailable,
    Delivery,
    LinkSeconds,
    Transport,
    answer_request,
    delivery_from_reply,
    priced,
)
from repro.wire import codecs as wire_codecs
from repro.wire.frame import (
    FRAME_OVERHEAD,
    KIND_ERROR,
    KIND_HELLO,
    KIND_REQUEST,
    KIND_WELCOME,
    WIRE_VERSION,
    Hello,
    LinkClosed,
    TCPLink,
    decode_hello,
    encode_frame,
    encode_hello,
)

if TYPE_CHECKING:
    from repro.api.protocol import ProtocolClient

#: Listen backlog: a 1k-connection stress burst must not see refusals.
LISTEN_BACKLOG = 2048

#: Per-connection bounded send queue (frames) — the backpressure seam.
SEND_QUEUE_SIZE = 32


@dataclass
class ConnectionStats:
    """Byte accounting for one client connection, from both socket ends.

    Listener-side counters split handshake traffic from request/response
    frames (so per-stage sums exclude the one-off connection setup) and
    are *directional*: ``request_bytes`` is the downlink (frames the
    coordinator wrote toward the client), ``response_bytes`` the uplink
    (frames it read back) — ``down_bytes``/``up_bytes`` name that
    explicitly.  ``handshake_received`` covers what the dialing client
    sent to set the connection up (the ``HELLO`` frame, or the header
    of whatever it sent instead), ``handshake_sent`` the listener's
    answer (``WELCOME`` or ``ERROR``) — anything on the socket that is
    not stage-accounted traffic.

    The ``endpoint_*`` counters are what the *dialing client* (the
    device end) independently observed on its side of the same socket,
    per direction — the ground truth the listener-side counts must equal
    byte for byte.  They are filled for in-process dialers; a remote
    ``repro.cli join`` process reports the same counters on its own
    stdout instead.  ``client_id`` is ``-1`` until a connection's HELLO
    has been parsed (a rejected or aborted socket may never get further).
    """

    client_id: int
    handshake_sent: int = 0
    handshake_received: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    requests: int = 0
    endpoint_received_bytes: int = 0
    endpoint_sent_bytes: int = 0
    endpoint_request_bytes: int = 0
    endpoint_response_bytes: int = 0

    @property
    def down_bytes(self) -> int:
        """Coordinator→client frame bytes (the downlink share of the
        stage accounting)."""
        return self.request_bytes

    @property
    def up_bytes(self) -> int:
        """Client→coordinator frame bytes (the uplink share of the
        stage accounting)."""
        return self.response_bytes

    @property
    def bytes_sent(self) -> int:
        """Everything the listener wrote to this socket."""
        return self.handshake_sent + self.request_bytes

    @property
    def bytes_received(self) -> int:
        """Everything the listener read from this socket."""
        return self.handshake_received + self.response_bytes

    @property
    def frame_bytes(self) -> int:
        """Request + response frames (the per-stage-accounted traffic)."""
        return self.request_bytes + self.response_bytes


class _ClientConnection:
    """One accepted, welcomed client on the listener.

    Exchanges are correlated FIFO: the device end handles requests
    strictly in arrival order over one socket, so the k-th response
    frame answers the k-th outstanding request.  A requester cancelled
    before its frame was queued removes its slot; one cancelled after
    leaves the slot in place (the response still arrives and its bytes
    are still booked) — the reader simply discards the result.
    """

    def __init__(
        self, client_id: int, link: TCPLink, stats: ConnectionStats, queue_size: int
    ):
        self.client_id = client_id
        self.link = link
        self.stats = stats
        self.pending: deque[tuple[str, asyncio.Future]] = deque()
        self.send_queue: asyncio.Queue = asyncio.Queue(queue_size)
        self.writer_task: Optional[asyncio.Task] = None
        self.task: Optional[asyncio.Task] = None
        self.dead = False

    def _count_request(self, n: int) -> None:
        self.stats.request_bytes += n

    async def exchange(
        self, op: str, frame: bytes | bytearray
    ) -> tuple[int, bytes, int, int]:
        """One request/response over this connection.

        Returns ``(kind, body, sent, received)`` where ``sent`` is the
        length of ``frame`` (what the writer task measures) and
        ``received`` that of the answering frame.  Raises
        :class:`~repro.engine.transport.ClientUnavailable` if the
        connection is (or dies while) in flight.
        """
        if self.dead:
            raise ClientUnavailable(self.client_id, op)
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        entry = (op, fut)
        # Enlist before enqueueing: the writer/reader pair may complete
        # the whole round trip between the put and any later append.
        self.pending.append(entry)
        putter = loop.create_task(self.send_queue.put(frame))
        try:
            # Race the (possibly backpressured) put against the reply
            # future: a connection retired while this sender is parked
            # on a full queue fails the future, and waiting on the put
            # alone would hang forever.
            await asyncio.wait(
                {putter, fut}, return_when=asyncio.FIRST_COMPLETED
            )
            if not putter.done():
                putter.cancel()
            kind, body, received = await fut
        except BaseException:
            if not putter.done():
                putter.cancel()
                # Never sent: withdraw the slot so FIFO correlation of
                # the frames that *were* sent stays aligned.
                with contextlib.suppress(ValueError):
                    self.pending.remove(entry)
            raise
        finally:
            with contextlib.suppress(asyncio.CancelledError):
                await putter
        self.stats.requests += 1
        return kind, body, len(frame), received

    def retire(self, exc: Optional[BaseException] = None) -> None:
        """Mark dead and fail everything in flight.

        The first pending exchange gets ``exc`` when the death was a
        loud protocol error (malformed frame — the round should abort,
        not quietly drop the client); everything else folds into
        dropout as :class:`ClientUnavailable`.
        """
        self.dead = True
        while self.pending:
            op, fut = self.pending.popleft()
            if not fut.done():
                fut.set_exception(exc or ClientUnavailable(self.client_id, op))
            exc = None


class CoordinatorListener:
    """One listening port multiplexing every dialing client.

    The production topology: ``await start()`` binds a single
    ``asyncio.start_server`` (``LISTEN_BACKLOG`` deep), and every
    protocol client — in-process :class:`DialingClient` task or remote
    ``repro.cli join`` process — dials into it.  ``expected_ids``
    (optional) closes membership: a HELLO from any other id is rejected.
    ``auth_token`` (optional) is demanded verbatim from every HELLO.

    ``connection(client_id)`` waits up to ``join_timeout`` seconds for
    that client to dial in and hand-shake; a client that never shows up
    — or already died — surfaces as
    :class:`~repro.engine.transport.ClientUnavailable`, i.e. exactly a
    dropout.  Every accepted socket's :class:`ConnectionStats` lands in
    ``closed_connection_stats`` when the socket dies (rejected and
    mid-handshake-aborted ones included, with whatever bytes really
    crossed).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        expected_ids: Optional[Iterable[int]] = None,
        auth_token: bytes = b"",
        join_timeout: float = 30.0,
        send_queue_size: int = SEND_QUEUE_SIZE,
    ):
        self.host = host
        self.port = port
        self.expected_ids = None if expected_ids is None else set(expected_ids)
        self.auth_token = bytes(auth_token)
        self.join_timeout = join_timeout
        self.send_queue_size = send_queue_size
        self.accepted = 0
        self.rejected = 0
        self.closed_connection_stats: list[ConnectionStats] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: dict[int, _ClientConnection] = {}
        self._dead_ids: set[int] = set()
        self._events: dict[int, asyncio.Event] = {}
        self._accept_tasks: set[asyncio.Task] = set()

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — valid after :meth:`start`."""
        return self.host, self.port

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._accept, self.host, self.port, backlog=LISTEN_BACKLOG
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    # -- accept path -----------------------------------------------------

    async def _check_hello(self, hello: Hello) -> None:
        """Admission control — every rejection names its reason.

        Runs after the HELLO is parsed (so the connection's stats
        already carry the claimed client id) and before WELCOME.
        """
        if hello.wire_version != WIRE_VERSION:
            raise ValueError(
                f"client {hello.client_id} speaks wire version "
                f"{hello.wire_version}, listener speaks {WIRE_VERSION}"
            )
        if self.auth_token and hello.auth_token != self.auth_token:
            raise ValueError(
                f"client {hello.client_id} presented a bad auth token"
            )
        if (
            self.expected_ids is not None
            and hello.client_id not in self.expected_ids
        ):
            raise ValueError(f"unknown client id {hello.client_id}")
        live = self._connections.get(hello.client_id)
        if live is not None and not live.dead:
            raise ValueError(
                f"duplicate connection for client id {hello.client_id}"
            )

    async def _handshake(self, link: TCPLink, stats: ConnectionStats) -> Hello:
        try:
            kind, body, n = await link.recv()
        except LinkClosed as exc:
            # A HELLO cut mid-frame: what arrived of it crossed the socket.
            stats.handshake_received += exc.received
            raise
        except ValueError:
            # A refused header was read off the socket before its check.
            stats.handshake_received += FRAME_OVERHEAD
            raise
        stats.handshake_received += n
        if kind != KIND_HELLO:
            raise ValueError(f"handshake must open with HELLO, got {kind:#x}")
        hello = decode_hello(body)
        # The claimed identity is recorded the moment it is known, so
        # even a connection rejected (or stalled) right here is
        # attributable in the closed stats.
        stats.client_id = hello.client_id
        await self._check_hello(hello)
        return hello

    def _signal(self, client_id: int) -> None:
        event = self._events.get(client_id)
        if event is not None:
            event.set()

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._accept_tasks.add(task)
            task.add_done_callback(self._accept_tasks.discard)
        stats = ConnectionStats(client_id=-1)
        link = TCPLink(reader, writer)
        conn: Optional[_ClientConnection] = None

        def count_handshake_sent(n: int) -> None:
            stats.handshake_sent += n

        try:
            try:
                hello = await self._handshake(link, stats)
            except LinkClosed:
                return  # dialer hung up before completing its HELLO
            except ValueError as exc:
                # Admission refused: say why on the wire, then hang up.
                self.rejected += 1
                with contextlib.suppress(Exception):
                    await link.send(
                        encode_frame(KIND_ERROR, wire_codecs.encode_error(exc)),
                        count=count_handshake_sent,
                    )
                return
            # No awaits between admission check and registration, so
            # two racing HELLOs for one id cannot both pass.
            conn = _ClientConnection(
                hello.client_id, link, stats, self.send_queue_size
            )
            conn.task = task
            self._connections[hello.client_id] = conn
            # A returning client (died earlier, dialed back in) is live
            # again — an old death must not shadow the new connection.
            self._dead_ids.discard(hello.client_id)
            await link.send(
                encode_frame(
                    KIND_WELCOME, wire_codecs.encode_payload(hello.client_id)
                ),
                count=count_handshake_sent,
            )
            self.accepted += 1
            conn.writer_task = asyncio.get_running_loop().create_task(
                self._drain_writer(conn)
            )
            self._signal(hello.client_id)
            await self._read_loop(conn)
        except (asyncio.CancelledError, ConnectionError):
            # aclose() cancelling an accept parked mid-handshake, or a
            # reset socket: the socket dies quietly, the finally below
            # still books its partial stats.
            return
        finally:
            if conn is not None:
                conn.retire()
                # Mark the id dead only while this connection is still
                # the registered one — a replacement that dialed back in
                # meanwhile stays live.
                if self._connections.get(conn.client_id) is conn:
                    self._dead_ids.add(conn.client_id)
                self._signal(conn.client_id)
                if conn.writer_task is not None and not conn.writer_task.done():
                    conn.writer_task.cancel()
                    with contextlib.suppress(
                        asyncio.CancelledError, Exception
                    ):
                        await conn.writer_task
            self.closed_connection_stats.append(stats)
            writer.close()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await writer.wait_closed()

    async def _drain_writer(self, conn: _ClientConnection) -> None:
        """The connection's writer: one frame at a time off the bounded
        queue, request bytes booked before each flush."""
        try:
            while True:
                frame = await conn.send_queue.get()
                await conn.link.send(frame, count=conn._count_request)
        except Exception:
            # A dead socket: the reader loop (or aclose) retires the
            # connection; in-flight exchanges fold into dropout there.
            conn.retire()

    async def _read_loop(self, conn: _ClientConnection) -> None:
        """Resolve responses FIFO until the connection dies."""
        while True:
            try:
                kind, body, n = await conn.link.recv()
            except (LinkClosed, ConnectionError):
                conn.retire()
                return
            except ValueError as exc:
                # Malformed frame: fail loud into the in-flight
                # exchange (never misparse, never silently drop).  Its
                # refused header did cross the socket.
                conn.stats.response_bytes += FRAME_OVERHEAD
                conn.retire(exc)
                return
            conn.stats.response_bytes += n
            if not conn.pending:
                # An unsolicited frame: nobody is waiting to be told, so
                # the connection just dies (later requests see a dropout).
                conn.retire()
                return
            _op, fut = conn.pending.popleft()
            if not fut.done():
                fut.set_result((kind, body, n))

    # -- round-facing API ------------------------------------------------

    async def connection(
        self,
        client_id: int,
        op: str = "connect",
        timeout: Optional[float] = None,
    ) -> _ClientConnection:
        """The live connection for ``client_id``, waiting for it to dial
        in if it has not yet; a dead or never-arriving client raises
        :class:`ClientUnavailable` (the dropout fold)."""
        conn = self._connections.get(client_id)
        if conn is not None and not conn.dead:
            return conn
        if client_id in self._dead_ids:
            raise ClientUnavailable(client_id, op)
        event = self._events.setdefault(client_id, asyncio.Event())
        try:
            await asyncio.wait_for(
                event.wait(),
                self.join_timeout if timeout is None else timeout,
            )
        except asyncio.TimeoutError:
            raise ClientUnavailable(client_id, op) from None
        conn = self._connections.get(client_id)
        if conn is None or conn.dead:
            raise ClientUnavailable(client_id, op)
        return conn

    async def aclose(self) -> None:
        """Stop listening, say goodbye to every live connection, and
        drain the per-connection tasks (booking partial stats for any
        socket still mid-handshake)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for conn in list(self._connections.values()):
            if not conn.dead:
                with contextlib.suppress(Exception):
                    await conn.link.start_close()
        # Welcomed connections get a grace period to retire cleanly off
        # the goodbye above; sockets still mid-handshake have no peer
        # loop to drain — cancel them outright (their accept task still
        # books the partial stats on the way out).
        welcomed = {
            conn.task for conn in self._connections.values() if conn.task
        }
        stragglers = [
            t for t in self._accept_tasks if not t.done() and t not in welcomed
        ]
        tasks = [t for t in self._accept_tasks if not t.done() and t in welcomed]
        if tasks:
            _done, timed_out = await asyncio.wait(tasks, timeout=5)
            stragglers.extend(timed_out)
        for t in stragglers:
            t.cancel()
        for t in stragglers:
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await t


class DialingClient:
    """The device end: one protocol client dialing into the listener.

    Runs the client's state machine behind a single dialed connection —
    ``HELLO``/``WELCOME``, then a serve loop answering
    each ``REQUEST`` frame with one ``RESPONSE`` (or ``ERROR``) frame.
    Used in-process as one task per client by the socket transports,
    and by ``repro.cli join`` as a whole OS process.

    ``max_requests`` makes the worker vanish (abrupt socket close, as a
    killed process would) after answering that many requests — the
    dropout-mid-round test hook and ``join --die-after``.  The public
    counters are the ground truth for the :class:`ConnectionStats`
    ``endpoint_*`` fields.
    """

    def __init__(
        self,
        client: "ProtocolClient",
        host: str,
        port: int,
        *,
        auth_token: bytes = b"",
        client_id: Optional[int] = None,
        wire_version: int = WIRE_VERSION,
        max_requests: Optional[int] = None,
        dial_timeout: float = 5.0,
    ):
        self.client = client
        self.client_id = client.id if client_id is None else client_id
        self.host = host
        self.port = port
        self.auth_token = bytes(auth_token)
        self.wire_version = wire_version
        self.max_requests = max_requests
        self.dial_timeout = dial_timeout
        self.bytes_received = 0
        self.bytes_sent = 0
        # Per-direction frame counters (handshake excluded):
        # what this end of the socket saw of the stage-accounted
        # traffic.  Requests arrive here (the downlink's far end).
        self.request_bytes = 0
        self.response_bytes = 0
        self.requests = 0
        self.handshake_sent = 0
        self.handshake_received = 0

    def _count_handshake(self, n: int) -> None:
        self.bytes_sent += n
        self.handshake_sent += n

    def _count_handshake_received(self, n: int) -> None:
        self.bytes_received += n
        self.handshake_received += n

    def _count_response(self, n: int) -> None:
        self.bytes_sent += n
        self.response_bytes += n

    async def _dial(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """Dial the listener, retrying brief refusals — a ``join``
        process may race the coordinator to the port."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.dial_timeout
        while True:
            try:
                return await asyncio.open_connection(self.host, self.port)
            except (ConnectionRefusedError, ConnectionResetError):
                if loop.time() >= deadline:
                    raise
                await asyncio.sleep(0.05)

    async def _hello(self, link: TCPLink) -> None:
        await link.send(
            encode_frame(
                KIND_HELLO,
                encode_hello(
                    Hello(self.client_id, self.wire_version, self.auth_token)
                ),
            ),
            count=self._count_handshake,
        )
        try:
            kind, body, n = await link.recv()
        except LinkClosed as exc:
            raise ConnectionError(
                "listener hung up before answering the HELLO"
            ) from exc
        self._count_handshake_received(n)
        if kind == KIND_ERROR:
            raise wire_codecs.decode_error(body)
        if kind != KIND_WELCOME:
            raise ValueError(f"handshake expected WELCOME, got {kind:#x}")
        welcomed = wire_codecs.decode_payload(body)
        if welcomed != self.client_id:
            raise ValueError(
                f"listener welcomed client {welcomed!r}, "
                f"expected {self.client_id}"
            )

    async def run(self) -> None:
        """Dial, handshake, serve until ``max_requests`` answers have
        been given or the coordinator goes away — cleanly or cut off
        mid-frame, either ends the run normally with the whole-frame
        counters intact.  A listener gone *before* its WELCOME raises
        ``ConnectionError``."""
        reader, writer = await self._dial()
        link = TCPLink(reader, writer)
        try:
            await self._hello(link)
            while True:
                try:
                    kind, body, n = await link.recv()
                except (LinkClosed, ConnectionError):
                    return
                self.bytes_received += n
                if kind != KIND_REQUEST:
                    raise ValueError(
                        f"dialing client expected REQUEST, got {kind:#x}"
                    )
                self.request_bytes += n
                # An ERROR reply is counted on the uplink like any other
                # response frame, so both socket ends agree per
                # direction even on aborted rounds.
                reply = answer_request(self.client, body)
                await link.send(reply, count=self._count_response)
                self.requests += 1
                if self.max_requests is not None and self.requests >= self.max_requests:
                    return  # vanish abruptly, like a killed process
        finally:
            writer.close()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await writer.wait_closed()


def record_endpoint(stats: ConnectionStats, dialer) -> None:
    """Copy a dialing end's ground-truth counters into ``stats``.

    Every dialing worker exposes the same four counters; recording
    lives here so every owner of dialers books them the same way.
    """
    stats.endpoint_received_bytes = dialer.bytes_received
    stats.endpoint_sent_bytes = dialer.bytes_sent
    stats.endpoint_request_bytes = dialer.request_bytes
    stats.endpoint_response_bytes = dialer.response_bytes


class _ListenerChannel(Channel):
    """A round routed over an externally-owned, already-started
    listener — the cross-process ``serve`` path.  The listener outlives
    the channel: ``aclose`` is deliberately a no-op (its owner closes
    it and then reads the stats)."""

    def __init__(self, ids, transport):
        self._ids = set(ids)
        self._transport = transport

    async def _connection(self, client_id: int, op: str) -> _ClientConnection:
        return await self._transport.listener.connection(client_id, op)

    async def request(self, client_id: int, op: str, payload: Any) -> Delivery:
        """One engine request as an exchange on the client's connection."""
        if client_id not in self._ids:
            raise ClientUnavailable(client_id, op)
        conn = await self._connection(client_id, op)
        frame = wire_codecs.encode_payload_frame(KIND_REQUEST, (op, payload))
        kind, rbody, sent, received = await conn.exchange(op, frame)
        latency = priced(self._transport.link_seconds, client_id, sent, received)
        return delivery_from_reply(client_id, op, kind, rbody, latency, sent, received)


class ListenerTransport(Transport):
    """A :class:`~repro.engine.transport.Transport` over one started
    :class:`CoordinatorListener` whose clients are *elsewhere* — other
    processes (``repro.cli join``) or independently-managed dialing
    tasks.  ``connect``'s mapping contributes only its id set; the
    state machines live behind the sockets.  ``link_seconds`` prices
    measured frame sizes exactly as on :class:`SocketTransport`.
    """

    def __init__(
        self, listener: CoordinatorListener, link_seconds: LinkSeconds = None
    ):
        self.listener = listener
        self.link_seconds = link_seconds

    @property
    def closed_connection_stats(self) -> list[ConnectionStats]:
        return self.listener.closed_connection_stats

    def connect(self, clients) -> Channel:
        return _ListenerChannel(clients, self)


class _HostedChannel(_ListenerChannel):
    """One round's in-process ensemble: a private listener plus one
    dialing worker task per requested client.

    Lazy: the listener starts on first use, and each client's worker is
    spawned on the first request to it.  ``aclose`` says goodbye to
    every connection, drains workers, copies their ground-truth
    counters into the matching :class:`ConnectionStats`, and lands
    everything in the owning transport's ``closed_connection_stats``.
    """

    #: In-process workers dial immediately; a client not connected well
    #: before this is a bug, not a slow join.
    JOIN_TIMEOUT = 10.0

    def __init__(self, clients, transport: "SocketTransport"):
        super().__init__(clients, transport)
        self._clients = dict(clients)
        self._listener: Optional[CoordinatorListener] = None
        self._start_task: Optional[asyncio.Task] = None
        self._workers: dict[int, tuple[DialingClient, asyncio.Task]] = {}

    async def _start(self) -> None:
        listener = CoordinatorListener(
            expected_ids=self._ids,
            join_timeout=self.JOIN_TIMEOUT,
        )
        await listener.start()
        self._listener = listener

    async def _connection(self, client_id: int, op: str) -> _ClientConnection:
        if self._start_task is None:
            self._start_task = asyncio.get_running_loop().create_task(
                self._start()
            )
        # Shielded: cancelling one requester must not kill the listener
        # start other requesters depend on.
        await asyncio.shield(self._start_task)
        assert self._listener is not None
        if client_id not in self._workers:
            dialer = DialingClient(
                self._clients[client_id], *self._listener.address
            )
            task = asyncio.get_running_loop().create_task(dialer.run())
            self._workers[client_id] = (dialer, task)
        worker = self._workers[client_id][1]
        waiter = asyncio.ensure_future(
            self._listener.connection(client_id, op)
        )
        try:
            # Race the join against the worker: a dialer refused at the
            # handshake (bad version, bad token) dies with the decoded
            # rejection, which must surface loud — not as a join
            # timeout folded into dropout.
            await asyncio.wait(
                {waiter, worker}, return_when=asyncio.FIRST_COMPLETED
            )
            if not waiter.done() and not worker.cancelled():
                exc = worker.exception()
                if exc is not None:
                    raise exc
        except BaseException:
            waiter.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await waiter
            raise
        return await waiter

    async def aclose(self) -> None:
        if self._start_task is not None:
            with contextlib.suppress(Exception):
                await asyncio.shield(self._start_task)
        listener, self._listener = self._listener, None
        if listener is not None:
            await listener.aclose()
        for _dialer, task in self._workers.values():
            if not task.done():
                try:
                    await asyncio.wait_for(asyncio.shield(task), 5)
                except Exception:
                    if not task.done():
                        task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        if listener is not None:
            for stats in listener.closed_connection_stats:
                entry = self._workers.get(stats.client_id)
                if entry is not None:
                    record_endpoint(stats, entry[0])
            self._transport.closed_connection_stats.extend(
                listener.closed_connection_stats
            )


class SocketTransport(Transport):
    """Each round behind one real localhost listener of its own.

    Every protocol client runs as a :class:`DialingClient` task dialing
    the round's :class:`CoordinatorListener` over a genuine framed-TCP
    socket.  Connections live for the channel's round and land their
    :class:`ConnectionStats` — partial ones for connections aborted
    mid-handshake included — in ``closed_connection_stats``.
    Deliveries report the frames' lengths, byte-identical to what
    :class:`~repro.engine.transport.SerializingTransport` reports;
    ``link_seconds`` prices exactly those.
    """

    def __init__(self, link_seconds: LinkSeconds = None):
        self.link_seconds = link_seconds
        self.closed_connection_stats: list[ConnectionStats] = []

    def connect(self, clients: Mapping[int, "ProtocolClient"]) -> Channel:
        return _HostedChannel(clients, self)
