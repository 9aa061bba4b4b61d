"""Pluggable transports for the :class:`repro.engine.RoundEngine`.

A transport is how the engine reaches protocol clients.  ``connect()``
binds a transport to one round's client set and returns a
:class:`Channel`; the engine issues concurrent ``request()`` calls on the
channel and folds the reported per-link latencies into its virtual
timeline.  Implementations:

- :class:`InProcessTransport` — direct dispatch in the caller's task,
  zero latency.  The engine with this transport is behaviorally identical
  to the old synchronous drivers (the regression tests rely on it).
- :class:`QueueTransport` — genuine message passing: one asyncio queue
  and worker task per client, responses returned through futures.  The
  shape a Socket.IO/websocket backend would plug into.
- :class:`SimulatedNetworkTransport` — queue transport whose links carry
  the per-client latency implied by :mod:`repro.sim.network` device
  profiles (payload bytes / bandwidth), so heterogeneous stragglers gate
  comm stages exactly as in the paper's §6.1 setup.  Sizes are
  the framed sizes :func:`repro.wire.codecs.encoded_nbytes` computes.
- :class:`SerializingTransport` — middleware that makes every payload
  cross a genuine serialization boundary: requests and responses travel
  as :mod:`repro.wire` frames through any inner transport, and each
  :class:`Delivery` reports the exact framed byte counts.
- :class:`repro.engine.stream.StreamTransport` — each client behind a
  real asyncio TCP (localhost) connection with framed messages,
  handshake, and per-connection accounting.
- :class:`repro.engine.websocket.WebSocketTransport` — each client
  behind a real RFC 6455 WebSocket (localhost): HTTP upgrade handshake,
  the same wire envelope as binary messages, accounting that includes
  the WebSocket framing overhead.
- :class:`DropoutTransport` — middleware that silences clients according
  to a :class:`repro.secagg.driver.DropoutSchedule`; this is the old
  ``SecAggDriver``'s dropout-injection role recast as a transport layer.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

from repro.wire import codecs as wire_codecs
from repro.wire.frame import (
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    decode_frame,
    encode_frame,
)

if TYPE_CHECKING:  # imported lazily to avoid an api ↔ engine import cycle
    from repro.api.protocol import ProtocolClient
    from repro.fleet.profile import DeviceProfile


class ClientUnavailable(Exception):
    """The transport could not reach a client (dropout, dead link).

    The engine treats this as a missing response — the client simply does
    not appear in the op's response dict — mirroring how the synchronous
    drivers modelled dropout by skipping the client's stage call.
    """

    def __init__(self, client_id: int, op: str):
        super().__init__(f"client {client_id} unreachable for request {op!r}")
        self.client_id = client_id
        self.op = op


@dataclass(frozen=True)
class Delivery:
    """One completed request/response exchange on a channel.

    ``latency`` is the *simulated* seconds the exchange spent on the wire
    (0 for in-process dispatch); the engine adds it to the virtual clock,
    it is never a wall-clock measurement.

    ``request_nbytes`` / ``response_nbytes`` are the framed byte counts
    the exchange put on the wire — measured, not modelled, for
    serializing/socket transports (0 for in-process dispatch, which
    moves live objects).  They are *directional*: the request travels
    server→client (the **downlink**), the response client→server (the
    **uplink**) — ``down_nbytes``/``up_nbytes`` name that explicitly.
    The engine folds them into each traced
    :class:`~repro.sim.timeline.StageSpan`'s ``down_bytes``/``up_bytes``
    (whose sum is ``traffic_bytes``).
    """

    client_id: int
    op: str
    response: Any
    latency: float = 0.0
    request_nbytes: int = 0
    response_nbytes: int = 0

    @property
    def down_nbytes(self) -> int:
        """Server→client bytes (the request frame, on the downlink)."""
        return self.request_nbytes

    @property
    def up_nbytes(self) -> int:
        """Client→server bytes (the response frame, on the uplink)."""
        return self.response_nbytes


class Channel:
    """A transport bound to one round's clients."""

    async def request(self, client_id: int, op: str, payload: Any) -> Delivery:
        raise NotImplementedError

    async def aclose(self) -> None:
        """Release any resources (worker tasks, queues)."""


class Transport:
    """Factory of per-round channels."""

    def connect(self, clients: Mapping[int, ProtocolClient]) -> Channel:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# In-process
# ---------------------------------------------------------------------------


class _InProcessChannel(Channel):
    def __init__(self, clients: Mapping[int, ProtocolClient]):
        self._clients = dict(clients)

    async def request(self, client_id: int, op: str, payload: Any) -> Delivery:
        if client_id not in self._clients:
            raise ClientUnavailable(client_id, op)
        response = self._clients[client_id].handle(op, payload)
        return Delivery(client_id, op, response)


class InProcessTransport(Transport):
    """Direct dispatch — the default, zero-latency backend."""

    def connect(self, clients: Mapping[int, ProtocolClient]) -> Channel:
        return _InProcessChannel(clients)


# ---------------------------------------------------------------------------
# Asyncio message passing
# ---------------------------------------------------------------------------


class _QueueChannel(Channel):
    """One request queue + worker task per client."""

    def __init__(
        self,
        clients: Mapping[int, ProtocolClient],
        latency_fn: Optional[Callable[[int, str, Any, Any], float]] = None,
    ):
        self._clients = dict(clients)
        self._latency_fn = latency_fn
        self._queues: dict[int, asyncio.Queue] = {}
        self._workers: dict[int, asyncio.Task] = {}

    def _queue_for(self, client_id: int) -> asyncio.Queue:
        queue = self._queues.get(client_id)
        if queue is None:
            queue = asyncio.Queue()
            self._queues[client_id] = queue
            self._workers[client_id] = asyncio.get_running_loop().create_task(
                self._worker(client_id, queue)
            )
        return queue

    async def _worker(self, client_id: int, queue: asyncio.Queue) -> None:
        client = self._clients[client_id]
        while True:
            op, payload, future = await queue.get()
            if future.cancelled():
                continue
            try:
                future.set_result(client.handle(op, payload))
            except Exception as exc:  # propagate to the requester
                future.set_exception(exc)

    async def request(self, client_id: int, op: str, payload: Any) -> Delivery:
        if client_id not in self._clients:
            raise ClientUnavailable(client_id, op)
        future = asyncio.get_running_loop().create_future()
        await self._queue_for(client_id).put((op, payload, future))
        response = await future
        latency = 0.0
        if self._latency_fn is not None:
            latency = self._latency_fn(client_id, op, payload, response)
        return Delivery(client_id, op, response, latency=latency)

    async def aclose(self) -> None:
        for task in self._workers.values():
            task.cancel()
        for task in self._workers.values():
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers.clear()
        self._queues.clear()


class QueueTransport(Transport):
    """Asyncio-queue message passing, with an optional per-exchange
    latency hook.

    ``latency_fn(client_id, op, payload, response)`` maps one exchange
    to virtual link seconds (default: none).  When the inner payloads
    are already wire frames — e.g. under a
    :class:`SerializingTransport` — the hook sees the framed ``bytes``
    and can charge each direction against its own bandwidth.
    """

    def __init__(
        self,
        latency_fn: Optional[Callable[[int, str, Any, Any], float]] = None,
    ):
        self.latency_fn = latency_fn

    def connect(self, clients: Mapping[int, ProtocolClient]) -> Channel:
        return _QueueChannel(clients, self.latency_fn)


class _SizedQueueChannel(_QueueChannel):
    """Queue channel reporting measured sizes and size-derived latency.

    Each size is computed exactly once per exchange; latency is derived
    from those same numbers, so the reported traffic and the simulated
    link time can never disagree.
    """

    def __init__(self, clients, transport: "SimulatedNetworkTransport"):
        super().__init__(clients)
        self._transport = transport

    async def request(self, client_id: int, op: str, payload: Any) -> Delivery:
        delivery = await super().request(client_id, op, payload)
        # The request wire message is the framed (op, payload) envelope,
        # the response just the payload — byte-identical to what
        # SerializingTransport/StreamTransport put on a real link.
        request_nbytes = wire_codecs.encoded_nbytes((op, payload))
        response_nbytes = wire_codecs.encoded_nbytes(delivery.response)
        overhead_fn = self._transport.overhead_fn
        if overhead_fn is not None:
            request_nbytes += overhead_fn("down", request_nbytes)
            response_nbytes += overhead_fn("up", response_nbytes)
        return Delivery(
            delivery.client_id,
            delivery.op,
            delivery.response,
            latency=self._transport.link_seconds(
                client_id,
                down_nbytes=request_nbytes,
                up_nbytes=response_nbytes,
            ),
            request_nbytes=request_nbytes,
            response_nbytes=response_nbytes,
        )


class SimulatedNetworkTransport(QueueTransport):
    """Queue transport with per-link latency from §6.1 device profiles.

    Each exchange charges the request bytes against the client's
    *downlink* and the response bytes against its *uplink*
    (:meth:`repro.fleet.DeviceProfile.link_seconds`); for a symmetric
    device that reduces — bit-identically, one division — to the
    pre-split ``(request + response) / bandwidth``.  The engine takes
    the max over concurrently dispatched clients, so the slowest
    sampled device gates each comm stage, as in the paper's cost model.

    Each *wire message* — the ``(op, payload)`` tuple for a request,
    the bare payload for a response — is sized by
    :func:`repro.wire.codecs.encoded_nbytes`, the actual framed
    encoding: byte-identical to the frames :class:`SerializingTransport`
    and ``StreamTransport`` put on a real link, so simulated
    ``bytes / bandwidth`` latency and traced per-stage traffic both
    reflect what a deployment would send.  A payload no codec covers
    raises :class:`repro.wire.codecs.CodecError`, as it would on a
    socket.

    ``overhead_fn(direction, envelope_nbytes)`` optionally adds a
    carrier's per-message framing bytes on top of the sized envelope
    (``direction`` is ``"down"`` for requests, ``"up"`` for
    responses).  With
    :func:`repro.engine.websocket.ws_envelope_overhead` this transport
    is the codec oracle for websocket rounds: span for span, its
    traffic equals what :class:`repro.engine.websocket.WebSocketTransport`
    measures on real connections.
    """

    def __init__(
        self,
        devices: Mapping[int, "DeviceProfile"],
        overhead_fn: Optional[Callable[[str, int], int]] = None,
    ):
        super().__init__()
        self.devices = dict(devices)
        self.overhead_fn = overhead_fn

    def link_seconds(
        self, client_id: int, *, down_nbytes: int = 0, up_nbytes: int = 0
    ) -> float:
        device = self.devices.get(client_id)
        if device is None:
            return 0.0
        if hasattr(device, "link_seconds"):
            return device.link_seconds(down_nbytes, up_nbytes)
        # A bare legacy device (only upload_seconds): symmetric link.
        return device.upload_seconds(down_nbytes + up_nbytes)

    def connect(self, clients: Mapping[int, ProtocolClient]) -> Channel:
        return _SizedQueueChannel(clients, self)


# ---------------------------------------------------------------------------
# Serialization middleware
# ---------------------------------------------------------------------------


class _WireEndpoint:
    """The client edge of a serialization boundary.

    Receives REQUEST frames, decodes them, drives the wrapped
    :class:`ProtocolClient`, and answers with RESPONSE (or ERROR)
    frames — exactly what a remote client process does, minus the
    socket.  Duck-types the ``.id`` / ``.handle`` surface transports
    dispatch on.
    """

    def __init__(self, inner: ProtocolClient):
        self.id = inner.id
        self.inner = inner

    def handle(self, op: str, frame: bytes):
        kind, body = decode_frame(frame)
        if kind != KIND_REQUEST:
            raise ValueError(f"client endpoint expected a REQUEST frame, got {kind:#x}")
        wire_op, payload = wire_codecs.decode_payload(body)
        if wire_op != op:
            raise ValueError(
                f"frame op {wire_op!r} does not match dispatched op {op!r}"
            )
        try:
            response = self.inner.handle(op, payload)
        except Exception as exc:
            return encode_frame(KIND_ERROR, wire_codecs.encode_error(exc))
        return bytes(wire_codecs.encode_payload_frame(KIND_RESPONSE, response))


class _SerializingChannel(Channel):
    def __init__(self, inner: Channel):
        self._inner = inner

    async def request(self, client_id: int, op: str, payload: Any) -> Delivery:
        frame = bytes(
            wire_codecs.encode_payload_frame(KIND_REQUEST, (op, payload))
        )
        delivery = await self._inner.request(client_id, op, frame)
        kind, body = decode_frame(delivery.response)
        if kind == KIND_ERROR:
            raise wire_codecs.decode_error(body)
        if kind != KIND_RESPONSE:
            raise ValueError(f"unexpected frame kind {kind:#x} in response")
        return Delivery(
            client_id,
            op,
            wire_codecs.decode_payload(body),
            latency=delivery.latency,
            request_nbytes=len(frame),
            response_nbytes=len(delivery.response),
        )

    async def aclose(self) -> None:
        await self._inner.aclose()


class SerializingTransport(Transport):
    """Make every payload cross a genuine serialization boundary.

    Wraps any inner transport: requests are encoded to
    :mod:`repro.wire` REQUEST frames at the server edge, decoded (and
    re-encoded as RESPONSE/ERROR frames) at the client edge, so the
    inner transport only ever carries ``bytes`` — and each
    :class:`Delivery` reports the exact framed sizes.  With an
    :class:`InProcessTransport` inside, this is the cheapest way to get
    wire-faithful traffic measurement: the frames are byte-identical to
    what :class:`repro.engine.stream.StreamTransport` writes to its
    sockets.  Client-side exceptions cross as ERROR frames and are
    re-raised from a registered exception type
    (:func:`repro.wire.codecs.decode_error`).
    """

    def __init__(self, inner: Optional[Transport] = None):
        self.inner = inner or InProcessTransport()

    def connect(self, clients: Mapping[int, ProtocolClient]) -> Channel:
        endpoints = {cid: _WireEndpoint(c) for cid, c in clients.items()}
        return _SerializingChannel(self.inner.connect(endpoints))


# ---------------------------------------------------------------------------
# Dropout middleware
# ---------------------------------------------------------------------------


class _DropoutChannel(Channel):
    def __init__(self, inner: Channel, schedule, stage_of):
        self._inner = inner
        self._schedule = schedule
        self._stage_of = stage_of

    async def request(self, client_id: int, op: str, payload: Any) -> Delivery:
        stage = self._stage_of(op)
        if stage is not None and client_id in self._schedule.dropped_by(stage):
            raise ClientUnavailable(client_id, op)
        return await self._inner.request(client_id, op, payload)

    async def aclose(self) -> None:
        await self._inner.aclose()


class DropoutTransport(Transport):
    """Silence clients per a :class:`DropoutSchedule` — SecAgg's old driver
    recast as middleware.

    ``stage_of`` maps an operation name to the protocol stage constant it
    belongs to (``None`` → never dropped); a client scheduled to drop by
    that stage raises :class:`ClientUnavailable`, and a dropped client
    never comes back within the round — exactly the old driver's
    ``alive -= dropout.dropped_by(stage)`` bookkeeping.
    """

    def __init__(
        self,
        inner: Transport,
        schedule,
        stage_of: Callable[[str], Optional[int]],
    ):
        self.inner = inner
        self.schedule = schedule
        self.stage_of = stage_of

    def connect(self, clients: Mapping[int, ProtocolClient]) -> Channel:
        return _DropoutChannel(self.inner.connect(clients), self.schedule, self.stage_of)
