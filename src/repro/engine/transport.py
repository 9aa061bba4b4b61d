"""Pluggable transports for the :class:`repro.engine.RoundEngine`.

A transport is how the engine reaches protocol clients.  ``connect()``
binds a transport to one round's client set and returns a
:class:`Channel`; the engine issues concurrent ``request()`` calls on the
channel and folds the reported per-link latencies into its virtual
timeline.  Implementations:

- :class:`InProcessTransport` — direct dispatch in the caller's task,
  zero latency, zero reported bytes.  The engine with this transport is
  behaviorally identical to the old synchronous drivers (the regression
  tests rely on it).
- :class:`SerializingTransport` — the socket round minus the socket:
  requests and responses are encoded to :mod:`repro.wire` frames and
  decoded again in-process, and each :class:`Delivery` reports the
  length of the frames the encoder emitted — what a framed-TCP socket
  would carry, priced on per-client links so heterogeneous stragglers
  gate comm stages as in the paper's §6.1 setup.
- :class:`repro.engine.listener.SocketTransport` — each round behind a
  real localhost framed-TCP listener, every client a dialing task,
  per-connection accounting from both socket ends;
  :class:`repro.engine.listener.ListenerTransport` is its variant over
  an externally-owned listener (clients in other processes).
- :class:`DropoutTransport` — middleware that silences clients according
  to a :class:`repro.secagg.driver.DropoutSchedule`; this is the old
  ``SecAggDriver``'s dropout-injection role recast as a transport layer.

Every byte-reporting transport takes the same optional pricing hook,
:data:`LinkSeconds`: ``link_seconds(client_id, down_nbytes, up_nbytes)
-> float`` maps one exchange's measured request (downlink) and response
(uplink) bytes to *virtual* link seconds —
:meth:`repro.fleet.Fleet.link_seconds` has exactly this shape — and
``None`` means zero virtual latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from repro.api.protocol import ProtocolClient
from repro.wire import codecs as wire_codecs
from repro.wire.frame import (
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    decode_frame,
    encode_frame,
)

#: The one pricing hook: ``(client_id, down_nbytes, up_nbytes) -> virtual
#: link seconds``; ``None`` prices every exchange at zero.
LinkSeconds = Optional[Callable[[int, int, int], float]]


def priced(
    link_seconds: LinkSeconds, client_id: int, down_nbytes: int, up_nbytes: int
) -> float:
    """One exchange's virtual link seconds under ``link_seconds``."""
    if link_seconds is None:
        return 0.0
    return link_seconds(client_id, down_nbytes, up_nbytes)


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
    the exchange put on the wire — the frames' lengths, never a model,
    for serializing/socket transports (0 for in-process dispatch, which
    moves live objects).  They are *directional*: the request travels
    server→client (the **downlink**), the response client→server (the
    **uplink**).  The engine folds them into each traced
    :class:`~repro.sim.timeline.StageSpan`'s ``down_bytes``/``up_bytes``
    (whose sum is ``traffic_bytes``).
    """

    client_id: int
    op: str
    response: Any
    latency: float = 0.0
    request_nbytes: int = 0
    response_nbytes: int = 0


class Channel:
    """A transport bound to one round's clients."""

    async def request(self, client_id: int, op: str, payload: Any) -> Delivery:
        raise NotImplementedError

    async def aclose(self) -> None:
        """Release any resources (listener, sockets, worker tasks)."""


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
# Serialization middleware
# ---------------------------------------------------------------------------


def answer_request(client: ProtocolClient, body) -> bytes | bytearray:
    """The client edge of every wire transport, socket or not.

    Decodes one REQUEST frame's body, drives ``client`` and frames its
    RESPONSE — or an ERROR frame naming the exception the client
    raised, which crosses the uplink like any other reply.  A body that
    does not decode raises :class:`repro.wire.codecs.CodecError`.
    """
    op, payload = wire_codecs.decode_payload(body)
    try:
        response = client.handle(op, payload)
    except Exception as exc:
        return encode_frame(KIND_ERROR, wire_codecs.encode_error(exc))
    return wire_codecs.encode_payload_frame(KIND_RESPONSE, response)


def delivery_from_reply(
    client_id: int, op: str, kind: int, body, latency: float, sent: int, received: int
) -> Delivery:
    """The coordinator edge of every wire transport: one reply frame's
    kind and body as a :class:`Delivery`, or the client's exception
    re-raised from an ERROR frame."""
    if kind == KIND_ERROR:
        raise wire_codecs.decode_error(body)
    if kind != KIND_RESPONSE:
        raise ValueError(f"unexpected frame kind {kind:#x} in response")
    return Delivery(
        client_id,
        op,
        wire_codecs.decode_payload(body),
        latency=latency,
        request_nbytes=sent,
        response_nbytes=received,
    )


class _SerializingChannel(Channel):
    def __init__(self, clients: Mapping[int, ProtocolClient], link_seconds):
        self._clients = dict(clients)
        self._link_seconds = link_seconds

    async def request(self, client_id: int, op: str, payload: Any) -> Delivery:
        client = self._clients.get(client_id)
        if client is None:
            raise ClientUnavailable(client_id, op)
        frame = bytes(
            wire_codecs.encode_payload_frame(KIND_REQUEST, (op, payload))
        )
        reply = bytes(answer_request(client, decode_frame(frame)[1]))
        down, up = len(frame), len(reply)
        kind, body = decode_frame(reply)
        return delivery_from_reply(
            client_id, op, kind, body,
            priced(self._link_seconds, client_id, down, up), down, up,
        )


class SerializingTransport(Transport):
    """The socket round minus the socket.

    Requests are encoded to :mod:`repro.wire` REQUEST frames at the
    server edge, decoded (and answered with RESPONSE/ERROR frames) at
    the client edge, so only ``bytes`` ever cross, and each
    :class:`Delivery` reports the frames' lengths: the frames are
    byte-identical to what ``SocketTransport`` writes to its sockets,
    so span for span this transport's traffic equals what a framed-TCP
    round measures on real connections.  A payload no codec covers raises
    :class:`repro.wire.codecs.CodecError`, as it would on a socket.

    ``link_seconds`` (see :data:`LinkSeconds`) charges the request
    bytes against the client's *downlink* and the response bytes
    against its *uplink* — pass :meth:`repro.fleet.Fleet.link_seconds`
    for §6.1 device profiles.  The engine takes the max over
    concurrently dispatched clients, so the slowest sampled device
    gates each comm stage, as in the paper's cost model.
    Client-side exceptions cross as ERROR frames and are re-raised from
    a registered exception type
    (:func:`repro.wire.codecs.decode_error`).
    """

    def __init__(self, link_seconds: LinkSeconds = None):
        self.link_seconds = link_seconds

    def connect(self, clients: Mapping[int, ProtocolClient]) -> Channel:
        return _SerializingChannel(clients, self.link_seconds)


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
