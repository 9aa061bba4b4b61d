"""Engine transports that derive per-link latency from a :class:`Fleet`.

Every backend of the wire stack can carry the fleet's directional link
model: request frames are charged against each client's *downlink*,
response frames against its *uplink*, using the exact measured frame
sizes — so the same fleet produces the same virtual latencies whether a
round runs in-process (sized via the codecs), behind the in-process
serialization boundary, or over real framed TCP sockets; real RFC 6455
WebSocket connections ride the same links, pricing their additional
framing overhead honestly.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.engine.transport import (
    QueueTransport,
    SerializingTransport,
    SimulatedNetworkTransport,
    Transport,
)
from repro.fleet.fleet import Fleet


class FleetNetworkTransport(SimulatedNetworkTransport):
    """:class:`SimulatedNetworkTransport` resolving devices via a fleet.

    The fleet's modular :meth:`~Fleet.device` lookup serves any client
    id (protocol layers may shift or oversample ids) straight off the
    columnar store — the per-frame pricing path boxes at most the LRU's
    worth of profiles even against a million-device fleet — and each
    exchange pays ``request / downlink + response / uplink`` on the
    client's own profile.  ``overhead_fn`` adds a carrier's per-message framing on
    top of the sized envelope (e.g.
    :func:`repro.engine.websocket.ws_envelope_overhead`, making this
    the offline oracle for fleet-priced websocket rounds).
    """

    def __init__(
        self,
        fleet: Fleet,
        overhead_fn: Optional[Callable[[str, int], int]] = None,
    ):
        super().__init__({}, overhead_fn)
        self.fleet = fleet

    def link_seconds(
        self, client_id: int, *, down_nbytes: int = 0, up_nbytes: int = 0
    ) -> float:
        return self.fleet.link_seconds(client_id, down_nbytes, up_nbytes)


def _frame_nbytes(value: Any) -> int:
    return len(value) if isinstance(value, (bytes, bytearray)) else 0


def fleet_transport(name: str, fleet: Fleet) -> Transport:
    """A ``DordisConfig.transport`` backend carrying fleet link latency.

    - ``"inprocess"`` — :class:`FleetNetworkTransport`: live objects,
      codec-measured sizes, per-direction latency;
    - ``"serialized"`` — the :mod:`repro.wire` serialization boundary
      over a queue whose latency hook charges each framed direction
      against the client's own link;
    - ``"sockets"`` — real framed TCP with the fleet as the stream
      transport's directional latency model;
    - ``"websocket"`` — real RFC 6455 connections, same fleet links.

    The first three charge identical byte counts to identical links, so
    a round's trace is transport-invariant (the parity suites pin
    this); the websocket carrier honestly charges its additional
    RFC 6455 framing bytes to the same links — its offline oracle is
    ``FleetNetworkTransport(fleet, overhead_fn=ws_envelope_overhead)``.
    """
    if name == "inprocess":
        return FleetNetworkTransport(fleet)
    if name == "serialized":

        def latency(client_id: int, op: str, frame: Any, response: Any) -> float:
            return fleet.link_seconds(
                client_id, _frame_nbytes(frame), _frame_nbytes(response)
            )

        return SerializingTransport(QueueTransport(latency_fn=latency))
    if name == "sockets":
        from repro.engine.stream import StreamTransport

        return StreamTransport(latency_split_fn=fleet.link_seconds)
    if name == "websocket":
        from repro.engine.websocket import WebSocketTransport

        return WebSocketTransport(latency_split_fn=fleet.link_seconds)
    raise ValueError(f"unknown transport {name!r}")
