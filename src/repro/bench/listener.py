"""Listener stress benchmark: many dialing clients, one listening port.

The payoff measurement for the inverted socket topology — N concurrent
``DialingClient`` workers (default 1000) all dial one
:class:`~repro.engine.listener.CoordinatorListener`, which must accept
and welcome every one of them through a single ``asyncio.start_server``.
Once the whole cohort is connected, the coordinator drives echo rounds
(one request to every connection, gathered concurrently) over the same
exchange path the SecAgg stages use.

Recorded per run: accept wall time and rate, best-of per-round wall
time, total bytes on the wire, and a both-ends accounting check (every
listener-side counter must equal what the dialing endpoints observed).
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from repro.api.protocol import ProtocolClient
from repro.bench.schema import make_report, metric

LISTENER_TOPIC = "listener"

#: Payload echoed on every exchange — a few words, so frames have a body
#: but the benchmark stays a connection-scale test, not a bandwidth one.
ECHO_PAYLOAD = 0xD0BD15


class _EchoClient(ProtocolClient):
    """Minimal wire peer: answers ``echo`` with its payload."""

    def set_routine(self):
        return {"echo": lambda p: p}


async def _stress(connections: int, rounds: int) -> dict[str, Any]:
    from repro.engine import (
        CoordinatorListener,
        DialingClient,
        ListenerTransport,
    )
    from repro.engine.listener import record_endpoint

    ids = set(range(1, connections + 1))
    clients = {u: _EchoClient(u) for u in ids}
    listener = CoordinatorListener(expected_ids=ids)
    await listener.start()
    host, port = listener.address

    start = time.perf_counter()
    dialers = {u: DialingClient(clients[u], host, port) for u in sorted(ids)}
    workers = [
        asyncio.ensure_future(dialer.run()) for dialer in dialers.values()
    ]
    try:
        while listener.accepted < connections:
            if listener.rejected:
                raise RuntimeError(
                    f"listener rejected {listener.rejected} dialers"
                )
            await asyncio.sleep(0.005)
        accept_wall_s = time.perf_counter() - start

        channel = ListenerTransport(listener).connect(clients)
        round_walls = []
        answered = 0
        for _ in range(rounds):
            begin = time.perf_counter()
            deliveries = await asyncio.gather(
                *(channel.request(u, "echo", ECHO_PAYLOAD) for u in ids)
            )
            round_walls.append(time.perf_counter() - begin)
            answered += sum(
                1 for d in deliveries if d.response == ECHO_PAYLOAD
            )
    finally:
        for w in workers:
            w.cancel()
        for w in workers:
            try:
                await w
            except (asyncio.CancelledError, Exception):
                pass
        await listener.aclose()

    stats = listener.closed_connection_stats
    by_id = {s.client_id: s for s in stats}
    for u, dialer in dialers.items():
        if u in by_id:
            record_endpoint(by_id[u], dialer)
    balanced = len(stats) == connections and all(
        s.endpoint_sent_bytes == s.bytes_received
        and s.endpoint_received_bytes == s.bytes_sent
        for s in stats
    )
    return {
        "accept_wall_s": accept_wall_s,
        "round_wall_s": min(round_walls),
        "answered": answered,
        "total_bytes": sum(
            s.bytes_sent + s.bytes_received for s in stats
        ),
        "handshake_bytes": sum(
            s.handshake_sent + s.handshake_received for s in stats
        ),
        "balanced": balanced,
    }


def run_listener(*, connections: int = 1000, rounds: int = 3) -> dict[str, Any]:
    """Stress one coordinator listener with ``connections`` dialers."""
    if connections < 1:
        raise ValueError("connections must be positive")
    if rounds < 1:
        raise ValueError("rounds must be positive")
    m = asyncio.run(_stress(connections, rounds))
    ok = m["answered"] == connections * rounds and m["balanced"]
    metrics = {
        "connections": metric(connections, "count"),
        "accept_wall_s": metric(m["accept_wall_s"], "s"),
        "accept_rate_per_s": metric(
            connections / m["accept_wall_s"], "per_s"
        ),
        "round_wall_s": metric(m["round_wall_s"], "s"),
        "exchange_rate_per_s": metric(
            connections / m["round_wall_s"], "per_s"
        ),
        "total_bytes": metric(m["total_bytes"], "bytes"),
        "handshake_bytes": metric(m["handshake_bytes"], "bytes"),
        "accounting_balanced": metric(1 if m["balanced"] else 0, "flag"),
        "all_answered_ok": metric(1 if ok else 0, "flag"),
    }
    config = {"connections": connections, "rounds": rounds}
    return make_report(LISTENER_TOPIC, config, metrics)
