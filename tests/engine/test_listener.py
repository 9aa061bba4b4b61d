"""CoordinatorListener core: admission control, dropout folds, and the
bounded-queue exchange path.

The carrier integration suite (``test_socket_transport``) pins
round-level behavior; this file exercises the listener directly —
hostile HELLOs, connections dying at every stage boundary *and inside a
frame*, and the backpressure seam — over real sockets.
All tests carry the hard ``timeout`` marker so a hung connection fails
fast in CI instead of stalling the suite.
"""

import asyncio

import numpy as np
import pytest

from repro.api.protocol import ProtocolClient
from repro.engine import (
    ClientUnavailable,
    CoordinatorListener,
    DialingClient,
    ListenerTransport,
    RoundEngine,
)
from repro.wire import WIRE_VERSION, codecs as wire_codecs
from repro.wire import frame as wire_frame
from repro.wire import ws
from repro.wire.ws import CARRIERS, open_link
from tests.engine.test_socket_transport import EchoClient, EchoServer


class EchoBack(ProtocolClient):
    """Answers ``echo`` with its payload — the minimal wire peer."""

    def set_routine(self):
        return {"echo": lambda p: p}


async def _run_refused(listener, dialer):
    """Dial and return the rejection the listener sent back."""
    task = asyncio.ensure_future(dialer.run())
    try:
        with pytest.raises(ValueError) as excinfo:
            await asyncio.wait_for(task, 10)
    finally:
        if not task.done():
            task.cancel()
    return excinfo.value


@pytest.mark.timeout(60)
class TestAdversarialHandshake:
    """Every rejection is loud, named, and still lands (partial) stats."""

    def test_version_mismatch_rejected_naming_both_versions(self):
        async def scenario():
            listener = CoordinatorListener(expected_ids={1})
            await listener.start()
            try:
                dialer = DialingClient(
                    EchoBack(1), *listener.address, wire_version=9
                )
                exc = await _run_refused(listener, dialer)
            finally:
                await listener.aclose()
            return listener, exc

        listener, exc = asyncio.run(scenario())
        # The rejection names both sides of the skew.
        assert "wire version 9" in str(exc)
        assert f"listener speaks {WIRE_VERSION}" in str(exc)
        assert listener.rejected == 1 and listener.accepted == 0
        # The refused socket is on the books, attributed to the claimed id.
        (stats,) = listener.closed_connection_stats
        assert stats.client_id == 1
        assert stats.handshake_received > 0 and stats.handshake_sent > 0
        assert stats.frame_bytes == 0

    @staticmethod
    def _refuse_hello_of_version(old: int):
        # An earlier wire version, announced honestly in the HELLO.
        async def scenario():
            listener = CoordinatorListener(expected_ids={1})
            await listener.start()
            try:
                dialer = DialingClient(
                    EchoBack(1), *listener.address, wire_version=old
                )
                exc = await _run_refused(listener, dialer)
            finally:
                await listener.aclose()
            return listener, exc

        listener, exc = asyncio.run(scenario())
        assert WIRE_VERSION == 6
        assert f"speaks wire version {old}, listener speaks 6" in str(exc)
        assert listener.rejected == 1 and listener.accepted == 0

    def test_version_1_hello_refused_by_name(self):
        self._refuse_hello_of_version(1)

    def test_version_2_hello_refused_by_name(self):
        self._refuse_hello_of_version(2)

    def test_version_3_hello_refused_by_name(self):
        # Same frames, different seed → noise expansion: refused at HELLO.
        self._refuse_hello_of_version(3)

    def test_version_4_hello_refused_by_name(self):
        # Same frames, different seed → mask expansion: refused at HELLO,
        # before a round can return a silently wrong aggregate.
        self._refuse_hello_of_version(4)

    def test_version_5_hello_refused_by_name(self):
        # Same frames, a different ShareKeys request (the whole graph)
        # and one more semi-honest exchange: refused at HELLO, before a
        # client is handed a request it would abort on.
        self._refuse_hello_of_version(5)

    def test_bad_auth_token_rejected(self):
        async def scenario():
            listener = CoordinatorListener(
                expected_ids={1}, auth_token=b"s3cret"
            )
            await listener.start()
            try:
                dialer = DialingClient(
                    EchoBack(1), *listener.address, auth_token=b"wrong"
                )
                exc = await _run_refused(listener, dialer)
            finally:
                await listener.aclose()
            return listener, exc

        listener, exc = asyncio.run(scenario())
        assert "bad auth token" in str(exc)
        assert listener.rejected == 1 and listener.accepted == 0

    def test_correct_auth_token_welcomed(self):
        async def scenario():
            listener = CoordinatorListener(
                expected_ids={1}, auth_token=b"s3cret"
            )
            await listener.start()
            try:
                dialer = DialingClient(
                    EchoBack(1), *listener.address, auth_token=b"s3cret"
                )
                task = asyncio.ensure_future(dialer.run())
                conn = await listener.connection(1, timeout=10)
                assert not conn.dead
                accepted = listener.accepted
                task.cancel()
            finally:
                await listener.aclose()
            return accepted

        assert asyncio.run(scenario()) == 1

    def test_unknown_client_id_rejected(self):
        async def scenario():
            listener = CoordinatorListener(expected_ids={1, 2})
            await listener.start()
            try:
                dialer = DialingClient(EchoBack(9), *listener.address)
                exc = await _run_refused(listener, dialer)
            finally:
                await listener.aclose()
            return listener, exc

        listener, exc = asyncio.run(scenario())
        assert "unknown client id 9" in str(exc)
        assert listener.rejected == 1

    def test_duplicate_live_id_rejected(self):
        async def scenario():
            listener = CoordinatorListener(expected_ids={1})
            await listener.start()
            try:
                first = asyncio.ensure_future(
                    DialingClient(EchoBack(1), *listener.address).run()
                )
                await listener.connection(1, timeout=10)
                # Second dial for the same id while the first is live.
                imposter = DialingClient(EchoBack(1), *listener.address)
                exc = await _run_refused(listener, imposter)
                first.cancel()
            finally:
                await listener.aclose()
            return listener, exc

        listener, exc = asyncio.run(scenario())
        assert "duplicate connection for client id 1" in str(exc)
        assert listener.accepted == 1 and listener.rejected == 1

    def test_reconnect_after_death_is_welcomed(self):
        """A dead id is not a squatted id: once its connection retires,
        the same client may dial back in."""

        async def scenario():
            listener = CoordinatorListener(expected_ids={1})
            await listener.start()
            try:
                first = asyncio.ensure_future(
                    DialingClient(EchoBack(1), *listener.address).run()
                )
                conn = await listener.connection(1, timeout=10)
                first.cancel()  # the process dies
                while not conn.dead:
                    await asyncio.sleep(0.01)
                second = asyncio.ensure_future(
                    DialingClient(EchoBack(1), *listener.address).run()
                )
                while listener.accepted < 2:
                    await asyncio.sleep(0.01)
                reconn = await listener.connection(1, timeout=10)
                assert reconn is not conn and not reconn.dead
                accepted = listener.accepted
                second.cancel()
            finally:
                await listener.aclose()
            return accepted

        assert asyncio.run(scenario()) == 2


@pytest.mark.timeout(60)
class TestConnectionDropout:
    """A connection dying at any stage boundary folds into dropout —
    the round completes without it, exactly like a scheduled dropout."""

    def _round_with_client_2(self, die_after):
        """Run an EchoServer round over one listener; client 2's worker
        is absent (``None``) or vanishes after ``die_after`` answers."""

        async def scenario():
            clients = {u: EchoClient(u, 10 * u) for u in (1, 2, 3)}
            listener = CoordinatorListener(
                expected_ids=set(clients), join_timeout=0.5
            )
            await listener.start()
            workers = []
            for u, client in clients.items():
                if u == 2 and die_after is None:
                    continue  # never shows up at all
                workers.append(
                    asyncio.ensure_future(
                        DialingClient(
                            client,
                            *listener.address,
                            max_requests=die_after if u == 2 else None,
                        ).run()
                    )
                )
            engine = RoundEngine(transport=ListenerTransport(listener))
            try:
                result = await engine.run_round(
                    EchoServer(), list(clients.values())
                )
            finally:
                await listener.aclose()
                for w in workers:
                    w.cancel()
                for w in workers:
                    try:
                        await w
                    except (asyncio.CancelledError, Exception):
                        pass
            return listener, result

        return asyncio.run(scenario())

    def test_absent_client_is_a_dropout_before_the_first_stage(self):
        listener, result = self._round_with_client_2(None)
        # encode sees {1, 3}: total 40, targeted [:-1] keeps only 1.
        assert result == {1: (40 + 1) * 2}
        assert listener.accepted == 2

    def test_death_between_stages_is_a_dropout_at_that_boundary(self):
        """Client 2 answers encode, then its socket dies — it drops out
        of refine exactly as a scheduled mid-round dropout would."""
        listener, result = self._round_with_client_2(1)
        # encode saw all three (total 60, targeted {1, 2}), refine only 1.
        assert result == {1: (60 + 1) * 2}
        assert listener.accepted == 3
        # The dead connection's stats still carry its one exchange.
        by_id = {s.client_id: s for s in listener.closed_connection_stats}
        assert by_id[2].requests == 1 and by_id[2].frame_bytes > 0

    def test_death_after_the_last_stage_changes_nothing(self):
        listener, result = self._round_with_client_2(2)
        assert result == {1: (60 + 1) * 2, 2: (60 + 2) * 2}
        assert listener.accepted == 3


@pytest.mark.timeout(60)
class TestExchangePath:
    """The bounded-queue exchange seam: backpressure, FIFO correlation,
    and no stranded senders when a connection retires."""

    def test_many_concurrent_exchanges_over_a_tiny_send_queue(self):
        """Far more in-flight requests than send-queue slots: every one
        completes, and each response pairs with its own request."""

        async def scenario():
            listener = CoordinatorListener(
                expected_ids={1}, send_queue_size=2
            )
            await listener.start()
            client = EchoBack(1)
            worker = asyncio.ensure_future(
                DialingClient(client, *listener.address).run()
            )
            channel = ListenerTransport(listener).connect({1: client})
            try:
                deliveries = await asyncio.gather(
                    *(channel.request(1, "echo", i) for i in range(32))
                )
            finally:
                worker.cancel()
                await listener.aclose()
            return deliveries

        deliveries = asyncio.run(scenario())
        assert sorted(d.response for d in deliveries) == list(range(32))

    def test_retired_connection_fails_in_flight_exchanges(self):
        """A worker vanishing mid-burst: the answered exchange succeeds,
        the stranded ones fold into ClientUnavailable — nobody hangs on
        the send queue."""

        async def scenario():
            listener = CoordinatorListener(expected_ids={1})
            await listener.start()
            client = EchoBack(1)
            worker = asyncio.ensure_future(
                DialingClient(client, *listener.address, max_requests=1).run()
            )
            channel = ListenerTransport(listener).connect({1: client})
            try:
                results = await asyncio.gather(
                    *(channel.request(1, "echo", i) for i in range(3)),
                    return_exceptions=True,
                )
            finally:
                worker.cancel()
                await listener.aclose()
            return results

        results = asyncio.run(scenario())
        ok = [r for r in results if not isinstance(r, BaseException)]
        dropped = [r for r in results if isinstance(r, ClientUnavailable)]
        assert len(ok) == 1 and len(dropped) == 2
        assert len(ok) + len(dropped) == 3

    def test_requests_after_death_raise_immediately(self):
        async def scenario():
            listener = CoordinatorListener(expected_ids={1}, join_timeout=10)
            await listener.start()
            client = EchoBack(1)
            worker = asyncio.ensure_future(
                DialingClient(client, *listener.address, max_requests=1).run()
            )
            channel = ListenerTransport(listener).connect({1: client})
            try:
                await channel.request(1, "echo", 0)
                await asyncio.wait_for(worker, 10)  # it vanishes now
                # Dead id: instant ClientUnavailable, no join_timeout wait.
                start = asyncio.get_running_loop().time()
                with pytest.raises(ClientUnavailable):
                    await channel.request(1, "echo", 1)
                elapsed = asyncio.get_running_loop().time() - start
            finally:
                await listener.aclose()
            return elapsed

        assert asyncio.run(scenario()) < 5


def _ignore(_n):
    pass


def _half(carrier, frame):
    """The first half of ``frame`` as a dialing device would put it on
    this carrier's stream — a process killed mid-send."""
    wire = bytes(frame)
    if carrier == "websocket":
        wire = ws.encode_ws_frame(ws.OP_BINARY, wire, mask=b"abcd")
    return wire[: len(wire) // 2]


async def _welcomed(client_id, host, port, carrier):
    """Dial in by hand, through the WELCOME: ``(link, writer)``."""
    reader, writer = await asyncio.open_connection(host, port)
    link = await open_link(
        carrier, "dial", reader, writer,
        sent=_ignore, received=_ignore, host=host, port=port,
    )
    hello = wire_frame.encode_hello(wire_frame.Hello(client_id))
    await link.send(wire_frame.encode_frame(wire_frame.KIND_HELLO, hello))
    kind, _body, _n = await link.recv()
    assert kind == wire_frame.KIND_WELCOME
    return link, writer


async def _dying_dialer(client, host, port, carrier, die_on_op):
    """A device that serves faithfully until ``die_on_op``, then writes
    *half* of that response frame and is gone."""
    link, writer = await _welcomed(client.id, host, port, carrier)
    try:
        while True:
            _kind, body, _n = await link.recv()
            op, payload = wire_codecs.decode_payload(body)
            reply = wire_codecs.encode_payload_frame(
                wire_frame.KIND_RESPONSE, client.handle(op, payload)
            )
            if op == die_on_op:
                writer.write(_half(carrier, reply))
                await writer.drain()
                return
            await link.send(reply)
    finally:
        writer.close()


@pytest.mark.timeout(60)
@pytest.mark.parametrize("carrier", CARRIERS)
class TestDeathInsideAFrame:
    """A peer killed halfway through writing a frame is a *dropout*, on
    both carriers — mid-upload is exactly when a device holding a
    model-sized masked vector is most likely to die.

    Regression: the truncated read surfaced as a plain ``ValueError``,
    which the reader loop treated as a malformed frame and failed loud
    into the in-flight exchange — one dead device aborted the round.
    """

    def test_half_response_is_client_unavailable(self, carrier):
        async def scenario():
            listener = CoordinatorListener(carrier=carrier, expected_ids={1})
            host, port = await listener.start()
            client = EchoBack(1)
            worker = asyncio.ensure_future(
                _dying_dialer(client, host, port, carrier, "echo")
            )
            channel = ListenerTransport(listener).connect({1: client})
            try:
                with pytest.raises(ClientUnavailable):
                    await channel.request(1, "echo", list(range(64)))
                with pytest.raises(ClientUnavailable):
                    await channel.request(1, "echo", 0)
                await worker
            finally:
                await listener.aclose()
            return listener

        listener = asyncio.run(scenario())
        (stats,) = listener.closed_connection_stats
        # The request went out whole; the half response is on no book.
        assert stats.requests == 0
        assert stats.request_bytes > 0 and stats.response_bytes == 0

    def test_secagg_round_survives_a_death_inside_the_masked_input(self, carrier):
        from repro.secagg.driver import secagg_round_components
        from repro.secagg.types import SecAggConfig

        config = SecAggConfig(
            threshold=3, bits=16, dimension=64, dh_group="modp512"
        )
        rng = np.random.default_rng(11)
        inputs = {
            u: rng.integers(0, config.modulus, size=config.dimension)
            for u in range(1, 6)
        }
        victim = 4

        async def scenario():
            server, clients = secagg_round_components(config, dict(inputs))
            listener = CoordinatorListener(
                carrier=carrier, expected_ids=set(inputs)
            )
            host, port = await listener.start()
            workers = [
                asyncio.ensure_future(
                    _dying_dialer(c, host, port, carrier, "masked_input")
                    if c.id == victim
                    else DialingClient(c, host, port, carrier=carrier).run()
                )
                for c in clients
            ]
            engine = RoundEngine(transport=ListenerTransport(listener))
            try:
                result = await engine.run_round(server, clients)
            finally:
                await listener.aclose()
                await asyncio.gather(*workers)
            return result

        result = asyncio.run(scenario())
        assert set(result.u3) == set(inputs) - {victim}
        expected = sum(inputs[u] for u in result.u3) % config.modulus
        np.testing.assert_array_equal(result.aggregate, expected)

    def test_malformed_response_still_aborts_loudly(self, carrier):
        """The other side of the line: bytes that are *wrong* (here a
        bad magic) fail into the in-flight exchange, never a dropout."""

        async def scenario():
            listener = CoordinatorListener(carrier=carrier, expected_ids={1})
            host, port = await listener.start()

            async def garbler():
                link, writer = await _welcomed(1, host, port, carrier)
                await link.recv()  # the request
                reply = wire_frame.encode_frame(wire_frame.KIND_RESPONSE, b"x")
                await link.send(b"XX" + reply[2:])
                writer.close()

            worker = asyncio.ensure_future(garbler())
            channel = ListenerTransport(listener).connect({1: EchoBack(1)})
            try:
                with pytest.raises(ValueError, match="bad frame magic"):
                    await channel.request(1, "echo", 0)
                await worker
            finally:
                await listener.aclose()

        asyncio.run(scenario())

    def test_unsolicited_frame_retires_the_connection(self, carrier):
        """A frame nobody asked for kills the connection: its bytes are
        booked, and the client is a dropout from then on."""

        async def scenario():
            listener = CoordinatorListener(carrier=carrier, expected_ids={1})
            host, port = await listener.start()
            link, writer = await _welcomed(1, host, port, carrier)
            conn = await listener.connection(1, timeout=10)
            unsolicited = await link.send(
                wire_codecs.encode_payload_frame(wire_frame.KIND_RESPONSE, 7)
            )
            try:
                while not conn.dead:
                    await asyncio.sleep(0.01)
                with pytest.raises(ClientUnavailable):
                    await listener.connection(1, timeout=10)
            finally:
                writer.close()
                await listener.aclose()
            return listener, unsolicited

        listener, unsolicited = asyncio.run(scenario())
        (stats,) = listener.closed_connection_stats
        assert stats.response_bytes == unsolicited and stats.requests == 0


async def _dying_coordinator(carrier, die_in):
    """A one-connection coordinator that is killed halfway through its
    WELCOME (``die_in="welcome"``) or its first REQUEST."""
    done = asyncio.Event()

    async def serve(reader, writer):
        link = await open_link(
            carrier, "accept", reader, writer, sent=_ignore, received=_ignore
        )
        _kind, body, _n = await link.recv()
        client_id = wire_frame.decode_hello(body).client_id
        welcome = wire_frame.encode_frame(
            wire_frame.KIND_WELCOME, wire_codecs.encode_payload(client_id)
        )
        request = wire_codecs.encode_payload_frame(
            wire_frame.KIND_REQUEST, ("echo", list(range(64)))
        )
        if die_in == "welcome":
            cut = welcome
        else:
            await link.send(welcome)
            cut = request
        if carrier == "websocket":
            cut = ws.encode_ws_frame(ws.OP_BINARY, bytes(cut))
        writer.write(bytes(cut)[: len(cut) // 2])
        await writer.drain()
        writer.close()
        done.set()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    return server, done


@pytest.mark.timeout(60)
@pytest.mark.parametrize("carrier", CARRIERS)
class TestCoordinatorDeathSeenFromTheDevice:
    """What ``DialingClient.run()`` does when the *coordinator* dies
    inside a frame — the pinned contract ``repro.cli join`` relies on."""

    def _run(self, carrier, die_in):
        async def scenario():
            server, done = await _dying_coordinator(carrier, die_in)
            host, port = server.sockets[0].getsockname()[:2]
            dialer = DialingClient(EchoBack(1), host, port, carrier=carrier)
            try:
                await asyncio.wait_for(dialer.run(), 10)
            finally:
                await done.wait()
                server.close()
                await server.wait_closed()
            return dialer

        return asyncio.run(scenario())

    def test_mid_request_ends_the_run_normally(self, carrier):
        """Once welcomed, a coordinator cut off mid-frame is the same
        event as one hanging up: the run ends, whole-frame counters
        intact (``join`` prints them and exits 0)."""
        dialer = self._run(carrier, "request")
        assert dialer.requests == 0 and dialer.request_bytes == 0
        assert dialer.handshake_sent > 0 and dialer.handshake_received > 0
        assert dialer.bytes_received == dialer.handshake_received

    def test_mid_welcome_is_a_connection_error(self, carrier):
        """Before the WELCOME there is no session to end: the handshake
        failed, loudly (``join`` prints ``join failed`` and exits 1)."""
        with pytest.raises(ConnectionError, match="before answering the HELLO"):
            self._run(carrier, "welcome")
