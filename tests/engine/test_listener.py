"""CoordinatorListener core: admission control, dropout folds, and the
bounded-queue exchange path.

The socket integration suite (``test_socket_transport``) pins
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


def _hello_frame(client_id, wire_version=WIRE_VERSION, auth_token=b""):
    body = wire_frame.encode_hello(
        wire_frame.Hello(client_id, wire_version, auth_token)
    )
    return wire_frame.encode_frame(wire_frame.KIND_HELLO, body)


def _reheader(frame, at, value):
    """``frame`` with header byte ``at`` replaced."""
    return frame[:at] + bytes((value,)) + frame[at + 1 :]


def _refused_openings():
    """``{case: (opening bytes, reason named, bytes the listener reads
    before refusing, client id booked)}`` against a listener expecting
    id 1 with auth token ``s3cret``."""
    header = wire_frame.FRAME_OVERHEAD
    good = _hello_frame(1, auth_token=b"s3cret")
    hello_body = good[header:]
    cases = {
        "bad-magic": (b"XX" + good[2:header], "bad frame magic", header, -1),
        "unknown-kind": (
            _reheader(good, 3, 0x7F)[:header], "unknown frame kind 0x7f", header, -1
        ),
        "oversized-prefix": (
            good[:4] + (wire_frame.MAX_BODY + 1).to_bytes(4, "big"),
            "oversized frame",
            header,
            -1,
        ),
    }
    # A device of an earlier (or later) wire version stamps its version
    # into the frame header too: refused there, before its HELLO is read.
    for version in (1, 2, 3, 4, 5, 7):
        cases[f"frame-version-{version}"] = (
            _reheader(good, 2, version)[:header],
            f"unsupported frame version {version}",
            header,
            -1,
        )
    for name, kind in (
        ("welcome", wire_frame.KIND_WELCOME),
        ("request", wire_frame.KIND_REQUEST),
        ("response", wire_frame.KIND_RESPONSE),
        ("error", wire_frame.KIND_ERROR),
    ):
        frame = wire_frame.encode_frame(kind, hello_body)
        cases[f"opens-with-{name}"] = (
            frame, f"must open with HELLO, got {kind:#x}", len(frame), -1
        )
    token_len = wire_frame.HELLO_OVERHEAD - 2
    for name, body, match in (
        ("truncated-body", hello_body[:-7], "truncated HELLO body"),
        ("truncated-token", hello_body[:-1], "truncated HELLO auth token"),
        ("trailing-garbage", hello_body + b"!", "trailing garbage after HELLO"),
        (
            "token-length-lies",
            hello_body[:token_len] + (7).to_bytes(2, "big") + hello_body[-6:],
            "truncated HELLO auth token",
        ),
    ):
        frame = wire_frame.encode_frame(wire_frame.KIND_HELLO, body)
        cases[f"hello-{name}"] = (frame, match, len(frame), -1)
    for name, frame, match, claimed in (
        ("version-skew", _hello_frame(1, 9, b"s3cret"), "wire version 9", 1),
        ("unknown-id", _hello_frame(9, auth_token=b"s3cret"), "unknown client id 9", 9),
        ("bad-token", _hello_frame(1, auth_token=b"wrong!"), "bad auth token", 1),
    ):
        cases[f"hello-{name}"] = (frame, match, len(frame), claimed)
    return cases


REFUSED_OPENINGS = _refused_openings()


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

    def test_websocket_upgrade_refused_by_name_and_booked(self):
        """A device that still opens with an HTTP Upgrade meets a framed
        TCP listener: its first eight bytes are a header with a bad
        magic, answered by one ERROR frame that says so.  The header the
        listener read before refusing it is on the books."""
        upgrade = (
            b"GET / HTTP/1.1\r\nHost: 127.0.0.1\r\nUpgrade: websocket\r\n"
            b"Connection: Upgrade\r\n"
            b"Sec-WebSocket-Key: AAAAAAAAAAAAAAAAAAAAAA==\r\n"
            b"Sec-WebSocket-Version: 13\r\n\r\n"
        )

        async def scenario():
            listener = CoordinatorListener(expected_ids={1})
            host, port = await listener.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(upgrade)
                await writer.drain()
                kind, body, n = await wire_frame.read_frame(reader)
                # The accept task ends on its own: its stats land.
                while not listener.closed_connection_stats:
                    await asyncio.sleep(0.01)
            finally:
                writer.close()
                await listener.aclose()
            return listener, kind, body, n

        listener, kind, body, n = asyncio.run(scenario())
        assert kind == wire_frame.KIND_ERROR
        assert "bad frame magic" in str(wire_codecs.decode_error(body))
        assert listener.rejected == 1 and listener.accepted == 0
        (stats,) = listener.closed_connection_stats
        assert stats.client_id == -1 and stats.frame_bytes == 0
        assert stats.handshake_received == wire_frame.FRAME_OVERHEAD
        assert stats.handshake_sent == n

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

    @pytest.mark.parametrize("case", sorted(REFUSED_OPENINGS))
    def test_refused_opening_is_named_and_booked(self, case):
        """Whatever a device opens with, a refusal is one ERROR frame that
        names the reason, and the bytes the listener read before refusing
        are on the books: the header alone when the header itself is
        refused, the whole frame when its content is."""
        opening, match, consumed, claimed = REFUSED_OPENINGS[case]

        async def scenario():
            listener = CoordinatorListener(expected_ids={1}, auth_token=b"s3cret")
            host, port = await listener.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(opening)
                await writer.drain()
                kind, body, n = await wire_frame.read_frame(reader)
                while not listener.closed_connection_stats:
                    await asyncio.sleep(0.01)
            finally:
                writer.close()
                await listener.aclose()
            return listener, kind, body, n

        listener, kind, body, n = asyncio.run(scenario())
        assert kind == wire_frame.KIND_ERROR
        assert match in str(wire_codecs.decode_error(body))
        assert listener.rejected == 1 and listener.accepted == 0
        (stats,) = listener.closed_connection_stats
        assert stats.client_id == claimed and stats.frame_bytes == 0
        assert stats.handshake_received == consumed
        assert stats.handshake_sent == n

    @pytest.mark.parametrize("cut", range(len(_hello_frame(1))))
    def test_hello_cut_anywhere_is_no_connection(self, cut):
        """A device that hangs up inside its HELLO — before its first
        byte, in the header or in the body — is neither admitted nor
        refused: nothing is sent back, its id stays free for the next
        dial, and every byte it did send is booked."""

        async def scenario():
            listener = CoordinatorListener(expected_ids={1})
            host, port = await listener.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(_hello_frame(1)[:cut])
                writer.write_eof()
                answer = await asyncio.wait_for(reader.read(), 10)
                while not listener.closed_connection_stats:
                    await asyncio.sleep(0.01)
                redial = asyncio.ensure_future(
                    DialingClient(EchoBack(1), host, port).run()
                )
                conn = await listener.connection(1, timeout=10)
                assert not conn.dead
                redial.cancel()
            finally:
                writer.close()
                await listener.aclose()
            return listener, answer

        listener, answer = asyncio.run(scenario())
        assert answer == b""
        assert listener.rejected == 0 and listener.accepted == 1
        stats = listener.closed_connection_stats[0]
        assert stats.client_id == -1
        assert stats.handshake_sent == 0 and stats.frame_bytes == 0
        assert stats.handshake_received == cut


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


def _half(frame):
    """The first half of ``frame`` — a process killed mid-send."""
    return bytes(frame)[: len(frame) // 2]


async def _welcomed(client_id, host, port):
    """Dial in by hand, through the WELCOME: ``(link, writer)``."""
    reader, writer = await asyncio.open_connection(host, port)
    link = wire_frame.TCPLink(reader, writer)
    hello = wire_frame.encode_hello(wire_frame.Hello(client_id))
    await link.send(wire_frame.encode_frame(wire_frame.KIND_HELLO, hello))
    kind, _body, _n = await link.recv()
    assert kind == wire_frame.KIND_WELCOME
    return link, writer


async def _dying_dialer(client, host, port, die_on_op, cut=None):
    """A device that serves faithfully until ``die_on_op``, then writes
    the first ``cut`` bytes (default: half) of that response frame and is
    gone."""
    link, writer = await _welcomed(client.id, host, port)
    try:
        while True:
            _kind, body, _n = await link.recv()
            op, payload = wire_codecs.decode_payload(body)
            reply = wire_codecs.encode_payload_frame(
                wire_frame.KIND_RESPONSE, client.handle(op, payload)
            )
            if op == die_on_op:
                writer.write(_half(reply) if cut is None else bytes(reply)[:cut])
                await writer.drain()
                return
            await link.send(reply)
    finally:
        writer.close()


@pytest.mark.timeout(60)
class TestDeathInsideAFrame:
    """A peer killed halfway through writing a frame is a *dropout* —
    mid-upload is exactly when a device holding a
    model-sized masked vector is most likely to die.

    Regression: the truncated read surfaced as a plain ``ValueError``,
    which the reader loop treated as a malformed frame and failed loud
    into the in-flight exchange — one dead device aborted the round.
    """

    def test_half_response_is_client_unavailable(self):
        async def scenario():
            listener = CoordinatorListener(expected_ids={1})
            host, port = await listener.start()
            client = EchoBack(1)
            worker = asyncio.ensure_future(
                _dying_dialer(client, host, port, "echo")
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

    @pytest.mark.parametrize("cut", [0, 1, 4, 7, 8, 9, -1])
    def test_response_cut_anywhere_is_client_unavailable(self, cut):
        """Before the first byte, inside the header, right after it, one
        byte into the body or one byte short of the end: the same
        dropout, and no byte of the cut frame on the books."""

        async def scenario():
            listener = CoordinatorListener(expected_ids={1})
            host, port = await listener.start()
            client = EchoBack(1)
            worker = asyncio.ensure_future(
                _dying_dialer(client, host, port, "echo", cut)
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

        (stats,) = asyncio.run(scenario()).closed_connection_stats
        assert stats.requests == 0
        assert stats.request_bytes > 0 and stats.response_bytes == 0

    def test_secagg_round_survives_a_death_inside_the_masked_input(self):
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
            listener = CoordinatorListener(expected_ids=set(inputs))
            host, port = await listener.start()
            workers = [
                asyncio.ensure_future(
                    _dying_dialer(c, host, port, "masked_input")
                    if c.id == victim
                    else DialingClient(c, host, port).run()
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

    def test_malformed_response_still_aborts_loudly(self):
        """The other side of the line: bytes that are *wrong* (here a
        bad magic) fail into the in-flight exchange, never a dropout.
        The refused header was read, so it is on the uplink's books."""

        async def scenario():
            listener = CoordinatorListener(expected_ids={1})
            host, port = await listener.start()

            async def garbler():
                link, writer = await _welcomed(1, host, port)
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
            return listener

        (stats,) = asyncio.run(scenario()).closed_connection_stats
        assert stats.requests == 0 and stats.request_bytes > 0
        assert stats.response_bytes == wire_frame.FRAME_OVERHEAD

    @pytest.mark.parametrize(
        "at,value,match",
        [
            (2, 5, "unsupported frame version 5"),
            (3, 0x7F, "unknown frame kind 0x7f"),
            (4, 0xFF, "oversized frame"),
        ],
    )
    def test_every_malformed_response_header_aborts_loudly(self, at, value, match):
        """A response header with an old frame version, an unknown kind
        or a length prefix past ``MAX_BODY`` fails the exchange by name,
        with its eight bytes on the uplink's books."""

        async def scenario():
            listener = CoordinatorListener(expected_ids={1})
            host, port = await listener.start()

            async def garbler():
                link, writer = await _welcomed(1, host, port)
                await link.recv()  # the request
                reply = wire_frame.encode_frame(wire_frame.KIND_RESPONSE, b"")
                await link.send(_reheader(reply, at, value))
                writer.close()

            worker = asyncio.ensure_future(garbler())
            channel = ListenerTransport(listener).connect({1: EchoBack(1)})
            try:
                with pytest.raises(ValueError, match=match):
                    await channel.request(1, "echo", 0)
                await worker
            finally:
                await listener.aclose()
            return listener

        (stats,) = asyncio.run(scenario()).closed_connection_stats
        assert stats.requests == 0 and stats.request_bytes > 0
        assert stats.response_bytes == wire_frame.FRAME_OVERHEAD

    def test_unsolicited_frame_retires_the_connection(self):
        """A frame nobody asked for kills the connection: its bytes are
        booked, and the client is a dropout from then on."""

        async def scenario():
            listener = CoordinatorListener(expected_ids={1})
            host, port = await listener.start()
            link, writer = await _welcomed(1, host, port)
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


def _welcome_frame(client_id):
    return wire_frame.encode_frame(
        wire_frame.KIND_WELCOME, wire_codecs.encode_payload(client_id)
    )


#: The first REQUEST a dying coordinator sends (412 bytes).
_REQUEST = wire_codecs.encode_payload_frame(
    wire_frame.KIND_REQUEST, ("echo", list(range(64)))
)


async def _dying_coordinator(die_in, cut=None):
    """A one-connection coordinator that is killed after writing the
    first ``cut`` bytes (default: half) of its WELCOME
    (``die_in="welcome"``) or of its first REQUEST."""
    done = asyncio.Event()

    async def serve(reader, writer):
        link = wire_frame.TCPLink(reader, writer)
        _kind, body, _n = await link.recv()
        client_id = wire_frame.decode_hello(body).client_id
        welcome = _welcome_frame(client_id)
        if die_in == "welcome":
            frame = welcome
        else:
            await link.send(welcome)
            frame = _REQUEST
        writer.write(_half(frame) if cut is None else frame[:cut])
        await writer.drain()
        writer.close()
        done.set()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    return server, done


@pytest.mark.timeout(60)
class TestCoordinatorDeathSeenFromTheDevice:
    """What ``DialingClient.run()`` does when the *coordinator* dies
    inside a frame — the pinned contract ``repro.cli join`` relies on."""

    def _run(self, die_in, cut=None):
        async def scenario():
            server, done = await _dying_coordinator(die_in, cut)
            host, port = server.sockets[0].getsockname()[:2]
            dialer = DialingClient(EchoBack(1), host, port)
            try:
                await asyncio.wait_for(dialer.run(), 10)
            finally:
                await done.wait()
                server.close()
                await server.wait_closed()
            return dialer

        return asyncio.run(scenario())

    def test_mid_request_ends_the_run_normally(self):
        """Once welcomed, a coordinator cut off mid-frame is the same
        event as one hanging up: the run ends, whole-frame counters
        intact (``join`` prints them and exits 0)."""
        dialer = self._run("request")
        assert dialer.requests == 0 and dialer.request_bytes == 0
        assert dialer.handshake_sent > 0 and dialer.handshake_received > 0
        assert dialer.bytes_received == dialer.handshake_received

    def test_mid_welcome_is_a_connection_error(self):
        """Before the WELCOME there is no session to end: the handshake
        failed, loudly (``join`` prints ``join failed`` and exits 1)."""
        with pytest.raises(ConnectionError, match="before answering the HELLO"):
            self._run("welcome")

    @pytest.mark.parametrize(
        "cut",
        [*range(wire_frame.FRAME_OVERHEAD + 1), len(_REQUEST) // 2, len(_REQUEST) - 1],
    )
    def test_request_cut_anywhere_ends_the_run_normally(self, cut):
        """No byte of the REQUEST, part of its header, the header alone,
        half the frame or all but its last byte: the run ends, and the
        cut frame is on no counter."""
        dialer = self._run("request", cut)
        assert dialer.requests == 0 and dialer.request_bytes == 0
        assert dialer.bytes_received == dialer.handshake_received > 0

    @pytest.mark.parametrize("cut", range(len(_welcome_frame(1))))
    def test_welcome_cut_anywhere_is_a_connection_error(self, cut):
        """No byte of the WELCOME, or any part of it short of the whole:
        the handshake failed, loudly."""
        with pytest.raises(ConnectionError, match="before answering the HELLO"):
            self._run("welcome", cut)
