"""SocketTransport integration: real sockets, measured traffic, both
carriers.

Acceptance bar for the wire-native transport stack: a round over framed
TCP *or* RFC 6455 WebSocket is bit-identical to in-process execution,
and the traced per-direction traffic equals the carrier-framed bytes
actually written to the socket — byte for byte, verified from *both*
ends of every connection and span for span against the socket round
minus the socket (:class:`OracleTransport`: the in-process
serialization boundary's frames plus the carrier's
``envelope_overhead``).  The carrier is a test
parameter, exactly as it is a constructor argument.  All tests carry
the hard ``timeout`` marker so a hung connection fails fast in CI
instead of stalling the suite.
"""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.api.protocol import ProtocolClient, ProtocolServer
from repro.engine import (
    ClientUnavailable,
    InProcessTransport,
    RoundEngine,
    SerializingTransport,
    SocketTransport,
    Targeted,
    run_sync,
)
from repro.engine.transport import Channel, Transport, priced
from repro.secagg.types import ProtocolAbort
from repro.wire.ws import CARRIERS, envelope_overhead

both_carriers = pytest.mark.parametrize("carrier", CARRIERS)


class _CarrierFramedChannel(Channel):
    def __init__(self, inner: Channel, carrier: str, link_seconds):
        self._inner = inner
        self._carrier = carrier
        self._link_seconds = link_seconds

    async def request(self, client_id, op, payload):
        delivery = await self._inner.request(client_id, op, payload)
        down, up = delivery.request_nbytes, delivery.response_nbytes
        down += envelope_overhead(self._carrier, "down", down)
        up += envelope_overhead(self._carrier, "up", up)
        return dataclasses.replace(
            delivery,
            latency=priced(self._link_seconds, client_id, down, up),
            request_nbytes=down,
            response_nbytes=up,
        )

    async def aclose(self):
        await self._inner.aclose()


class OracleTransport(Transport):
    """The oracle for a carrier's rounds, no sockets involved: the
    in-process serialization boundary's frames plus that carrier's
    framing overhead, priced on ``link_seconds``."""

    def __init__(self, carrier, link_seconds=None):
        self._carrier = carrier
        self._link_seconds = link_seconds

    def connect(self, clients):
        return _CarrierFramedChannel(
            SerializingTransport().connect(clients), self._carrier, self._link_seconds
        )


def directional_spans(trace):
    return [(s.label, s.down_bytes, s.up_bytes) for s in trace.spans]


class EchoServer(ProtocolServer):
    def set_graph_dict(self):
        return {
            "encode": {"resource": "c-comp", "deps": []},
            "aggregate": {"resource": "s-comp", "deps": ["encode"]},
            "refine": {"resource": "c-comp", "deps": ["aggregate"]},
            "finish": {"resource": "s-comp", "deps": ["refine"]},
        }

    def aggregate(self, responses):
        total = sum(r for r in responses.values())
        # Target a strict subset with distinct payloads on the way back.
        return Targeted({cid: total + cid for cid in sorted(responses)[:-1]})

    def finish(self, responses):
        return dict(responses)


class EchoClient(ProtocolClient):
    def __init__(self, client_id, vector):
        super().__init__(client_id)
        self.vector = vector

    def set_routine(self):
        return {"encode": lambda _p: self.vector, "refine": lambda p: p * 2}


class AbortingClient(ProtocolClient):
    def set_routine(self):
        return {"encode": self._boom}

    def _boom(self, _payload):
        raise ProtocolAbort(f"client {self.id} refuses")


def run_echo(transport):
    engine = RoundEngine(transport=transport)
    clients = [EchoClient(u, 10 * u) for u in (1, 2, 3)]
    result = engine.run_round_sync(EchoServer(), clients)
    return engine, result


@pytest.mark.timeout(60)
class TestSocketRoundTrip:
    @both_carriers
    def test_matches_in_process_execution(self, carrier):
        _, over_sockets = run_echo(SocketTransport(carrier))
        _, in_process = run_echo(InProcessTransport())
        assert over_sockets == in_process
        assert over_sockets == {1: (60 + 1) * 2, 2: (60 + 2) * 2}

    @both_carriers
    def test_traced_traffic_equals_socket_bytes(self, carrier):
        """Per-stage traced traffic == carrier-framed bytes on the wire,
        from both ends of every connection."""
        transport = SocketTransport(carrier)
        engine, _ = run_echo(transport)
        stats = transport.closed_connection_stats
        assert len(stats) == 3
        traced = engine.trace.round_traffic_bytes(0)
        assert traced == sum(s.frame_bytes for s in stats)
        assert traced > 0
        for s in stats:
            # What the channel wrote is exactly what the client endpoint
            # read off its socket, and vice versa — byte for byte, any
            # upgrade, control frames and close handshake included.
            assert s.bytes_sent == s.endpoint_received_bytes
            assert s.bytes_received == s.endpoint_sent_bytes
            assert s.handshake_sent > 0 and s.handshake_received > 0

    @both_carriers
    def test_per_direction_accounting_from_both_ends(self, carrier):
        """Each direction balances independently: the channel's request
        (downlink) bytes equal what endpoints received as REQUEST
        frames, its response (uplink) bytes equal what endpoints sent
        as replies — and the traced per-round split is their sum."""
        transport = SocketTransport(carrier)
        engine, _ = run_echo(transport)
        stats = transport.closed_connection_stats
        for s in stats:
            assert s.down_bytes == s.request_bytes == s.endpoint_request_bytes
            assert s.up_bytes == s.response_bytes == s.endpoint_response_bytes
            assert s.down_bytes > 0 and s.up_bytes > 0
        split = engine.trace.round_traffic_split(0)
        assert split.down == sum(s.down_bytes for s in stats)
        assert split.up == sum(s.up_bytes for s in stats)
        assert split.total == engine.trace.round_traffic_bytes(0)

    @both_carriers
    def test_server_side_stages_carry_no_traffic(self, carrier):
        engine, _ = run_echo(SocketTransport(carrier))
        spans = engine.trace.round_spans(0)
        assert [s.traffic_bytes > 0 for s in spans] == [True, False, True, False]

    @both_carriers
    def test_traffic_equals_codec_oracle_plus_carrier_overhead(self, carrier):
        """Span for span, per direction: socket-measured bytes equal the
        encoder's frames plus the carrier's documented framing overhead
        (the in-process boundary reports both without a socket)."""
        sock_engine, _ = run_echo(SocketTransport(carrier))
        oracle_engine, _ = run_echo(OracleTransport(carrier))
        assert directional_spans(sock_engine.trace) == directional_spans(
            oracle_engine.trace
        )

    def test_ws_overhead_is_the_only_delta_to_the_tcp_framing(self):
        """Against the serializing boundary (same envelope, no carrier
        overhead) the websocket spans differ by a few bytes per message
        — unmasked requests cost 2, masked responses 6 (short frames):
        the dialing device is the WebSocket client, so only the uplink
        carries the RFC 6455 client mask."""
        ws_engine, _ = run_echo(SocketTransport("websocket"))
        ser_engine, _ = run_echo(SerializingTransport())
        ws = [s for s in ws_engine.trace.spans if s.traffic_bytes]
        ser = [s for s in ser_engine.trace.spans if s.traffic_bytes]
        assert len(ws) == len(ser) == 2
        for w, s in zip(ws, ser):
            deliveries = 3 if w.label == "encode" else 2
            assert w.down_bytes - s.down_bytes == deliveries * 2
            assert w.up_bytes - s.up_bytes == deliveries * 6

    @both_carriers
    def test_client_exception_crosses_as_error_frame(self, carrier):
        engine = RoundEngine(transport=SocketTransport(carrier))
        clients = [EchoClient(1, 1), AbortingClient(2)]
        with pytest.raises(ProtocolAbort, match="client 2 refuses"):
            engine.run_round_sync(EchoServer(), clients)

    @both_carriers
    def test_unknown_client_unavailable(self, carrier):
        async def scenario():
            channel = SocketTransport(carrier).connect({1: EchoClient(1, 1)})
            try:
                with pytest.raises(ClientUnavailable):
                    await channel.request(9, "encode", None)
            finally:
                await channel.aclose()

        asyncio.run(scenario())

    @both_carriers
    def test_link_seconds_prices_carrier_framed_bytes(self, carrier):
        """The pricing hook sees, per exchange and per direction, the
        carrier-framed counts (what this carrier puts on the wire)."""
        seen = []

        def link_seconds(client_id, down, up):
            seen.append((client_id, down, up))
            return 0.0

        transport = SocketTransport(carrier, link_seconds)
        run_echo(transport)
        stats = {s.client_id: s for s in transport.closed_connection_stats}
        for client_id, down, up in seen:
            s = stats[client_id]
            assert down <= s.down_bytes and up <= s.up_bytes
        assert sum(d for _, d, _ in seen) == sum(
            s.down_bytes for s in stats.values()
        )
        assert sum(u for _, _, u in seen) == sum(
            s.up_bytes for s in stats.values()
        )

    def test_unknown_carrier_rejected_at_construction(self):
        with pytest.raises(ValueError, match="carrier must be one of"):
            SocketTransport("pigeon")


@pytest.mark.timeout(60)
class TestAbortedConnectionAccounting:
    """A round aborted mid-flight must not silently drop ConnectionStats.

    Regression: teardown used to cancel still-opening connections and
    walk away, so a round aborted during the handshake left those
    connections' bytes out of ``closed_connection_stats`` and the
    accounting check could under-report.  Now every accepted socket —
    including one still parked in admission control — lands (partial)
    stats when it dies.
    """

    @both_carriers
    def test_abort_mid_handshake_records_partial_stats(self, monkeypatch, carrier):
        from repro.engine import listener as listener_mod

        async def scenario():
            gate = asyncio.Event()
            parked = 0
            all_parked = asyncio.Event()

            async def stalled(self, hello):
                nonlocal parked
                parked += 1
                if parked == 3:
                    all_parked.set()
                await gate.wait()  # WELCOME never sent

            monkeypatch.setattr(
                listener_mod.CoordinatorListener, "_check_hello", stalled
            )
            transport = SocketTransport(carrier)
            engine = RoundEngine(transport=transport)
            clients = [EchoClient(u, 10 * u) for u in (1, 2, 3)]
            task = asyncio.ensure_future(
                engine.run_round(EchoServer(), clients)
            )
            # All three dialers have sent their HELLO and the listener
            # has parked them in admission control, so no WELCOME will
            # ever go out — abort the round there.
            await asyncio.wait_for(all_parked.wait(), 30)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return transport

        transport = asyncio.run(scenario())
        stats = transport.closed_connection_stats
        assert len(stats) == 3
        assert sorted(s.client_id for s in stats) == [1, 2, 3]
        for s in stats:
            # No exchange completed, but each HELLO (after the upgrade
            # request, on websocket) really crossed — and the dialing
            # end's own count of it survives too.
            assert s.requests == 0 and s.frame_bytes == 0
            assert s.handshake_received > 0
            assert s.endpoint_sent_bytes == s.handshake_received
            # The WELCOME never went out; only the websocket carrier's
            # 101 upgrade response did, before the stall.
            assert (s.handshake_sent > 0) == (carrier == "websocket")
            assert s.endpoint_received_bytes == s.handshake_sent

    @both_carriers
    def test_failed_handshake_records_partial_stats(self, monkeypatch, carrier):
        from repro.engine import listener as listener_mod

        async def refuse(self, hello):
            raise ValueError("listener refuses the handshake")

        monkeypatch.setattr(
            listener_mod.CoordinatorListener, "_check_hello", refuse
        )
        transport = SocketTransport(carrier)
        engine = RoundEngine(transport=transport)
        # The dialer receives the ERROR verdict and dies with it; the
        # channel surfaces that loud instead of a silent join timeout.
        with pytest.raises(ValueError, match="refuses the handshake"):
            engine.run_round_sync(EchoServer(), [EchoClient(1, 1)])
        stats = transport.closed_connection_stats
        assert len(stats) == 1
        # Both the HELLO in and the ERROR verdict out are on the books,
        # attributed to the claimed client id.
        assert stats[0].client_id == 1
        assert stats[0].handshake_received > 0
        assert stats[0].handshake_sent > 0
        assert stats[0].frame_bytes == 0


def secagg_inputs():
    rng = np.random.default_rng(7)
    return {u: rng.integers(0, 1 << 16, size=8) for u in range(1, 6)}


def secagg_config():
    from repro.secagg.types import SecAggConfig

    return SecAggConfig(threshold=3, bits=16, dimension=8, dh_group="modp512")


def secagg_over(transport, schedule):
    from repro.secagg.driver import arun_secagg_round

    engine = RoundEngine(transport=transport)
    result = run_sync(
        arun_secagg_round(
            secagg_config(), secagg_inputs(), schedule, engine=engine
        )
    )
    return engine, result


@pytest.mark.timeout(300)
class TestDropoutOverSockets:
    """DropoutTransport wrapped around real connections, at every SecAgg
    stage boundary, on both carriers.

    The schedules silence clients before each protocol stage in turn;
    the socket path must reproduce the reference driver's participant
    sets and aggregate, and its *measured* per-direction bytes must
    equal the sizes the codec oracle derives for the same round — span
    for span.
    """

    @both_carriers
    @pytest.mark.parametrize(
        "name,stage",
        [
            ("advertise", 0), ("share-keys", 1), ("masked-input", 2),
            ("consistency", 3), ("unmask", 4),
        ],
    )
    def test_dropout_at_every_stage_boundary(self, name, stage, carrier):
        from repro.secagg.driver import (
            DropoutSchedule,
            run_secagg_round_reference,
        )

        sched = DropoutSchedule(at_stage={stage: {2}})
        engine, over_sockets = secagg_over(SocketTransport(carrier), sched)
        reference = run_secagg_round_reference(
            secagg_config(), secagg_inputs(), sched
        )
        assert over_sockets.u3 == reference.u3
        assert over_sockets.u5 == reference.u5
        np.testing.assert_array_equal(
            over_sockets.aggregate, reference.aggregate
        )
        # Dropped-by-then clients moved no bytes for later stages: the
        # round still accounts exactly (traced == framed, per direction).
        stats = engine.transport.closed_connection_stats
        split = engine.trace.round_traffic_split(0)
        assert split.down == sum(s.down_bytes for s in stats)
        assert split.up == sum(s.up_bytes for s in stats)

    @both_carriers
    @pytest.mark.parametrize(
        "name,stage",
        [("none", None), ("before-upload", 2), ("mid-unmask", 4)],
    )
    def test_socket_round_is_the_in_process_round_plus_the_socket(
        self, name, stage, carrier
    ):
        """Per-direction socket-measured bytes == the encoder's frames
        (+ the carrier's framing), span for span — and, priced on the
        same fleet links, the same virtual begin and finish times."""
        from repro.fleet import Fleet
        from repro.secagg.driver import DropoutSchedule

        sched = (
            None if stage is None else DropoutSchedule(at_stage={stage: {3}})
        )
        link = Fleet.build(5, seed=2).with_id_offset(1).link_seconds
        sock_engine, _ = secagg_over(SocketTransport(carrier, link), sched)
        oracle_engine, _ = secagg_over(OracleTransport(carrier, link), sched)

        def timed(trace):
            return [
                (s.label, s.begin, s.finish, s.down_bytes, s.up_bytes)
                for s in trace.spans
            ]

        assert timed(sock_engine.trace) == timed(oracle_engine.trace)
        assert sock_engine.trace.completion_time > 0


@pytest.mark.timeout(60)
class TestMaskedVectorWireSize:
    """One definition of a masked vector's wire size.

    ``SecAggConfig.vector_bytes`` (``ceil(d·b/8)``) is what the traffic
    meter books, what ``secagg.complexity`` predicts and what the codec
    writes — checked here on a ring and a dimension that leave pad bits
    (7 × 13 = 91 bits → 12 bytes), against bytes counted on a socket.
    """

    def _round(self, transport, dropped=frozenset()):
        from repro.secagg import DropoutSchedule, arun_secagg_round
        from repro.secagg.types import SecAggConfig

        config = SecAggConfig(threshold=3, bits=13, dimension=7, dh_group="modp512")
        rng = np.random.default_rng(3)
        inputs = {
            u: rng.integers(0, config.modulus, size=7, dtype=np.int64)
            for u in range(1, 6)
        }
        engine = RoundEngine(transport=transport)
        result = run_sync(
            arun_secagg_round(
                config, inputs, DropoutSchedule.before_upload(set(dropped)),
                engine=engine,
            )
        )
        return config, engine, result

    @pytest.mark.parametrize("dropped", [frozenset(), frozenset({2})])
    def test_analytic_uplink_is_measured_uplink_minus_the_envelope(self, dropped):
        from repro.secagg.complexity import (
            MASKED_INPUT_ENVELOPE_BYTES,
            masked_upload_bytes,
        )
        config, engine, result = self._round(SocketTransport(), dropped)
        senders = len(result.u3)
        assert senders == 5 - len(dropped)
        assert config.vector_bytes == 12  # ceil(91 / 8); the floor was 11
        (span,) = [
            s for s in engine.trace.round_spans(0) if s.label == "masked_input"
        ]
        analytic = senders * config.vector_bytes
        assert MASKED_INPUT_ENVELOPE_BYTES == 27
        assert span.up_bytes - senders * MASKED_INPUT_ENVELOPE_BYTES == analytic
        assert span.up_bytes == senders * masked_upload_bytes(config)

    def test_in_process_accounting_equals_socket_bytes(self):
        _, sock_engine, sock = self._round(SocketTransport(), {4})
        _, sim_engine, sim = self._round(SerializingTransport(), {4})
        np.testing.assert_array_equal(sock.aggregate, sim.aggregate)
        assert directional_spans(sock_engine.trace) == directional_spans(
            sim_engine.trace
        )
        stats = sock_engine.transport.closed_connection_stats
        assert sum(s.up_bytes for s in stats) == sum(
            s.up_bytes for s in sim_engine.trace.spans
        )


@pytest.mark.timeout(60)
class TestWebSocketProtocolExercise:
    """Raw-socket conversations with the coordinator listener: the RFC
    corners the request/response fast path never touches."""

    def _listener(self):
        from repro.engine import CoordinatorListener

        return CoordinatorListener(carrier="websocket", expected_ids={1})

    async def _upgraded(self, listener):
        from repro.wire import ws

        host, port = await listener.start()
        reader, writer = await asyncio.open_connection(host, port)
        key = ws.websocket_key()
        writer.write(ws.handshake_request(host, port, key))
        await writer.drain()
        raw = await ws.read_handshake(reader)
        ws.parse_handshake_response(raw, key)
        return reader, writer

    def test_ping_answered_and_close_handshake_completes(self):
        from repro.wire import ws

        async def scenario():
            listener = self._listener()
            reader, writer = await self._upgraded(listener)
            try:
                # A ping ahead of any wire message is answered in place.
                writer.write(ws.encode_ws_frame(ws.OP_PING, b"hb", mask=b"abcd"))
                await writer.drain()
                fin, opcode, payload, _ = await ws.read_ws_frame(
                    reader, require_mask=False
                )
                assert (fin, opcode, payload) == (True, ws.OP_PONG, b"hb")
                # A client-initiated close is echoed back.
                writer.write(
                    ws.encode_ws_frame(
                        ws.OP_CLOSE, (1000).to_bytes(2, "big"), mask=b"abcd"
                    )
                )
                await writer.drain()
                _fin, opcode, payload, _ = await ws.read_ws_frame(
                    reader, require_mask=False
                )
                assert opcode == ws.OP_CLOSE
                assert payload[:2] == (1000).to_bytes(2, "big")
            finally:
                writer.close()
                await listener.aclose()

        asyncio.run(scenario())

    def test_text_frame_kills_the_connection(self):
        """The wire envelope is binary; a TEXT message is a protocol
        violation and the listener fails loud instead of misparsing."""
        from repro.wire import ws

        async def scenario():
            listener = self._listener()
            reader, writer = await self._upgraded(listener)
            try:
                writer.write(
                    ws.encode_ws_frame(ws.OP_TEXT, b"hello", mask=b"abcd")
                )
                await writer.drain()
                # The listener answers with an ERROR message (binary),
                # then closes the connection.
                from repro.wire import codecs as wire_codecs
                from repro.wire.frame import KIND_ERROR, decode_frame

                fin, opcode, payload, _ = await ws.read_ws_frame(
                    reader, require_mask=False
                )
                assert opcode == ws.OP_BINARY
                kind, body = decode_frame(payload)
                assert kind == KIND_ERROR
                with pytest.raises(ValueError, match="binary"):
                    raise wire_codecs.decode_error(body)
                assert listener.rejected == 1
            finally:
                writer.close()
                await listener.aclose()

        asyncio.run(scenario())

    def test_unmasked_client_frame_kills_the_connection(self):
        """RFC 6455 §5.1: the server must refuse unmasked client
        frames — the listener drops the connection."""
        from repro.wire import ws

        async def scenario():
            listener = self._listener()
            reader, writer = await self._upgraded(listener)
            try:
                writer.write(ws.encode_ws_frame(ws.OP_BINARY, b"naked"))
                await writer.drain()
                # Whatever comes back (an ERROR message or a straight
                # close), the connection ends rather than processing
                # the frame.
                while True:
                    try:
                        await ws.read_ws_frame(reader, require_mask=False)
                    except (ws.WSEOF, ValueError):
                        break
            finally:
                writer.close()
                await listener.aclose()

        asyncio.run(scenario())

    def test_bad_upgrade_request_rejected_before_websocket(self):
        """A non-WebSocket HTTP request never reaches the frame layer."""

        async def scenario():
            listener = self._listener()
            host, port = await listener.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"GET / HTTP/1.1\r\nHost: h\r\n\r\n")
                await writer.drain()
                # The listener closes without switching protocols.
                assert await reader.read() == b""
            finally:
                writer.close()
                await listener.aclose()

        asyncio.run(scenario())


@pytest.mark.timeout(120)
class TestSocketChunkedRound:
    @both_carriers
    def test_chunked_round_over_sockets(self, carrier):
        """m chunk sub-rounds, each over its own set of connections,
        concatenate to the in-process result with exact accounting."""

        class SliceServer(ProtocolServer):
            def set_graph_dict(self):
                return {
                    "encode": {"resource": "c-comp", "deps": []},
                    "aggregate": {"resource": "s-comp", "deps": ["encode"]},
                }

            def aggregate(self, responses):
                total = None
                for v in responses.values():
                    total = v if total is None else total + v
                return total

        class SliceClient(ProtocolClient):
            def __init__(self, client_id, vector):
                super().__init__(client_id)
                self.vector = vector

            def set_routine(self):
                return {"encode": lambda _p: self.vector}

        def factory(_j, chunk_inputs):
            server = SliceServer()
            clients = [SliceClient(u, v) for u, v in chunk_inputs.items()]
            return server, clients

        inputs = {u: np.arange(8, dtype=np.int64) + u for u in (1, 2, 3)}
        transport = SocketTransport(carrier)
        engine = RoundEngine(transport=transport)
        chunked = run_sync(engine.run_chunked_round(factory, inputs, 2))
        expected = sum(inputs.values())
        np.testing.assert_array_equal(chunked.result, expected)
        # 3 clients × 2 chunks = 6 connections, all accounted.
        stats = transport.closed_connection_stats
        assert len(stats) == 6
        assert engine.trace.round_traffic_bytes(chunked.trace_round) == sum(
            s.frame_bytes for s in stats
        )
