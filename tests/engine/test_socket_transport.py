"""SocketTransport integration: real sockets, measured traffic.

Acceptance bar for the wire-native transport stack: a round over framed
TCP is bit-identical to in-process execution, and the traced
per-direction traffic equals the framed bytes actually written to the
socket — byte for byte, verified from *both* ends of every connection
and span for span against the socket round minus the socket
(:class:`SerializingTransport`: the in-process serialization
boundary's frames).  All tests carry the hard ``timeout`` marker so a
hung connection fails fast in CI instead of stalling the suite.
"""

import asyncio

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
from repro.secagg.types import ProtocolAbort


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
    def test_matches_in_process_execution(self):
        _, over_sockets = run_echo(SocketTransport())
        _, in_process = run_echo(InProcessTransport())
        assert over_sockets == in_process
        assert over_sockets == {1: (60 + 1) * 2, 2: (60 + 2) * 2}

    def test_traced_traffic_equals_socket_bytes(self):
        """Per-stage traced traffic == framed bytes on the wire, from
        both ends of every connection."""
        transport = SocketTransport()
        engine, _ = run_echo(transport)
        stats = transport.closed_connection_stats
        assert len(stats) == 3
        traced = engine.trace.round_traffic_bytes(0)
        assert traced == sum(s.frame_bytes for s in stats)
        assert traced > 0
        for s in stats:
            # What the channel wrote is exactly what the client endpoint
            # read off its socket, and vice versa — byte for byte, the
            # HELLO / WELCOME handshake included.
            assert s.bytes_sent == s.endpoint_received_bytes
            assert s.bytes_received == s.endpoint_sent_bytes
            assert s.handshake_sent > 0 and s.handshake_received > 0

    def test_per_direction_accounting_from_both_ends(self):
        """Each direction balances independently: the channel's request
        (downlink) bytes equal what endpoints received as REQUEST
        frames, its response (uplink) bytes equal what endpoints sent
        as replies — and the traced per-round split is their sum."""
        transport = SocketTransport()
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

    def test_server_side_stages_carry_no_traffic(self):
        engine, _ = run_echo(SocketTransport())
        spans = engine.trace.round_spans(0)
        assert [s.traffic_bytes > 0 for s in spans] == [True, False, True, False]

    def test_traffic_equals_the_encoders_frames(self):
        """Span for span, per direction: socket-measured bytes equal the
        frames the encoder emitted (the in-process boundary reports them
        without a socket)."""
        sock_engine, _ = run_echo(SocketTransport())
        oracle_engine, _ = run_echo(SerializingTransport())
        assert directional_spans(sock_engine.trace) == directional_spans(
            oracle_engine.trace
        )

    def test_client_exception_crosses_as_error_frame(self):
        engine = RoundEngine(transport=SocketTransport())
        clients = [EchoClient(1, 1), AbortingClient(2)]
        with pytest.raises(ProtocolAbort, match="client 2 refuses"):
            engine.run_round_sync(EchoServer(), clients)

    def test_unknown_client_unavailable(self):
        async def scenario():
            channel = SocketTransport().connect({1: EchoClient(1, 1)})
            try:
                with pytest.raises(ClientUnavailable):
                    await channel.request(9, "encode", None)
            finally:
                await channel.aclose()

        asyncio.run(scenario())

    def test_link_seconds_prices_framed_bytes(self):
        """The pricing hook sees, per exchange and per direction, the
        framed counts (what the socket carries)."""
        seen = []

        def link_seconds(client_id, down, up):
            seen.append((client_id, down, up))
            return 0.0

        transport = SocketTransport(link_seconds)
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

    def test_abort_mid_handshake_records_partial_stats(self, monkeypatch):
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
            transport = SocketTransport()
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
            # No exchange completed, but each HELLO really crossed —
            # and the dialing end's own count of it survives too.
            assert s.requests == 0 and s.frame_bytes == 0
            assert s.handshake_received > 0
            assert s.endpoint_sent_bytes == s.handshake_received
            # The WELCOME never went out.
            assert s.handshake_sent == 0
            assert s.endpoint_received_bytes == s.handshake_sent

    def test_failed_handshake_records_partial_stats(self, monkeypatch):
        from repro.engine import listener as listener_mod

        async def refuse(self, hello):
            raise ValueError("listener refuses the handshake")

        monkeypatch.setattr(
            listener_mod.CoordinatorListener, "_check_hello", refuse
        )
        transport = SocketTransport()
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
    stage boundary.

    The schedules silence clients before each protocol stage in turn;
    the socket path must reproduce the reference driver's participant
    sets and aggregate, and its *measured* per-direction bytes must
    equal the sizes the codec oracle derives for the same round — span
    for span.
    """

    @pytest.mark.parametrize(
        "name,stage",
        [
            ("advertise", 0), ("share-keys", 1), ("masked-input", 2),
            ("consistency", 3), ("unmask", 4),
        ],
    )
    def test_dropout_at_every_stage_boundary(self, name, stage):
        from repro.secagg.driver import (
            DropoutSchedule,
            run_secagg_round_reference,
        )

        sched = DropoutSchedule(at_stage={stage: {2}})
        engine, over_sockets = secagg_over(SocketTransport(), sched)
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

    @pytest.mark.parametrize(
        "name,stage",
        [("none", None), ("before-upload", 2), ("mid-unmask", 4)],
    )
    def test_socket_round_is_the_in_process_round_plus_the_socket(
        self, name, stage
    ):
        """Per-direction socket-measured bytes == the encoder's frames,
        span for span — and, priced on the same fleet links, the same
        virtual begin and finish times."""
        from repro.fleet import Fleet
        from repro.secagg.driver import DropoutSchedule

        sched = (
            None if stage is None else DropoutSchedule(at_stage={stage: {3}})
        )
        link = Fleet.build(5, seed=2).with_id_offset(1).link_seconds
        sock_engine, _ = secagg_over(SocketTransport(link), sched)
        oracle_engine, _ = secagg_over(SerializingTransport(link), sched)

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


@pytest.mark.timeout(120)
class TestSocketChunkedRound:
    def test_chunked_round_over_sockets(self):
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
        transport = SocketTransport()
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
