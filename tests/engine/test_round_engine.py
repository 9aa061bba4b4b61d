"""RoundEngine: concurrent dispatch, chunk pipelining, virtual timing."""

import asyncio

import numpy as np
import pytest

from repro.api.protocol import ProtocolClient, ProtocolServer
from repro.engine import (
    DropoutTransport,
    InProcessTransport,
    PerOpTiming,
    RoundEngine,
    SimulatedNetworkTransport,
    StageTiming,
    Targeted,
)
from repro.pipeline.perf_model import StagePerfModel, WorkflowPerfModel
from repro.pipeline.scheduler import build_schedule
from repro.fleet import Fleet, ProfileColumns
from repro.secagg import SecAggConfig, run_secagg_round
from repro.secagg.driver import DropoutSchedule, secagg_round_components
from repro.sim.timeline import TraceTimeline


# ---------------------------------------------------------------------------
# Toy protocols
# ---------------------------------------------------------------------------


class SumServer(ProtocolServer):
    """encode (c-comp) → aggregate (s-comp)."""

    def set_graph_dict(self):
        return {
            "encode": {"resource": "c-comp", "deps": []},
            "aggregate": {"resource": "s-comp", "deps": ["encode"]},
        }

    def aggregate(self, responses):
        return sum(responses.values())


class SumClient(ProtocolClient):
    def __init__(self, client_id, vector):
        super().__init__(client_id)
        self.vector = np.asarray(vector, dtype=float)

    def set_routine(self):
        return {"encode": self._encode}

    def _encode(self, _payload):
        return self.vector


class RoundTripServer(ProtocolServer):
    """Five alternating stages: the full Table-1 resource cycle.

    encode (c-comp) → aggregate (s-comp) → dispatch (comm) →
    decode (c-comp) → finalize (s-comp).
    """

    def set_graph_dict(self):
        return {
            "encode": {"resource": "c-comp", "deps": []},
            "aggregate": {"resource": "s-comp", "deps": ["encode"]},
            "dispatch": {"resource": "comm", "deps": ["aggregate"]},
            "decode": {"resource": "c-comp", "deps": ["dispatch"]},
            "finalize": {"resource": "s-comp", "deps": ["decode"]},
        }

    def aggregate(self, responses):
        self._sum = sum(responses.values())
        return self._sum

    def finalize(self, _acks):
        return self._sum


class RoundTripClient(ProtocolClient):
    def __init__(self, client_id, vector):
        super().__init__(client_id)
        self.vector = np.asarray(vector, dtype=float)
        self.received = None

    def set_routine(self):
        return {
            "encode": lambda _p: self.vector,
            "dispatch": self._receive,
            "decode": lambda _p: True,
        }

    def _receive(self, aggregate):
        self.received = aggregate
        return True


TIMES = {
    "encode": 2.0,
    "aggregate": 1.0,
    "dispatch": 1.5,
    "decode": 0.5,
    "finalize": 1.0,
}


def roundtrip_factory(vectors):
    def factory(_chunk_index, chunk_inputs):
        return RoundTripServer(), [
            RoundTripClient(u, v) for u, v in chunk_inputs.items()
        ]

    return factory


def link_fleet(uplinks, downlinks):
    """Devices 0.. with these links and no compute slowdown."""
    return Fleet(ProfileColumns(
        compute_factor=np.ones(len(uplinks)),
        uplink_bps=np.array(uplinks, dtype=float),
        downlink_bps=np.array(downlinks, dtype=float),
    ))


# ---------------------------------------------------------------------------
# Basic dispatch semantics
# ---------------------------------------------------------------------------


class TestDispatch:
    def test_sum_round(self):
        engine = RoundEngine()
        clients = [SumClient(i, np.full(4, i + 1.0)) for i in range(3)]
        result = engine.run_round_sync(SumServer(), clients)
        np.testing.assert_allclose(result, np.full(4, 6.0))

    def test_targeted_restricts_recipients(self):
        class TargetedServer(SumServer):
            def set_graph_dict(self):
                graph = super().set_graph_dict()
                graph["second"] = {"resource": "c-comp", "deps": ["aggregate"]}
                graph["collect"] = {"resource": "s-comp", "deps": ["second"]}
                return graph

            def aggregate(self, responses):
                return Targeted({0: "a", 2: "b"})

            def collect(self, responses):
                return responses

        calls = []

        class RecordingClient(SumClient):
            def set_routine(self):
                routine = super().set_routine()
                routine["second"] = lambda p: calls.append((self.id, p)) or p
                return routine

        clients = [RecordingClient(i, np.zeros(2)) for i in range(3)]
        result = RoundEngine().run_round_sync(TargetedServer(), clients)
        assert sorted(calls) == [(0, "a"), (2, "b")]
        assert result == {0: "a", 2: "b"}

    def test_dropout_middleware_excludes_clients(self):
        schedule = DropoutSchedule(at_stage={0: {1}})
        transport = DropoutTransport(
            InProcessTransport(), schedule, lambda op: 0 if op == "encode" else None
        )
        engine = RoundEngine(transport=transport)
        clients = [SumClient(i, np.full(2, i + 1.0)) for i in range(3)]
        result = engine.run_round_sync(SumServer(), clients)
        np.testing.assert_allclose(result, np.full(2, 4.0))  # 1 + 3

    def test_client_error_propagates(self):
        class FailingClient(SumClient):
            def set_routine(self):
                def boom(_p):
                    raise RuntimeError("client exploded")

                return {"encode": boom}

        with pytest.raises(RuntimeError, match="client exploded"):
            RoundEngine().run_round_sync(
                SumServer(), [FailingClient(0, np.zeros(1))]
            )

    def test_client_operations_run_concurrently(self):
        """Every client request of an op is in flight at once.

        The channel blocks each request on a barrier sized to the client
        count: a serial for-loop would deadlock on the first request,
        while the engine's gathered dispatch lets all n reach it.
        """
        from repro.engine import Channel

        n = 5
        inner_transport = InProcessTransport()
        barrier = None  # created inside the running loop

        class BarrierTransport(InProcessTransport):
            def connect(self, clients):
                inner = inner_transport.connect(clients)

                class BarrierChannel(Channel):
                    async def request(self, cid, op, payload):
                        await asyncio.wait_for(barrier.wait(), timeout=5)
                        return await inner.request(cid, op, payload)

                    async def aclose(self):
                        await inner.aclose()

                return BarrierChannel()

        async def main():
            nonlocal barrier
            barrier = asyncio.Barrier(n)
            engine = RoundEngine(transport=BarrierTransport())
            clients = [SumClient(i, np.full(2, 1.0)) for i in range(n)]
            return await engine.run_round(SumServer(), clients)

        result = asyncio.run(main())
        np.testing.assert_allclose(result, np.full(2, float(n)))

    def test_arrival_seam_hands_each_response_over_as_its_delivery_completes(self):
        """A server defining ``receive_response`` sees every response the
        moment it lands — before its slower siblings are in — and the
        coordination method gets what the seam returned in its place."""
        from repro.engine import Channel

        inner_transport = InProcessTransport()
        release_slow = None  # created inside the running loop
        seen = []

        class FoldingServer(SumServer):
            def __init__(self):
                self.total = 0.0

            def receive_response(self, op, client_id, response):
                seen.append((op, client_id, release_slow.is_set()))
                self.total = self.total + response
                if client_id == 0:
                    release_slow.set()  # only now may client 2 answer
                return "folded"

            def aggregate(self, receipts):
                assert receipts == {0: "folded", 1: "folded", 2: "folded"}
                return self.total

        class StaggeredTransport(InProcessTransport):
            def connect(self, clients):
                inner = inner_transport.connect(clients)

                class StaggeredChannel(Channel):
                    async def request(self, cid, op, payload):
                        if cid == 2:
                            await asyncio.wait_for(release_slow.wait(), timeout=5)
                        return await inner.request(cid, op, payload)

                return StaggeredChannel()

        async def main():
            nonlocal release_slow
            release_slow = asyncio.Event()
            engine = RoundEngine(transport=StaggeredTransport())
            clients = [SumClient(i, np.full(2, i + 1.0)) for i in range(3)]
            return await engine.run_round(FoldingServer(), clients)

        result = asyncio.run(main())
        np.testing.assert_allclose(result, np.full(2, 6.0))
        # Client 0 was folded while client 2's request was still parked.
        assert seen[0] == ("encode", 0, False)
        assert sorted(seen) == [("encode", 0, False), ("encode", 1, True), ("encode", 2, True)]

    def test_arrival_seam_skips_dropped_clients_and_propagates_its_errors(self):
        schedule = DropoutSchedule(at_stage={0: {1}})
        transport = DropoutTransport(
            InProcessTransport(), schedule, lambda op: 0 if op == "encode" else None
        )
        arrived = []

        class Receipts(SumServer):
            def receive_response(self, op, client_id, response):
                arrived.append(client_id)
                return float(response.sum())

            def aggregate(self, receipts):
                return receipts

        clients = [SumClient(i, np.full(2, i + 1.0)) for i in range(3)]
        result = RoundEngine(transport=transport).run_round_sync(Receipts(), clients)
        assert result == {0: 2.0, 2: 6.0} and arrived == [0, 2]

        class Exploding(SumServer):
            def receive_response(self, op, client_id, response):
                raise RuntimeError("seam exploded")

        with pytest.raises(RuntimeError, match="seam exploded"):
            RoundEngine().run_round_sync(Exploding(), [SumClient(0, np.zeros(1))])


# ---------------------------------------------------------------------------
# Chunk pipelining — the acceptance-criterion tests
# ---------------------------------------------------------------------------


class TestChunkPipelining:
    def _run(self, n_chunks, pipelined):
        vectors = {u: np.arange(12, dtype=float) + u for u in range(3)}
        engine = RoundEngine(timing=PerOpTiming(TIMES))
        chunked = asyncio.run(
            engine.run_chunked_round(
                roundtrip_factory(vectors),
                vectors,
                n_chunks,
                pipelined=pipelined,
                extract=lambda r: r,
            )
        )
        return engine, chunked, vectors

    def test_chunked_aggregate_matches_unchunked(self):
        _, chunked, vectors = self._run(3, pipelined=True)
        np.testing.assert_allclose(chunked.result, sum(vectors.values()))

    def test_real_secagg_chunk_rounds_match_the_whole_vector_round(self):
        """Each chunk runs one full SecAgg sub-round; their concatenation
        equals the single-round aggregate — chunked execution keeps the
        same security protocol per sub-task (§4.1 / §6.4 'without
        reducing their security properties')."""
        bits, dim, n, m = 16, 24, 5, 3
        rng = np.random.default_rng(7)
        inputs = {
            u: rng.integers(0, 1 << 10, size=dim).astype(np.int64)
            for u in range(1, n + 1)
        }

        def config(dimension):
            return SecAggConfig(
                threshold=3, bits=bits, dimension=dimension, dh_group="modp512"
            )

        def factory(_j, chunk_inputs):
            chunk_dim = next(iter(chunk_inputs.values())).shape[0]
            return secagg_round_components(config(chunk_dim), chunk_inputs)

        chunked = asyncio.run(
            RoundEngine().run_chunked_round(factory, inputs, m)
        )
        whole = run_secagg_round(config(dim), inputs).aggregate
        np.testing.assert_array_equal(chunked.result, whole)
        np.testing.assert_array_equal(whole, sum(inputs.values()) % (1 << bits))

    def test_input_validation(self):
        engine = RoundEngine()
        vectors = {u: np.ones(4) for u in range(2)}
        with pytest.raises(ValueError, match="no inputs"):
            asyncio.run(engine.run_chunked_round(roundtrip_factory({}), {}, 2))
        for bad in (0, 5):
            with pytest.raises(ValueError, match="n_chunks"):
                asyncio.run(
                    engine.run_chunked_round(
                        roundtrip_factory(vectors), vectors, bad
                    )
                )

    @pytest.mark.parametrize("n_chunks", [2, 3, 4])
    def test_pipelined_beats_serial(self, n_chunks):
        """Chunked concurrent dispatch finishes sooner than serial (§4.1)."""
        _, pipelined, _ = self._run(n_chunks, pipelined=True)
        _, serial, _ = self._run(n_chunks, pipelined=False)
        assert pipelined.completion_time < serial.completion_time
        # Serial execution is exactly m back-to-back rounds.
        assert serial.completion_time == pytest.approx(
            n_chunks * sum(TIMES.values())
        )

    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 5])
    def test_execution_matches_appendix_c_schedule(self, n_chunks):
        """The engine's traced schedule equals the offline prediction."""
        engine, chunked, _ = self._run(n_chunks, pipelined=True)
        server = RoundTripServer()
        stages = server.pipeline_stages()
        stage_times = [TIMES[op] for op in server.workflow_order()]
        predicted = build_schedule(stages, stage_times, n_chunks)
        assert chunked.completion_time == pytest.approx(
            predicted.completion_time
        )
        # Begin/finish of every (stage, chunk) matches the recurrence.
        for s in range(len(stages)):
            observed = engine.trace.stage_intervals(s)
            for c, (begin, finish) in enumerate(observed):
                assert begin == pytest.approx(predicted.begin[s, c])
                assert finish == pytest.approx(predicted.finish[s, c])

    def test_chunk_failure_cancels_siblings(self):
        """An aborting chunk must not strand siblings on unfired gates."""

        class FailingServer(RoundTripServer):
            def aggregate(self, responses):
                raise RuntimeError("chunk exploded")

        def factory(j, chunk_inputs):
            server = FailingServer() if j == 0 else RoundTripServer()
            return server, [
                RoundTripClient(u, v) for u, v in chunk_inputs.items()
            ]

        vectors = {u: np.ones(9) for u in range(3)}

        async def main():
            engine = RoundEngine()
            with pytest.raises(RuntimeError, match="chunk exploded"):
                await engine.run_chunked_round(
                    factory, vectors, 3, extract=lambda r: r
                )
            # Sibling chunk tasks were cancelled, not left pending.
            pending = asyncio.all_tasks() - {asyncio.current_task()}
            assert not pending

        asyncio.run(main())

    def test_resource_busy_time_matches_schedule(self):
        engine, _, _ = self._run(3, pipelined=True)
        busy = engine.trace.resource_busy_time()
        assert busy["c-comp"] == pytest.approx(3 * (TIMES["encode"] + TIMES["decode"]))
        assert busy["s-comp"] == pytest.approx(
            3 * (TIMES["aggregate"] + TIMES["finalize"])
        )
        assert busy["comm"] == pytest.approx(3 * TIMES["dispatch"])


# ---------------------------------------------------------------------------
# Cross-round submission
# ---------------------------------------------------------------------------


class TestRoundSubmission:
    def _two_rounds(self, chain):
        engine = RoundEngine(timing=PerOpTiming(TIMES))
        vectors = {u: np.ones(4) for u in range(2)}

        async def main():
            def job():
                return engine.run_round(
                    RoundTripServer(),
                    [RoundTripClient(u, v) for u, v in vectors.items()],
                )

            first = engine.submit_round(job)
            second = engine.submit_round(job, after=first if chain else None)
            return await first.result(), await second.result()

        results = asyncio.run(main())
        return engine, results

    def test_chained_round_starts_at_dependency_finish(self):
        """A data-dependent round may not begin before its input exists."""
        engine, results = self._two_rounds(chain=True)
        first_finish = max(s.finish for s in engine.trace.round_spans(0))
        second_begins = min(s.begin for s in engine.trace.round_spans(1))
        assert second_begins >= first_finish - 1e-9
        assert all(np.allclose(r, np.full(4, 2.0)) for r in results)

    def test_chained_floor_ignores_resource_disjoint_rounds(self):
        """A dependent round floors at its dependency's finish, not at
        whatever unrelated resource-disjoint work shares the trace."""
        engine = RoundEngine(
            timing=PerOpTiming({"encode": 2.0, "aggregate": 1.0, "beacon": 100.0})
        )

        class BeaconServer(ProtocolServer):
            """A server-side comm op — occupies only the comm resource."""

            def set_graph_dict(self):
                return {"beacon": {"resource": "comm", "deps": []}}

            def beacon(self, carry):
                return "sent"

        async def main():
            def job():
                return engine.run_round(
                    SumServer(), [SumClient(u, np.ones(2)) for u in range(2)]
                )

            # 100-virtual-second comm round; touches no chain resource.
            unrelated = engine.submit_round(
                lambda: engine.run_round(BeaconServer(), [SumClient(9, [0.0])])
            )
            first = engine.submit_round(job)
            second = engine.submit_round(job, after=first)
            await asyncio.gather(unrelated.task, first.task, second.task)
            return await unrelated.result(), first, second

        beacon_result, first, second = asyncio.run(main())
        assert beacon_result == "sent"  # served by the server method
        # encode(2) + aggregate(1) per round; the chain is unaffected by
        # the unrelated round's 100s comm span.
        assert first.finish_time == pytest.approx(3.0)
        assert second.finish_time == pytest.approx(6.0)

    def test_independent_rounds_overlap(self):
        """Rounds without a data dependency share the pipeline (§4.1)."""
        engine, results = self._two_rounds(chain=False)
        serial_total = 2 * sum(TIMES.values())
        assert engine.trace.completion_time < serial_total - 1e-9
        # Some stage of round 1 runs while round 0 is still in flight.
        first_finish = max(s.finish for s in engine.trace.round_spans(0))
        second_begins = min(s.begin for s in engine.trace.round_spans(1))
        assert second_begins < first_finish
        # No resource ever serves two rounds at once.
        by_resource = {}
        for span in engine.trace.spans:
            by_resource.setdefault(span.resource, []).append(span)
        for spans in by_resource.values():
            spans.sort(key=lambda s: s.begin)
            for a, b in zip(spans, spans[1:]):
                assert b.begin >= a.finish - 1e-9
        assert all(np.allclose(r, np.full(4, 2.0)) for r in results)


# ---------------------------------------------------------------------------
# Timing models and simulated network latency
# ---------------------------------------------------------------------------


class TestTiming:
    def test_stage_timing_follows_perf_model(self):
        class MeanServer(SumServer):
            def set_graph_dict(self):
                graph = super().set_graph_dict()
                graph["decode"] = {"resource": "s-comp", "deps": ["aggregate"]}
                return graph

            def decode(self, total):
                return total / 3.0

        server = MeanServer()
        perf = WorkflowPerfModel(
            stages=server.pipeline_stages(),
            models=[
                StagePerfModel(beta1=1e-3, beta2=0.1, beta3=0.5),
                StagePerfModel(beta1=2e-3, beta2=0.0, beta3=1.0),
            ],
        )
        update_size = 1000.0
        timing = StageTiming(server, perf, update_size)
        engine = RoundEngine(timing=timing)
        clients = [SumClient(i, np.ones(2)) for i in range(3)]
        engine.run_round_sync(server, clients)
        spans = engine.trace.round_spans(0)
        assert spans[0].duration == pytest.approx(
            perf.models[0].time(update_size, 1)
        )
        # aggregate + decode share the s-comp stage: durations sum to τ₂.
        assert spans[1].duration == pytest.approx(
            perf.models[1].time(update_size, 1)
        )

    def test_stage_timing_rejects_mismatched_model(self):
        server = SumServer()
        perf = WorkflowPerfModel(
            stages=server.pipeline_stages()[:1],
            models=[StagePerfModel(0.0, 0.0, 1.0)],
        )
        with pytest.raises(ValueError):
            StageTiming(server, perf, 10.0)

    def test_symmetric_device_reproduces_pre_split_latency_exactly(self):
        """up == down bandwidth must reduce to the pre-refactor formula
        bit-identically: (request + response) / bandwidth, one division
        — not two separately-rounded per-direction terms."""
        from repro.wire import encoded_nbytes

        vectors = {0: np.ones(8)}
        bandwidth = 3.0  # pathological divisor: rounding differences show
        fleet = link_fleet(uplinks=[bandwidth], downlinks=[bandwidth])
        engine = RoundEngine(
            transport=SimulatedNetworkTransport(fleet.link_seconds)
        )
        engine.run_round_sync(SumServer(), [SumClient(0, vectors[0])])
        encode_span = engine.trace.round_spans(0)[0]
        down = encoded_nbytes(("encode", None))
        up = encoded_nbytes(vectors[0])
        assert encode_span.duration == (down + up) / bandwidth
        assert (encode_span.down_bytes, encode_span.up_bytes) == (down, up)

    def test_asymmetric_device_charges_each_direction(self):
        """Request bytes ride the downlink, response bytes the uplink."""
        from repro.wire import encoded_nbytes

        vectors = {0: np.ones(8)}
        fleet = link_fleet(uplinks=[10.0], downlinks=[1000.0])
        engine = RoundEngine(
            transport=SimulatedNetworkTransport(fleet.link_seconds)
        )
        engine.run_round_sync(SumServer(), [SumClient(0, vectors[0])])
        encode_span = engine.trace.round_spans(0)[0]
        down = encoded_nbytes(("encode", None))
        up = encoded_nbytes(vectors[0])
        assert encode_span.duration == down / 1000.0 + up / 10.0

    def test_simulated_network_latency_gates_stage(self):
        """The slowest device's link time bounds the comm duration.

        Latency is ``measured bytes / bandwidth``: the size is the
        *actual* framed wire encoding of each payload/response (via
        :func:`repro.wire.encoded_nbytes`).
        """
        from repro.wire import encoded_nbytes

        vectors = {0: np.ones(8), 1: np.ones(8)}
        bandwidths = [1e4, 1e6]
        fleet = link_fleet(uplinks=bandwidths, downlinks=bandwidths)
        transport = SimulatedNetworkTransport(fleet.link_seconds)
        engine = RoundEngine(transport=transport)
        clients = [SumClient(u, v) for u, v in vectors.items()]
        result = engine.run_round_sync(SumServer(), clients)
        np.testing.assert_allclose(result, np.full(8, 2.0))
        encode_span = engine.trace.round_spans(0)[0]
        # Request = the framed (op, payload) envelope, response = the
        # framed vector — what the wire transports actually send.
        exchange = encoded_nbytes(("encode", None)) + encoded_nbytes(vectors[0])
        slowest = exchange / bandwidths[0]
        assert encode_span.duration == pytest.approx(slowest)
        assert encode_span.duration >= exchange / bandwidths[1]
        # The stage's traffic is the measured exchange of both links.
        assert encode_span.traffic_bytes == 2 * exchange


class TestSplitTrafficReplay:
    def test_offline_replay_equals_executed_serialized_round(self):
        """simulate_trace with per-direction traffic reproduces an
        executed wire round span for span — including the split.

        The replay's traffic comes from the codecs (an independent
        oracle), not from the executed trace.
        """
        from repro.engine import SerializingTransport, stage_groups
        from repro.wire import encoded_nbytes
        from repro.sim.timeline import SimulatedRound, simulate_trace
        from repro.wire.codecs import encode_payload
        from repro.wire.frame import KIND_REQUEST, encode_frame

        vectors = {u: np.arange(6, dtype=float) + u for u in range(3)}
        engine = RoundEngine(
            transport=SerializingTransport(),
            timing=PerOpTiming(TIMES),
        )
        clients = [RoundTripClient(u, v) for u, v in vectors.items()]
        server = RoundTripServer()
        engine.run_round_sync(server, clients)

        groups = stage_groups(server)
        aggregate = sum(vectors.values())
        # Codec-computed per-direction bytes per stage (what the wire
        # carries: encode fans out to 3, dispatch/decode too; acks and
        # vectors come back).
        down = {
            "encode": 3 * encoded_nbytes(("encode", None)),
            "aggregate": 0,
            "dispatch": 3 * encoded_nbytes(("dispatch", aggregate)),
            "decode": 3 * encoded_nbytes(("decode", True)),
            "finalize": 0,
        }
        up = {
            "encode": 3 * encoded_nbytes(vectors[0]),
            "aggregate": 0,
            "dispatch": 3 * encoded_nbytes(True),
            "decode": 3 * encoded_nbytes(True),
            "finalize": 0,
        }
        # Sanity: encoded_nbytes really is the framed request size.
        frame = encode_frame(KIND_REQUEST, encode_payload(("encode", None)))
        assert encoded_nbytes(("encode", None)) == len(frame)

        replay = simulate_trace([
            SimulatedRound(
                resources=tuple(g.resource.value for g, _ in groups),
                durations=tuple(
                    (sum(TIMES[op] for op in ops),) for _, ops in groups
                ),
                labels=tuple(g.name for g, _ in groups),
                down_traffic=tuple(
                    (sum(down[op] for op in ops),) for _, ops in groups
                ),
                up_traffic=tuple(
                    (sum(up[op] for op in ops),) for _, ops in groups
                ),
            )
        ])
        assert replay.spans == engine.trace.spans


class TestTraceTimeline:
    def test_cumulative_elapsed_and_target(self):
        timeline = TraceTimeline(
            round_durations=(10.0, 20.0, 5.0),
            metric_history=(0.1, 0.5, 0.9),
            metric_name="accuracy",
        )
        np.testing.assert_allclose(timeline.elapsed, [10.0, 30.0, 35.0])
        assert timeline.time_to_metric(0.5) == pytest.approx(30.0)
        assert timeline.time_to_metric(0.95) == float("inf")
        assert timeline.total_seconds == pytest.approx(35.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TraceTimeline((1.0,), (0.1, 0.2), "accuracy")
