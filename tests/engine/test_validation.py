"""Engine input validation and the busy-engine guard."""

import asyncio

import numpy as np
import pytest

from repro.api.protocol import ProtocolClient, ProtocolServer
from repro.engine import (
    Channel,
    EngineBusyError,
    InProcessTransport,
    PerOpTiming,
    RoundEngine,
    Transport,
    stage_groups,
)


class SumServer(ProtocolServer):
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
        return {"encode": lambda _p: self.vector}


class TestPerOpTiming:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            PerOpTiming({"encode": -1.0})

    def test_negative_default_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            PerOpTiming({"encode": 1.0}, default=-0.5)

    def test_zero_default_accepted(self):
        timing = PerOpTiming({"encode": 1.0}, default=0.0)
        assert timing.duration("unknown", "comm") == 0.0


class TestStageGroups:
    def test_pipeline_stages_are_the_grouped_stages(self):
        """One walk of the workflow: the declared stages and the engine's
        (stage, ops) groups cannot disagree, merged stages included."""

        class MergingServer(SumServer):
            def set_graph_dict(self):
                graph = super().set_graph_dict()
                graph["decode"] = {"resource": "s-comp", "deps": ["aggregate"]}
                return graph

        server = MergingServer()
        groups = stage_groups(server)
        assert server.pipeline_stages() == [stage for stage, _ops in groups]
        assert [(g.name, ops) for g, ops in groups] == [
            ("encode", ["encode"]),
            ("aggregate+decode", ["aggregate", "decode"]),
        ]

    def test_matching_workflow_groups(self):
        groups = stage_groups(SumServer())
        assert [(g.resource.value, ops) for g, ops in groups] == [
            ("c-comp", ["encode"]),
            ("s-comp", ["aggregate"]),
        ]


class TestEngineBusyGuard:
    def test_second_loop_refused_with_engine_busy_error(self):
        """While a round is in flight on one loop, driving the engine
        through run_sync's helper loop raises EngineBusyError."""
        release = None

        class StallTransport(Transport):
            def __init__(self):
                self.inner = InProcessTransport()

            def connect(self, clients):
                inner = self.inner.connect(clients)

                class StallChannel(Channel):
                    async def request(self, cid, op, payload):
                        await release.wait()
                        return await inner.request(cid, op, payload)

                    async def aclose(self):
                        await inner.aclose()

                return StallChannel()

        engine = RoundEngine(transport=StallTransport())

        async def main():
            nonlocal release
            release = asyncio.Event()
            clients = [SumClient(u, np.ones(2)) for u in range(2)]
            in_flight = asyncio.ensure_future(
                engine.run_round(SumServer(), clients)
            )
            while not engine._active_count:
                await asyncio.sleep(0)
            # run_round_sync under a running loop executes on a private
            # helper-loop thread; the engine must refuse it while rounds
            # are still in flight here.
            with pytest.raises(EngineBusyError, match="separate RoundEngine"):
                engine.run_round_sync(
                    SumServer(), [SumClient(9, np.ones(2))]
                )
            release.set()
            return await in_flight

        result = asyncio.run(main())
        np.testing.assert_allclose(result, np.full(2, 2.0))

    def test_engine_busy_error_is_a_runtime_error(self):
        # Back-compat: callers catching the old RuntimeError still work.
        assert issubclass(EngineBusyError, RuntimeError)

    def test_engine_reusable_after_refusal(self):
        engine = RoundEngine()
        clients = [SumClient(u, np.ones(2)) for u in range(2)]
        first = engine.run_round_sync(SumServer(), clients)
        second = engine.run_round_sync(SumServer(), clients)
        np.testing.assert_allclose(first, second)
