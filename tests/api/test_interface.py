"""The Appendix-D programming interface: declaration, dispatch, handlers."""

import numpy as np
import pytest

from repro.api import (
    AggregationRuntime,
    AppClient,
    AppServer,
    DefaultAEHandler,
    DefaultKAHandler,
    DefaultPGHandler,
    DefaultSSHandler,
    PlainDPHandler,
    ProtocolClient,
    ProtocolServer,
    SkellamDPHandler,
    WorkflowError,
)
from repro.pipeline.stages import Resource
from repro.utils.rng import derive_rng


class MeanProtocolServer(ProtocolServer):
    """A minimal declared workflow: encode (clients) → aggregate → decode."""

    def __init__(self, dp_handler):
        self.dp = dp_handler

    def set_graph_dict(self):
        return {
            "encode_data": {"resource": "c-comp", "deps": []},
            "aggregate": {"resource": "s-comp", "deps": ["encode_data"]},
            "decode_data": {"resource": "s-comp", "deps": ["aggregate"]},
        }

    def aggregate(self, encoded: dict):
        total = None
        for vec in encoded.values():
            total = vec if total is None else total + vec
        return total

    def decode_data(self, aggregate):
        return self.dp.decode_data(aggregate)


class MeanProtocolClient(ProtocolClient):
    def __init__(self, client_id, dp_handler):
        super().__init__(client_id)
        self.dp = dp_handler
        self._rng = derive_rng("api-client", client_id)

    def set_routine(self):
        return {"encode_data": self.encode_data}

    def encode_data(self, payload):
        return self.dp.encode_data(payload, self._rng)


class RecordingAppServer(AppServer):
    def __init__(self):
        self.outputs = []

    def use_output(self, aggregate):
        self.outputs.append(aggregate)


class VectorAppClient(AppClient):
    def __init__(self, client_id, vector):
        super().__init__(client_id)
        self.vector = vector
        self.received = []

    def prepare_data(self, round_index):
        return self.vector

    def use_output(self, aggregate):
        self.received.append(aggregate)


class TestWorkflowDeclaration:
    def test_topological_order_respects_deps(self):
        server = MeanProtocolServer(PlainDPHandler())
        order = server.workflow_order()
        assert order.index("encode_data") < order.index("aggregate")
        assert order.index("aggregate") < order.index("decode_data")

    def test_stage_grouping_merges_same_resource(self):
        """aggregate + decode_data share s-comp → one pipeline stage."""
        server = MeanProtocolServer(PlainDPHandler())
        stages = server.pipeline_stages()
        assert [s.resource for s in stages] == [Resource.C_COMP, Resource.S_COMP]

    def test_unknown_resource_rejected(self):
        class Bad(ProtocolServer):
            def set_graph_dict(self):
                return {"op": {"resource": "gpu", "deps": []}}

        with pytest.raises(WorkflowError):
            Bad().workflow_order()

    def test_cycle_rejected(self):
        class Cyclic(ProtocolServer):
            def set_graph_dict(self):
                return {
                    "a": {"resource": "c-comp", "deps": ["b"]},
                    "b": {"resource": "s-comp", "deps": ["a"]},
                }

        with pytest.raises(WorkflowError):
            Cyclic().workflow_order()

    def test_undeclared_dependency_rejected(self):
        class Dangling(ProtocolServer):
            def set_graph_dict(self):
                return {"a": {"resource": "c-comp", "deps": ["ghost"]}}

        with pytest.raises(WorkflowError):
            Dangling().workflow_order()

    def test_missing_method_detected(self):
        class NoMethod(ProtocolServer):
            def set_graph_dict(self):
                return {"mystery": {"resource": "s-comp", "deps": []}}

        with pytest.raises(WorkflowError):
            NoMethod().operation_method("mystery")

    def test_empty_workflow_rejected(self):
        class Empty(ProtocolServer):
            def set_graph_dict(self):
                return {}

        with pytest.raises(WorkflowError):
            Empty().workflow_order()


class TestRuntimeDispatch:
    def _run(self, dp_server, dp_clients, vectors):
        clients = [
            MeanProtocolClient(i, dp_clients[i]) for i in range(len(vectors))
        ]
        app_server = RecordingAppServer()
        app_clients = {
            i: VectorAppClient(i, vectors[i]) for i in range(len(vectors))
        }
        runtime = AggregationRuntime(
            MeanProtocolServer(dp_server), clients,
            app_server=app_server, app_clients=app_clients,
        )
        result = runtime.run_round()
        return result, app_server, app_clients

    def test_plain_sum(self):
        vectors = [np.ones(8) * (i + 1) for i in range(3)]
        result, app_server, app_clients = self._run(
            PlainDPHandler(), [PlainDPHandler()] * 3, vectors
        )
        np.testing.assert_allclose(result, np.ones(8) * 6)
        assert len(app_server.outputs) == 1
        assert all(len(a.received) == 1 for a in app_clients.values())

    def test_custom_dp_handler_is_exercised(self):
        """Plugging the Skellam handler changes the datapath end to end."""
        dim = 16
        server_dp = SkellamDPHandler()
        server_dp.init_params(dimension=dim, clip_bound=2.0, bits=20, scale=128.0)
        client_dps = []
        for _ in range(3):
            h = SkellamDPHandler()
            h.init_params(dimension=dim, clip_bound=2.0, bits=20, scale=128.0)
            client_dps.append(h)
        vectors = [derive_rng("api-vec", i).normal(size=dim) * 0.1 for i in range(3)]
        result, _, _ = self._run(server_dp, client_dps, vectors)
        np.testing.assert_allclose(result, sum(vectors), atol=0.2)

    def test_unhandled_request_raises(self):
        class DeafClient(ProtocolClient):
            def set_routine(self):
                return {}

        runtime = AggregationRuntime(
            MeanProtocolServer(PlainDPHandler()), [DeafClient(0)]
        )
        with pytest.raises(WorkflowError):
            runtime.run_round()

    def test_no_clients_rejected(self):
        with pytest.raises(ValueError):
            AggregationRuntime(MeanProtocolServer(PlainDPHandler()), [])


class TestDefaultHandlers:
    def test_ae_handler_roundtrip(self):
        ae = DefaultAEHandler()
        key = b"k" * 32
        assert ae.decrypt(key, ae.encrypt(key, b"payload")) == b"payload"

    def test_ka_handler_agreement(self):
        ka = DefaultKAHandler("modp512")
        a, b = ka.generate(), ka.generate()
        assert ka.agree(a, [b.public]) == ka.agree(b, [a.public])

    def test_pg_handler_deterministic(self):
        pg = DefaultPGHandler()
        np.testing.assert_array_equal(
            pg.expand(b"seed", 16, 1 << 16), pg.expand(b"seed", 16, 1 << 16)
        )

    def test_ss_handler_roundtrip(self):
        ss = DefaultSSHandler()
        shares = ss.share(b"secret", 2, [1, 2, 3])
        assert ss.reconstruct([shares[1], shares[3]], 2) == b"secret"

    def test_skellam_handler_requires_init(self):
        h = SkellamDPHandler()
        with pytest.raises(RuntimeError):
            h.encode_data(np.zeros(4), derive_rng("x"))
