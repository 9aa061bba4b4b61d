"""The Appendix-D programming interface: declaration, dispatch, handlers."""

import dataclasses

import numpy as np
import pytest

from repro.api import (
    AggregationRuntime,
    AppClient,
    AppServer,
    PlainDPHandler,
    ProtocolClient,
    ProtocolServer,
    SkellamDPHandler,
    Suite,
    WorkflowError,
)
from repro.crypto.dh import resolve_group
from repro.crypto.entropy import SeededEntropy
from repro.crypto.prg import CounterPRG, PRGReference
from repro.pipeline.stages import Resource
from repro.secagg import (
    DropoutSchedule,
    SecAggClient,
    SecAggConfig,
    SecAggServer,
    run_secagg_round,
    run_secagg_round_reference,
)
from repro.xnoise import (
    XNoiseClient,
    XNoiseConfig,
    run_xnoise_round,
    run_xnoise_round_reference,
)
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


def ring_sum(inputs, ids, modulus):
    return sum(inputs[u] for u in ids) % modulus


class TestSuite:
    """The suite's fields are Appendix D's handler slots."""

    SUITE = Suite.for_group("modp512", SeededEntropy(b"slots" * 4))

    def test_ka_slot_round_trips(self):
        ka, entropy = self.SUITE.ka, self.SUITE.entropy
        a, b = ka.generate(entropy), ka.generate(entropy)
        assert ka.agree(a, [b.public]) == ka.agree(b, [ka.decode_public(ka.public_bytes(a))])

    def test_ae_slot_round_trips(self):
        channel = self.SUITE.ae(b"k" * 32)
        sealed = channel.encrypt(b"payload", self.SUITE.entropy)
        assert self.SUITE.ae(b"k" * 32).decrypt(sealed) == b"payload"

    def test_ss_slot_round_trips(self):
        (shares,) = self.SUITE.ss(2).share([b"secret"], [1, 2, 3], self.SUITE.entropy)
        assert self.SUITE.ss(2).reconstruct([shares[1], shares[3]]) == b"secret"

    def test_prg_slot_is_the_counter_stream_expansion(self):
        np.testing.assert_array_equal(
            self.SUITE.prg.expand(b"seed", 16, 1 << 16),
            PRGReference(b"seed").uniform_vector(16, 1 << 16),
        )

    def test_entropy_slot_is_drawn_per_party(self):
        a, b = self.SUITE.for_party(1, 0), self.SUITE.for_party(2, 0)
        assert a.ka is self.SUITE.ka and a.entropy.seed != b.entropy.seed
        assert a.entropy.token_bytes(32) == self.SUITE.for_party(1, 0).entropy.token_bytes(32)

    @pytest.mark.parametrize("group", ["modp512", "modp2048"])
    def test_default_ka_group_is_the_rounds(self, group):
        """Regression: the default key agreement once ran on modp2048
        whatever group the round named."""
        config = SecAggConfig(threshold=2, dimension=4, dh_group=group)
        assert SecAggClient(1, config).suite.ka.group == resolve_group(group)
        assert SecAggServer(config).suite.ka.group == resolve_group(group)

    @pytest.mark.parametrize("driver", [run_secagg_round, run_secagg_round_reference])
    def test_an_overridden_handler_is_the_one_the_round_runs(self, driver):
        """A PRG a ``client_factory`` overrides masks every input and
        unmasks the sum: the driver builds the server on the clients' suite."""
        expanded = []
        config = SecAggConfig(threshold=3, bits=16, dimension=8, dh_group="modp512")
        rng = derive_rng("suite-override")
        inputs = {u: rng.integers(0, 1 << 12, size=8) for u in range(1, 6)}
        custom = dataclasses.replace(
            Suite.for_group("modp512"), prg=ReseededPRG(expanded)
        )
        result = driver(
            config, inputs, DropoutSchedule.before_upload({5}),
            client_factory=lambda u: SecAggClient(u, config, suite=custom),
        )
        np.testing.assert_array_equal(result.aggregate, ring_sum(inputs, [1, 2, 3, 4], 1 << 16))
        # 4 uploads × (b_u + a pairwise mask per U2 peer, 5 included);
        # the server removes 4 self masks and the 4 masks paired with 5.
        assert len(expanded) == 4 * (1 + 4) + 4 + 4

    @pytest.mark.parametrize("driver", [run_xnoise_round, run_xnoise_round_reference])
    def test_an_overridden_handler_reaches_the_xnoise_server(self, driver):
        """Same noise seeds, another mask PRG: the noisy sum is unchanged."""
        expanded = []
        config = XNoiseConfig(
            secagg=SecAggConfig(threshold=3, bits=18, dimension=32, dh_group="modp512"),
            n_sampled=5,
            tolerance=2,
            target_variance=100.0,
        )
        rng = derive_rng("suite-override-xnoise")
        inputs = {u: rng.integers(-10, 11, size=32) for u in range(1, 6)}
        seeded = Suite.for_group("modp512", SeededEntropy(b"xnoise-override"))

        def aggregate(suite):
            return driver(
                config, inputs, DropoutSchedule.before_upload({5}),
                client_factory=lambda u: XNoiseClient(u, config, suite=suite),
            ).aggregate

        reference = aggregate(seeded)
        custom = aggregate(dataclasses.replace(seeded, prg=ReseededPRG(expanded)))
        np.testing.assert_array_equal(custom, reference)
        assert len(expanded) == 4 * (1 + 4) + 4 + 4


class ReseededPRG(CounterPRG):
    """The counter stream over a prefixed seed, logging each seed it expands."""

    def __init__(self, log: list):
        self.log = log

    def expand(self, seed, length, modulus, out=None, sign=1):
        self.log.append(seed)
        return super().expand(b"alt" + seed, length, modulus, out, sign)


class TestDPHandlers:
    def test_skellam_handler_requires_init(self):
        h = SkellamDPHandler()
        with pytest.raises(RuntimeError):
            h.encode_data(np.zeros(4), derive_rng("x"))
