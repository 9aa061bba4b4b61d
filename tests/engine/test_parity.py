"""Engine vs. legacy synchronous drivers: bit-identical regression.

The acceptance bar for the engine port: with the in-process transport,
the engine paths must reproduce the retained reference implementations
*exactly* — aggregates, participant sets, and traffic accounting.

The wire-transport classes extend the bar: a round executed over
``SocketTransport`` (real framed TCP or RFC 6455 connections) or
``SerializingTransport()`` must be bit-identical — aggregates,
participant sets, and traces — to in-process execution.
"""

import numpy as np
import pytest

from repro.api import AggregationRuntime, PlainDPHandler, SkellamDPHandler
from repro.api.protocol import ProtocolClient, ProtocolServer
from repro.engine import (
    InProcessTransport,
    RoundEngine,
    SerializingTransport,
    SocketTransport,
    run_sync,
)
from repro.secagg.driver import (
    DropoutSchedule,
    arun_secagg_round,
    run_secagg_round,
    run_secagg_round_reference,
)
from repro.secagg.types import (
    SecAggConfig,
    STAGE_SHARE_KEYS,
    STAGE_MASKED_INPUT,
    STAGE_CONSISTENCY,
    STAGE_UNMASK,
    STAGE_NOISE_REMOVAL,
)
from repro.utils.rng import derive_rng
from repro.xnoise.protocol import (
    XNoiseClient,
    XNoiseConfig,
    arun_xnoise_round,
    run_xnoise_round,
    run_xnoise_round_reference,
)

CONFIG = SecAggConfig(threshold=3, bits=16, dimension=8, dh_group="modp512")

SCHEDULES = [
    ("none", None),
    ("before-upload", DropoutSchedule.before_upload({2, 4})),
    ("share-keys", DropoutSchedule(at_stage={STAGE_SHARE_KEYS: {5}})),
    ("mid-unmask", DropoutSchedule(at_stage={STAGE_UNMASK: {3}})),
    ("consistency", DropoutSchedule(at_stage={STAGE_CONSISTENCY: {1}})),
    (
        "staggered",
        DropoutSchedule(
            at_stage={STAGE_MASKED_INPUT: {2}, STAGE_UNMASK: {4}}
        ),
    ),
]


def _inputs(n=5, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return {u: rng.integers(0, 1 << 16, size=dim) for u in range(1, n + 1)}


def _same_round(a, b):
    return (
        np.array_equal(a.aggregate, b.aggregate)
        and a.u1 == b.u1
        and a.u2 == b.u2
        and a.u3 == b.u3
        and a.u4 == b.u4
        and a.u5 == b.u5
    )


class TestSecAggParity:
    @pytest.mark.parametrize("name,schedule", SCHEDULES)
    def test_engine_matches_reference(self, name, schedule):
        inputs = _inputs()
        engine_result = run_secagg_round(CONFIG, dict(inputs), schedule)
        reference = run_secagg_round_reference(CONFIG, dict(inputs), schedule)
        assert _same_round(engine_result, reference)
        # The unmasked sum is exactly the ring sum over U3 — the
        # strongest bit-identical check available.
        expected = np.zeros(CONFIG.dimension, dtype=np.int64)
        for u in engine_result.u3:
            expected = (expected + inputs[u]) % CONFIG.modulus
        np.testing.assert_array_equal(engine_result.aggregate, expected)

    def test_malicious_mode_parity(self):
        config = SecAggConfig(
            threshold=3, bits=16, dimension=4, malicious=True, dh_group="modp512"
        )
        inputs = _inputs(n=5, dim=4, seed=3)
        schedule = DropoutSchedule.before_upload({2})
        a = run_secagg_round(config, dict(inputs), schedule)
        b = run_secagg_round_reference(config, dict(inputs), schedule)
        assert _same_round(a, b)


class TestXNoiseParity:
    XCONFIG = XNoiseConfig(
        secagg=CONFIG, n_sampled=5, tolerance=2, target_variance=4.0
    )

    def _factory(self):
        """Deterministic noise seeds so both paths add identical noise."""
        xconfig = self.XCONFIG

        def make(u):
            rng = derive_rng("parity-seeds", u)
            n = xconfig.decomposition().n_components
            return XNoiseClient(
                u, xconfig, noise_seeds=[rng.bytes(32) for _ in range(n)]
            )

        return make

    @pytest.mark.parametrize(
        "name,schedule",
        SCHEDULES
        + [
            (
                "stage5-recovery",
                DropoutSchedule(
                    at_stage={STAGE_UNMASK: {4}, STAGE_NOISE_REMOVAL: {5}}
                ),
            )
        ],
    )
    def test_engine_matches_reference(self, name, schedule):
        inputs = {
            u: np.random.default_rng(u).integers(-40, 40, size=8)
            for u in range(1, 6)
        }
        a = run_xnoise_round(
            self.XCONFIG, dict(inputs), schedule, client_factory=self._factory()
        )
        b = run_xnoise_round_reference(
            self.XCONFIG, dict(inputs), schedule, client_factory=self._factory()
        )
        assert _same_round(a, b)
        assert a.u6 == b.u6
        assert a.removed_noise_components == b.removed_noise_components
        assert a.residual_variance == b.residual_variance
        assert a.tolerance_exceeded == b.tolerance_exceeded
        assert a.n_dropped == b.n_dropped


def _make_transport(name):
    if name == "serialized":
        return SerializingTransport()
    return SocketTransport()


#: Every wire-crossing backend: the in-process serialization boundary
#: and real framed-TCP connections — with the in-process baseline they
#: make three parity-tested transports.
WIRE_TRANSPORTS = ["serialized", "sockets"]


def _timing_spans(trace):
    """Trace spans minus traffic (in-process execution never serializes,
    so its spans carry 0 traffic by construction)."""
    return [
        (s.round_index, s.chunk, s.stage, s.label, s.resource, s.begin, s.finish)
        for s in trace.spans
    ]


@pytest.mark.timeout(300)
class TestWireTransportParity:
    """Rounds over a genuine serialization boundary ≡ in-process rounds.

    Bit-identical aggregates, participant sets, metered traffic, and
    (timing-wise) traces — plus: the serializing and socket paths must
    *measure* identical framed traffic, since they emit the same frames.
    """

    @pytest.mark.parametrize("name,schedule", SCHEDULES)
    @pytest.mark.parametrize("transport_name", WIRE_TRANSPORTS)
    def test_secagg_round_identical(self, transport_name, name, schedule):
        inputs = _inputs()
        base_engine = RoundEngine(transport=InProcessTransport())
        base = run_sync(
            arun_secagg_round(CONFIG, dict(inputs), schedule, engine=base_engine)
        )
        wire_engine = RoundEngine(transport=_make_transport(transport_name))
        over_wire = run_sync(
            arun_secagg_round(CONFIG, dict(inputs), schedule, engine=wire_engine)
        )
        assert _same_round(base, over_wire)
        assert _timing_spans(wire_engine.trace) == _timing_spans(base_engine.trace)
        # Every client stage actually moved bytes.
        dispatched = [s for s in wire_engine.trace.spans if s.resource == "c-comp"]
        assert dispatched and all(s.traffic_bytes > 0 for s in dispatched)

    @pytest.mark.parametrize("transport_name", WIRE_TRANSPORTS)
    def test_xnoise_round_identical(self, transport_name):
        xconfig = XNoiseConfig(
            secagg=CONFIG, n_sampled=5, tolerance=2, target_variance=4.0
        )

        def factory(u):
            rng = derive_rng("wire-parity-seeds", u)
            n = xconfig.decomposition().n_components
            return XNoiseClient(
                u, xconfig, noise_seeds=[rng.bytes(32) for _ in range(n)]
            )

        inputs = {
            u: np.random.default_rng(u).integers(-40, 40, size=8)
            for u in range(1, 6)
        }
        schedule = DropoutSchedule(
            at_stage={STAGE_UNMASK: {4}, STAGE_NOISE_REMOVAL: {5}}
        )
        base_engine = RoundEngine(transport=InProcessTransport())
        base = run_sync(
            arun_xnoise_round(
                xconfig, dict(inputs), schedule,
                client_factory=factory, engine=base_engine,
            )
        )
        wire_engine = RoundEngine(transport=_make_transport(transport_name))
        over_wire = run_sync(
            arun_xnoise_round(
                xconfig, dict(inputs), schedule,
                client_factory=factory, engine=wire_engine,
            )
        )
        assert _same_round(base, over_wire)
        assert base.u6 == over_wire.u6
        assert base.removed_noise_components == over_wire.removed_noise_components
        assert base.residual_variance == over_wire.residual_variance
        assert _timing_spans(wire_engine.trace) == _timing_spans(base_engine.trace)

    def test_serialized_and_sockets_measure_identical_traffic(self):
        inputs = _inputs()
        traffic = {}
        for transport_name in ("serialized", "sockets"):
            engine = RoundEngine(transport=_make_transport(transport_name))
            run_sync(
                arun_secagg_round(CONFIG, dict(inputs), None, engine=engine)
            )
            traffic[transport_name] = [
                s.traffic_bytes for s in engine.trace.spans
            ]
        assert traffic["serialized"] == traffic["sockets"]
        assert sum(traffic["sockets"]) > 0


#: The in-process baseline and the two wire-crossing backends.
ALL_CARRIERS = ["in-process"] + WIRE_TRANSPORTS


def _carrier(name):
    return InProcessTransport() if name == "in-process" else _make_transport(name)


#: ``(n_chunks, malicious, bits)``: whole and in four chunks, both modes,
#: the deferred sum (20 bits) and the no-headroom fallback (62).  Every
#: carrier runs every shape but the slowest — signatures on every chunk —
#: which one wire carrier covers (against the reference and the
#: in-process trace alike).
_FOLD_SHAPES = [(1, False, 20), (1, False, 62), (4, False, 20), (4, False, 62), (1, True, 20)]
FOLD_CASES = [
    (carrier, *shape) for carrier in ALL_CARRIERS for shape in _FOLD_SHAPES
] + [("sockets", 4, True, 62)]


@pytest.mark.timeout(300)
@pytest.mark.parametrize("carrier,n_chunks,malicious,bits", FOLD_CASES)
class TestArrivalFoldParity:
    """The one-pass data plane — a masked input packed by the client's
    accumulator, folded by the coordinator as its frame lands, never a
    vector in between — against the serial reference drivers, which go
    through the same admission door one client at a time: aggregates and
    U-sets bit-identical on all three carriers, both modes, whole and in
    four chunks, with and without int64 headroom; traces identical to
    in-process execution."""

    DIM = 50  # four chunks of 13, 13, 12, 12
    SCHEDULE = DropoutSchedule(at_stage={STAGE_MASKED_INPUT: {2}, STAGE_UNMASK: {4}})
    #: In-process timing spans per (protocol, shape): the trace every
    #: carrier must reproduce, executed once.
    _baseline: dict = {}

    def _assert_trace_is_the_in_process_one(
        self, key, carrier, spans, components, inputs, n_chunks
    ):
        if carrier == "in-process":
            self._baseline.setdefault(key, spans)
        elif key not in self._baseline:
            self._baseline[key] = self._run("in-process", components, inputs, n_chunks)[1]
        assert spans == self._baseline[key]

    def _chunks(self, inputs, n_chunks):
        from repro.pipeline.chunking import split_vector

        per_client = {u: split_vector(v, n_chunks) for u, v in inputs.items()}
        return [{u: parts[j] for u, parts in per_client.items()} for j in range(n_chunks)]

    def _run(self, carrier, components, inputs, n_chunks):
        """Engine execution: ``(chunk results, timing spans)``."""
        from repro.secagg.workflow import with_dropout

        engine = RoundEngine(transport=_carrier(carrier))
        transport = with_dropout(engine.transport, self.SCHEDULE)
        if n_chunks == 1:
            server, clients = components(0, inputs)
            results = [run_sync(engine.run_round(server, clients, transport=transport))]
        else:
            chunked = run_sync(
                engine.run_chunked_round(components, inputs, n_chunks, transport=transport)
            )
            results = chunked.chunk_results
            np.testing.assert_array_equal(
                chunked.result, np.concatenate([r.aggregate for r in results])
            )
        return results, _timing_spans(engine.trace)

    def test_secagg(self, carrier, n_chunks, malicious, bits):
        from dataclasses import replace

        from repro.crypto.pki import PublicKeyInfrastructure
        from repro.secagg.driver import secagg_round_components

        config = SecAggConfig(
            threshold=3, bits=bits, dimension=self.DIM, malicious=malicious,
            dh_group="modp512",
        )
        rng = np.random.default_rng([24, bits])
        inputs = {
            u: rng.integers(0, config.modulus, size=self.DIM, dtype=np.int64)
            for u in range(1, 7)
        }

        def components(j, chunk_inputs):
            dim = next(iter(chunk_inputs.values())).shape[0]
            return secagg_round_components(replace(config, dimension=dim), chunk_inputs)

        results, spans = self._run(carrier, components, inputs, n_chunks)
        for result, chunk_inputs in zip(results, self._chunks(inputs, n_chunks)):
            dim = next(iter(chunk_inputs.values())).shape[0]
            reference = run_secagg_round_reference(
                replace(config, dimension=dim), chunk_inputs, self.SCHEDULE,
                pki=PublicKeyInfrastructure() if malicious else None,
            )
            assert _same_round(result, reference)
            assert result.u3 == [1, 3, 4, 5, 6] and result.u5 == [1, 3, 5, 6]
            expected = np.array(
                [sum(int(chunk_inputs[u][i]) for u in result.u3) % config.modulus
                 for i in range(dim)],
                dtype=np.int64,
            )
            np.testing.assert_array_equal(result.aggregate, expected)
        self._assert_trace_is_the_in_process_one(
            ("secagg", n_chunks, malicious, bits), carrier, spans, components, inputs, n_chunks
        )

    def test_xnoise(self, carrier, n_chunks, malicious, bits):
        from dataclasses import replace

        from repro.crypto.pki import PublicKeyInfrastructure
        from repro.xnoise.protocol import xnoise_round_components

        xconfig = XNoiseConfig(
            secagg=SecAggConfig(
                threshold=4, bits=bits, dimension=self.DIM, malicious=malicious,
                dh_group="modp512",
            ),
            n_sampled=6, tolerance=2, target_variance=4.0,
        )
        inputs = {
            u: np.random.default_rng([u, bits]).integers(-40, 40, size=self.DIM)
            for u in range(1, 7)
        }

        def factory(pki, signers=None):
            # Pinned noise seeds (both paths add identical noise); in
            # malicious mode each client signs with its registered key.
            def make(u):
                rng = derive_rng("arrival-fold-seeds", u)
                return XNoiseClient(
                    u, make.config,
                    noise_seeds=[
                        rng.bytes(32)
                        for _ in range(make.config.decomposition().n_components)
                    ],
                    signer=None if signers is None else signers[u],
                    pki=pki,
                )

            return make

        def pki_and_factory(chunk_config):
            pki = signers = None
            if malicious:
                pki = PublicKeyInfrastructure()
                signers = {u: pki.register(u) for u in sorted(inputs)}
            make = factory(pki, signers)
            make.config = chunk_config
            return pki, make

        def components(j, chunk_inputs):
            dim = next(iter(chunk_inputs.values())).shape[0]
            chunk_config = replace(xconfig, secagg=replace(xconfig.secagg, dimension=dim))
            pki, make = pki_and_factory(chunk_config)
            return xnoise_round_components(
                chunk_config, chunk_inputs, pki=pki, client_factory=make
            )

        results, spans = self._run(carrier, components, inputs, n_chunks)
        for result, chunk_inputs in zip(results, self._chunks(inputs, n_chunks)):
            dim = next(iter(chunk_inputs.values())).shape[0]
            chunk_config = replace(xconfig, secagg=replace(xconfig.secagg, dimension=dim))
            pki, make = pki_and_factory(chunk_config)
            reference = run_xnoise_round_reference(
                chunk_config, chunk_inputs, self.SCHEDULE, pki=pki, client_factory=make
            )
            assert _same_round(result, reference)
            assert result.u6 == reference.u6
            assert result.removed_noise_components == reference.removed_noise_components
            assert result.n_dropped == reference.n_dropped == 1
        self._assert_trace_is_the_in_process_one(
            ("xnoise", n_chunks, malicious, bits), carrier, spans, components, inputs, n_chunks
        )


class TestRuntimeParity:
    """AggregationRuntime (now engine-backed) vs the old serial walk."""

    class MeanServer(ProtocolServer):
        def __init__(self, dp):
            self.dp = dp

        def set_graph_dict(self):
            return {
                "encode_data": {"resource": "c-comp", "deps": []},
                "aggregate": {"resource": "s-comp", "deps": ["encode_data"]},
                "decode_data": {"resource": "s-comp", "deps": ["aggregate"]},
            }

        def aggregate(self, encoded):
            total = None
            for vec in encoded.values():
                total = vec if total is None else total + vec
            return total

        def decode_data(self, aggregate):
            return self.dp.decode_data(aggregate)

    class MeanClient(ProtocolClient):
        def __init__(self, client_id, dp):
            super().__init__(client_id)
            self.dp = dp
            self._rng = derive_rng("parity-client", client_id)

        def set_routine(self):
            return {"encode_data": self._encode}

        def _encode(self, payload):
            return self.dp.encode_data(payload, self._rng)

    def _handlers(self, dim):
        def make():
            h = SkellamDPHandler()
            h.init_params(dimension=dim, clip_bound=2.0, bits=20, scale=128.0)
            return h

        return make

    def _legacy_run_round(self, server, clients, inputs):
        """The pre-engine serial walk, verbatim semantics."""
        graph = server.set_graph_dict()
        carry = inputs
        for op in server.workflow_order():
            if graph[op]["resource"] == "c-comp":
                responses = {}
                for cid, client in clients.items():
                    payload = (
                        carry[cid]
                        if isinstance(carry, dict) and cid in carry
                        else carry
                    )
                    responses[cid] = client.handle(op, payload)
                carry = responses
            else:
                carry = server.operation_method(op)(carry)
        return carry

    def test_skellam_datapath_identical(self):
        dim = 16
        vectors = {
            i: derive_rng("parity-vec", i).normal(size=dim) * 0.1
            for i in range(3)
        }
        make = self._handlers(dim)

        engine_clients = [self.MeanClient(i, make()) for i in range(3)]
        runtime = AggregationRuntime(self.MeanServer(make()), engine_clients)
        engine_result = runtime.engine.run_round_sync(
            runtime.server, runtime.clients, inputs=dict(vectors)
        )

        legacy_clients = {i: self.MeanClient(i, make()) for i in range(3)}
        legacy_result = self._legacy_run_round(
            self.MeanServer(make()), legacy_clients, dict(vectors)
        )
        np.testing.assert_array_equal(engine_result, legacy_result)

    def test_plain_sum_identical(self):
        vectors = {i: np.full(6, float(i + 1)) for i in range(4)}
        clients = [self.MeanClient(i, PlainDPHandler()) for i in range(4)]
        runtime = AggregationRuntime(self.MeanServer(PlainDPHandler()), clients)
        result = runtime.engine.run_round_sync(
            runtime.server, runtime.clients, inputs=dict(vectors)
        )
        legacy = self._legacy_run_round(
            self.MeanServer(PlainDPHandler()),
            {i: self.MeanClient(i, PlainDPHandler()) for i in range(4)},
            dict(vectors),
        )
        np.testing.assert_array_equal(result, legacy)


@pytest.mark.timeout(300)
class TestCrossProcessParity:
    """A round whose parties are separate OS processes (`repro.cli
    serve` + N `repro.cli join`) is bit-identical to the same round
    executed in-process: aggregate, participant sets, every traced
    span's virtual timing and per-direction traffic."""

    N = 3
    DIMENSION = 8

    def _serve_join(self):
        import json
        import os
        import subprocess
        import sys as _sys

        import repro

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        serve = subprocess.Popen(
            [_sys.executable, "-m", "repro.cli", "serve",
             "--clients", str(self.N), "--dimension", str(self.DIMENSION),
             "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = serve.stdout.readline().split()
            assert line[:1] == ["listening"], line
            port = line[2]
            joins = [
                subprocess.Popen(
                    [_sys.executable, "-m", "repro.cli", "join",
                     "--client-id", str(u), "--clients", str(self.N),
                     "--dimension", str(self.DIMENSION), "--port", port],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True, env=env,
                )
                for u in range(1, self.N + 1)
            ]
            out, err = serve.communicate(timeout=180)
            assert serve.returncode == 0, err
            doc = json.loads(out)
            endpoints = []
            for j in joins:
                jout, jerr = j.communicate(timeout=60)
                assert j.returncode == 0, jerr
                endpoints.append(json.loads(jout))
            return doc, endpoints
        finally:
            if serve.poll() is None:
                serve.kill()

    def test_cross_process_round_bit_identical(self):
        doc, endpoints = self._serve_join()

        config = SecAggConfig(
            threshold=max(2, self.N // 2 + 1), bits=16,
            dimension=self.DIMENSION, dh_group="modp512",
        )
        rng = derive_rng("sockets-demo", 0)
        inputs = {
            u: rng.integers(0, config.modulus, size=self.DIMENSION)
            for u in range(1, self.N + 1)
        }
        engine = RoundEngine(transport=SocketTransport())
        result = run_sync(
            arun_secagg_round(config, dict(inputs), None, engine=engine)
        )

        assert doc["aggregate_ok"] and doc["balanced"]
        assert doc["u3"] == sorted(result.u3)
        assert doc["u5"] == sorted(result.u5)
        assert doc["aggregate"] == [int(x) for x in result.aggregate]
        # Span for span: same labels, same virtual clock, same framed
        # per-direction byte counts — the wire contract does not care
        # which process the state machines run in.
        assert doc["spans"] == [
            {"label": s.label, "begin": s.begin, "finish": s.finish,
             "down": s.down_bytes, "up": s.up_bytes}
            for s in engine.trace.spans
        ]
        split = engine.trace.round_traffic_split(0)
        assert doc["traffic"] == {
            "down": split.down, "up": split.up,
            "total": engine.trace.round_traffic_bytes(0),
        }
        # Both socket ends agree per direction, across the process
        # boundary: what each join process sent is what the coordinator
        # counted as that connection's uplink, and vice versa.
        assert doc["connections"] == self.N
        assert sum(e["response_bytes"] for e in endpoints) == split.up
        assert sum(e["request_bytes"] for e in endpoints) == split.down
