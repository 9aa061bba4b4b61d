"""An O(d) coordinator, as an executed property (ARCHITECTURE invariant 18).

After every masked-input arrival, and after ``collect_masked``, what the
coordinator can reach — the workflow server, everything it references,
and the response dict the engine hands it — holds exactly one
model-sized array, the ``int64[d]`` sum, and no byte buffer the size of
a packed input (``d·b/8``) or larger: no client's vector, no frame, no
stream.  The same at 4 clients and at 16, in process (live objects) and
over sockets (frames): coordinator memory does not grow with the cohort.
"""

import gc
import types

import numpy as np
import pytest

from repro.engine import InProcessTransport, RoundEngine, SocketTransport, run_sync
from repro.secagg.driver import secagg_round_components
from repro.secagg.types import SecAggConfig
from repro.secagg.workflow import SecAggWorkflowServer
from repro.xnoise.protocol import XNoiseConfig, XNoiseWorkflowServer, xnoise_round_components

DIM = 4096
BITS = 20
PACKED = DIM * BITS // 8  # 10 KiB: far above any key, share or roster entry

_OPAQUE = (
    type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
    types.MethodType, types.FrameType, types.CodeType,
)


def census(roots):
    """``(model-sized arrays, packed-input-sized byte buffers)`` reachable
    from ``roots`` through ``gc.get_referents`` (plus an array's base and
    a memoryview's object, which the collector does not report)."""
    seen, stack = set(), list(roots)
    arrays, buffers = [], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.nbytes >= PACKED:
                arrays.append((str(obj.dtype), obj.shape))
            if obj.base is not None:
                stack.append(obj.base)
        elif isinstance(obj, memoryview):
            if obj.nbytes >= PACKED:
                buffers.append(("memoryview", obj.nbytes))
            stack.append(obj.obj)
        elif isinstance(obj, (bytes, bytearray)):
            if len(obj) >= PACKED:
                buffers.append((type(obj).__name__, len(obj)))
        else:
            stack.extend(gc.get_referents(obj))
    return arrays, buffers


def watched(base):
    """``base`` (a workflow server class) taking a census at every
    arrival and on both sides of ``collect_masked``."""

    class Watched(base):
        def __init__(self, inner):
            super().__init__(inner)
            self.log = []

        def receive_response(self, op, client_id, response):
            receipt = super().receive_response(op, client_id, response)
            if op == "masked_input":
                self.log.append(("arrival", client_id, receipt, census([self])))
            return receipt

        def collect_masked(self, receipts):
            self.log.append(("collect", None, dict(receipts), census([self, receipts])))
            out = super().collect_masked(receipts)
            self.log.append(("collected", None, None, census([self, receipts, out])))
            return out

    return Watched


def _components(protocol, n):
    config = SecAggConfig(threshold=n // 2 + 1, bits=BITS, dimension=DIM, dh_group="modp512")
    rng = np.random.default_rng([18, n])
    ids = range(1, n + 1)
    if protocol == "secagg":
        inputs = {u: rng.integers(0, config.modulus, size=DIM, dtype=np.int64) for u in ids}
        server, clients = secagg_round_components(config, inputs)
        return watched(SecAggWorkflowServer)(server.inner), clients, inputs, config
    xconfig = XNoiseConfig(secagg=config, n_sampled=n, tolerance=1, target_variance=64.0)
    inputs = {u: rng.integers(-50, 50, size=DIM, dtype=np.int64) for u in ids}
    server, clients = xnoise_round_components(xconfig, inputs)
    return watched(XNoiseWorkflowServer)(server.inner), clients, inputs, config


TRANSPORTS = {"in-process": InProcessTransport, "sockets": SocketTransport}


@pytest.mark.timeout(120)
@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("protocol", ["secagg", "xnoise"])
def test_the_coordinator_holds_one_vector_at_any_cohort_size(protocol, n, transport):
    server, clients, inputs, config = _components(protocol, n)
    engine = RoundEngine(transport=TRANSPORTS[transport]())
    result = run_sync(engine.run_round(server, clients))

    events = [entry[0] for entry in server.log]
    assert events == ["arrival"] * n + ["collect", "collected"]
    assert sorted(entry[1] for entry in server.log[:n]) == list(range(1, n + 1))
    for event, client, receipts, (arrays, buffers) in server.log:
        assert arrays == [("int64", (DIM,))], (event, client, arrays)
        assert buffers == [], (event, client, buffers)
        if event == "arrival":
            assert receipts is True
        if event == "collect":  # what the engine kept of n masked inputs
            assert receipts == {u: True for u in range(1, n + 1)}

    assert result.u3 == list(range(1, n + 1))
    if protocol == "secagg":
        expected = sum(inputs.values()) % config.modulus
        np.testing.assert_array_equal(result.aggregate, expected)


def test_the_census_sees_what_the_parent_kept():
    """The walk is not vacuous: a server that keeps vectors, streams or
    frames the way the pre-fold coordinator did is caught."""
    server, _, inputs, _ = _components("secagg", 4)
    assert census([server]) == ([], [])
    server.inner._masked = {u: v for u, v in inputs.items()}
    arrays, _ = census([server])
    assert arrays == [("int64", (DIM,))] * 4
    del server.inner._masked
    frame = bytes(PACKED + 21)
    server.inner.kept = {"view": memoryview(frame)[21:], "sliced": np.frombuffer(frame, np.uint8)[21:]}
    arrays, buffers = census([server])
    assert ("memoryview", PACKED) in buffers and ("bytes", PACKED + 21) in buffers
    assert ("uint8", (PACKED,)) in arrays  # and its base, the whole frame
