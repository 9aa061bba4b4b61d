"""Fleet-priced transports: one link model, one pricing hook.

``build_transport(name, fleet)`` hands every backend the same hook,
``fleet.link_seconds``.  The acceptance bar: the same asymmetric fleet
must produce *identical* traces — per-direction byte splits and virtual
latencies — whether the round runs in-process (the serialization
boundary: the socket round minus the socket) or over real framed TCP
sockets.
"""

import numpy as np
import pytest

from repro.core.dordis import build_transport
from repro.engine import RoundEngine, SerializingTransport
from repro.fleet import Fleet, ProfileColumns
from repro.wire import KIND_REQUEST, KIND_RESPONSE
from repro.wire.codecs import encode_payload_frame
from tests.engine.test_round_engine import SumClient, SumServer


def asymmetric_fleet():
    return Fleet(ProfileColumns(
        compute_factor=np.ones(3),
        uplink_bps=np.array([1e4, 1e6, 5e5]),
        downlink_bps=np.array([8e4, 4e6, 5e5]),
    ))


def run_round(transport):
    engine = RoundEngine(transport=transport)
    clients = [SumClient(u, np.ones(16) * (u + 1)) for u in (0, 1, 2)]
    result = engine.run_round_sync(SumServer(), clients)
    np.testing.assert_allclose(result, np.ones(16) * 6.0)
    return engine.trace


class TestFleetPricedInProcessLinks:
    def test_latency_is_per_direction_per_client(self):
        fleet = asymmetric_fleet()
        trace = run_round(build_transport("inprocess", fleet))
        encode = trace.round_spans(0)[0]
        down = len(encode_payload_frame(KIND_REQUEST, ("encode", None)))
        up = len(encode_payload_frame(KIND_RESPONSE, np.ones(16) * 1.0))
        worst = max(
            fleet.link_seconds(u, down, up) for u in (0, 1, 2)
        )
        assert encode.duration == worst
        # Slow-uplink client 0 gates: its uplink term dominates.
        assert worst == fleet.link_seconds(0, down, up)
        assert encode.down_bytes == 3 * down
        assert encode.up_bytes == 3 * up

    def test_priced_inprocess_is_the_serializing_boundary(self):
        transport = build_transport("inprocess", asymmetric_fleet())
        assert isinstance(transport, SerializingTransport)

    def test_unknown_transport_name_rejected(self):
        for name in ("carrier-pigeon", "serialized"):
            with pytest.raises(ValueError, match="unknown transport"):
                build_transport(name, asymmetric_fleet())


@pytest.mark.timeout(120)
class TestOneLinkModelThreeCarriers:
    def test_traces_identical_across_backends(self):
        """Same fleet, same round → identical spans (labels, begin,
        finish, down, up) on both envelope-identical backends."""
        fleet = asymmetric_fleet()
        traces = {
            name: run_round(build_transport(name, fleet))
            for name in ("inprocess", "sockets")
        }
        as_tuples = {
            name: [
                (s.label, s.resource, s.begin, s.finish,
                 s.down_bytes, s.up_bytes)
                for s in trace.spans
            ]
            for name, trace in traces.items()
        }
        assert as_tuples["inprocess"] == as_tuples["sockets"]
        # And the round genuinely moved directional bytes.
        split = traces["sockets"].round_traffic_split(0)
        assert split.down > 0 and split.up > 0

