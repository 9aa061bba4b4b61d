"""Fleet-priced transports: one link model, one pricing hook.

``build_transport(name, fleet)`` hands every backend the same hook,
``fleet.link_seconds``.  The acceptance bar: the same asymmetric fleet
must produce *identical* traces — per-direction byte splits and virtual
latencies — whether the round runs in-process with codec-sized
payloads, behind the in-process serialization boundary, or over real
framed TCP sockets; the websocket carrier prices its (honestly larger)
framed bytes on the same links.
"""

from functools import partial

import numpy as np
import pytest

from repro.core.dordis import build_transport
from repro.engine import RoundEngine, SimulatedNetworkTransport
from repro.fleet import DeviceProfile, Fleet
from repro.wire import encoded_nbytes
from repro.wire.ws import envelope_overhead
from tests.engine.test_round_engine import SumClient, SumServer


def asymmetric_fleet():
    return Fleet([
        DeviceProfile(0, compute_factor=1.0, uplink_bps=1e4, downlink_bps=8e4),
        DeviceProfile(1, compute_factor=1.0, uplink_bps=1e6, downlink_bps=4e6),
        DeviceProfile(2, compute_factor=1.0, uplink_bps=5e5, downlink_bps=5e5),
    ])


def run_round(transport):
    engine = RoundEngine(transport=transport)
    clients = [SumClient(u, np.ones(16) * (u + 1)) for u in (0, 1, 2)]
    result = engine.run_round_sync(SumServer(), clients)
    np.testing.assert_allclose(result, np.ones(16) * 6.0)
    return engine.trace


class TestFleetPricedSimulatedLinks:
    def test_latency_is_per_direction_per_client(self):
        fleet = asymmetric_fleet()
        trace = run_round(SimulatedNetworkTransport(fleet.link_seconds))
        encode = trace.round_spans(0)[0]
        down = encoded_nbytes(("encode", None))
        up = encoded_nbytes(np.ones(16) * 1.0)
        worst = max(
            fleet.link_seconds(u, down, up) for u in (0, 1, 2)
        )
        assert encode.duration == worst
        # Slow-uplink client 0 gates: its uplink term dominates.
        assert worst == fleet.link_seconds(0, down, up)
        assert encode.down_bytes == 3 * down
        assert encode.up_bytes == 3 * up

    def test_unknown_transport_name_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            build_transport("carrier-pigeon", asymmetric_fleet())


@pytest.mark.timeout(120)
class TestOneLinkModelThreeCarriers:
    def test_traces_identical_across_backends(self):
        """Same fleet, same round → identical spans (labels, begin,
        finish, down, up) on all three envelope-identical backends."""
        fleet = asymmetric_fleet()
        traces = {
            name: run_round(build_transport(name, fleet))
            for name in ("inprocess", "serialized", "sockets")
        }
        as_tuples = {
            name: [
                (s.label, s.resource, s.begin, s.finish,
                 s.down_bytes, s.up_bytes)
                for s in trace.spans
            ]
            for name, trace in traces.items()
        }
        assert as_tuples["inprocess"] == as_tuples["serialized"]
        assert as_tuples["serialized"] == as_tuples["sockets"]
        # And the round genuinely moved directional bytes.
        split = traces["sockets"].round_traffic_split(0)
        assert split.down > 0 and split.up > 0


@pytest.mark.timeout(120)
class TestWebSocketCarrier:
    def test_ws_trace_equals_fleet_oracle_with_overhead(self):
        """The fourth carrier prices its own (honestly larger) framed
        bytes on the same fleet links: its trace — spans *and* virtual
        latencies — equals the offline fleet-priced oracle carrying
        the documented RFC 6455 framing overhead."""
        fleet = asymmetric_fleet()
        ws_trace = run_round(build_transport("websocket", fleet))
        oracle_trace = run_round(
            SimulatedNetworkTransport(
                fleet.link_seconds,
                overhead_fn=partial(envelope_overhead, "websocket"),
            )
        )
        assert [
            (s.label, s.resource, s.begin, s.finish, s.down_bytes, s.up_bytes)
            for s in ws_trace.spans
        ] == [
            (s.label, s.resource, s.begin, s.finish, s.down_bytes, s.up_bytes)
            for s in oracle_trace.spans
        ]

    def test_ws_carrier_charges_more_bytes_to_the_same_links(self):
        """WS framing rides the same per-direction links, so the
        carrier's comm stages take (slightly) longer than framed TCP —
        more bytes over the same bandwidth, never fewer."""
        fleet = asymmetric_fleet()
        tcp = run_round(build_transport("sockets", fleet))
        ws = run_round(build_transport("websocket", fleet))
        tcp_split = tcp.round_traffic_split(0)
        ws_split = ws.round_traffic_split(0)
        assert ws_split.down > tcp_split.down
        assert ws_split.up > tcp_split.up
        assert ws.completion_time > tcp.completion_time
