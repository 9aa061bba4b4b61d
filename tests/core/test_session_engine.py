"""Session-level engine integration: chunked real-protocol rounds."""

import pytest

from repro.core import DordisConfig, DordisSession
from repro.engine import RoundEngine
from repro.fleet import FixedRateDropout, FleetConfig


def secagg_config(**overrides):
    defaults = dict(
        task="cifar10-like",
        model="softmax",
        mechanism="skellam",
        secure_aggregation="secagg",
        strategy="xnoise",
        num_clients=8,
        sample_size=5,
        rounds=2,
        samples_per_client=15,
        learning_rate=0.1,
        epsilon=6.0,
        clip_bound=1.0,
        dropout_rate=0.2,
        tolerance_fraction=0.4,
        seed=1,
    )
    defaults.update(overrides)
    return DordisConfig(**defaults)


class TestChunkedSecAggSession:
    def test_pipeline_chunks_validated(self):
        with pytest.raises(ValueError):
            secagg_config(pipeline_chunks=0)

    def test_chunked_session_matches_unchunked_accounting(self):
        """Chunking is a pure execution-schedule change: the privacy
        trajectory (a function of the round sequence, not the schedule)
        is untouched."""
        plain = DordisSession(secagg_config(pipeline_chunks=1)).run()
        chunked = DordisSession(secagg_config(pipeline_chunks=3)).run()
        assert chunked.rounds_completed == plain.rounds_completed
        assert chunked.epsilon_consumed == pytest.approx(
            plain.epsilon_consumed, rel=1e-9
        )
        assert chunked.dropout_history == plain.dropout_history

    @pytest.mark.parametrize("chunks", [1, 3])
    def test_past_tolerance_rounds_are_named(self, chunks):
        """T = 1 of 5 sampled: the rounds where two or more dropped ran
        past the tolerance, as the protocol server saw it
        (``XNoiseResult.tolerance_exceeded``) — and as the noise-algebra
        path computes it from the strategy for the same round sequence."""
        shape = dict(tolerance_fraction=0.2, dropout_rate=0.3, rounds=3)
        executed = DordisSession(
            secagg_config(pipeline_chunks=chunks, **shape)
        ).run()
        assert executed.dropout_history == [0.4, 0.2, 0.2]
        assert executed.past_tolerance_rounds == [0]
        simulated = DordisSession(
            secagg_config(secure_aggregation="simulated", **shape)
        ).run()
        assert simulated.past_tolerance_rounds == [0]
        within = DordisSession(secagg_config(pipeline_chunks=chunks)).run()
        assert within.past_tolerance_rounds == []

    def test_round_durations_recorded_per_completed_round(self):
        session = DordisSession(secagg_config(pipeline_chunks=2))
        result = session.run()
        assert len(result.round_seconds_history) == len(result.metric_history)
        # The engine traced real protocol spans for every executed round.
        assert session.engine.trace.spans
        rounds_seen = {s.round_index for s in session.engine.trace.spans}
        assert len(rounds_seen) == result.rounds_completed

    def test_session_traces_are_deterministic(self):
        """The arbiter makes multi-round session traces a pure function
        of the config: two identical runs emit byte-identical traces."""
        first = DordisSession(secagg_config(pipeline_chunks=3))
        second = DordisSession(secagg_config(pipeline_chunks=3))
        first.run()
        second.run()
        assert repr(first.engine.trace.spans) == repr(second.engine.trace.spans)


class TestSessionFleet:
    """The fleet layer drives dropout, link latency, and round timing."""

    def test_default_fleet_records_round_seconds(self):
        """round_seconds_history is meaningful out of the box: the
        fast noise-algebra path records the fleet's modeled
        broadcast → train → upload cost, with directional traffic."""
        session = DordisSession(
            DordisConfig(num_clients=10, sample_size=4, rounds=2,
                         samples_per_client=10, seed=3)
        )
        result = session.run()
        assert len(result.round_seconds_history) == 2
        assert all(t > 0 for t in result.round_seconds_history)
        trace = session.engine.trace
        split = trace.round_traffic_split(0)
        nbytes = 8 * session.model.n_params
        assert split.down == 4 * nbytes          # every sampled client
        assert split.up == 4 * nbytes            # no dropout: all survive
        assert trace.stage_traffic_split(0)["upload"].down == 0
        assert trace.stage_traffic_split(0)["broadcast"].up == 0

    def test_fleet_none_is_refused_by_name(self):
        # Every session runs on a fleet; a live-object round is
        # ``engine=RoundEngine()``, not a fleet-less config.
        with pytest.raises(ValueError, match="fleet must be"):
            DordisConfig(fleet=None)

    def test_secagg_round_seconds_from_fleet_links(self):
        session = DordisSession(secagg_config())
        result = session.run()
        assert all(t > 0 for t in result.round_seconds_history)
        # Measured, not modeled: the trace carries both directions.
        assert session.engine.trace.total_down_bytes > 0
        assert session.engine.trace.total_up_bytes > 0

    def test_trace_availability_churns_dropout(self):
        """availability='trace' derives per-round dropout from the
        behaviour trace: the rate swings instead of sitting at the
        configured constant."""
        session = DordisSession(
            DordisConfig(num_clients=40, sample_size=16, rounds=8,
                         samples_per_client=10, seed=2,
                         fleet=FleetConfig(availability="trace"))
        )
        result = session.run()
        assert len(set(result.dropout_history)) > 1

    def test_dropout_model_override_wins(self):
        from repro.fleet import FixedRateDropout

        session = DordisSession(
            DordisConfig(num_clients=10, sample_size=4, rounds=1,
                         samples_per_client=10,
                         fleet=FleetConfig(availability="trace")),
            dropout_model=FixedRateDropout(0.0),
        )
        assert session.run().dropout_history == [0.0]

    def test_fixed_fleet_reproduces_legacy_dropout_history(self):
        """The fleet's 'fixed' availability draws the exact same
        dropouts a FixedRateDropout at the session's rate and seed does,
        on a live-object engine as on the fleet-priced one."""
        config = secagg_config()
        with_fleet = DordisSession(config).run()
        legacy = DordisSession(
            config,
            dropout_model=FixedRateDropout(config.dropout_rate, seed=config.seed),
            engine=RoundEngine(),
        ).run()
        assert with_fleet.dropout_history == legacy.dropout_history
        assert with_fleet.epsilon_history == legacy.epsilon_history

    def test_bad_fleet_config_rejected(self):
        with pytest.raises(ValueError, match="fleet"):
            secagg_config(fleet="heterogeneous")

    def test_secagg_transport_prices_shifted_ids_on_own_device(self):
        """SecAgg shifts client ids by +1 (Shamir points); the session's
        transport must still resolve protocol id u+1 to client u's
        device — not its neighbour's."""
        session = DordisSession(secagg_config())
        link_seconds = session.engine.transport.link_seconds
        priced = [
            link_seconds(u + 1, 1_000_003, 777_777)
            for u in range(session.config.num_clients)
        ]
        assert priced == [
            session.fleet.link_seconds(u, 1_000_003, 777_777)
            for u in range(session.config.num_clients)
        ]
        assert len(set(priced)) > 1  # heterogeneous: neighbours differ

    def test_secagg_straggler_scales_engine_timing(self):
        """The real-protocol path runs c-comp stages at the sampled
        straggler's pace: with an engine op-cost model, every c-comp
        span is the base duration × the round's straggler factor."""
        from repro.engine import PerOpTiming

        times = {"masked_input": 1.0, "unmask": 2.0}

        def spans_of(session):
            session.run()
            return [
                s for s in session.engine.trace.spans
                if s.label in times and s.resource == "c-comp"
            ]

        base_session = DordisSession(  # every device as fast as the fastest
            secagg_config(rounds=1, fleet=FleetConfig(max_slowdown=1.0)),
            engine=RoundEngine(timing=PerOpTiming(times)),
        )
        fleet_session = DordisSession(
            secagg_config(rounds=1),
            engine=RoundEngine(timing=PerOpTiming(times)),
        )
        base = spans_of(base_session)
        scaled = spans_of(fleet_session)
        assert base and len(base) == len(scaled)
        # Same dropout draws (fixed availability, same seed), so spans
        # pair up; each scaled duration is base × one common factor > 1.
        ratios = {
            round(s.duration / b.duration, 9)
            for b, s in zip(base, scaled)
        }
        assert len(ratios) == 1
        assert ratios.pop() > 1.0

    def test_secagg_survives_below_threshold_round(self):
        """A churn round that drops below the SecAgg threshold aborts
        the *protocol* round, not the session: the update is skipped
        (like an all-dropped round) and training continues."""

        class HeavyThenClear:
            def dropped(self, sampled, round_index):
                return set(sampled[:-2]) if round_index == 0 else set()

        session = DordisSession(
            secagg_config(rounds=2), dropout_model=HeavyThenClear()
        )
        result = session.run()
        # Round 0 aborted below threshold (3 of 5 dropped), round 1 ran.
        assert len(result.dropout_history) == 2
        assert result.dropout_history[0] == pytest.approx(3 / 5)
        assert len(result.metric_history) == 1
        assert result.rounds_completed == 2


class TestSessionWireTransports:
    """`DordisConfig.transport` routes rounds through the wire stack."""

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            secagg_config(transport="carrier-pigeon")

    def test_serialized_transport_refused_by_name(self):
        # On a fleet, "inprocess" is the serialization boundary.
        with pytest.raises(ValueError, match="transport must be inprocess or sockets"):
            secagg_config(transport="serialized")

    def test_serialized_session_matches_inprocess_accounting(self):
        """The serialization boundary changes measurement, not behavior.

        The baseline is a live-object ``RoundEngine()``; the session's own
        ``"inprocess"`` transport is the fleet-priced serialization
        boundary.  (Metric histories are not comparable across runs —
        clients draw masks/seeds from OS randomness — so, as in the
        chunked test, the deterministic trajectories are the bar.)
        """
        config = secagg_config(pipeline_chunks=2)
        base = DordisSession(config, engine=RoundEngine()).run()
        serialized_session = DordisSession(config)
        serialized = serialized_session.run()
        assert serialized.rounds_completed == base.rounds_completed
        assert serialized.epsilon_history == base.epsilon_history
        assert serialized.dropout_history == base.dropout_history
        # And the serialization boundary measured real traffic.
        assert serialized_session.engine.trace.total_traffic_bytes > 0

    @pytest.mark.timeout(300)
    def test_socket_session_matches_inprocess_accounting(self):
        base = DordisSession(secagg_config(rounds=1), engine=RoundEngine()).run()
        socket_session = DordisSession(secagg_config(rounds=1, transport="sockets"))
        over_sockets = socket_session.run()
        assert over_sockets.rounds_completed == base.rounds_completed
        assert over_sockets.epsilon_history == base.epsilon_history
        # Traced traffic equals the framed bytes on the sockets.
        stats = socket_session.engine.transport.closed_connection_stats
        assert socket_session.engine.trace.total_traffic_bytes == sum(
            s.frame_bytes for s in stats
        )
        # Both socket ends agree, handshake included.
        for s in stats:
            assert s.bytes_sent == s.endpoint_received_bytes
            assert s.bytes_received == s.endpoint_sent_bytes

    @pytest.mark.timeout(300)
    def test_priced_inprocess_session_is_the_socket_session_minus_the_socket(self):
        """On the session's fleet, a default (``"inprocess"``) round and
        a round over real connections trace the same spans — begin,
        finish and bytes per direction — so the same per-round virtual
        seconds: the in-process path prices the frames the encoder
        emits on the same links."""
        from repro.engine import SerializingTransport

        def spans(session):
            return [
                (s.label, s.resource, s.begin, s.finish, s.down_bytes, s.up_bytes)
                for s in session.engine.trace.spans
            ]

        in_process = DordisSession(secagg_config(rounds=1))
        assert isinstance(in_process.engine.transport, SerializingTransport)
        over_socket = DordisSession(secagg_config(rounds=1, transport="sockets"))
        a, b = in_process.run(), over_socket.run()
        assert a.round_seconds_history == b.round_seconds_history
        assert a.round_seconds_history[0] > 0
        assert spans(in_process) == spans(over_socket)
