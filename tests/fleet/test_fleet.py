"""Fleet: availability derivation, directional round costs, config, and
the named refusal of an id outside the population."""

import numpy as np
import pytest

from repro.fleet import (
    AlwaysAvailable,
    Fleet,
    FleetConfig,
    FixedRateDropout,
    ProfileColumns,
    TraceDrivenDropout,
    build_availability,
)
from tests.oracles.fleet import heterogeneous_fleet_reference


def toy_fleet(availability=None):
    columns = ProfileColumns(
        compute_factor=np.array([1.0, 4.0, 2.0]),
        uplink_bps=np.array([100.0, 50.0, 25.0]),
        downlink_bps=np.array([400.0, 200.0, 800.0]),
    )
    return Fleet(columns, availability)


class TestFleetQueries:
    def test_straggler_and_gating(self):
        fleet = toy_fleet()
        assert fleet.straggler_factor([0, 1, 2]) == 4.0
        cost = fleet.round_cost([0, 1, 2], [0, 1, 2], update_nbytes=400)
        # Broadcast gated by slowest downlink (client 1: 200 B/s).
        assert cost.down_seconds == pytest.approx(2.0)
        # Upload gated by slowest uplink (client 2: 25 B/s).
        assert cost.up_seconds == pytest.approx(16.0)
        with pytest.raises(ValueError):
            fleet.straggler_factor([])

    def test_link_seconds_uses_each_clients_own_links(self):
        fleet = toy_fleet()
        assert fleet.link_seconds(2, 800, 25) == pytest.approx(1.0 + 1.0)

    def test_round_cost_directional(self):
        fleet = toy_fleet()
        cost = fleet.round_cost([0, 1, 2], [0, 2], update_nbytes=400,
                                compute_seconds=1.5)
        assert cost.down_seconds == pytest.approx(2.0)      # slowest downlink
        assert cost.compute_seconds == pytest.approx(6.0)   # 1.5 × straggler 4
        assert cost.up_seconds == pytest.approx(16.0)       # 400 / 25
        assert cost.down_bytes == 3 * 400   # every sampled client downloads
        assert cost.up_bytes == 2 * 400     # only survivors upload
        assert cost.total_seconds == pytest.approx(2.0 + 6.0 + 16.0)

    def test_round_cost_no_survivors(self):
        cost = toy_fleet().round_cost([0, 1], [], update_nbytes=100)
        assert cost.up_seconds == 0.0 and cost.up_bytes == 0
        assert cost.down_bytes == 200


class TestAvailability:
    def test_default_is_always_available(self):
        fleet = toy_fleet()
        assert isinstance(fleet.availability, AlwaysAvailable)
        assert fleet.dropped([0, 1, 2], 0) == set()

    def test_fixed_availability_matches_legacy_dropout(self):
        """build_availability('fixed') must reproduce the session's old
        hard-wired FixedRateDropout draws exactly."""
        model = build_availability(
            "fixed", n_clients=30, horizon=10, dropout_rate=0.3, seed=5
        )
        legacy = FixedRateDropout(0.3, seed=5)
        sampled = list(range(12))
        for r in range(10):
            assert model.dropped(sampled, r) == legacy.dropped(sampled, r)

    def test_zero_rate_degenerates_to_always_available(self):
        model = build_availability("fixed", n_clients=5, horizon=3)
        assert isinstance(model, AlwaysAvailable)

    def test_trace_availability_churns(self):
        model = build_availability("trace", n_clients=40, horizon=30, seed=3)
        assert isinstance(model, TraceDrivenDropout)
        sampled = list(range(16))
        rates = [len(model.dropped(sampled, r)) / 16 for r in range(30)]
        # Fig.-1a shape: the rate actually swings round to round.
        assert len({round(r, 3) for r in rates}) > 3

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="availability"):
            build_availability("weather", n_clients=4, horizon=2)


class TestFleetBuild:
    def test_build_is_deterministic(self):
        a = Fleet.build(20, FleetConfig(), dropout_rate=0.2, seed=9)
        b = Fleet.build(20, FleetConfig(), dropout_rate=0.2, seed=9)
        assert a.columns.uplink_bps.tolist() == b.columns.uplink_bps.tolist()
        assert a.dropped(list(range(10)), 3) == b.dropped(list(range(10)), 3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(availability="sometimes")
        # "trace" already picks the lazy stream by size and correlation.
        with pytest.raises(ValueError, match="fixed or trace"):
            FleetConfig(availability="session")
        with pytest.raises(ValueError):
            FleetConfig(max_slowdown=0.5)
        with pytest.raises(ValueError):
            FleetConfig(compute_seconds=-1.0)
        with pytest.raises(ValueError):
            FleetConfig(correlation=1.5)
        # The fixed-rate model has no per-device availability to couple.
        with pytest.raises(ValueError, match="correlation"):
            FleetConfig(availability="fixed", correlation=0.4)
        FleetConfig(availability="trace", correlation=0.4)
        FleetConfig(availability="trace", correlation=-0.4)

    def test_empty_fleet_rejected(self):
        empty = np.empty(0)
        with pytest.raises(ValueError):
            Fleet(ProfileColumns(empty, empty, empty))


class TestIdOffset:
    def test_shifted_view_addresses_same_profiles(self):
        """Protocols that re-index clients (SecAgg's +1 Shamir shift)
        must keep pricing each client's frames on its own device."""
        fleet = toy_fleet()
        shifted = fleet.with_id_offset(1)
        for u in (0, 1, 2):
            assert shifted.link_seconds(u + 1, 100, 50) == (
                fleet.link_seconds(u, 100, 50)
            )
            assert shifted.straggler_factor([u + 1]) == (
                fleet.straggler_factor([u])
            )
        assert shifted.availability is fleet.availability

    def test_zero_offset_is_identity(self):
        fleet = toy_fleet()
        assert fleet.with_id_offset(0) is fleet

    def test_offset_view_is_o1_over_shared_store(self):
        """The view shifts addressing arithmetically over the same
        columns; nothing is copied."""
        fleet = toy_fleet()
        shifted = fleet.with_id_offset(5)
        assert shifted.columns is fleet.columns
        assert shifted.n_clients == fleet.n_clients
        assert shifted.link_seconds(5, 1, 2) == fleet.link_seconds(0, 1, 2)

    def test_offset_views_compose(self):
        fleet = toy_fleet()
        twice = fleet.with_id_offset(2).with_id_offset(3)
        assert twice.columns is fleet.columns
        assert twice.link_seconds(7, 9, 4) == fleet.link_seconds(2, 9, 4)
        for outside in (4, 8):
            with pytest.raises(KeyError, match=r"\[5, 8\)"):
                twice.link_seconds(outside, 1, 1)


class TestFleetScale:
    def test_empty_cohort_value_errors(self):
        fleet = toy_fleet()
        with pytest.raises(ValueError, match="empty"):
            fleet.straggler_factor([])
        with pytest.raises(ValueError, match="empty"):
            fleet.round_cost([], [], 100)

    def test_vectorized_queries_match_per_device_loop(self):
        """The array reductions must agree bit-for-bit with querying
        boxed reference devices one by one (same divisions, same max)."""
        fleet = Fleet.build(50, FleetConfig(compute_seconds=2.0), seed=3)
        ref = heterogeneous_fleet_reference(50, seed=3)
        sampled = [3, 17, 44, 49, 9]
        nbytes = 12345
        assert fleet.straggler_factor(sampled) == max(
            ref[u].compute_factor for u in sampled
        )
        cost = fleet.round_cost(sampled, sampled[:3], nbytes)
        assert cost.down_seconds == max(
            nbytes / ref[u].downlink_bps for u in sampled
        )
        assert cost.up_seconds == max(
            nbytes / ref[u].uplink_bps for u in sampled[:3]
        )


class TestIdOutsideThePopulation:
    """An id the fleet does not hold is refused by name — never wrapped
    onto another device, whose links would then price the frames."""

    @staticmethod
    def queries(fleet, client_id, member):
        return [
            lambda: fleet.link_seconds(client_id, 10, 10),
            lambda: fleet.straggler_factor([member, client_id]),
            lambda: fleet.round_cost([member, client_id], [member], 10),
            lambda: fleet.round_cost([member], [client_id], 10),
        ]

    @pytest.mark.parametrize("client_id", [3, -1, 10**12 + 1])
    def test_unshifted_fleet_refuses_ids_from_n(self, client_id):
        fleet = toy_fleet()
        for query in self.queries(fleet, client_id, member=0):
            with pytest.raises(KeyError) as refused:
                query()
            assert f"client id {client_id} " in str(refused.value)
            assert "[0, 3)" in str(refused.value)

    @pytest.mark.parametrize("client_id", [0, 4])
    def test_offset_view_refuses_zero_and_n_plus_one(self, client_id):
        shifted = toy_fleet().with_id_offset(1)
        for query in self.queries(shifted, client_id, member=1):
            with pytest.raises(KeyError) as refused:
                query()
            assert f"client id {client_id} " in str(refused.value)
            assert "[1, 4)" in str(refused.value)
        # Every id it does hold still prices.
        for u in (1, 2, 3):
            shifted.link_seconds(u, 10, 10)

    @pytest.mark.timeout(300)
    def test_secagg_session_over_sockets_needs_no_wrap(self):
        """The session prices protocol ids 1..n on the +1 view; no
        production path ever relied on the modular wrap."""
        from repro.core import DordisConfig, DordisSession

        session = DordisSession(DordisConfig(
            task="cifar10-like", model="softmax", mechanism="skellam",
            secure_aggregation="secagg", strategy="xnoise", num_clients=6,
            sample_size=6, rounds=1, samples_per_client=10,
            dropout_rate=0.2, tolerance_fraction=0.4, transport="sockets",
            seed=2,
        ))
        result = session.run()
        assert result.rounds_completed == 1
        assert session.engine.trace.total_traffic_bytes > 0
