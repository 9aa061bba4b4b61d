"""Lazy session-stream availability, correlation, and churn scenarios."""

import numpy as np
import pytest

from repro.fleet import (
    AlwaysAvailable,
    BehaviorTrace,
    DiurnalWave,
    FlashCrowd,
    RegionalOutage,
    SessionStream,
    TraceDrivenDropout,
    build_availability,
)
from repro.fleet.availability import DENSE_TRACE_MAX_CLIENTS


class TestSessionStream:
    def test_deterministic_per_seed(self):
        a = SessionStream(60, seed=4)
        b = SessionStream(60, seed=4)
        sampled = list(range(20))
        for r in (0, 3, 17):
            assert a.dropped(sampled, r) == b.dropped(sampled, r)

    def test_rounds_can_be_queried_out_of_order(self):
        """Timelines extend lazily but a (client, round) answer is a
        pure function of the seed, whatever order rounds arrive in."""
        a = SessionStream(30, seed=7)
        b = SessionStream(30, seed=7)
        forward = [a.available(5, r) for r in range(40)]
        backward = [b.available(5, r) for r in reversed(range(40))]
        assert forward == backward[::-1]

    def test_eviction_regenerates_identically(self):
        """An LRU-evicted device re-derives the same timeline from its
        own rng stream — the cache bounds memory, not answers."""
        small = SessionStream(50, seed=9, cache_size=2)
        fresh = SessionStream(50, seed=9)
        want = [fresh.available(0, r) for r in range(12)]
        assert [small.available(0, r) for r in range(12)] == want
        for c in range(1, 50):  # churn client 0 out of the cache
            small.available(c, 0)
        assert small.resident_devices <= 2
        assert [small.available(0, r) for r in range(12)] == want

    def test_resident_devices_track_cohort_not_population(self):
        stream = SessionStream(10_000, seed=1, cache_size=64)
        for c in range(500):
            stream.available(c, 0)
        assert stream.resident_devices <= 64

    def test_marginal_parity_with_dense_trace(self):
        """Same generative model, different derivation: the per-round
        dropout-rate distribution of a sampled cohort must match the
        dense BehaviorTrace reference statistically."""
        bt = BehaviorTrace(400, 60, seed=2)
        ss = SessionStream(400, seed=2)
        r_dense = bt.dropout_rates(32, seed=12)
        r_lazy = ss.dropout_rates(32, 60, seed=12)
        assert abs(r_dense.mean() - r_lazy.mean()) < 0.08
        assert abs(r_dense.std() - r_lazy.std()) < 0.05
        # Both churn: Fig.-1a rates swing round to round.
        assert len({round(r, 3) for r in r_lazy}) > 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionStream(0)
        with pytest.raises(ValueError):
            SessionStream(5, mean_session=0.0)
        with pytest.raises(ValueError):
            SessionStream(5, correlation=1.5, link_quantiles=np.full(5, 0.5))
        with pytest.raises(ValueError, match="link_quantiles"):
            SessionStream(5, correlation=0.5)
        with pytest.raises(ValueError):
            SessionStream(5, correlation=0.5, link_quantiles=np.full(3, 0.5))


class TestCorrelatedAvailability:
    def test_slow_links_are_flaky(self):
        """Positive correlation: low bandwidth quantiles get low online
        propensity (and vice versa) — slow devices are also volatile."""
        n = 300
        q = (np.arange(n) + 0.5) / n  # quantile i/n = bandwidth rank
        stream = SessionStream(n, seed=2, correlation=0.9, link_quantiles=q)
        low = np.mean([stream.propensity(i) for i in range(60)])
        high = np.mean([stream.propensity(i) for i in range(n - 60, n)])
        assert low < 0.35 < 0.65 < high

    def test_negative_correlation_flips_direction(self):
        n = 300
        q = (np.arange(n) + 0.5) / n
        stream = SessionStream(n, seed=2, correlation=-0.9, link_quantiles=q)
        low = np.mean([stream.propensity(i) for i in range(60)])
        high = np.mean([stream.propensity(i) for i in range(n - 60, n)])
        assert high < low

    def test_copula_preserves_beta_marginal(self):
        """The coupling reorders who is flaky, not how flaky the fleet
        is: the propensity distribution stays the Beta marginal
        (mean 0.5 for the default volatility (1.2, 1.2))."""
        n = 400
        q = (np.arange(n) + 0.5) / n
        coupled = SessionStream(n, seed=3, correlation=0.8, link_quantiles=q)
        free = SessionStream(n, seed=3)
        p_coupled = np.array([coupled.propensity(i) for i in range(n)])
        p_free = np.array([free.propensity(i) for i in range(n)])
        assert abs(p_coupled.mean() - p_free.mean()) < 0.06
        assert abs(p_coupled.mean() - 0.5) < 0.06

    def test_zero_correlation_matches_uncorrelated_stream(self):
        """correlation=0.0 must not even consume the copula's rng draw —
        the uncorrelated path is the retained behaviour."""
        n = 50
        q = (np.arange(n) + 0.5) / n
        a = SessionStream(n, seed=5, correlation=0.0, link_quantiles=q)
        b = SessionStream(n, seed=5)
        assert [a.available(c, r) for c in range(n) for r in range(8)] == [
            b.available(c, r) for c in range(n) for r in range(8)
        ]


class TestDropoutRatesVectorization:
    def test_pinned_to_reference_loop(self):
        """The batched gather must consume the sampling rng exactly like
        the retained per-round loop — bit-equal output."""
        trace = BehaviorTrace(80, 40, seed=6)
        for seed in (0, 3):
            fast = trace.dropout_rates(16, seed=seed)
            ref = trace.dropout_rates_reference(16, seed=seed)
            assert np.array_equal(fast, ref)

    def test_oversized_sample_clamps_to_population(self):
        trace = BehaviorTrace(10, 12, seed=1)
        assert np.array_equal(
            trace.dropout_rates(64, seed=2),
            trace.dropout_rates_reference(64, seed=2),
        )


class TestScenarios:
    def test_diurnal_wave_peaks_and_troughs(self):
        wave = DiurnalWave(AlwaysAvailable(), period=8, amplitude=0.8, seed=0)
        sampled = list(range(200))
        assert wave.dropped(sampled, 0) == set()  # peak: no extra churn
        assert wave.offline_rate(4) == pytest.approx(0.8)
        trough = len(wave.dropped(sampled, 4)) / len(sampled)
        assert 0.6 < trough < 1.0

    def test_diurnal_wave_composes_over_base(self):
        base = SessionStream(100, seed=3)
        wave = DiurnalWave(base, period=6, amplitude=1.0, seed=1)
        sampled = list(range(40))
        assert base.dropped(sampled, 2) <= wave.dropped(sampled, 2)

    def test_flash_crowd_joins_at_round(self):
        crowd = FlashCrowd(AlwaysAvailable(), 100, join_round=5, fraction=0.3)
        sampled = [10, 69, 70, 99]
        assert crowd.dropped(sampled, 0) == {70, 99}  # late cohort absent
        assert crowd.dropped(sampled, 4) == {70, 99}
        assert crowd.dropped(sampled, 5) == set()     # everyone joined

    def test_regional_outage_window(self):
        outage = RegionalOutage(
            AlwaysAvailable(), region=(20, 40), start_round=3, end_round=6
        )
        sampled = [5, 19, 20, 39, 40]
        assert outage.dropped(sampled, 2) == set()
        for r in (3, 4, 5):
            assert outage.dropped(sampled, r) == {20, 39}
        assert outage.dropped(sampled, 6) == set()

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            DiurnalWave(AlwaysAvailable(), period=0)
        with pytest.raises(ValueError):
            DiurnalWave(AlwaysAvailable(), amplitude=1.5)
        with pytest.raises(ValueError):
            FlashCrowd(AlwaysAvailable(), 10, join_round=2, fraction=0.0)
        with pytest.raises(ValueError):
            RegionalOutage(AlwaysAvailable(), region=(5, 5),
                           start_round=0, end_round=1)
        with pytest.raises(ValueError):
            RegionalOutage(AlwaysAvailable(), region=(0, 5),
                           start_round=2, end_round=2)


class TestBuildAvailabilitySwitching:
    def test_small_trace_stays_dense_reference(self):
        model = build_availability("trace", n_clients=50, horizon=10, seed=1)
        assert isinstance(model, TraceDrivenDropout)

    def test_large_trace_goes_lazy(self):
        model = build_availability(
            "trace", n_clients=DENSE_TRACE_MAX_CLIENTS + 1, horizon=10, seed=1
        )
        assert isinstance(model, SessionStream)

    def test_correlation_forces_lazy_model(self):
        n = 50
        q = (np.arange(n) + 0.5) / n
        model = build_availability(
            "trace", n_clients=n, horizon=10, seed=1,
            correlation=0.5, link_quantiles=q,
        )
        assert isinstance(model, SessionStream)
        assert model.correlation == 0.5

    def test_session_name_is_refused(self):
        """"trace" already chooses the lazy stream by size and
        correlation; there is no second name for it."""
        with pytest.raises(ValueError, match=r"\(fixed \| trace\)"):
            build_availability("session", n_clients=5, horizon=10, seed=1)

    def test_fixed_rejects_correlation(self):
        with pytest.raises(ValueError, match="correlation"):
            build_availability(
                "fixed", n_clients=5, horizon=10,
                dropout_rate=0.1, correlation=0.5,
            )
