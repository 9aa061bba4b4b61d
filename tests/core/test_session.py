"""End-to-end Dordis sessions: training, accounting, enforcement."""

import numpy as np
import pytest

from repro.core import DordisConfig, DordisSession
from repro.core.baselines import NoiseStrategy
from repro.dp import clip_l2
from repro.utils.rng import derive_rng


def quick_config(**overrides):
    defaults = dict(
        task="cifar10-like",
        model="softmax",
        num_clients=20,
        sample_size=8,
        rounds=6,
        samples_per_client=30,
        learning_rate=0.1,
        epsilon=6.0,
        clip_bound=1.0,
        seed=1,
    )
    defaults.update(overrides)
    return DordisConfig(**defaults)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(task="imagenet"),
            dict(model="transformer"),
            dict(task="reddit-like", model="softmax"),
            dict(model="bigram"),
            dict(sample_size=0),
            dict(sample_size=21),
            dict(rounds=0),
            dict(epsilon=0.0),
            dict(delta=0.0),
            dict(clip_bound=0.0),
            dict(mechanism="laplace"),
            dict(dropout_rate=1.0),
            dict(secure_aggregation="homomorphic"),
        ],
    )
    def test_bad_configs_rejected(self, overrides):
        with pytest.raises(ValueError):
            quick_config(**overrides)

    def test_delta_defaults_to_inverse_population(self):
        cfg = quick_config()
        assert cfg.delta == pytest.approx(1 / 20)

    def test_secagg_mode_requires_skellam_xnoise(self):
        with pytest.raises(ValueError):
            DordisSession(
                quick_config(secure_aggregation="secagg", mechanism="gaussian")
            )


class TestGaussianSimulation:
    def test_session_trains_and_accounts(self):
        session = DordisSession(quick_config())
        result = session.run()
        assert result.rounds_completed == 6
        assert len(result.metric_history) == 6
        assert result.epsilon_history[-1] == pytest.approx(6.0, rel=0.02)
        assert result.metric_name == "accuracy"

    def test_epsilon_monotone(self):
        result = DordisSession(quick_config()).run()
        eps = result.epsilon_history
        assert all(a <= b + 1e-12 for a, b in zip(eps, eps[1:]))

    def test_xnoise_holds_budget_under_dropout(self):
        """Fig. 8's core claim at session level: ε stays at the target
        for any dropout within the configured tolerance."""
        no_drop = DordisSession(
            quick_config(strategy="xnoise", tolerance_fraction=0.75)
        ).run()
        heavy = DordisSession(
            quick_config(
                strategy="xnoise", dropout_rate=0.4, tolerance_fraction=0.75
            )
        ).run()
        assert heavy.epsilon_consumed == pytest.approx(
            no_drop.epsilon_consumed, rel=1e-6
        )

    def test_orig_overruns_budget_under_dropout(self):
        """Fig. 1/8: Orig's ε grows beyond the budget when clients drop."""
        clean = DordisSession(quick_config(strategy="orig")).run()
        dropped = DordisSession(
            quick_config(strategy="orig", dropout_rate=0.4)
        ).run()
        assert clean.epsilon_consumed == pytest.approx(6.0, rel=0.02)
        assert dropped.epsilon_consumed > 6.5

    def test_early_stops_before_overrun(self):
        result = DordisSession(
            quick_config(strategy="early", dropout_rate=0.4, rounds=8)
        ).run()
        assert result.stopped_early
        assert result.rounds_completed < 8

    def test_training_improves_metric(self):
        cfg = quick_config(rounds=10, epsilon=50.0, dropout_rate=0.0)
        result = DordisSession(cfg).run()
        assert result.final_accuracy > result.metric_history[0]

    def test_language_task_tracks_perplexity(self):
        cfg = DordisConfig(
            task="reddit-like",
            model="bigram",
            num_clients=10,
            sample_size=4,
            rounds=3,
            learning_rate=0.05,
            optimizer="adamw",
            epsilon=8.0,
            seed=0,
        )
        result = DordisSession(cfg).run()
        assert result.metric_name == "perplexity"
        assert result.final_perplexity > 0
        with pytest.raises(ValueError):
            _ = result.final_accuracy


class TestSkellamSimulation:
    def test_skellam_session_runs(self):
        cfg = quick_config(mechanism="skellam", rounds=3)
        session = DordisSession(cfg)
        result = session.run()
        assert result.rounds_completed == 3
        assert session.skellam is not None
        # Skellam accounting also lands on the budget at the horizon.
        full = DordisSession(quick_config(mechanism="skellam")).run()
        assert full.epsilon_consumed == pytest.approx(6.0, rel=0.05)

    def test_skellam_vs_gaussian_similar_utility(self):
        g = DordisSession(quick_config(rounds=5, epsilon=20.0)).run()
        s = DordisSession(
            quick_config(rounds=5, epsilon=20.0, mechanism="skellam")
        ).run()
        assert abs(g.final_accuracy - s.final_accuracy) < 0.25


class _NoNoise(NoiseStrategy):
    """A strategy whose aggregate carries no noise: isolates clipping."""

    def client_variance(self, target_variance, n_sampled):
        return 0.0

    def actual_variance(self, target_variance, n_sampled, n_dropped):
        return 0.0


class TestGaussianAggregate:
    """``DordisSession._aggregate`` on ``mechanism="gaussian"``: each
    survivor's update is clipped with ``clip_l2`` and the sum gets one
    normal draw of the strategy's post-dropout variance."""

    SAMPLED = list(range(8))

    def test_aggregate_is_the_clipped_sum_plus_the_rounds_draw(self):
        session = DordisSession(quick_config(strategy="orig"))
        rng = np.random.default_rng(0)
        updates = [rng.normal(scale=3.0, size=64) for _ in range(5)]
        survivors = self.SAMPLED[:5]
        got = session._aggregate(updates, self.SAMPLED, survivors, 2)
        variance = session.strategy.actual_variance(session.plan.variance, 8, 3)
        expected = sum(clip_l2(u, 1.0) for u in updates) + derive_rng(
            "dp-noise", 1, 2
        ).normal(0.0, np.sqrt(variance), 64)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_each_update_is_clipped_not_the_sum(self):
        session = DordisSession(quick_config(), strategy=_NoNoise())
        updates = [np.full(16, 100.0)] * 3
        got = session._aggregate(updates, self.SAMPLED, self.SAMPLED[:3], 0)
        assert np.linalg.norm(got) == pytest.approx(3.0)
        np.testing.assert_allclose(got, np.full(16, 3.0 / 4.0))

    def test_updates_inside_the_bound_pass_unchanged(self):
        session = DordisSession(quick_config(), strategy=_NoNoise())
        updates = [np.full(16, 0.1), np.arange(16) / 100.0]
        got = session._aggregate(updates, self.SAMPLED, self.SAMPLED[:2], 0)
        np.testing.assert_array_equal(got, updates[0] + updates[1])

    @pytest.mark.parametrize(
        "strategy, dropped",
        [
            ("orig", 0),
            ("orig", 3),
            ("con5", 0),
            ("con5", 3),
            ("xnoise", 0),
            ("xnoise", 3),
            ("xnoise", 6),
        ],
    )
    def test_noise_variance_is_the_strategys_actual_variance(self, strategy, dropped):
        session = DordisSession(
            quick_config(strategy=strategy, tolerance_fraction=0.5)
        )
        survivors = self.SAMPLED[: 8 - dropped]
        updates = [np.zeros(20_000)] * len(survivors)
        noise = session._aggregate(updates, self.SAMPLED, survivors, 0)
        target = session.strategy.actual_variance(session.plan.variance, 8, dropped)
        assert target > 0
        assert noise.var() == pytest.approx(target, rel=0.05)
        assert abs(noise.mean()) < 5 * np.sqrt(target / noise.size)

    def test_noise_is_fresh_each_round_and_replays_per_seed(self):
        def noise(seed, round_index):
            session = DordisSession(quick_config(seed=seed))
            updates = [np.zeros(32)] * 8
            return session._aggregate(updates, self.SAMPLED, self.SAMPLED, round_index)

        np.testing.assert_array_equal(noise(1, 0), noise(1, 0))
        assert not np.array_equal(noise(1, 0), noise(1, 1))
        assert not np.array_equal(noise(1, 0), noise(2, 0))


class TestRealProtocolSession:
    def test_secagg_session_matches_simulated_epsilon(self):
        """3 rounds through the full Fig. 5 protocol stack."""
        cfg = quick_config(
            mechanism="skellam",
            secure_aggregation="secagg",
            strategy="xnoise",
            num_clients=8,
            sample_size=5,
            rounds=2,
            samples_per_client=15,
            dropout_rate=0.2,
            tolerance_fraction=0.4,
        )
        result = DordisSession(cfg).run()
        assert result.rounds_completed == 2
        sim = DordisSession(
            quick_config(
                mechanism="skellam",
                strategy="xnoise",
                num_clients=8,
                sample_size=5,
                rounds=2,
                samples_per_client=15,
                dropout_rate=0.2,
                tolerance_fraction=0.4,
            )
        ).run()
        assert result.epsilon_consumed == pytest.approx(
            sim.epsilon_consumed, rel=1e-6
        )


class TestResultAccessors:
    def test_empty_result(self):
        from repro.core.dordis import TrainingResult

        r = TrainingResult(metric_name="accuracy")
        assert np.isnan(r.final_metric)
        assert r.epsilon_consumed == 0.0

    def test_metric_name_guard(self):
        from repro.core.dordis import TrainingResult

        r = TrainingResult(metric_name="accuracy", metric_history=[0.5])
        with pytest.raises(ValueError):
            _ = r.final_perplexity
