"""Targeted tests for paths the module-focused suites leave thin."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import DordisConfig, DordisSession
from repro.dp.planner import plan_noise
from repro.secagg import SecAggConfig, run_secagg_round
from repro.secagg.client import SecAggClient
from repro.secagg.types import RoundResult


class TestSessionStrategyStrings:
    """The config-string path through make_strategy inside the session."""

    def _cfg(self, strategy):
        return DordisConfig(
            task="cifar10-like", model="softmax", num_clients=16,
            sample_size=6, rounds=3, samples_per_client=20,
            epsilon=6.0, learning_rate=0.1, dropout_rate=0.3,
            strategy=strategy, seed=2,
        )

    def test_con5_session(self):
        result = DordisSession(self._cfg("con5")).run()
        assert result.rounds_completed == 3
        # Overestimating 50% dropout vs actual 30% → under budget.
        assert result.epsilon_consumed < 6.0

    def test_con2_session_overruns(self):
        result = DordisSession(self._cfg("con2")).run()
        # Underestimating (20% guess vs 30% actual): pro-rata overrun of
        # the 3-of-planned-3 rounds' budget is tiny but positive in RDP.
        orig = DordisSession(self._cfg("orig")).run()
        assert result.epsilon_consumed < orig.epsilon_consumed

    def test_mlp_model_session(self):
        cfg = DordisConfig(
            task="cifar10-like", model="mlp", mlp_hidden=8, num_clients=12,
            sample_size=5, rounds=2, samples_per_client=20,
            epsilon=6.0, learning_rate=0.05, strategy="xnoise", seed=2,
        )
        result = DordisSession(cfg).run()
        assert result.rounds_completed == 2


class TestDriverClientFactory:
    def test_custom_factory_is_used(self):
        config = SecAggConfig(threshold=3, bits=16, dimension=8, dh_group="modp512")
        built = []

        def factory(u):
            built.append(u)
            return SecAggClient(u, config)

        inputs = {
            u: np.zeros(8, dtype=np.int64) for u in range(1, 6)
        }
        result = run_secagg_round(config, inputs, client_factory=factory)
        assert sorted(built) == [1, 2, 3, 4, 5]
        assert not result.aggregate.any()


class TestRoundResult:
    def test_round_result_survivors_alias(self):
        r = RoundResult(
            aggregate=np.zeros(1, dtype=np.int64),
            u1=[1, 2], u2=[1, 2], u3=[1], u4=[1], u5=[1],
        )
        assert r.survivors == [1]


class TestPlannerProperties:
    @given(
        rounds=st.integers(min_value=1, max_value=200),
        budget=st.floats(min_value=0.5, max_value=20.0),
        delta_exp=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_plan_always_lands_on_budget(self, rounds, budget, delta_exp):
        """For any (R, ε_G, δ): the planned noise exhausts the budget
        without exceeding it — the §2.2 'remaining budget should be
        zero' requirement, property-tested."""
        plan = plan_noise(
            rounds=rounds, epsilon_budget=budget, delta=10.0**-delta_exp,
            l2_sensitivity=1.0,
        )
        eps = plan.epsilon_if_executed()
        assert eps <= budget * (1 + 1e-9)
        assert eps >= budget * 0.99

    @given(rounds=st.integers(min_value=2, max_value=100))
    @settings(max_examples=15, deadline=None)
    def test_partial_execution_monotone(self, rounds):
        plan = plan_noise(rounds=rounds, epsilon_budget=6.0, delta=1e-3,
                          l2_sensitivity=1.0)
        eps = [plan.epsilon_if_executed(r) for r in (1, rounds // 2, rounds)]
        assert eps[0] <= eps[1] <= eps[2]


class TestDeterminismAcrossRuns:
    def test_full_session_reproducible(self):
        """Two sessions with identical configs produce identical
        trajectories — the property every experiment table relies on."""
        cfg = dict(
            task="femnist-like", model="softmax", num_clients=12,
            sample_size=5, rounds=3, samples_per_client=15,
            epsilon=6.0, learning_rate=0.1, dropout_rate=0.2,
            strategy="xnoise", seed=5,
        )
        a = DordisSession(DordisConfig(**cfg)).run()
        b = DordisSession(DordisConfig(**cfg)).run()
        assert a.metric_history == b.metric_history
        assert a.epsilon_history == b.epsilon_history
        assert a.dropout_history == b.dropout_history
