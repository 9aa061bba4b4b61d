"""Offline noise planning."""

import pytest

from repro.dp.planner import plan_noise


class TestPlanner:
    def test_plan_meets_budget_exactly(self):
        plan = plan_noise(rounds=50, epsilon_budget=6.0, delta=1e-3, l2_sensitivity=1.0)
        eps = plan.epsilon_if_executed()
        assert eps <= 6.0
        assert eps >= 6.0 * 0.995  # prudent: budget nearly exhausted

    def test_more_rounds_need_more_noise(self):
        short = plan_noise(10, 6.0, 1e-3, 1.0)
        long = plan_noise(100, 6.0, 1e-3, 1.0)
        assert long.sigma > short.sigma

    def test_smaller_budget_needs_more_noise(self):
        tight = plan_noise(50, 3.0, 1e-3, 1.0)
        loose = plan_noise(50, 9.0, 1e-3, 1.0)
        assert tight.sigma > loose.sigma

    def test_sigma_scales_linearly_with_sensitivity(self):
        unit = plan_noise(20, 6.0, 1e-3, 1.0)
        scaled = plan_noise(20, 6.0, 1e-3, 5.0)
        assert scaled.sigma == pytest.approx(5 * unit.sigma, rel=1e-3)
        assert scaled.noise_multiplier == pytest.approx(unit.noise_multiplier, rel=1e-3)

    def test_skellam_plan_close_to_gaussian_for_large_sigma(self):
        ga = plan_noise(50, 6.0, 1e-3, 100.0, mechanism="gaussian")
        sk = plan_noise(50, 6.0, 1e-3, 100.0, mechanism="skellam")
        assert sk.sigma >= ga.sigma  # discrete correction never helps
        assert sk.sigma == pytest.approx(ga.sigma, rel=0.05)

    def test_partial_execution_spends_partial_budget(self):
        plan = plan_noise(100, 6.0, 1e-3, 1.0)
        half = plan.epsilon_if_executed(50)
        assert 0 < half < 6.0

    def test_dropout_without_xnoise_overruns_budget(self):
        """The paper's core motivation (Fig 1): execute the plan but with 30%
        of each round's noise missing — consumed ε overshoots the budget."""
        plan = plan_noise(rounds=60, epsilon_budget=6.0, delta=1e-3, l2_sensitivity=1.0)
        acc = plan.fresh_accountant()
        for _ in range(60):
            plan.spend_round(acc, plan.variance * 0.7)
        assert acc.epsilon() > 6.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rounds=0, epsilon_budget=6.0, delta=1e-3, l2_sensitivity=1.0),
            dict(rounds=5, epsilon_budget=0.0, delta=1e-3, l2_sensitivity=1.0),
            dict(rounds=5, epsilon_budget=6.0, delta=1e-3, l2_sensitivity=0.0),
            dict(
                rounds=5,
                epsilon_budget=6.0,
                delta=1e-3,
                l2_sensitivity=1.0,
                mechanism="laplace",
            ),
        ],
    )
    def test_invalid_inputs(self, kwargs):
        with pytest.raises(ValueError):
            plan_noise(**kwargs)

    def test_spend_round_rejects_nonpositive_variance(self):
        plan = plan_noise(5, 6.0, 1e-3, 1.0)
        with pytest.raises(ValueError):
            plan.spend_round(plan.fresh_accountant(), 0.0)

