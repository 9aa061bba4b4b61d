"""Cross-module integration tests.

These stitch together subsystems the way the deployed system does:
profiling feeds the chunk optimizer; the protocol's enforced noise level
feeds the accountant; trace-driven dropout feeds a training session.
"""

import numpy as np
import pytest

from repro.core import DordisConfig, DordisSession
from repro.core.baselines import XNoiseStrategy, make_strategy
from repro.dp.accountant import RdpAccountant
from repro.dp.planner import plan_noise
from repro.fleet import BehaviorTrace, TraceDrivenDropout
from repro.pipeline.perf_model import (
    StagePerfModel,
    WorkflowPerfModel,
    profile_stage,
)
from repro.pipeline.scheduler import completion_time, optimal_chunks
from repro.pipeline.stages import DORDIS_STAGES
from repro.secagg import DropoutSchedule, SecAggConfig
from repro.utils.rng import derive_rng
from repro.xnoise.protocol import XNoiseConfig, run_xnoise_round


class TestProfilingFeedsOptimizer:
    def test_fitted_model_recovers_optimal_chunks(self):
        """§4.2's loop: micro-benchmark → least-squares β → optimal m.
        With 1% measurement noise the fitted plan must be near-optimal
        under the ground truth."""
        truth_models = [
            StagePerfModel(2e-5 * (i + 1), 0.3, 1.0 + 0.2 * i)
            for i in range(5)
        ]
        truth = WorkflowPerfModel(stages=list(DORDIS_STAGES), models=truth_models)
        rng = derive_rng("profiling-noise")
        fitted_models = []
        for sm in truth_models:
            obs = [
                (d, m, sm.time(d, m) * (1 + rng.normal(0, 0.01)))
                for d in (2e5, 1e6, 5e6)
                for m in (1, 2, 4, 8, 16)
            ]
            fitted_models.append(profile_stage(obs))
        fitted = WorkflowPerfModel(stages=list(DORDIS_STAGES), models=fitted_models)

        d = 2_000_000
        m_fit, _ = optimal_chunks(fitted, d)
        t_at_fit = completion_time(truth, d, m_fit)
        _, t_opt = optimal_chunks(truth, d)
        assert t_at_fit <= t_opt * 1.05  # fitted plan within 5% of optimal


class TestProtocolFeedsAccountant:
    def test_enforced_variance_matches_strategy_prediction(self):
        """The variance the real protocol enforces is exactly what the
        strategy layer tells the accountant — the two bookkeeping paths
        cannot drift apart."""
        n, tolerance, target = 6, 2, 144.0
        strategy = XNoiseStrategy(tolerance_fraction=tolerance / n)
        config = XNoiseConfig(
            secagg=SecAggConfig(
                threshold=3, bits=18, dimension=32, dh_group="modp512"
            ),
            n_sampled=n,
            tolerance=tolerance,
            target_variance=target,
        )
        rng = derive_rng("acct-consistency")
        inputs = {
            u: rng.integers(-5, 6, size=32).astype(np.int64)
            for u in range(1, n + 1)
        }
        for dropped in (set(), {2}, {2, 5}):
            result = run_xnoise_round(
                config, inputs, DropoutSchedule.before_upload(dropped)
            )
            predicted = strategy.actual_variance(target, n, len(dropped))
            assert result.residual_variance == pytest.approx(predicted)

    def test_accountant_charged_identically_either_way(self):
        plan = plan_noise(rounds=10, epsilon_budget=6.0, delta=1e-3,
                          l2_sensitivity=1.0)
        via_strategy = RdpAccountant(delta=1e-3)
        via_protocol = RdpAccountant(delta=1e-3)
        strategy = XNoiseStrategy(tolerance_fraction=0.5)
        for _ in range(10):
            predicted = strategy.actual_variance(plan.variance, 8, 3)
            plan.spend_round(via_strategy, predicted)
            plan.spend_round(via_protocol, plan.variance)  # Thm 1 level
        assert via_strategy.epsilon() == pytest.approx(via_protocol.epsilon())


class TestTraceDrivenSession:
    def test_session_with_behaviour_trace(self):
        """Fig 1b's setup end to end: availability trace → dropout →
        accounting divergence between Orig and XNoise."""
        trace = BehaviorTrace(n_clients=24, horizon=8, seed=4)
        dropout = TraceDrivenDropout(trace)
        results = {}
        for name in ("orig", "xnoise"):
            cfg = DordisConfig(
                task="cifar10-like",
                model="softmax",
                num_clients=24,
                sample_size=8,
                rounds=8,
                samples_per_client=25,
                epsilon=6.0,
                learning_rate=0.15,
                strategy="orig",
                tolerance_fraction=0.8,
                seed=4,
            )
            session = DordisSession(
                cfg, dropout_model=dropout, strategy=make_strategy(
                    name, **({"tolerance_fraction": 0.8} if name == "xnoise" else {})
                )
            )
            results[name] = session.run()
        # Same dropout realizations (same trace, same sampling seed)...
        assert results["orig"].dropout_history == results["xnoise"].dropout_history
        # ...but only XNoise holds the budget.
        assert results["xnoise"].epsilon_consumed <= 6.0 * 1.001
        if max(results["orig"].dropout_history) > 0:
            assert (
                results["orig"].epsilon_consumed
                > results["xnoise"].epsilon_consumed
            )


class TestMaliciousEndToEnd:
    def test_malicious_xnoise_with_collusion_and_dropout(self):
        """The strongest configuration in one round: signatures on, a
        collusion tolerance inflating the noise, dropout at upload, and
        a mid-removal failure forcing Shamir recovery."""
        from repro.secagg.types import STAGE_MASKED_INPUT, STAGE_UNMASK

        config = XNoiseConfig(
            secagg=SecAggConfig(
                threshold=5, bits=18, dimension=64, malicious=True,
                dh_group="modp512",
            ),
            n_sampled=8,
            tolerance=3,
            target_variance=100.0,
            collusion_tolerance=1,
        )
        rng = derive_rng("malicious-e2e")
        inputs = {
            u: rng.integers(-5, 6, size=64).astype(np.int64)
            for u in range(1, 9)
        }
        schedule = DropoutSchedule(
            at_stage={STAGE_MASKED_INPUT: {2}, STAGE_UNMASK: {7}}
        )
        result = run_xnoise_round(config, inputs, schedule)
        # Residual = σ²·t/(t−T_C) = 100·5/4.
        assert result.residual_variance == pytest.approx(125.0)
        assert 7 in result.u3 and 7 not in result.u5  # recovered via stage 5
