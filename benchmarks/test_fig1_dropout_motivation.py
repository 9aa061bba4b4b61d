"""Figure 1: the privacy impact of client dropout (§2.3.1).

1a — distribution of per-round dropout rates of a 16-client sample under
     the behaviour trace;
1b/1c — privacy cost vs accuracy of Orig / Early / Con8 / Con5 / Con2 on
     the CIFAR-10-like and CIFAR-100-like tasks under trace dropout;
1d — privacy cost vs dropout rate for budgets ε = 3 / 6 / 9.
"""

import numpy as np
import pytest
from conftest import print_header

from repro.core import DordisConfig, DordisSession
from repro.core.baselines import OrigStrategy, make_strategy
from repro.dp.planner import plan_noise
from repro.fleet import BehaviorTrace, TraceDrivenDropout


def test_fig1a_client_dynamics(once):
    trace = once(BehaviorTrace, n_clients=100, horizon=150, seed=2)
    rates = trace.dropout_rates(sample_size=16)
    print_header("Fig 1a — per-round dropout rate of a 16-client sample")
    edges = np.linspace(0, 1, 6)
    hist, _ = np.histogram(rates, bins=edges)
    for lo, hi, count in zip(edges, edges[1:], hist):
        bar = "#" * int(60 * count / max(hist.max(), 1))
        print(f"  dropout {lo:4.0%}–{hi:4.0%}: {count / len(rates):5.1%} {bar}")
    # The paper's trace shows "great dynamics": the whole range is hit.
    assert rates.min() < 0.3
    assert rates.max() > 0.6
    assert 0.2 < rates.mean() < 0.8


VARIANTS = ["orig", "early", "con8", "con5", "con2"]


def _run_variants(task: str, n_classes_hint: str, rounds: int, seed: int):
    trace = BehaviorTrace(n_clients=60, horizon=rounds, seed=5)
    results = {}
    for name in VARIANTS:
        cfg = DordisConfig(
            task=task,
            model="softmax",
            num_clients=60,
            sample_size=16,
            rounds=rounds,
            samples_per_client=40,
            epsilon=6.0,
            clip_bound=0.5,
            learning_rate=0.2,
            strategy="orig",  # replaced below
            seed=seed,
        )
        session = DordisSession(
            cfg,
            dropout_model=TraceDrivenDropout(trace),
            strategy=make_strategy(name),
        )
        results[name] = session.run()
    return results


def _print_fig1bc(title: str, results) -> None:
    print_header(title)
    print(f"{'variant':>8} | {'privacy cost ε':>14} | {'accuracy':>8} | rounds")
    for name in VARIANTS:
        r = results[name]
        print(
            f"{name:>8} | {r.epsilon_consumed:>14.2f} | "
            f"{r.final_accuracy:>8.1%} | {r.rounds_completed}"
            f"{'  (stopped early)' if r.stopped_early else ''}"
        )


def test_fig1b_cifar10_variants(once):
    results = once(_run_variants, "cifar10-like", "10", 15, 3)
    _print_fig1bc("Fig 1b — privacy vs utility, CIFAR-10-like (budget ε = 6)", results)
    # Orig and Con2 (underestimate) overrun the budget.
    assert results["orig"].epsilon_consumed > 6.0
    assert results["con2"].epsilon_consumed > 6.0
    # Con8 (overestimate) leaves budget unused and hurts utility.
    assert results["con8"].epsilon_consumed < 6.0
    assert (
        results["con8"].final_accuracy
        <= results["con5"].final_accuracy + 0.05
    )
    # Early stops before the horizon, sacrificing utility.
    assert results["early"].stopped_early
    assert results["early"].rounds_completed < 15
    assert (
        results["early"].final_accuracy <= results["orig"].final_accuracy + 0.02
    )


def test_fig1c_cifar100_variants(once):
    results = once(_run_variants, "cifar100-like", "100", 15, 4)
    _print_fig1bc("Fig 1c — privacy vs utility, CIFAR-100-like (budget ε = 6)", results)
    assert results["orig"].epsilon_consumed > 6.0
    assert results["con8"].epsilon_consumed < 6.0
    assert results["early"].stopped_early


def test_fig1d_privacy_cost_vs_dropout(once):
    """Pure accounting: Orig's consumed ε after the full horizon, as a
    function of the per-round dropout rate, for three budgets."""

    def sweep():
        budgets = [3.0, 6.0, 9.0]
        rates = [0.0, 0.1, 0.2, 0.3, 0.4]
        table = {}
        for budget in budgets:
            plan = plan_noise(
                rounds=150, epsilon_budget=budget, delta=1e-2, l2_sensitivity=1.0
            )
            strategy = OrigStrategy()
            row = []
            for rate in rates:
                acc = plan.fresh_accountant()
                n, dropped = 16, int(round(16 * rate))
                for _ in range(150):
                    actual = strategy.actual_variance(plan.variance, n, dropped)
                    plan.spend_round(acc, actual)
                row.append(acc.epsilon())
            table[budget] = row
        return rates, table

    rates, table = once(sweep)
    print_header("Fig 1d — Orig privacy cost vs dropout rate (150 rounds)")
    print(f"{'dropout':>8} | " + " | ".join(f"budget ε={b:g}" for b in table))
    for i, rate in enumerate(rates):
        print(
            f"{rate:>7.0%} | "
            + " | ".join(f"{table[b][i]:>10.2f}" for b in table)
        )
    for budget, row in table.items():
        # Monotone in dropout, equal to budget at zero dropout.
        assert row[0] == pytest.approx(budget, rel=0.02)
        assert all(a < b for a, b in zip(row, row[1:]))
    # Paper's Fig 1d: budget 6 reaches ~11.8 at 40% dropout under the
    # authors' accountant; our CKS RDP→(ε,δ) conversion is tighter, so
    # the overrun is smaller in absolute terms — assert the shape: a
    # substantial (≥ 25%) overrun that grows with the budget.
    assert table[6.0][-1] > 6.0 * 1.25
    assert table[9.0][-1] > 9.0 * 1.25
    assert table[3.0][-1] < table[6.0][-1] < table[9.0][-1]
