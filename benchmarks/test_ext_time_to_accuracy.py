"""Extension experiment: time-to-accuracy under pipeline acceleration.

Fig. 10 reports per-round speedups; the deployment-facing consequence is
that the *same* accuracy is reached proportionally sooner — the round
sequence is untouched, only its clock compresses.  This bench trains one
utility trajectory, attaches the plain and pipelined clocks, and reports
wall-clock time to fixed accuracy targets.
"""

import pytest
from conftest import print_header

from repro.core import DordisConfig, DordisSession
from repro.pipeline.perf_model import build_dordis_perf_model
from repro.sim.timeline import build_timelines


def test_time_to_accuracy(once):
    def run():
        cfg = DordisConfig(
            task="cifar10-like",
            model="softmax",
            num_clients=60,
            sample_size=16,
            rounds=14,
            samples_per_client=40,
            epsilon=8.0,
            clip_bound=0.5,
            learning_rate=0.2,
            dropout_rate=0.1,
            strategy="xnoise",
            seed=21,
        )
        result = DordisSession(cfg).run()
        model = build_dordis_perf_model(
            16, 11_000_000, xnoise=True, dropout_rate=0.1
        )
        return result, build_timelines(
            result.metric_history, "accuracy", model, 11_000_000
        )

    result, (plain, pipe, speedup) = once(run)
    print_header("Extension — time-to-accuracy (CIFAR-10-like, XNoise, d=10%)")
    print(f"  per-round: plain {plain.round_durations[0] / 60:.1f} min, "
          f"pipelined {pipe.round_durations[0] / 60:.1f} min "
          f"(speedup {speedup:.2f}x)")
    print(f"  {'target':>7} | {'plain (h)':>9} | {'pipe (h)':>9}")
    targets = [0.3, 0.4, 0.5]
    for target in targets:
        tp = plain.time_to_metric(target) / 3600
        tq = pipe.time_to_metric(target) / 3600
        print(f"  {target:>6.0%} | {tp:>9.2f} | {tq:>9.2f}")

    for target in targets:
        tp, tq = plain.time_to_metric(target), pipe.time_to_metric(target)
        if tp == float("inf"):
            continue
        # The whole point: every reachable target arrives ~speedup× sooner.
        assert tq == pytest.approx(tp / speedup, rel=1e-6)
    assert result.final_accuracy >= 0.5
