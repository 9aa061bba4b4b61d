"""Wall-clock timelines: elapsed math and time-to-target semantics."""

import numpy as np
import pytest

from repro.pipeline.perf_model import build_dordis_perf_model
from repro.sim.timeline import Timeline, build_timelines


class TestTimeline:
    def test_elapsed_is_cumulative(self):
        t = Timeline((60.0,) * 3, (0.1, 0.2, 0.3), "accuracy")
        np.testing.assert_allclose(t.elapsed, [60, 120, 180])
        assert t.total_seconds == 180

    def test_time_to_metric_higher_better(self):
        t = Timeline((10.0,) * 3, (0.1, 0.5, 0.9), "accuracy")
        assert t.time_to_metric(0.5) == 20.0
        assert t.time_to_metric(0.05) == 10.0
        assert t.time_to_metric(0.95) == float("inf")

    def test_time_to_metric_lower_better(self):
        t = Timeline((10.0,) * 3, (100.0, 60.0, 30.0), "perplexity")
        assert t.time_to_metric(60.0, higher_is_better=False) == 20.0
        assert t.time_to_metric(10.0, higher_is_better=False) == float("inf")

    def test_empty_history(self):
        t = Timeline((), (), "accuracy")
        assert t.total_seconds == 0.0
        assert t.time_to_metric(0.5) == float("inf")

    def test_uneven_durations_are_cumulative(self):
        # Traced rounds each carry their own duration.
        t = Timeline((10.0, 20.0, 5.0), (0.1, 0.5, 0.9), "accuracy")
        np.testing.assert_allclose(t.elapsed, [10.0, 30.0, 35.0])
        assert t.time_to_metric(0.5) == pytest.approx(30.0)
        assert t.time_to_metric(0.05) == pytest.approx(10.0)
        assert t.time_to_metric(0.95) == float("inf")
        assert t.total_seconds == pytest.approx(35.0)

    def test_one_duration_per_round_required(self):
        with pytest.raises(ValueError, match="one duration per completed round"):
            Timeline((1.0,), (0.1, 0.2), "accuracy")


class TestBuildTimelines:
    def test_pipelined_reaches_target_sooner(self):
        """The §6.4 implication: identical metric curve, compressed clock."""
        model = build_dordis_perf_model(100, 11_000_000)
        history = [0.2, 0.4, 0.6, 0.7, 0.75]
        plain, pipe, speedup = build_timelines(
            history, "accuracy", model, 11_000_000
        )
        assert speedup > 1.2
        assert pipe.time_to_metric(0.6) < plain.time_to_metric(0.6)
        assert pipe.time_to_metric(0.6) == pytest.approx(
            plain.time_to_metric(0.6)
            / (plain.round_durations[0] / pipe.round_durations[0])
        )

    def test_metric_curves_identical(self):
        model = build_dordis_perf_model(16, 1_000_000)
        plain, pipe, _ = build_timelines([0.1, 0.2], "accuracy", model, 1_000_000)
        assert plain.metric_history == pipe.metric_history


class TestStageSpanDirectionInvariant:
    def _span(self, **kwargs):
        from repro.sim.timeline import StageSpan

        base = dict(
            round_index=0, chunk=0, stage=0, label="encode",
            resource="c-comp", begin=0.0, finish=1.0,
        )
        base.update(kwargs)
        return StageSpan(**base)

    def test_traffic_bytes_derives_from_split(self):
        span = self._span(up_bytes=70, down_bytes=30)
        assert span.traffic_bytes == 100
        assert span.traffic_split == (30, 70)
        assert span.traffic_split.total == 100

    def test_explicit_consistent_total_accepted(self):
        span = self._span(up_bytes=1, down_bytes=2, traffic_bytes=3)
        assert span.traffic_bytes == 3

    def test_inconsistent_total_rejected(self):
        """The directional invariant up + down == traffic holds for
        every constructible span."""
        import pytest

        with pytest.raises(ValueError, match="up_bytes \\+ down_bytes"):
            self._span(up_bytes=1, down_bytes=2, traffic_bytes=100)
        with pytest.raises(ValueError, match="up_bytes \\+ down_bytes"):
            self._span(traffic_bytes=100)  # legacy undirected construction

    def test_negative_directions_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="non-negative"):
            self._span(up_bytes=-1)


class TestSimulatedRoundTraffic:
    def test_replayed_spans_carry_split_traffic(self):
        from repro.sim.timeline import SimulatedRound, simulate_trace

        trace = simulate_trace([
            SimulatedRound(
                resources=("c-comp", "s-comp"),
                durations=((1.0, 1.0), (2.0, 2.0)),
                n_chunks=2,
                down_traffic=((30, 50), (0, 0)),
                up_traffic=((70, 100), (0, 0)),
            )
        ])
        by_key = {
            (s.stage, s.chunk): (s.down_bytes, s.up_bytes)
            for s in trace.spans
        }
        assert by_key == {
            (0, 0): (30, 70), (0, 1): (50, 100),
            (1, 0): (0, 0), (1, 1): (0, 0),
        }
        # The undirected view derives from the split.
        assert all(
            s.traffic_bytes == s.down_bytes + s.up_bytes for s in trace.spans
        )
        assert trace.round_traffic_bytes(0) == 250
        assert trace.round_traffic_split(0) == (80, 170)

    def test_one_direction_alone_is_fine(self):
        from repro.sim.timeline import SimulatedRound, simulate_trace

        trace = simulate_trace([
            SimulatedRound(
                resources=("c-comp",),
                durations=((1.0,),),
                up_traffic=((42,),),
            )
        ])
        (span,) = trace.spans
        assert (span.down_bytes, span.up_bytes, span.traffic_bytes) == (0, 42, 42)

    def test_traffic_defaults_to_zero(self):
        from repro.sim.timeline import SimulatedRound, simulate_trace

        trace = simulate_trace([
            SimulatedRound(resources=("c-comp",), durations=((1.0,),))
        ])
        assert all(s.traffic_bytes == 0 for s in trace.spans)
        assert all(s.up_bytes == 0 and s.down_bytes == 0 for s in trace.spans)

    def test_mismatched_traffic_shape_rejected(self):
        import pytest

        from repro.sim.timeline import SimulatedRound, simulate_trace

        with pytest.raises(ValueError, match="traffic row per stage"):
            simulate_trace([
                SimulatedRound(
                    resources=("c-comp", "s-comp"),
                    durations=((1.0,), (2.0,)),
                    up_traffic=((1,),),
                )
            ])
        with pytest.raises(ValueError, match="per \\(stage, chunk\\)"):
            simulate_trace([
                SimulatedRound(
                    resources=("c-comp",),
                    durations=((1.0, 1.0),),
                    n_chunks=2,
                    down_traffic=((1,),),
                )
            ])
