"""Virtual-time cost models for engine-executed operations.

The engine charges each operation a *simulated* duration and threads it
through the Appendix-C recurrence; these models are where the durations
come from.  :class:`StageTiming` connects execution to the Eq.-3
performance model (:mod:`repro.pipeline.perf_model`), which is what makes
an engine trace comparable — and, for matching configurations, equal —
to the offline :mod:`repro.pipeline.scheduler` prediction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.api.protocol import ProtocolServer, stage_groups

if TYPE_CHECKING:
    from repro.pipeline.perf_model import WorkflowPerfModel


class OpTiming:
    """Base cost model: every operation is free (pure functional runs)."""

    def duration(
        self, op: str, resource: str, *, n_chunks: int = 1, chunk_index: int = 0
    ) -> float:
        return 0.0


class PerOpTiming(OpTiming):
    """Explicit per-operation durations (seconds per chunk)."""

    def __init__(self, durations: Mapping[str, float], default: float = 0.0):
        if any(t < 0 for t in durations.values()) or default < 0:
            raise ValueError("durations must be non-negative")
        self.durations = dict(durations)
        self.default = default

    def duration(
        self, op: str, resource: str, *, n_chunks: int = 1, chunk_index: int = 0
    ) -> float:
        return self.durations.get(op, self.default)


class ScaledResourceTiming(OpTiming):
    """Scale an inner model's durations per resource.

    The training session's real-protocol path charges the sampled
    straggler's compute slowdown this way: each round wraps the
    engine's base timing and multiplies every ``c-comp`` duration by
    :meth:`repro.fleet.Fleet.straggler_factor` — comm stages keep
    their transport-derived link latency untouched (a no-op around the
    default zero-cost model).
    """

    def __init__(self, inner: OpTiming, factors: Mapping[str, float]):
        if any(f < 0 for f in factors.values()):
            raise ValueError("scale factors must be non-negative")
        self.inner = inner
        self.factors = dict(factors)

    def duration(
        self, op: str, resource: str, *, n_chunks: int = 1, chunk_index: int = 0
    ) -> float:
        base = self.inner.duration(
            op, resource, n_chunks=n_chunks, chunk_index=chunk_index
        )
        return base * self.factors.get(resource, 1.0)


class StageTiming(OpTiming):
    """Durations from a declared workflow's Eq.-3 stage perf model.

    Ops are grouped into stages exactly as
    :meth:`ProtocolServer.pipeline_stages` does (consecutive
    same-resource ops merge); each op is charged an even split of its
    stage's τ(d, m), so a stage's ops sum to the stage time and the
    engine's schedule matches :func:`repro.pipeline.scheduler.build_schedule`
    for the same model.

    Pair this with a zero-latency transport (the in-process default):
    the engine *adds* transport-reported link latency on top of op
    durations, and an Eq.-3 model's comm stages already include the
    bandwidth-gated transfer time — combining it with a transport
    priced by ``link_seconds`` would charge communication twice.  Use
    one timing source or the other.
    """

    def __init__(
        self,
        server: ProtocolServer,
        perf_model: WorkflowPerfModel,
        update_size: float,
    ):
        groups = stage_groups(server)
        if len(groups) != len(perf_model.models):
            raise ValueError(
                f"workflow groups into {len(groups)} stages but the perf "
                f"model has {len(perf_model.models)}"
            )
        self._stage_of: dict[str, int] = {}
        self._ops_in_stage: dict[int, int] = {}
        for s, (_stage, ops) in enumerate(groups):
            self._ops_in_stage[s] = len(ops)
            for op in ops:
                self._stage_of[op] = s
        self.perf_model = perf_model
        self.update_size = float(update_size)

    def duration(
        self, op: str, resource: str, *, n_chunks: int = 1, chunk_index: int = 0
    ) -> float:
        s = self._stage_of.get(op)
        if s is None:
            return 0.0
        tau = self.perf_model.models[s].time(self.update_size, n_chunks)
        return tau / self._ops_in_stage[s]
