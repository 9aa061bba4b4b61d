"""Pipeline-parallel aggregation (§4): stages, perf model, scheduler.

Dordis abstracts the distributed-DP workflow into a sequence of stages
with alternating dominant resources (Table 1), splits the aggregation
into m chunk-aggregation sub-tasks, and pipelines them (Fig. 6).  The
optimal m minimizes the Appendix-C completion-time recurrence under the
Eq.-3 per-stage performance model.

- :mod:`repro.pipeline.stages`    — the Table-1 stage/resource mapping.
- :mod:`repro.pipeline.perf_model`— τ_s = β₁·d/m + β₂·m + β₃, profiling
  by least squares, and the calibrated Dordis cost model used by the
  Fig. 2 / Fig. 10 reproductions.
- :mod:`repro.pipeline.scheduler` — the completion-time recurrence and
  the optimal-chunk search.
- :mod:`repro.pipeline.simulator` — plain vs pipelined round timing.

The Table-3 network-footprint model lives beside the rebasing baseline
it prices, in :mod:`repro.xnoise.rebasing`.
"""

from repro.pipeline.stages import (
    Resource,
    Stage,
    DORDIS_STAGES,
    TABLE1_STEPS,
)
from repro.pipeline.perf_model import (
    StagePerfModel,
    WorkflowPerfModel,
    profile_stage,
    CostModelParams,
    build_dordis_perf_model,
)
from repro.pipeline.scheduler import (
    PipelineSchedule,
    completion_time,
    optimal_chunks,
)
from repro.pipeline.simulator import RoundTiming, simulate_round, compare_plain_pipelined
from repro.pipeline.chunking import (
    chunk_boundaries,
    split_vector,
    concat_chunks,
)

__all__ = [
    "Resource",
    "Stage",
    "DORDIS_STAGES",
    "TABLE1_STEPS",
    "StagePerfModel",
    "WorkflowPerfModel",
    "profile_stage",
    "CostModelParams",
    "build_dordis_perf_model",
    "PipelineSchedule",
    "completion_time",
    "optimal_chunks",
    "RoundTiming",
    "simulate_round",
    "compare_plain_pipelined",
    "chunk_boundaries",
    "split_vector",
    "concat_chunks",
]
