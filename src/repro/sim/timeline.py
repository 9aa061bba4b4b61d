"""Wall-clock training timelines: time-to-accuracy under pipelining.

The evaluation's headline speedups (Fig. 10) are per-round; what a
deployment cares about is *time to a target accuracy*.  This module
combines a utility trajectory (metric per round, from a
:class:`repro.core.dordis.DordisSession` run) with the per-round timing
model (plain or pipelined) into a wall-clock curve — the derived
experiment the paper's §6.4 numbers imply: the same accuracy is reached
up to 2.4× sooner with pipelining, because the *round sequence* is
unchanged and only its clock is compressed.

A :class:`Timeline` takes one duration per round, so the same curve
serves the model's uniform round time and an engine-executed session's
traced per-round durations.

It also defines :class:`ExecutionTrace`, the per-(stage, chunk) interval
record the :class:`repro.engine.RoundEngine` fills while *executing*
rounds — the measured counterpart to the offline
:class:`repro.pipeline.scheduler.PipelineSchedule`.

:func:`simulate_trace` is the offline discrete-event replay of the
engine's virtual-time arbiter: given round structures and per-stage
durations it reproduces, span for span, the :class:`ExecutionTrace` the
engine emits when those rounds execute concurrently — the oracle the
engine's determinism tests and the concurrent-rounds benchmark compare
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.pipeline.perf_model import WorkflowPerfModel
from repro.pipeline.simulator import compare_plain_pipelined


@dataclass(frozen=True)
class Timeline:
    """Cumulative wall-clock per completed round plus the metric curve.

    ``round_durations`` holds one duration per completed round: the
    model's uniform round time (:func:`build_timelines`) or the
    per-round durations an engine-executed session traces.
    """

    round_durations: tuple
    metric_history: tuple
    metric_name: str

    def __post_init__(self) -> None:
        if len(self.round_durations) != len(self.metric_history):
            raise ValueError("one duration per completed round required")

    @property
    def elapsed(self) -> np.ndarray:
        """Elapsed seconds after each completed round."""
        return np.cumsum(np.asarray(self.round_durations, dtype=float))

    def time_to_metric(self, target: float, higher_is_better: bool = True) -> float:
        """Seconds until the metric first reaches ``target``; inf if never."""
        for t, value in zip(self.elapsed, self.metric_history):
            hit = value >= target if higher_is_better else value <= target
            if hit:
                return float(t)
        return float("inf")

    @property
    def total_seconds(self) -> float:
        return float(self.elapsed[-1]) if self.metric_history else 0.0


class TrafficSplit(NamedTuple):
    """Directional wire-byte count: server→client down, client→server up."""

    down: int
    up: int

    @property
    def total(self) -> int:
        return self.down + self.up


@dataclass(frozen=True)
class StageSpan:
    """One stage execution interval for one chunk, in virtual seconds.

    ``round_index`` is the **engine-assigned round serial** (0, 1, … in
    execution order on one engine), not the caller's training-round
    number; chunked rounds report theirs as
    ``ChunkedRoundResult.trace_round``.

    Traffic is *measured and directional*: ``down_bytes`` is the framed
    request bytes the server pushed to clients (model/state broadcast,
    routed inboxes), ``up_bytes`` the framed response bytes clients sent
    back (masked vectors, shares — see
    :class:`repro.engine.transport.Delivery`).  Both are 0 for
    in-process execution, which never serializes, and exact — byte for
    byte what was written to the socket — for the serializing and
    socket transports.  ``traffic_bytes`` is their sum; constructing a
    span whose ``traffic_bytes`` disagrees with the split is an error
    (the invariant ``up + down == total`` holds for every span, by
    construction).
    """

    round_index: int
    chunk: int
    stage: int
    label: str
    resource: str
    begin: float
    finish: float
    up_bytes: int = 0
    down_bytes: int = 0
    traffic_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.up_bytes < 0 or self.down_bytes < 0:
            raise ValueError("directional byte counts must be non-negative")
        total = self.up_bytes + self.down_bytes
        if self.traffic_bytes is None:
            object.__setattr__(self, "traffic_bytes", total)
        elif self.traffic_bytes != total:
            raise ValueError(
                f"traffic_bytes={self.traffic_bytes} must equal "
                f"up_bytes + down_bytes = {total}; traffic is directional "
                f"now — pass the split and let the sum derive"
            )

    @property
    def duration(self) -> float:
        return self.finish - self.begin

    @property
    def traffic_split(self) -> TrafficSplit:
        return TrafficSplit(down=self.down_bytes, up=self.up_bytes)


@dataclass
class ExecutionTrace:
    """Per-stage timing surfaced by engine-executed rounds.

    Spans accumulate across every round an engine runs, in one shared
    virtual clock — consecutive rounds therefore appear on a common
    timeline and their overlap (or lack of it) is directly visible.
    """

    spans: list = field(default_factory=list)
    _max_finish: float = field(default=0.0, repr=False)
    _round_bounds: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # Derive the caches when constructed over pre-existing spans
        # (e.g. a trace rehydrated from recorded data).
        spans, self.spans = self.spans, []
        for span in spans:
            self.add(span)

    def add(self, span: StageSpan) -> None:
        self.spans.append(span)
        if span.finish > self._max_finish:
            self._max_finish = span.finish
        bounds = self._round_bounds.get(span.round_index)
        if bounds is None:
            self._round_bounds[span.round_index] = (span.begin, span.finish)
        else:
            self._round_bounds[span.round_index] = (
                min(bounds[0], span.begin),
                max(bounds[1], span.finish),
            )

    def round_spans(self, round_index: int) -> list:
        return [s for s in self.spans if s.round_index == round_index]

    @property
    def completion_time(self) -> float:
        """Finish time of the latest span (0 for an empty trace); O(1)."""
        return self._max_finish if self.spans else 0.0

    def round_interval(self, round_index: int) -> tuple[float, float]:
        """(first begin, last finish) of one round's spans; O(1)."""
        bounds = self._round_bounds.get(round_index)
        if bounds is None:
            raise ValueError(f"no spans recorded for round {round_index}")
        return bounds

    def round_duration(self, round_index: int) -> float:
        begin, finish = self.round_interval(round_index)
        return finish - begin

    def stage_intervals(
        self, stage: int, round_index: int = 0
    ) -> list[tuple[float, float]]:
        """(begin, finish) per chunk for one stage, in chunk order."""
        spans = sorted(
            (s for s in self.round_spans(round_index) if s.stage == stage),
            key=lambda s: s.chunk,
        )
        return [(s.begin, s.finish) for s in spans]

    def resource_busy_time(self) -> dict:
        """Total busy seconds per resource, mirroring
        :meth:`repro.pipeline.scheduler.PipelineSchedule.resource_busy_time`."""
        out: dict = {}
        for s in self.spans:
            out[s.resource] = out.get(s.resource, 0.0) + s.duration
        return out

    # -- measured traffic ------------------------------------------------
    def round_traffic_bytes(self, round_index: int) -> int:
        """Measured wire bytes of one round (sum over its spans)."""
        return sum(s.traffic_bytes for s in self.round_spans(round_index))

    def round_traffic_split(self, round_index: int) -> TrafficSplit:
        """Directional wire bytes of one round: (down, up)."""
        spans = self.round_spans(round_index)
        return TrafficSplit(
            down=sum(s.down_bytes for s in spans),
            up=sum(s.up_bytes for s in spans),
        )

    def stage_traffic(self, round_index: int = 0) -> dict:
        """``{stage label: measured bytes}`` for one round, in stage order.

        Chunked rounds sum each stage's traffic across chunks.
        """
        out: dict = {}
        for s in sorted(self.round_spans(round_index), key=lambda s: s.stage):
            out[s.label] = out.get(s.label, 0) + s.traffic_bytes
        return out

    def stage_traffic_split(self, round_index: int = 0) -> dict:
        """``{stage label: TrafficSplit}`` for one round, in stage order.

        The directional counterpart of :meth:`stage_traffic`: chunked
        rounds sum each stage's down/up bytes across chunks.
        """
        out: dict = {}
        for s in sorted(self.round_spans(round_index), key=lambda s: s.stage):
            prev = out.get(s.label, TrafficSplit(0, 0))
            out[s.label] = TrafficSplit(
                down=prev.down + s.down_bytes, up=prev.up + s.up_bytes
            )
        return out

    @property
    def total_traffic_bytes(self) -> int:
        """Measured wire bytes across every traced round."""
        return sum(s.traffic_bytes for s in self.spans)

    @property
    def total_down_bytes(self) -> int:
        """Measured server→client wire bytes across every traced round."""
        return sum(s.down_bytes for s in self.spans)

    @property
    def total_up_bytes(self) -> int:
        """Measured client→server wire bytes across every traced round."""
        return sum(s.up_bytes for s in self.spans)


@dataclass(frozen=True)
class SimulatedRound:
    """Offline description of one engine round for :func:`simulate_trace`.

    ``resources`` holds one resource label per stage (the §4.1 grouping,
    e.g. ``("c-comp", "s-comp")``); ``durations[stage][chunk]`` the
    virtual seconds each (stage, chunk) execution takes — for a
    ``PerOpTiming`` engine run that is the sum of the stage's op
    durations plus any transport latency.  ``serial=True`` chains chunks
    end to end (the engine's ``pipelined=False`` baseline); ``floor`` is
    the submitting job's virtual start (``submit_round`` dependency
    floor); ``round_index`` overrides the engine-style serial (default:
    position in the list passed to :func:`simulate_trace`).

    ``down_traffic[stage][chunk]`` / ``up_traffic[stage][chunk]``
    optionally carry the measured *directional* wire bytes of each stage
    execution, so a replay of a round run over a serializing/socket
    transport can equal the executed trace *exactly* — including every
    span's ``down_bytes``/``up_bytes`` (and hence ``traffic_bytes``,
    their sum).  Omitted (``None``), the direction contributes 0;
    with both omitted every replayed span reports 0 traffic, matching
    in-process execution.
    """

    resources: tuple
    durations: tuple
    labels: tuple | None = None
    n_chunks: int = 1
    serial: bool = False
    floor: float = 0.0
    round_index: int | None = None
    down_traffic: tuple | None = None
    up_traffic: tuple | None = None


def simulate_trace(rounds, initial_clocks=None) -> ExecutionTrace:
    """Replay the engine's discrete-event arbitration offline.

    Runs the same :class:`repro.engine.arbiter.VirtualTimeArbiter` the
    engine executes on: each resource is granted to the lowest-virtual-
    begin-time stage (ties broken by round serial, then chunk index,
    then stage), one stage at a time.  For rounds that were submitted
    concurrently — registered before any of them finished a stage — the
    returned trace equals the engine's executed trace *exactly*,
    including span order.  Rounds a job submits only after another
    round's virtual finish should carry that finish as their ``floor``
    (as ``submit_round`` dependents do).

    ``initial_clocks`` seeds the per-resource availability clocks, e.g.
    a copy of a live engine's clocks to replay rounds appended to an
    existing timeline.
    """
    # Imported lazily: repro.engine.core imports this module, so a
    # top-level import of the arbiter would be circular.
    from repro.engine.arbiter import VirtualTimeArbiter

    arbiter = VirtualTimeArbiter(dict(initial_clocks) if initial_clocks else {})
    specs: dict[int, SimulatedRound] = {}
    for position, spec in enumerate(rounds):
        serial_no = (
            spec.round_index if spec.round_index is not None else position
        )
        if serial_no in specs:
            raise ValueError(f"duplicate round_index {serial_no}")
        if len(spec.durations) != len(spec.resources):
            raise ValueError("one durations row per stage required")
        if any(len(row) != spec.n_chunks for row in spec.durations):
            raise ValueError("one duration per (stage, chunk) required")
        for grid in (spec.down_traffic, spec.up_traffic):
            if grid is None:
                continue
            if len(grid) != len(spec.resources):
                raise ValueError("one traffic row per stage required")
            if any(len(row) != spec.n_chunks for row in grid):
                raise ValueError("one traffic entry per (stage, chunk) required")
        specs[serial_no] = spec
        arbiter.add_round(
            serial_no,
            list(spec.resources),
            spec.n_chunks,
            serial=spec.serial,
            floor=spec.floor,
        )
    trace = ExecutionTrace()
    while True:
        node = arbiter.poll()
        if node is None:
            break
        spec = specs[node.round_serial]
        finish = node.begin + float(spec.durations[node.stage][node.chunk])
        labels = spec.labels
        down = (
            int(spec.down_traffic[node.stage][node.chunk])
            if spec.down_traffic
            else 0
        )
        up = (
            int(spec.up_traffic[node.stage][node.chunk])
            if spec.up_traffic
            else 0
        )
        trace.add(
            StageSpan(
                round_index=node.round_serial,
                chunk=node.chunk,
                stage=node.stage,
                label=labels[node.stage] if labels else node.resource,
                resource=node.resource,
                begin=node.begin,
                finish=finish,
                up_bytes=up,
                down_bytes=down,
            )
        )
        arbiter.complete(node, finish)
    if not arbiter.idle:
        raise RuntimeError("replay stalled: unresolved stage dependencies")
    return trace


def build_timelines(
    metric_history,
    metric_name: str,
    perf_model: WorkflowPerfModel,
    update_size: int,
    training_time: float | None = None,
) -> tuple[Timeline, Timeline, float]:
    """(plain, pipelined, speedup) timelines for one utility trajectory.

    The utility trajectory is timing-independent (same protocol, same
    rounds), so one training run yields both clocks.
    """
    plain, pipelined, speedup = compare_plain_pipelined(
        perf_model, update_size, training_time=training_time
    )
    history = tuple(metric_history)
    return (
        Timeline((plain.total,) * len(history), history, metric_name),
        Timeline((pipelined.total,) * len(history), history, metric_name),
        speedup,
    )
