"""Virtual-time simulation: execution traces and their offline replay.

:mod:`repro.sim.timeline` holds the traced spans every engine round
records (:class:`ExecutionTrace`, :class:`StageSpan`, per-direction
:class:`TrafficSplit`) and the discrete-event replay that reproduces
them offline (:func:`simulate_trace`).  The device population the
paper's testbed throttles (§6.1 bandwidth and Zipf latency skew) lives
in :mod:`repro.fleet`.
"""

from repro.sim.timeline import (
    ExecutionTrace,
    SimulatedRound,
    StageSpan,
    Timeline,
    TraceTimeline,
    TrafficSplit,
    build_timelines,
    simulate_trace,
)

__all__ = [
    "ExecutionTrace",
    "SimulatedRound",
    "StageSpan",
    "Timeline",
    "TraceTimeline",
    "TrafficSplit",
    "build_timelines",
    "simulate_trace",
]
