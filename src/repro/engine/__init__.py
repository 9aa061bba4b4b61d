"""Unified async round execution (the Dordis execution substrate).

Every round in the repo — an Appendix-D declared protocol, the
SecAgg/XNoise protocol drivers, and the training session loop — runs
through one event-driven :class:`RoundEngine`:

- **Transport-agnostic**: in-process direct dispatch, the in-process
  wire serialization boundary (frames priced on §6.1 device links),
  real sockets (:class:`SocketTransport`: framed TCP behind one
  listening port; :class:`ListenerTransport` when the listener is owned
  elsewhere), and dropout-injecting middleware
  are interchangeable backends.
- **Chunk-pipelined**: aggregation tasks split into m sub-tasks
  (:mod:`repro.pipeline.chunking`) executed as overlapping asyncio tasks
  whose cross-chunk ordering is the Appendix-C schedule — the pipeline
  model is the execution path, not an offline calculator.
- **Traced**: per-stage virtual timing lands in a
  :class:`repro.sim.timeline.ExecutionTrace` shared across rounds.
- **Exactly arbitrated**: a discrete-event virtual-time arbiter
  (:mod:`repro.engine.arbiter`) grants each resource to the lowest-
  virtual-begin-time waiter across chunks *and* concurrently submitted
  rounds, so traces are deterministic, scheduling-order independent,
  and equal to the offline replay
  (:func:`repro.sim.timeline.simulate_trace`).
"""

from repro.engine.arbiter import AsyncResourceArbiter, VirtualTimeArbiter
from repro.engine.core import (
    ChunkedRoundResult,
    EngineBusyError,
    RoundEngine,
    RoundHandle,
    Targeted,
    run_sync,
)
from repro.engine.timing import (
    OpTiming,
    PerOpTiming,
    ScaledResourceTiming,
    StageTiming,
    stage_groups,
)
from repro.engine.listener import (
    ConnectionStats,
    CoordinatorListener,
    DialingClient,
    ListenerTransport,
    SocketTransport,
)
from repro.engine.transport import (
    Channel,
    ClientUnavailable,
    Delivery,
    DropoutTransport,
    InProcessTransport,
    SerializingTransport,
    Transport,
)

__all__ = [
    "AsyncResourceArbiter",
    "VirtualTimeArbiter",
    "ChunkedRoundResult",
    "EngineBusyError",
    "RoundEngine",
    "RoundHandle",
    "Targeted",
    "run_sync",
    "stage_groups",
    "OpTiming",
    "PerOpTiming",
    "ScaledResourceTiming",
    "StageTiming",
    "Channel",
    "ClientUnavailable",
    "ConnectionStats",
    "CoordinatorListener",
    "Delivery",
    "DialingClient",
    "DropoutTransport",
    "InProcessTransport",
    "ListenerTransport",
    "SerializingTransport",
    "SocketTransport",
    "Transport",
]
