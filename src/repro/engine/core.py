"""The async, transport-agnostic round engine.

One execution substrate for every declared protocol workflow
(:mod:`repro.api.protocol`): the engine walks the server's validated
operation graph, fans client operations out **concurrently** over a
pluggable :class:`~repro.engine.transport.Transport`, and threads a
virtual clock through the Appendix-C pipeline recurrence so that what
used to be an offline calculation (:mod:`repro.pipeline.scheduler`) is
now the observed schedule of real execution.

Chunk pipelining (§4.1): :meth:`RoundEngine.run_chunked_round` splits the
aggregation into m independent chunk sub-rounds
(:mod:`repro.pipeline.chunking`) running as concurrent asyncio tasks.
Cross-chunk ordering follows Appendix C exactly — stage s of chunk c
begins at ``max(f_{s-1,c}, r_{s,c})`` where the r-term serializes each
resource (one chunk at a time, earlier stages have priority) — so the
traced completion time of an engine run reproduces
:func:`repro.pipeline.scheduler.build_schedule` for the same stage
times.

Cross-round (and cross-chunk) resource arbitration is a discrete-event
simulation (:mod:`repro.engine.arbiter`): every stage execution is a
registered node and each resource is granted to the lowest-virtual-
begin-time waiter, ties broken by round serial then chunk index.
Traces are therefore deterministic and independent of asyncio task
scheduling; :func:`repro.sim.timeline.simulate_trace` replays the same
arbitration offline and the executed trace equals it exactly.

Rounds submitted through :meth:`RoundEngine.submit_round` share the
engine's per-resource availability clocks (which persist across rounds
and event loops), so consecutive rounds land on one session timeline
and overlap wherever their data dependencies allow.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Optional

import numpy as np

from repro.engine.arbiter import AsyncResourceArbiter
from repro.engine.timing import OpTiming, stage_groups
from repro.engine.transport import (
    Channel,
    ClientUnavailable,
    InProcessTransport,
    Transport,
)
from repro.pipeline.chunking import concat_chunks, split_vector
from repro.pipeline.stages import Resource, Stage
from repro.sim.timeline import ExecutionTrace, StageSpan

if TYPE_CHECKING:  # imported lazily to avoid an api ↔ engine import cycle
    from repro.api.protocol import ProtocolClient, ProtocolServer

#: Virtual time before which the current submitted job may not begin —
#: set per job task from its dependency's finish, so unrelated rounds on
#: the same engine never serialize each other's clocks.
_JOB_FLOOR: contextvars.ContextVar[float] = contextvars.ContextVar(
    "repro_engine_job_floor", default=0.0
)
#: Sink collecting the (begin, finish) interval of every engine round
#: the current submitted job executes (chunk tasks of one round share
#: one entry).  Lets callers attribute timing to their own job even
#: when other jobs share the engine's timeline.
_JOB_ROUNDS: contextvars.ContextVar[Optional[list]] = contextvars.ContextVar(
    "repro_engine_job_rounds", default=None
)


def _dispatches_to_clients(server: ProtocolServer, op: str, resource: str) -> bool:
    """c-comp ops always fan out; comm ops fan out unless the server
    declares a coordination method of that name (server-side comm, e.g.
    Table 1's "server dispatches the aggregate")."""
    if resource == Resource.C_COMP.value:
        return True
    if resource == Resource.COMM.value:
        return not callable(getattr(server, op, None))
    return False


@dataclass(frozen=True)
class Targeted:
    """A server-op result addressed to specific clients.

    Returning ``Targeted({client_id: payload, …})`` from a coordination
    method makes the engine dispatch the *next* client operation only to
    the listed clients, each with its own payload — how SecAgg narrows
    each stage to the surviving participant set (U1 ⊇ U2 ⊇ …).  An empty
    mapping dispatches to nobody (the following server op receives ``{}``).
    """

    payloads: Mapping[int, Any]


@dataclass
class RoundHandle:
    """A round submitted to the engine; await :meth:`result` to join it.

    ``index`` is the submission order (0, 1, …) — not the trace round
    serial, which the engine assigns per executed round.  ``finish_time``
    is the virtual finish of the job's last executed round, available
    once the job completes; dependents are floored at it.
    """

    index: int
    task: asyncio.Task
    finish_time: Optional[float] = None

    async def result(self) -> Any:
        return await self.task


@dataclass
class ChunkedRoundResult:
    """Outcome of a chunk-pipelined round.

    ``trace_round`` is the engine-assigned serial identifying this
    round's spans in ``engine.trace`` (``trace.round_spans(trace_round)``).
    """

    result: Any
    chunk_results: list
    begin: float
    finish: float
    trace_round: int = 0

    @property
    def completion_time(self) -> float:
        return self.finish - self.begin


class EngineBusyError(RuntimeError):
    """A :class:`RoundEngine` was driven from a second event loop while
    rounds were still in flight on another.

    Raised by the engine's loop guard — most commonly when ``run_sync``
    (or ``run_round_sync``) is called under a running event loop that is
    itself still executing rounds on the same engine, which moves the new
    round onto a private helper-loop thread.  Sharing one engine across
    live loops would corrupt its virtual-time arbitration, so it is
    refused instead.
    """


def run_sync(coro) -> Any:
    """Run a coroutine to completion from synchronous code.

    Uses ``asyncio.run`` when no loop is running; inside a running loop
    (Jupyter, an async caller that insists on the sync API) the
    coroutine executes on a private loop in a helper thread instead of
    raising.  Engine state is rebuilt per loop when idle; an engine
    that still has rounds in flight on another loop refuses the second
    loop with :class:`EngineBusyError` rather than corrupting its clocks.
    """
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(coro)
    outcome: dict[str, Any] = {}

    def _target() -> None:
        try:
            outcome["result"] = asyncio.run(coro)
        except BaseException as exc:  # re-raised in the calling thread
            outcome["error"] = exc

    thread = threading.Thread(target=_target, name="repro-engine-run-sync")
    thread.start()
    thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


def _clients_by_id(clients) -> dict[int, ProtocolClient]:
    if isinstance(clients, Mapping):
        return dict(clients)
    return {c.id: c for c in clients}


class RoundEngine:
    """Executes declared protocol rounds over a pluggable transport.

    One engine instance can run many rounds; its per-resource virtual
    availability clocks persist across them, so every round it executes
    lands on a single shared :class:`ExecutionTrace` timeline.
    """

    def __init__(
        self,
        transport: Optional[Transport] = None,
        timing: Optional[OpTiming] = None,
        trace: Optional[ExecutionTrace] = None,
    ):
        self.transport = transport or InProcessTransport()
        self.timing = timing or OpTiming()
        self.trace = trace if trace is not None else ExecutionTrace()
        self._resource_free: dict[str, float] = {}
        self._round_serial = 0
        self._submit_serial = 0
        # The discrete-event arbiter orders *all* stage executions —
        # across chunks and across concurrently submitted rounds — by
        # virtual begin time (ties: round serial, then chunk), so traces
        # are exact and independent of asyncio task scheduling.  It is
        # rebuilt per event loop (its futures cannot cross loops) around
        # the engine-owned ``_resource_free`` clocks, which persist.
        self._arbiter: Optional[AsyncResourceArbiter] = None
        self._arbiter_loop = None
        # In-flight workflow count + owning loop: one engine may only be
        # driven from one event loop at a time (see _enter_loop).
        self._active_count = 0
        self._active_loop = None

    # ------------------------------------------------------------------
    # Single-round execution
    # ------------------------------------------------------------------
    async def run_round(
        self,
        server: ProtocolServer,
        clients,
        *,
        round_index: int = 0,
        inputs: Optional[Mapping[int, Any]] = None,
        app_server=None,
        app_clients: Optional[Mapping[int, Any]] = None,
        transport: Optional[Transport] = None,
        timing: Optional[OpTiming] = None,
    ) -> Any:
        """Run every declared operation once; returns the final result.

        Same protocol contract as the old synchronous runtime — client
        operations fan out with the previous result as payload (dicts
        keyed by client id are unpacked per client, :class:`Targeted`
        results restrict the recipient set), server operations receive
        the response dict — but client dispatch is concurrent and flows
        through the engine's transport.
        """
        by_id = _clients_by_id(clients)
        if not by_id:
            raise ValueError("need at least one client")
        if inputs is None and app_clients:
            inputs = {
                cid: app.prepare_data(round_index)
                for cid, app in app_clients.items()
            }
        groups = stage_groups(server)
        self._enter_loop()
        arbiter = self._arbiter
        channel = None
        trace_round = self._next_round_serial()
        try:
            arbiter.add_round(
                trace_round,
                [g[0].resource.value for g in groups],
                floor=_JOB_FLOOR.get(),
            )
            channel = (transport or self.transport).connect(by_id)
            carry = await self._execute_workflow(
                server,
                by_id,
                groups,
                arbiter,
                channel,
                inputs,
                chunk_index=0,
                n_chunks=1,
                timing=timing or self.timing,
                trace_round=trace_round,
            )
        except BaseException:
            # A failed round must withdraw its pending stages, or other
            # rounds sharing the arbiter would wait on them forever.
            arbiter.abort_round(trace_round)
            raise
        finally:
            self._exit_loop()
            if channel is not None:
                await channel.aclose()
        self._record_job_round(trace_round)
        if app_server is not None:
            app_server.use_output(carry)
        for app in (app_clients or {}).values():
            app.use_output(carry)
        return carry

    def run_round_sync(self, server, clients, **kwargs) -> Any:
        """Synchronous wrapper; safe even under a running event loop."""
        return run_sync(self.run_round(server, clients, **kwargs))

    # ------------------------------------------------------------------
    # Chunk-pipelined execution
    # ------------------------------------------------------------------
    async def run_chunked_round(
        self,
        factory: Callable[[int, dict[int, np.ndarray]], tuple[ProtocolServer, Iterable[ProtocolClient]]],
        inputs: Mapping[int, np.ndarray],
        n_chunks: int,
        *,
        pipelined: bool = True,
        transport: Optional[Transport] = None,
        timing: Optional[OpTiming] = None,
        extract: Callable[[Any], Any] = lambda r: getattr(r, "aggregate", r),
    ) -> ChunkedRoundResult:
        """Split ``inputs`` into m chunks and run m sub-rounds overlapped.

        ``factory(chunk_index, chunk_inputs)`` builds one chunk's
        (server, clients) pair — e.g. a full XNoise+SecAgg sub-round over
        the chunk slice; round-scoped context (round number, PKI, …)
        should be closed over by the factory.  Chunks execute as
        concurrent tasks; the virtual clock serializes them per resource
        exactly as Appendix C prescribes (``pipelined=False`` chains
        chunks end-to-end instead, the plain-execution baseline).  Chunk
        aggregates concatenate in chunk order per the §4.1 identity.
        """
        if not inputs:
            raise ValueError("no inputs")
        if n_chunks < 1:
            raise ValueError("n_chunks must be >= 1")
        per_client = {u: split_vector(v, n_chunks) for u, v in inputs.items()}
        rounds = []
        for j in range(n_chunks):
            chunk_inputs = {u: chunks[j] for u, chunks in per_client.items()}
            server, clients = factory(j, chunk_inputs)
            rounds.append((server, _clients_by_id(clients)))

        per_chunk_groups = [stage_groups(server) for server, _ in rounds]
        structure = [
            [(g.resource, len(ops)) for g, ops in groups]
            for groups in per_chunk_groups
        ]
        if any(s != structure[0] for s in structure[1:]):
            raise ValueError("chunk sub-rounds must share one workflow structure")
        self._enter_loop()
        arbiter = self._arbiter
        trace_round = self._next_round_serial()
        use_transport = transport or self.transport
        use_timing = timing or self.timing

        async def _chunk(j: int) -> Any:
            server, by_id = rounds[j]
            channel = use_transport.connect(by_id)
            try:
                return await self._execute_workflow(
                    server,
                    by_id,
                    per_chunk_groups[j],
                    arbiter,
                    channel,
                    None,
                    chunk_index=j,
                    n_chunks=n_chunks,
                    timing=use_timing,
                    trace_round=trace_round,
                )
            finally:
                await channel.aclose()

        tasks: list[asyncio.Task] = []
        try:
            arbiter.add_round(
                trace_round,
                [g[0].resource.value for g in per_chunk_groups[0]],
                n_chunks,
                serial=not pipelined,
                floor=_JOB_FLOOR.get(),
            )
            tasks = [asyncio.ensure_future(_chunk(j)) for j in range(n_chunks)]
            chunk_results = await asyncio.gather(*tasks)
        except BaseException:
            # A failed chunk (e.g. ProtocolAbort) leaves stages the
            # siblings depend on unfinished; cancel the siblings parked
            # on the arbiter and withdraw the round so channels close,
            # no task outlives the round, and other rounds never wait
            # on the dead job's stages.
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            arbiter.abort_round(trace_round)
            raise
        finally:
            self._exit_loop()
        parts = [np.asarray(extract(r)) for r in chunk_results]
        begin, finish = self.trace.round_interval(trace_round)
        self._record_job_round(trace_round)
        return ChunkedRoundResult(
            result=concat_chunks(parts),
            chunk_results=list(chunk_results),
            begin=begin,
            finish=finish,
            trace_round=trace_round,
        )

    # ------------------------------------------------------------------
    # Session-level submission
    # ------------------------------------------------------------------
    def submit_round(
        self,
        runner: Callable[[], Any],
        *,
        after: Optional[RoundHandle] = None,
    ) -> RoundHandle:
        """Submit a round job (a coroutine factory) to the engine.

        The job starts once ``after`` (its data dependency) completes;
        because all jobs share this engine's resource clocks, consecutive
        rounds occupy one virtual timeline and overlap wherever the
        dependency structure permits.
        """

        async def _run():
            if after is not None:
                await asyncio.shield(after.task)
                # The dependency's output exists only at its virtual
                # finish; this job may not begin earlier on the clock.
                # The floor is job-local (a context variable), so
                # unrelated rounds on the engine are never serialized.
                _JOB_FLOOR.set(
                    max(_JOB_FLOOR.get(), after.finish_time or 0.0)
                )
            rounds: list = []
            _JOB_ROUNDS.set(rounds)
            try:
                return await runner()
            finally:
                handle.finish_time = max(
                    (finish for engine, _, finish in rounds if engine is self),
                    default=_JOB_FLOOR.get(),
                )

        index = self._submit_serial
        self._submit_serial += 1
        handle = RoundHandle(index=index, task=asyncio.ensure_future(_run()))
        return handle

    # ------------------------------------------------------------------
    # Externally-modeled rounds
    # ------------------------------------------------------------------
    def record_modeled_round(self, stages) -> int:
        """Append one *modeled* round to this engine's trace.

        For workloads that do their work outside the engine but still
        want to live on its timeline — e.g. the training session's fast
        noise-algebra path, whose round cost comes from the fleet's
        timing model rather than executed protocol stages.  ``stages``
        is an iterable of ``(label, resource, duration_seconds,
        down_bytes, up_bytes)`` tuples, laid back to back starting at
        the trace's current completion time.  Returns the engine round
        serial the spans carry; the round is attributed to the current
        submitted job (``current_job_rounds``) like an executed one.
        """
        serial = self._next_round_serial()
        t = self.trace.completion_time
        for s, (label, resource, duration, down, up) in enumerate(stages):
            if duration < 0:
                raise ValueError("modeled stage durations must be non-negative")
            finish = t + duration
            self.trace.add(
                StageSpan(
                    round_index=serial,
                    chunk=0,
                    stage=s,
                    label=label,
                    resource=resource,
                    begin=t,
                    finish=finish,
                    up_bytes=up,
                    down_bytes=down,
                )
            )
            t = finish
        self._record_job_round(serial)
        return serial

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @property
    def round_serial(self) -> int:
        """Serial the next executed round will get."""
        return self._round_serial

    def current_job_rounds(self) -> list:
        """(begin, finish) of each round the current submitted job ran
        **on this engine**.

        Job-local (context variable) and engine-filtered, so the answer
        is unaffected by other jobs sharing this engine's timeline or by
        rounds the job ran on a different engine (whose virtual clock is
        unrelated).  Empty outside a :meth:`submit_round` job.
        """
        return [
            (begin, finish)
            for engine, begin, finish in (_JOB_ROUNDS.get() or [])
            if engine is self
        ]

    def _record_job_round(self, trace_round: int) -> None:
        sink = _JOB_ROUNDS.get()
        if sink is not None:
            try:
                begin, finish = self.trace.round_interval(trace_round)
            except ValueError:
                return  # round executed no stages (nothing to attribute)
            sink.append((self, begin, finish))

    def _next_round_serial(self) -> int:
        serial = self._round_serial
        self._round_serial += 1
        return serial

    def _enter_loop(self):
        """Claim the engine for the current event loop.

        The per-loop arbiter is only rebuilt when nothing is in flight
        (its resource clocks live on the engine and persist); concurrent
        use from a second loop (e.g. run_sync's helper thread while the
        outer loop still runs a round) would silently break virtual-time
        arbitration, so it is refused.
        """
        loop = asyncio.get_running_loop()
        if self._active_count and self._active_loop is not loop:
            raise EngineBusyError(
                "this RoundEngine is already running rounds on another "
                "event loop; either await those rounds before driving "
                "the engine from this loop (run_sync under a running "
                "loop executes on a private helper loop, which triggers "
                "this guard) or create a separate RoundEngine per loop"
            )
        if self._arbiter_loop is not loop:
            self._arbiter = AsyncResourceArbiter(self._resource_free)
            self._arbiter_loop = loop
        self._active_loop = loop
        self._active_count += 1
        return loop

    def _exit_loop(self) -> None:
        self._active_count -= 1

    async def _execute_workflow(
        self,
        server: ProtocolServer,
        by_id: dict[int, ProtocolClient],
        groups: list[tuple[Stage, list[str]]],
        arbiter: AsyncResourceArbiter,
        channel: Channel,
        inputs,
        *,
        chunk_index: int,
        n_chunks: int,
        timing: OpTiming,
        trace_round: int,
    ) -> Any:
        carry = inputs
        for s, (stage, ops) in enumerate(groups):
            resource = stage.resource.value
            # The arbiter resolves both Appendix-C terms at once: the
            # grant waits for this stage's dependencies (o- and r-term)
            # and for the resource, which serves the lowest-virtual-
            # begin waiter across every chunk and submitted round.
            begin = await arbiter.acquire(trace_round, s, chunk_index)
            t = begin
            stage_down = 0
            stage_up = 0
            for op in ops:
                # Ops grouped into one stage share its resource by
                # construction (§4.1 grouping).
                if _dispatches_to_clients(server, op, resource):
                    carry, duration, down, up = await self._dispatch_clients(
                        server, channel, by_id, op, resource, carry,
                        n_chunks=n_chunks, chunk_index=chunk_index,
                        timing=timing,
                    )
                    stage_down += down
                    stage_up += up
                else:
                    carry = server.operation_method(op)(carry)
                    duration = timing.duration(
                        op, resource,
                        n_chunks=n_chunks, chunk_index=chunk_index,
                    )
                t += duration
            finish = t
            self.trace.add(
                StageSpan(
                    round_index=trace_round,
                    chunk=chunk_index,
                    stage=s,
                    label=stage.name,
                    resource=resource,
                    begin=begin,
                    finish=finish,
                    up_bytes=stage_up,
                    down_bytes=stage_down,
                )
            )
            arbiter.release(trace_round, s, chunk_index, finish)
        return carry

    async def _dispatch_clients(
        self,
        server: ProtocolServer,
        channel: Channel,
        by_id: dict[int, ProtocolClient],
        op: str,
        resource: str,
        carry,
        *,
        n_chunks: int,
        chunk_index: int,
        timing: OpTiming,
    ) -> tuple[dict[int, Any], float, int, int]:
        """Fan one client operation out concurrently; collect live replies.

        A server that defines ``receive_response`` (see
        :class:`~repro.api.protocol.ProtocolServer`) is handed each
        response as its delivery completes; the dict then holds what it
        returned.  Returns the response dict, the op's virtual duration,
        and the op's *measured* directional traffic — the framed request
        bytes (server→client, the downlink) and response bytes
        (client→server, the uplink) every delivery reports (0 for
        in-process dispatch, which never serializes).
        """
        if isinstance(carry, Targeted):
            requests = [(cid, carry.payloads[cid]) for cid in sorted(carry.payloads)]
        elif isinstance(carry, dict):
            requests = [
                (cid, carry[cid] if cid in carry else carry)
                for cid in sorted(by_id)
            ]
        else:
            requests = [(cid, carry) for cid in sorted(by_id)]

        receive = getattr(server, "receive_response", None)

        async def exchange(cid: int, payload):
            delivery = await channel.request(cid, op, payload)
            if receive is not None:
                # The arrival seam: the server consumes the response now
                # and the engine keeps only what it hands back.
                delivery = replace(
                    delivery, response=receive(op, cid, delivery.response)
                )
            return delivery

        deliveries = await asyncio.gather(
            *(exchange(cid, payload) for cid, payload in requests),
            return_exceptions=True,
        )
        responses: dict[int, Any] = {}
        worst_latency = 0.0
        down = 0
        up = 0
        for (cid, _), outcome in zip(requests, deliveries):
            if isinstance(outcome, ClientUnavailable):
                continue
            if isinstance(outcome, BaseException):
                raise outcome
            responses[cid] = outcome.response
            worst_latency = max(worst_latency, outcome.latency)
            down += outcome.request_nbytes
            up += outcome.response_nbytes
        duration = (
            timing.duration(op, resource, n_chunks=n_chunks, chunk_index=chunk_index)
            + worst_latency
        )
        return responses, duration, down, up
