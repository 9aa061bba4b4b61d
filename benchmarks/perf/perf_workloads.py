"""The five round workloads: inputs, closed-loop drivers, verification.

Every workload is a closed loop of back-to-back rounds on one event-loop
thread — one round in flight, FedAvg's data dependency — with the
cohort's clients as coroutines dialing one localhost
``CoordinatorListener`` (``transport="sockets"``).  Cohort size is a
property of the input, not load-generator parallelism.  Inputs and
dropout patterns come from ``--seed`` here; the program only ever sees
the generated inputs.  The program is driven through its public API
only and imported inside :meth:`Workload.execute`, because importing it
is part of the set-up the benchmark times.

A round that raises, aborts, exceeds :data:`ROUND_DEADLINE_S` or fails
verification counts as failed and has no timing.
"""

from __future__ import annotations

import asyncio
import contextlib
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

import perf_trace
from perf_trace import Tracer

ROUND_DEADLINE_S = 60.0

#: Planned training horizon of the session workloads.  The noise plan
#: spreads ε over it, so it is fixed (not "however many rounds fit") to
#: keep the per-round noise level — and the ε trajectory both session
#: workloads must share — independent of how fast the host is.
SESSION_HORIZON = 64


@dataclass(frozen=True)
class SecAggParams:
    """Plain SecAgg: ``dropped`` of ``clients`` vanish before upload."""

    clients: int
    dimension: int
    bits: int
    dropped: int
    kind: str = "secagg"

    @property
    def threshold(self) -> int:
        return self.clients // 2 + 1


@dataclass(frozen=True)
class SessionParams:
    """A ``DordisSession`` on the real XNoise+SecAgg path."""

    num_clients: int
    sample_size: int
    mlp_hidden: int
    dropped: int
    pipeline_chunks: int
    horizon: int = SESSION_HORIZON
    kind: str = "session"


FULL = {
    "wide_model": SecAggParams(clients=4, dimension=2**20, bits=20, dropped=0),
    "many_clients": SecAggParams(clients=32, dimension=2**12, bits=20, dropped=3),
    # 16 clients, t = 9: seven dropouts is the most the threshold survives.
    "dropout_recovery": SecAggParams(clients=16, dimension=2**18, bits=20, dropped=7),
    "dordis_round": SessionParams(
        num_clients=40, sample_size=12, mlp_hidden=512, dropped=2, pipeline_chunks=1
    ),
    "dordis_round_chunked": SessionParams(
        num_clients=40, sample_size=12, mlp_hidden=512, dropped=2, pipeline_chunks=4
    ),
}

#: Same code paths at toy size, two timed rounds each (tier-1 contract test).
SMOKE = {
    "wide_model": SecAggParams(clients=4, dimension=2**10, bits=20, dropped=0),
    "many_clients": SecAggParams(clients=8, dimension=64, bits=20, dropped=1),
    "dropout_recovery": SecAggParams(clients=6, dimension=2**8, bits=20, dropped=2),
    "dordis_round": SessionParams(
        num_clients=12, sample_size=6, mlp_hidden=8, dropped=1, pipeline_chunks=1,
        horizon=3,
    ),
    "dordis_round_chunked": SessionParams(
        num_clients=12, sample_size=6, mlp_hidden=8, dropped=1, pipeline_chunks=4,
        horizon=3,
    ),
}
SMOKE_ROUNDS = 2

SCALES = {"full": FULL, "smoke": SMOKE}


class VerificationError(Exception):
    """A round completed but its output is wrong."""


@dataclass
class RoundRecord:
    """One timed round; ``wall_s`` stays ``None`` if the round failed."""

    index: int
    traced: bool
    wall_s: Optional[float] = None
    error: Optional[str] = None
    elements: int = 0
    down_bytes: int = 0
    up_bytes: int = 0
    engine_rounds: int = 0
    virtual_s: float = 0.0


class Budget:
    """When to stop starting timed rounds: a round count or a time box.

    Time-boxed, another round starts only while it is expected (by the
    median so far) to end inside the box, so a run measures for
    ``seconds`` and does not overshoot it by a round.
    """

    def __init__(self, seconds: Optional[float] = None, rounds: Optional[int] = None):
        if (seconds is None) == (rounds is None):
            raise ValueError("give exactly one of seconds and rounds")
        self.seconds = seconds
        self.rounds = rounds
        self._started = 0.0

    def start(self) -> None:
        self._started = perf_counter()

    def allows(self, records: list[RoundRecord]) -> bool:
        if self.rounds is not None:
            return len(records) < self.rounds
        if not records:
            return True
        walls = [r.wall_s for r in records if r.wall_s is not None]
        expected = statistics.median(walls) if walls else 0.0
        return perf_counter() - self._started + expected <= self.seconds


class FixedCountDropout:
    """Dropout model dropping exactly ``count`` of every sampled cohort.

    Homogeneous rounds: with a random per-round count the median of a
    handful of timed rounds swings with the draw, not with the code.
    """

    def __init__(self, count: int, seed: int):
        self.count = count
        self.seed = seed

    def dropped(self, sampled, round_index: int) -> set:
        rng = np.random.default_rng([self.seed, round_index])
        picks = rng.choice(len(sampled), size=self.count, replace=False)
        return {sampled[i] for i in picks}


class Workload:
    """Common shape: set-up (imports, inputs, warm-up round), then rounds."""

    root_span = perf_trace.ENGINE_SPAN

    def __init__(self, params, seed: int, tracer: Optional[Tracer] = None):
        self.params = params
        self.seed = seed
        self.tracer = tracer
        self.rounds: list[RoundRecord] = []
        self.setup_s = 0.0
        self.native_load_s = 0.0
        self.prg_backend = "unknown"
        self.cohort = 0
        #: Workload-specific facts worth keeping in the result file.
        self.detail: dict = {}

    def execute(self, budget: Budget) -> None:
        raise NotImplementedError

    # -- set-up ----------------------------------------------------------
    def _load_program(self) -> None:
        from repro import native

        started = perf_counter()
        native.load()
        self.native_load_s = perf_counter() - started
        self.prg_backend = native.backend_name()
        # Load every public package before wrapping, so a function one
        # of them imported by name is rebound there too.
        import repro.core  # noqa: F401
        import repro.engine  # noqa: F401
        import repro.secagg  # noqa: F401
        import repro.xnoise  # noqa: F401

        if self.tracer is not None:
            self.tracer.install()

    # -- tracing ---------------------------------------------------------
    def _begin_round(self, index: int) -> RoundRecord:
        # The traced pass alternates traced and untraced rounds, so
        # tracing overhead is measured inside one process.
        traced = self.tracer is not None and index % 2 == 1
        if self.tracer is not None:
            self.tracer.enabled = traced
            self.tracer.round_id = index
        return RoundRecord(index=index, traced=traced)

    def _root(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(self.root_span)

    def _end_round(self) -> None:
        if self.tracer is not None:
            self.tracer.enabled = False
            self.tracer.round_id = None

    def _book_engine_rounds(self, record: RoundRecord, engine, first_serial: int) -> None:
        """Traffic and virtual time of the engine rounds one round ran."""
        trace = engine.trace
        for serial in range(first_serial, engine.round_serial):
            spans = trace.round_spans(serial)
            if not spans:
                continue
            record.down_bytes += sum(s.down_bytes for s in spans)
            record.up_bytes += sum(s.up_bytes for s in spans)
            record.engine_rounds += len({s.chunk for s in spans})
            record.virtual_s += trace.round_duration(serial)

    # -- results ---------------------------------------------------------
    @property
    def failed(self) -> int:
        return sum(1 for r in self.rounds if r.wall_s is None)

    def _good(self, traced: Optional[bool] = None) -> list[RoundRecord]:
        return [
            r for r in self.rounds
            if r.wall_s is not None and (traced is None or r.traced == traced)
        ]

    def end_to_end(self) -> dict[str, float]:
        """The gated metrics this process can measure (all but ``setup_s``
        and ``peak_rss_mb``, which the runner owns)."""
        good = self._good()
        walls = [r.wall_s for r in good]
        return {
            "round_wall_s": statistics.median(walls),
            "agg_elements_per_s": sum(r.elements for r in good) / sum(walls),
            "round_wire_bytes": statistics.median(
                r.down_bytes + r.up_bytes for r in good
            ),
            "uplink_bytes_per_client": statistics.median(r.up_bytes for r in good)
            / self.cohort,
        }

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics, per traced round (set-up ones per run)."""
        tracer = self.tracer
        traced = self._good(traced=True)
        ids = {r.index for r in traced}
        n = len(traced)
        values = {m: total / n for m, total in tracer.counters.items()}
        table = tracer.layer_table(ids)
        for span in perf_trace.TABLE_SPANS:
            values[span + "_s"] = table.get(span, 0.0) / n
        server = perf_trace.SERVER_SPAN_PREFIX
        values["secagg.server.total_s"] = (
            tracer.inclusive(ids, lambda s: s[0].startswith(server)) / n
        )
        values["secagg.server.unmask_total_s"] = (
            tracer.inclusive(ids, lambda s: s[0] == server + "collect_unmask") / n
        )
        handled = (
            tracer.inclusive(ids, lambda s: s[0] == perf_trace.CLIENT_HANDLE_SPAN) / n
        )
        values["api.client_handle_s"] = handled
        values["api.client_handle_per_client_s"] = handled / self.cohort
        for stage, total in tracer.stage_walls(ids).items():
            values[f"engine.stage.{stage}_s"] = total / n
        values["engine.down_bytes"] = statistics.fmean(r.down_bytes for r in traced)
        values["engine.up_bytes"] = statistics.fmean(r.up_bytes for r in traced)
        values["engine.rounds"] = statistics.fmean(r.engine_rounds for r in traced)
        values["engine.virtual_round_s"] = statistics.fmean(r.virtual_s for r in traced)
        values["fleet.build_s"] = tracer.inclusive(
            None, lambda s: s[0] == perf_trace.FLEET_BUILD_SPAN
        )
        values["native.load_s"] = self.native_load_s
        traced_wall = statistics.fmean(r.wall_s for r in traced)
        values["trace.traced_round_wall_s"] = traced_wall
        values["trace.attributed_share"] = (
            1.0 - values[perf_trace.ENGINE_SPAN + "_s"] / traced_wall
        )
        untraced = [r.wall_s for r in self._good(traced=False)]
        # A box that fits a single round has no untraced twin: reads 0.
        values["trace.overhead_ratio"] = (
            statistics.median(r.wall_s for r in traced) / statistics.median(untraced)
            if untraced else 0.0
        )
        values["trace.unresolved"] = len(tracer.unresolved)
        return values


class SecAggWorkload(Workload):
    """Back-to-back plain SecAgg rounds over one engine."""

    def execute(self, budget: Budget) -> None:
        clock = perf_counter()
        self._load_program()
        from repro.core.dordis import build_transport
        from repro.engine import RoundEngine
        from repro.secagg import SecAggConfig

        p = self.params
        self.cohort = p.clients
        self.config = SecAggConfig(
            threshold=p.threshold, bits=p.bits, dimension=p.dimension,
            dh_group="modp512", workers=1,
        )
        rng = np.random.default_rng([self.seed, 0])
        self.inputs = {
            u: rng.integers(0, self.config.modulus, size=p.dimension, dtype=np.int64)
            for u in range(1, p.clients + 1)
        }
        self.engine = RoundEngine(transport=build_transport("sockets"))
        warm_up = self._round(0)
        if warm_up.error is not None:
            raise RuntimeError(f"warm-up round failed: {warm_up.error}")
        self.setup_s = perf_counter() - clock
        budget.start()
        while budget.allows(self.rounds):
            self.rounds.append(self._round(len(self.rounds) + 1))

    def _dropped(self, index: int) -> set[int]:
        rng = np.random.default_rng([self.seed, 1, index])
        picks = rng.choice(self.params.clients, size=self.params.dropped, replace=False)
        return {int(u) + 1 for u in picks}

    def expected_sum(self, u3) -> np.ndarray:
        """The ring sum over ``u3``, computed without the program."""
        total = np.zeros(self.params.dimension, dtype=np.int64)
        for u in u3:
            total += self.inputs[u]
        return total % self.config.modulus

    def _round(self, index: int) -> RoundRecord:
        from repro.engine import run_sync
        from repro.secagg import DropoutSchedule, arun_secagg_round

        record = self._begin_round(index)
        dropped = self._dropped(index)
        first_serial = self.engine.round_serial
        started = perf_counter()
        try:
            with self._root():
                result = run_sync(
                    asyncio.wait_for(
                        arun_secagg_round(
                            self.config,
                            dict(self.inputs),
                            DropoutSchedule.before_upload(dropped),
                            round_index=index,
                            engine=self.engine,
                        ),
                        ROUND_DEADLINE_S,
                    )
                )
            wall = perf_counter() - started
            if set(result.u3) != set(self.inputs) - dropped:
                raise VerificationError(f"U3 = {sorted(result.u3)}, dropped {dropped}")
            if not np.array_equal(result.aggregate, self.expected_sum(result.u3)):
                raise VerificationError("aggregate is not the ring sum over U3")
            record.wall_s = wall
            record.elements = len(result.u3) * self.params.dimension
        except Exception as exc:  # a failed round is a result, not a crash
            record.error = f"{type(exc).__name__}: {exc}"
        finally:
            self._end_round()
        self._book_engine_rounds(record, self.engine, first_serial)
        return record


class SessionWorkload(Workload):
    """One ``DordisSession`` run; rounds are cut at ``submit_round``.

    The session owns its round loop, so the harness observes it through
    the one public seam every round crosses: an engine subclass passed
    as ``DordisSession(engine=...)`` wraps each submitted round job with
    the round clock, the trace root, the deadline and the stop decision
    (a job returning true ends the session, as budget exhaustion does).
    Round 0 is the untimed warm-up and closes the set-up clock.
    """

    root_span = perf_trace.SESSION_SPAN

    def execute(self, budget: Budget) -> None:
        self._clock = perf_counter()
        self._budget = budget
        self._load_program()
        from repro.core import DordisConfig, DordisSession
        from repro.core.dordis import build_transport
        from repro.engine import RoundEngine

        workload = self

        class SeamEngine(RoundEngine):
            def submit_round(self, runner, *, after=None):
                return super().submit_round(
                    lambda: workload._around(runner), after=after
                )

        p = self.params
        self.cohort = p.sample_size
        config = DordisConfig(
            task="cifar100-like", model="mlp", mlp_hidden=p.mlp_hidden,
            num_clients=p.num_clients, sample_size=p.sample_size,
            rounds=p.horizon, mechanism="skellam", strategy="xnoise",
            secure_aggregation="secagg", pipeline_chunks=p.pipeline_chunks,
            transport="sockets", seed=self.seed,
        )
        if self.tracer is not None:
            self.tracer.enabled = True  # fleet.build_s happens in here
        self.engine = SeamEngine()
        self.session = DordisSession(
            config,
            dropout_model=FixedCountDropout(p.dropped, self.seed),
            engine=self.engine,
        )
        self.engine.transport = build_transport(
            config.transport, self.session.fleet.with_id_offset(1)
        )
        self._end_round()
        self._submitted = 0
        try:
            result = self.session.run()
        except Exception as exc:
            # The session died inside a round; _around booked which one.
            self.detail["session_error"] = f"{type(exc).__name__}: {exc}"
            return
        self._verify(config, result)

    async def _around(self, runner):
        index = self._submitted
        self._submitted += 1
        if index == 0:
            stop = await asyncio.wait_for(runner(), ROUND_DEADLINE_S)
            self.setup_s = perf_counter() - self._clock
            self._budget.start()
            return stop or not self._budget.allows(self.rounds)
        record = self._begin_round(index)
        self.rounds.append(record)
        first_serial = self.engine.round_serial
        started = perf_counter()
        try:
            with self._root():
                stop = await asyncio.wait_for(runner(), ROUND_DEADLINE_S)
            record.wall_s = perf_counter() - started
        except Exception as exc:
            record.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            self._end_round()
            self._book_engine_rounds(record, self.engine, first_serial)
        return stop or not self._budget.allows(self.rounds)

    def _verify(self, config, result) -> None:
        """Check every timed round against the session's own histories."""
        from repro.dp.accountant import RdpAccountant

        p = self.params
        session = self.session
        dimension = session.skellam.padded_dimension
        tolerance = session.strategy.tolerance(p.sample_size)
        survivors = p.sample_size - p.dropped
        self.detail["epsilon_history"] = list(result.epsilon_history)
        self.detail["padded_dimension"] = dimension

        whole_run = None
        completed = len(result.metric_history)
        if not result.rounds_completed == completed == self._submitted:
            whole_run = (
                f"{self._submitted} rounds submitted, {completed} completed "
                "(a round was skipped or aborted)"
            )
        elif not np.all(np.isfinite(session.model.clone_params())):
            whole_run = "model parameters are not finite"

        # The epsilon trajectory is a function of the dropout pattern
        # alone, so it is re-derived here from the plan - and is thereby
        # the same for dordis_round and dordis_round_chunked.
        dropped = [round(share * p.sample_size) for share in result.dropout_history]
        expected_epsilon = []
        accountant = RdpAccountant(delta=config.delta)
        for n_dropped in dropped if whole_run is None else []:
            session.plan.spend_round(
                accountant,
                session.strategy.actual_variance(
                    session.plan.variance, p.sample_size, n_dropped
                ),
            )
            expected_epsilon.append(accountant.epsilon())

        for record in self.rounds:
            if record.wall_s is None:
                continue
            k = record.index
            record.elements = survivors * dimension
            problem = whole_run
            if problem is None:
                epsilon = result.epsilon_history[k]
                if dropped[k] != p.dropped or dropped[k] > tolerance:
                    problem = f"{dropped[k]} dropped, expected {p.dropped} <= T={tolerance}"
                elif not epsilon <= config.epsilon * (1 + 1e-9):
                    problem = f"epsilon {epsilon} over budget {config.epsilon}"
                elif abs(epsilon - expected_epsilon[k]) > 1e-9 * epsilon:
                    problem = f"epsilon {epsilon} != re-derived {expected_epsilon[k]}"
                elif not np.isfinite(result.metric_history[k]):
                    problem = "evaluation metric is not finite"
                elif record.up_bytes < survivors * dimension * config.bits // 8:
                    problem = f"uplink {record.up_bytes} B below the survivors' vectors"
            if problem is not None:
                record.wall_s = None
                record.error = f"VerificationError: {problem}"


def make_workload(name: str, scale: str, seed: int, tracer: Optional[Tracer] = None):
    params = SCALES[scale][name]
    cls = SecAggWorkload if params.kind == "secagg" else SessionWorkload
    return cls(params, seed, tracer)
