"""The Dordis training session (Fig. 7's end-to-end workflow).

Each round: ① sample clients and train locally; ②/③ clip, encode, and
perturb updates per the configured noise strategy; ④ aggregate (either
the fast noise-algebra simulation or the real XNoise+SecAgg protocol),
decode, and apply FedAvg — then charge the RDP accountant with the
*actual* aggregate noise level, which is where Orig's budget overrun and
XNoise's exact enforcement become visible.

Rounds are submitted to a shared :class:`repro.engine.RoundEngine`:
each round's data dependency chains on its predecessor's handle, the
engine's virtual resource clocks persist across rounds (so consecutive
rounds land on one session timeline and overlap wherever the dependency
structure allows), and the real-protocol aggregation path executes
chunk-pipelined per the §4.1 schedule when ``config.pipeline_chunks > 1``.
Because the engine arbitrates resources with a discrete-event
virtual-time arbiter (:mod:`repro.engine.arbiter`), a session's
multi-round traces are deterministic and independent of asyncio task
scheduling — identical configs reproduce identical
``round_seconds_history`` trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.baselines import NoiseStrategy, XNoiseStrategy, make_strategy
from repro.core.config import DordisConfig
from repro.engine import RoundEngine
from repro.engine.core import run_sync
from repro.dp.accountant import RdpAccountant
from repro.dp.planner import NoisePlan, plan_noise
from repro.dp.quantize import clip_l2
from repro.dp.skellam import SkellamConfig, SkellamMechanism, choose_scale
from repro.fl.client import LocalTrainer
from repro.fl.data import (
    FederatedDataset,
    make_cifar10_like,
    make_cifar100_like,
    make_femnist_like,
    make_text_task,
)
from repro.fleet import Fleet, FixedRateDropout
from repro.fl.models import BigramLM, MLPClassifier, SoftmaxRegression
from repro.fl.optim import SGD, AdamW
from repro.fl.server import FedAvgServer
from repro.utils.rng import derive_rng


@dataclass
class TrainingResult:
    """Outcome of a session: utility + privacy trajectories.

    ``metric_history`` holds accuracy (classification, higher better) or
    perplexity (language, lower better) per completed round;
    ``epsilon_history`` the cumulative privacy spend after each round.
    ``round_seconds_history`` is the engine-traced simulated duration of
    each completed round.  By default it is *meaningful*: the session's
    fleet (:attr:`DordisConfig.fleet`) supplies the timing source — the
    real-protocol (``secagg``) path charges every exchange's framed
    bytes against each client's own uplink/downlink, and the fast
    noise-algebra path records the fleet's modeled
    broadcast → local-train → upload round cost as traced spans.
    Configuring ``fleet=None`` (the documented opt-out) restores the
    legacy zero-latency behaviour: entries are then 0.0 unless the
    caller supplies an engine with its own timing source (e.g.
    ``DordisSession(cfg, engine=RoundEngine(transport=SerializingTransport(...)))``
    or a ``StageTiming`` model).  ``past_tolerance_rounds`` names the
    completed rounds whose dropout exceeded the XNoise tolerance
    (|D| > T): Theorem 1 no longer holds there, the aggregate carried
    less than the target noise and the round spent more than planned.
    """

    metric_name: str
    metric_history: list = field(default_factory=list)
    epsilon_history: list = field(default_factory=list)
    dropout_history: list = field(default_factory=list)
    round_seconds_history: list = field(default_factory=list)
    past_tolerance_rounds: list = field(default_factory=list)
    rounds_completed: int = 0
    stopped_early: bool = False

    @property
    def final_metric(self) -> float:
        return self.metric_history[-1] if self.metric_history else float("nan")

    @property
    def final_accuracy(self) -> float:
        if self.metric_name != "accuracy":
            raise ValueError("this session tracked perplexity, not accuracy")
        return self.final_metric

    @property
    def final_perplexity(self) -> float:
        if self.metric_name != "perplexity":
            raise ValueError("this session tracked accuracy, not perplexity")
        return self.final_metric

    @property
    def epsilon_consumed(self) -> float:
        return self.epsilon_history[-1] if self.epsilon_history else 0.0


_TASK_FACTORIES = {
    "cifar10-like": make_cifar10_like,
    "cifar100-like": make_cifar100_like,
    "femnist-like": make_femnist_like,
}


def build_transport(name: str, fleet: Fleet | None = None):
    """Engine transport for a :attr:`DordisConfig.transport` name.

    With a fleet, every backend prices each exchange on the client's own
    links (:meth:`Fleet.link_seconds`: request frame on the downlink,
    response on the uplink); without one, no virtual latency.  A priced
    in-process round is the socket round minus the socket: ``"inprocess"``
    with a fleet is ``"serialized"``, whose bytes are the lengths of the
    frames a framed-TCP socket would carry, so a fleet round's trace is
    transport-invariant across all three names (the parity suites pin
    this).  In-process rounds without a fleet move live objects and
    report no bytes.
    """
    from repro.engine import InProcessTransport, SerializingTransport, SocketTransport

    link = None if fleet is None else fleet.link_seconds
    if name == "inprocess" and link is None:
        return InProcessTransport()
    if name in ("inprocess", "serialized"):
        return SerializingTransport(link)
    if name == "sockets":
        return SocketTransport(link)
    raise ValueError(f"unknown transport {name!r}")


class DordisSession:
    """One configured training run."""

    def __init__(
        self,
        config: DordisConfig,
        dataset: FederatedDataset | None = None,
        dropout_model=None,
        strategy: NoiseStrategy | None = None,
        engine: RoundEngine | None = None,
    ):
        self.config = config
        # The fleet (device profiles + availability) is the scenario the
        # session runs against; dropout and link timing derive from it
        # unless the caller overrides either explicitly.
        self.fleet: Fleet | None = None
        if config.fleet is not None:
            self.fleet = Fleet.build(
                config.num_clients,
                config.fleet,
                dropout_rate=config.dropout_rate,
                horizon=max(config.rounds, 1),
                seed=config.seed,
            )
        # Protocol rounds shift client ids by +1 (non-zero Shamir
        # points), so the engine transport — which only ever serves
        # those rounds; the fast path bypasses it — addresses the fleet
        # through the shifted view, pricing each client's frames on its
        # *own* links.  The view is an O(1) arithmetic offset over the
        # same columnar store (shared profile LRU), so this stays free
        # even for million-device populations.
        self.engine = engine or RoundEngine(
            transport=build_transport(
                config.transport,
                self.fleet.with_id_offset(1) if self.fleet else None,
            )
        )
        self.dataset = dataset if dataset is not None else self._build_dataset()
        self.model = self._build_model()
        self.strategy = strategy or make_strategy(
            config.strategy,
            **(
                {"tolerance_fraction": config.tolerance_fraction}
                if config.strategy == "xnoise"
                else {}
            ),
        )
        if dropout_model is not None:
            self.dropout_model = dropout_model
        elif self.fleet is not None:
            self.dropout_model = self.fleet.availability
        else:
            self.dropout_model = FixedRateDropout(
                config.dropout_rate, seed=config.seed
            )
        self.plan = self._plan_noise()
        self.skellam: SkellamMechanism | None = None
        if config.mechanism == "skellam":
            self.skellam = self._build_skellam()
        if config.secure_aggregation == "secagg":
            from repro.core.baselines import XNoiseStrategy

            if config.mechanism != "skellam" or not isinstance(
                self.strategy, XNoiseStrategy
            ):
                raise ValueError(
                    "secure_aggregation='secagg' runs the integrated "
                    "XNoise+SecAgg protocol and requires "
                    "mechanism='skellam' with strategy='xnoise'"
                )

    # ------------------------------------------------------------------
    def _build_dataset(self) -> FederatedDataset:
        cfg = self.config
        if cfg.is_language_task:
            return make_text_task(n_clients=cfg.num_clients, seed=cfg.seed)
        return _TASK_FACTORIES[cfg.task](
            n_clients=cfg.num_clients,
            samples_per_client=cfg.samples_per_client,
            seed=cfg.seed,
        )

    def _build_model(self):
        cfg = self.config
        ds = self.dataset
        if cfg.model == "softmax":
            return SoftmaxRegression(ds.n_features, ds.n_classes, seed=cfg.seed)
        if cfg.model == "mlp":
            return MLPClassifier(
                ds.n_features, cfg.mlp_hidden, ds.n_classes, seed=cfg.seed
            )
        return BigramLM(ds.n_classes, seed=cfg.seed)

    def _plan_noise(self) -> NoisePlan:
        cfg = self.config
        if cfg.mechanism == "gaussian":
            return plan_noise(
                rounds=cfg.rounds,
                epsilon_budget=cfg.epsilon,
                delta=cfg.delta,
                l2_sensitivity=cfg.clip_bound,
                mechanism="gaussian",
            )
        # DSkellam: plan in the scaled integer domain.  First get a
        # scale-free noise multiplier from the Gaussian proxy, then fix
        # the quantization scale, then re-plan against the true scaled
        # sensitivities (§5's configuration procedure).
        proxy = plan_noise(
            rounds=cfg.rounds,
            epsilon_budget=cfg.epsilon,
            delta=cfg.delta,
            l2_sensitivity=cfg.clip_bound,
            mechanism="gaussian",
        )
        z = proxy.noise_multiplier
        dim = self.model.n_params
        scale = choose_scale(
            cfg.bits, cfg.sample_size, cfg.clip_bound, z, dim
        )
        mech = SkellamMechanism(
            SkellamConfig(
                dimension=dim, clip_bound=cfg.clip_bound, bits=cfg.bits,
                scale=scale,
            )
        )
        d2, d1 = mech.scaled_sensitivities()
        self._skellam_template = mech
        return plan_noise(
            rounds=cfg.rounds,
            epsilon_budget=cfg.epsilon,
            delta=cfg.delta,
            l2_sensitivity=d2,
            l1_sensitivity=d1,
            mechanism="skellam",
        )

    def _build_skellam(self) -> SkellamMechanism:
        return self._skellam_template

    # ------------------------------------------------------------------
    def _optimizer_factory(self):
        cfg = self.config
        if cfg.optimizer == "adamw":
            return lambda: AdamW(lr=cfg.learning_rate)
        return lambda: SGD(lr=cfg.learning_rate, momentum=0.9)

    def _evaluate(self, server: FedAvgServer) -> float:
        test = self.dataset.test
        if self.config.is_language_task:
            return server.evaluate_perplexity(test.x, test.y)
        return server.evaluate(test.x, test.y)

    # ------------------------------------------------------------------
    def run(self, rounds: int | None = None) -> TrainingResult:
        """Train for the configured horizon; returns the trajectories."""
        horizon = rounds if rounds is not None else self.config.rounds
        return run_sync(self._run_rounds(horizon))

    async def _run_rounds(self, horizon: int) -> TrainingResult:
        """Submit each round to the engine, chained on its predecessor.

        FedAvg's data dependency (round r+1 trains on round r's model)
        serializes the chain via ``after=``; protocols without that
        dependency may submit with ``after=None`` and genuinely overlap
        on the shared engine timeline.
        """
        cfg = self.config
        server = FedAvgServer(self.model)
        trainer = LocalTrainer(
            self.model,
            self._optimizer_factory(),
            epochs=cfg.local_epochs,
            batch_size=cfg.batch_size,
        )
        accountant = RdpAccountant(delta=cfg.delta)
        sampler = derive_rng("client-sampling", cfg.seed)
        result = TrainingResult(
            metric_name="perplexity" if cfg.is_language_task else "accuracy"
        )

        previous = None
        for r in range(horizon):
            handle = self.engine.submit_round(
                lambda r=r: self._run_one_round(
                    r, server, trainer, accountant, sampler, result
                ),
                after=previous,
            )
            stop = await handle.result()
            previous = handle
            if stop:
                break
        return result

    async def _run_one_round(
        self, r, server, trainer, accountant, sampler, result
    ) -> bool:
        """One Fig.-7 round; returns True when the session should stop."""
        cfg = self.config
        sampled = sorted(
            sampler.choice(cfg.num_clients, size=cfg.sample_size, replace=False)
        )
        dropped = self.dropout_model.dropped(sampled, r)
        survivors = [u for u in sampled if u not in dropped]
        if not survivors:
            result.dropout_history.append(1.0)
            return False
        result.dropout_history.append(len(dropped) / len(sampled))
        rounds_mark = len(self.engine.current_job_rounds())

        if cfg.secure_aggregation == "secagg":
            from repro.secagg.types import ProtocolAbort

            # The real protocol: every sampled client trains (dropped
            # ones drop *before upload*, after local work).
            updates_by_id = {
                u: trainer.compute_update(
                    server.global_params,
                    self.dataset.shards[u],
                    round_index=r,
                    client_id=u,
                )
                for u in sampled
            }
            try:
                update_sum, past_tolerance = await self._aggregate_secagg(
                    updates_by_id, sampled, dropped, r
                )
            except ProtocolAbort:
                # Dropout beyond the SecAgg threshold: the protocol
                # (correctly) refuses to unmask, so the round yields no
                # aggregate.  Under churning availability (behaviour
                # traces) such rounds are expected operational reality —
                # skip the model update like an all-dropped round and
                # keep training, rather than killing the session.
                return False
        else:
            updates = [
                trainer.compute_update(
                    server.global_params,
                    self.dataset.shards[u],
                    round_index=r,
                    client_id=u,
                )
                for u in survivors
            ]
            update_sum = self._aggregate(updates, sampled, survivors, r)
            # Only XNoise has a tolerance T; the executed protocol
            # reports |D| > T itself (XNoiseResult.tolerance_exceeded).
            past_tolerance = isinstance(
                self.strategy, XNoiseStrategy
            ) and len(dropped) > self.strategy.tolerance(len(sampled))
            if self.fleet is not None:
                # The fast path executes no protocol rounds, so the
                # fleet's timing model supplies the round's cost: model
                # broadcast on every sampled downlink, local training
                # gated by the compute straggler, update upload on every
                # surviving uplink.  Recorded as traced spans, it lands
                # in round_seconds_history exactly like an engine-
                # executed round's latency would.
                cost = self.fleet.round_cost(
                    sampled, survivors, 8 * self.model.n_params
                )
                self.engine.record_modeled_round(
                    (
                        ("broadcast", "comm", cost.down_seconds,
                         cost.down_bytes, 0),
                        ("local_train", "c-comp", cost.compute_seconds, 0, 0),
                        ("upload", "comm", cost.up_seconds, 0, cost.up_bytes),
                    )
                )
        server.apply_update_sum(update_sum, len(survivors))
        if past_tolerance:
            result.past_tolerance_rounds.append(r)

        actual = self.strategy.actual_variance(
            self.plan.variance, len(sampled), len(dropped)
        )
        self.plan.spend_round(accountant, actual)
        result.epsilon_history.append(accountant.epsilon())
        result.metric_history.append(self._evaluate(server))
        # Sum the durations of exactly the engine rounds this job ran
        # (the sink is job-local, so concurrent jobs on the same engine
        # never leak into each other's accounting).
        executed = self.engine.current_job_rounds()[rounds_mark:]
        result.round_seconds_history.append(
            sum(finish - begin for begin, finish in executed)
        )
        result.rounds_completed = r + 1

        if (
            self.strategy.stops_when_budget_exhausted()
            and accountant.epsilon() >= cfg.epsilon
        ):
            result.stopped_early = True
            return True
        return False

    # ------------------------------------------------------------------
    def _aggregate(
        self,
        updates: list[np.ndarray],
        sampled: list[int],
        survivors: list[int],
        round_index: int,
    ) -> np.ndarray:
        """Clip, perturb, and sum survivor updates (noise per strategy)."""
        cfg = self.config
        n_sampled = len(sampled)
        # What the aggregate should carry after any server-side removal
        # (survivors each added the strategy's client variance; XNoise's
        # removal step brings the sum down to this).
        actual_var = self.strategy.actual_variance(
            self.plan.variance, n_sampled, n_sampled - len(survivors)
        )

        if cfg.mechanism == "skellam":
            return self._aggregate_skellam(
                updates, survivors, round_index, actual_var
            )

        rng = derive_rng("dp-noise", cfg.seed, round_index)
        total = np.zeros_like(updates[0])
        for update in updates:
            total = total + clip_l2(update, cfg.clip_bound)
        # Survivors added client_var each; the strategy's removal step
        # (XNoise) brings the sum to actual_var — we sample the net
        # effect directly, which is distribution-identical because the
        # noise family is closed under summation (§3).
        if actual_var > 0:
            total = total + rng.normal(0.0, np.sqrt(actual_var), total.shape)
        return total

    def _aggregate_skellam(
        self,
        updates: list[np.ndarray],
        survivors: list[int],
        round_index: int,
        actual_var: float,
    ) -> np.ndarray:
        """The DSkellam integer path: encode, integer-sum, decode."""
        assert self.skellam is not None
        mech = self.skellam
        rng = derive_rng("skellam-noise", self.config.seed, round_index)
        encoded = []
        per_survivor_var = actual_var / len(survivors)
        for update in updates:
            encoded.append(mech.encode(update, per_survivor_var, rng))
        return mech.decode(mech.aggregate_ring(encoded))

    async def _aggregate_secagg(
        self,
        updates_by_id: dict[int, np.ndarray],
        sampled: list[int],
        dropped: set[int],
        round_index: int,
    ) -> tuple[np.ndarray, bool]:
        """Run the integrated XNoise+SecAgg protocol for real (Fig. 5).

        With ``pipeline_chunks > 1`` the round executes as m independent
        chunk sub-rounds overlapped on the engine (§4.1): each chunk is a
        full XNoise+SecAgg round over its coordinate slice, and the chunk
        aggregates concatenate back per the ``Σ ∥`` identity.  Returns
        the decoded update sum and whether the round ran past the XNoise
        tolerance (|D| > T, as the protocol server saw it).
        """
        from repro.secagg.driver import DropoutSchedule
        from repro.secagg.types import SecAggConfig
        from repro.secagg.workflow import with_dropout
        from repro.xnoise.protocol import (
            XNoiseConfig,
            arun_xnoise_round,
            xnoise_round_components,
        )

        assert self.skellam is not None
        cfg = self.config
        mech = self.skellam
        n = len(sampled)
        tolerance = self.strategy.tolerance(n)  # type: ignore[attr-defined]
        # Semi-honest SecAgg requires t > |U|/2; keep t as low as that
        # allows so the protocol tolerates dropout up to the threshold.
        threshold = max(2, n // 2 + 1)
        xconfig = XNoiseConfig(
            secagg=SecAggConfig(
                threshold=threshold,
                bits=cfg.bits,
                dimension=mech.padded_dimension,
                dh_group=cfg.dh_group,
            ),
            n_sampled=n,
            tolerance=tolerance,
            target_variance=self.plan.variance,
            collusion_tolerance=cfg.collusion_tolerance,
        )
        rng = derive_rng("secagg-encode", cfg.seed, round_index)
        # Shamir evaluation points must be non-zero: shift ids by one.
        inputs = {
            int(u) + 1: mech.encode_signal(updates_by_id[u], rng) for u in sampled
        }
        schedule = DropoutSchedule.before_upload({int(u) + 1 for u in dropped})
        # The round's client-compute stages run at the pace of the
        # sampled straggler: scale whatever op cost model the engine
        # carries by the fleet's compute slowdown (a no-op for the
        # default zero-cost timing).
        timing = None
        if self.fleet is not None:
            from repro.engine import ScaledResourceTiming

            timing = ScaledResourceTiming(
                self.engine.timing,
                {"c-comp": self.fleet.straggler_factor(sampled)},
            )

        n_chunks = min(cfg.pipeline_chunks, mech.padded_dimension)
        if n_chunks <= 1:
            result = await arun_xnoise_round(
                xconfig, inputs, schedule,
                round_index=round_index, engine=self.engine, timing=timing,
            )
            return mech.decode(result.aggregate), result.tolerance_exceeded

        transport = with_dropout(self.engine.transport, schedule)

        def chunk_factory(j: int, chunk_inputs: dict[int, np.ndarray]):
            dim = next(iter(chunk_inputs.values())).shape[0]
            chunk_config = replace(
                xconfig, secagg=replace(xconfig.secagg, dimension=dim)
            )
            return xnoise_round_components(
                chunk_config, chunk_inputs, round_index=round_index
            )

        chunked = await self.engine.run_chunked_round(
            chunk_factory, inputs, n_chunks, transport=transport,
            timing=timing,
        )
        return mech.decode(chunked.result), any(
            chunk.tolerance_exceeded for chunk in chunked.chunk_results
        )
