"""XNoise integrated with SecAgg (Fig. 5's red/underlined additions).

The integration reuses SecAgg's infrastructure (§3.3 "Optimization via
Integration with Secure Aggregation"):

- *Setup*: each sampled client samples T+1 noise seeds g_{u,k}; seeds for
  k ≥ 1 are Shamir-shared through the same encrypted ShareKeys channels
  as the mask secrets (labels ``g:k``).
- *MaskedInputCollection*: the client perturbs its encoded update with
  all T+1 noise components before masking.
- *Unmasking*: every survivor directly reveals the seeds of its excess
  components (k > |D| where D = U \\ U3).
- *Stage 5, ExcessiveNoiseRemoval*: for survivors that dropped before
  revealing (U3 \\ U5), the server collects seed shares from ≥ t live
  clients (U6), reconstructs the seeds, regenerates the components, and
  subtracts them from the aggregate.

Noise is Skellam in the ring domain (closed under summation, integer-
valued), regenerated deterministically from each 32-byte seed — this is
why removal costs seeds, not model-sized vectors (§3.1).  What a seed
expands to is specified in :mod:`repro.dp.sampler`
(:func:`skellam_noise_from_seed`, re-exported here); both sides add or
subtract a component straight into their running vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.crypto.pki import PublicKeyInfrastructure
from repro.crypto.shamir import Share
from repro.dp.sampler import skellam_noise_from_seed, support_bound
from repro.engine import RoundEngine, Targeted
from repro.engine.core import run_sync
from repro.secagg.client import SecAggClient
from repro.secagg.driver import (
    DropoutSchedule,
    clients_suite,
    make_secagg_clients,
    resolve_round_pki,
    run_reference_stages,
)
from repro.secagg.server import SecAggServer
from repro.secagg.workflow import (
    SecAggWorkflowClient,
    SecAggWorkflowServer,
    with_dropout,
)
from repro.secagg.types import (
    ProtocolAbort,
    RoundResult,
    SecAggConfig,
    STAGE_NOISE_REMOVAL,
    UnmaskingMsg,
)
from repro.xnoise.decomposition import NoiseDecomposition


def seed_label(k: int) -> str:
    """ShareKeys label under which component k's seed is shared."""
    return f"g:{k}"


@dataclass(frozen=True)
class XNoiseConfig:
    """Parameters of one XNoise round on top of a SecAgg config.

    ``target_variance`` is σ²_* in the ring (scaled-integer) domain —
    the level Theorem 1 guarantees on the decoded aggregate.
    """

    secagg: SecAggConfig
    n_sampled: int
    tolerance: int
    target_variance: float
    collusion_tolerance: int = 0

    def __post_init__(self) -> None:
        # Constructing the decomposition validates all the constraints.
        self.decomposition()

    def decomposition(self) -> NoiseDecomposition:
        return NoiseDecomposition(
            n_sampled=self.n_sampled,
            tolerance=self.tolerance,
            target_variance=self.target_variance,
            threshold=self.secagg.threshold,
            collusion_tolerance=self.collusion_tolerance,
        )


@dataclass
class XNoiseResult(RoundResult):
    """Round outcome plus noise-enforcement bookkeeping."""

    residual_variance: float = 0.0
    tolerance_exceeded: bool = False
    n_dropped: int = 0


class XNoiseClient(SecAggClient):
    """SecAgg client that over-adds decomposed noise and reveals seeds;
    without ``noise_seeds`` it draws them from its suite's entropy."""

    def __init__(
        self,
        client_id: int,
        config: XNoiseConfig,
        noise_seeds: Optional[list[bytes]] = None,
        **kwargs,
    ):
        self.xconfig = config
        self.decomposition = config.decomposition()
        n = self.decomposition.n_components
        if noise_seeds is not None and len(noise_seeds) != n:
            raise ValueError(f"need {n} noise seeds, got {len(noise_seeds)}")
        super().__init__(client_id, config.secagg, **kwargs)
        if noise_seeds is None:
            noise_seeds = [self.suite.entropy.token_bytes(32) for _ in range(n)]
        self.noise_seeds: list[bytes] = list(noise_seeds)
        self.extra_secrets = {
            seed_label(k): self.noise_seeds[k] for k in range(1, n)
        }

    def masked_input(self, ciphertexts, update_signal: np.ndarray):
        """Add all T+1 noise components to the encoded signal, then mask.

        The perturbed signal is this call's own buffer: SecAgg's
        accumulator takes it over — reduces it into the ring and folds
        the masks into it — rather than copying it again.
        """
        noisy = np.array(update_signal, dtype=np.int64)
        for k, variance in enumerate(self.decomposition.variances()):
            skellam_noise_from_seed(
                self.noise_seeds[k], variance, self.config.dimension, out=noisy
            )
        return super().masked_input(ciphertexts, noisy, owned=True)

    def excess_component_indices(self) -> range:
        """Components this client should reveal, from its view of U3."""
        n_dropped = self.decomposition.n_sampled - len(self._u3)
        clamped = min(max(n_dropped, 0), self.decomposition.tolerance)
        return range(clamped + 1, self.decomposition.n_components)

    def revealed_seeds(self) -> dict[int, bytes]:
        """Unmasking reveals the excess components' seeds directly."""
        return {k: self.noise_seeds[k] for k in self.excess_component_indices()}


class XNoiseServer(SecAggServer):
    """SecAgg server extended with excessive-noise removal."""

    def __init__(self, config: XNoiseConfig, **kwargs):
        super().__init__(config.secagg, **kwargs)
        self.xconfig = config
        self.decomposition = config.decomposition()
        # Stage-5 state, fixed by seed_requests().
        self._revealed: dict[int, dict[int, bytes]] = {}
        self._requested: dict[int, list[str]] = {}

    def n_dropped(self) -> int:
        """|D| = |U \\ U3| — sampled clients whose noise is missing."""
        return self.decomposition.n_sampled - len(self.u3)

    def removal_indices(self) -> range:
        clamped = min(max(self.n_dropped(), 0), self.decomposition.tolerance)
        return range(clamped + 1, self.decomposition.n_components)

    def remove_excess_noise(
        self,
        aggregate: np.ndarray,
        revealed: dict[int, dict[int, bytes]],
        reconstructed: dict[int, dict[int, bytes]],
    ) -> tuple[np.ndarray, int]:
        """Subtract every survivor's excess components from the aggregate.

        ``revealed`` maps survivor → {k: seed} sent directly in Unmasking;
        ``reconstructed`` covers survivors recovered via Stage 5.  Raises
        if any survivor's excess seeds are unavailable — a faithful
        execution always has them (Shamir guarantees reconstruction with
        ≥ t responders).
        """
        modulus = self.config.modulus
        variances = self.decomposition.variances()
        removal = self.removal_indices()
        # One signed accumulator, one reduction: sound while the ring
        # element plus every removed component's support fits int64.
        # Otherwise (62-bit rings, astronomically many components)
        # reduce after each component.  The ring is 2**bits: a
        # reduction is one mask, negative sums included.
        deferred = (
            modulus + len(self.u3) * sum(support_bound(variances[k]) for k in removal)
            < 2**63
        )
        total = np.array(aggregate, dtype=np.int64)
        removed = 0
        for u in self.u3:
            seeds = revealed.get(u) or reconstructed.get(u) or {}
            for k in removal:
                seed = seeds.get(k)
                if seed is None:
                    raise ProtocolAbort(
                        f"missing seed g_{{{u},{k}}} for noise removal"
                    )
                skellam_noise_from_seed(
                    seed, variances[k], self.config.dimension, out=total, sign=-1
                )
                if not deferred:
                    total &= modulus - 1
                removed += 1
        total &= modulus - 1
        return total, removed

    def seed_requests(
        self, unmask_msgs: dict[int, UnmaskingMsg]
    ) -> dict[int, list[str]]:
        """Stage 5's question, from stage 4's answers.

        Records the seeds U5 revealed directly and returns
        ``{survivor: [seed labels]}`` to ask every U5 client for shares
        of — the excess components of the survivors that dropped before
        revealing (U3 \\ U5).  Empty when there is nothing to recover.
        """
        self._revealed = {
            u: dict(m.revealed_seeds) for u, m in unmask_msgs.items()
        }
        labels = [seed_label(k) for k in self.removal_indices()]
        unrevealed = sorted(set(self.u3) - set(self._revealed)) if labels else []
        self._requested = {u: labels for u in unrevealed}
        return self._requested

    def _requested_shares(self, response: object):
        """The ``(peer, label, share)`` entries of one stage-5 response
        that :meth:`seed_requests` asked for; anything else is skipped."""
        if not isinstance(response, dict):
            return
        for peer, found in response.items():
            labels = self._requested.get(peer)
            if labels is None or not isinstance(found, dict):
                continue
            for label, share in found.items():
                if label in labels and isinstance(share, Share):
                    yield peer, label, share

    def finish_round(
        self, aggregate: np.ndarray, responses: dict[int, object]
    ) -> XNoiseResult:
        """Stage 5 — ExcessiveNoiseRemoval — from U5's share responses.

        ``aggregate`` is :meth:`collect_unmask`'s, ``responses`` the
        answers to :meth:`seed_requests`.  Responders are untrusted:
        only ``{requested peer: {requested label: Share}}`` from a U5
        client is collected, everything else is ignored, and U6 is the
        clients that contributed at least one requested share.  With
        recovery pending and |U6| below the threshold the round aborts
        by name, as does a seed that cannot be reconstructed.
        """
        collected: dict[int, dict[str, list[Share]]] = {
            u: {label: [] for label in labels}
            for u, labels in self._requested.items()
        }
        u6: list[int] = []
        for v in sorted(set(responses) & set(self.u5)):
            requested = list(self._requested_shares(responses[v]))
            for peer, label, share in requested:
                collected[peer][label].append(share)
            if requested:
                u6.append(v)
        if collected and len(u6) < self.config.threshold:
            raise ProtocolAbort(
                f"only {len(u6)} stage-5 responders; below threshold"
            )
        ss = self.suite.ss(self.config.threshold)
        reconstructed = {
            u: {
                k: self._reconstruct(
                    ss, shares[seed_label(k)], f"seed g_{{{u},{k}}}"
                )
                for k in self.removal_indices()
            }
            for u, shares in collected.items()
        }
        aggregate, removed = self.remove_excess_noise(
            aggregate, self._revealed, reconstructed
        )

        n_dropped = self.n_dropped()
        exceeded = n_dropped > self.xconfig.tolerance
        if exceeded:
            # Fewer survivors than |U|−T: aggregate noise is below target.
            residual = len(self.u3) * self.decomposition.client_total_variance()
        else:
            residual = self.decomposition.residual_variance(n_dropped)
        return self.round_result(
            aggregate,
            XNoiseResult,
            u6=u6,
            removed_noise_components=removed,
            residual_variance=residual,
            tolerance_exceeded=exceeded,
            n_dropped=n_dropped,
        )


class XNoiseWorkflowServer(SecAggWorkflowServer):
    """Fig.-5 workflow extended with ExcessiveNoiseRemoval (stage 5)."""

    def set_graph_dict(self) -> dict:
        graph = super().set_graph_dict()
        graph["noise_shares"] = {"resource": "c-comp", "deps": ["collect_unmask"]}
        graph["remove_noise"] = {"resource": "s-comp", "deps": ["noise_shares"]}
        return graph

    def collect_unmask(self, responses: dict) -> Targeted:
        self._aggregate = self.inner.collect_unmask(responses)
        labels = self.inner.seed_requests(responses)
        return Targeted({v: labels for v in self.inner.u5} if labels else {})

    def remove_noise(self, responses: dict) -> XNoiseResult:
        return self.inner.finish_round(self._aggregate, responses)


def xnoise_round_components(
    config: XNoiseConfig,
    inputs: dict[int, np.ndarray],
    pki: Optional[PublicKeyInfrastructure] = None,
    round_index: int = 0,
    client_factory: Optional[Callable[[int], XNoiseClient]] = None,
) -> tuple[XNoiseWorkflowServer, list[SecAggWorkflowClient]]:
    """(declared server, declared clients) for one XNoise engine round."""
    if len(inputs) != config.n_sampled:
        raise ValueError(
            f"got {len(inputs)} inputs for n_sampled={config.n_sampled}"
        )
    sampled = sorted(inputs)
    pki = resolve_round_pki(config.secagg, pki, client_factory)
    clients = make_secagg_clients(
        config.secagg, sampled, pki, round_index, client_factory,
        client_cls=XNoiseClient, client_config=config,
    )
    server = XNoiseServer(config, pki=pki, round_index=round_index, suite=clients_suite(clients))
    return (
        XNoiseWorkflowServer(server),
        [SecAggWorkflowClient(clients[u], inputs[u]) for u in sampled],
    )


async def arun_xnoise_round(
    config: XNoiseConfig,
    inputs: dict[int, np.ndarray],
    dropout: Optional[DropoutSchedule] = None,
    pki: Optional[PublicKeyInfrastructure] = None,
    round_index: int = 0,
    client_factory: Optional[Callable[[int], XNoiseClient]] = None,
    engine: Optional[RoundEngine] = None,
    timing=None,
) -> XNoiseResult:
    """Execute one XNoise+SecAgg round on the engine (async).

    Dropout middleware wraps the engine's own transport, preserving any
    configured latency model; ``timing`` overrides the engine's op cost
    model for this round (e.g. a straggler-scaled wrapper).
    """
    server, clients = xnoise_round_components(
        config, inputs, pki, round_index, client_factory
    )
    engine = engine or RoundEngine()
    return await engine.run_round(
        server,
        clients,
        round_index=round_index,
        transport=with_dropout(engine.transport, dropout),
        timing=timing,
    )


def run_xnoise_round(
    config: XNoiseConfig,
    inputs: dict[int, np.ndarray],
    dropout: Optional[DropoutSchedule] = None,
    pki: Optional[PublicKeyInfrastructure] = None,
    round_index: int = 0,
    client_factory: Optional[Callable[[int], XNoiseClient]] = None,
) -> XNoiseResult:
    """Execute one full XNoise+SecAgg round (Fig. 5, stages 0–5).

    ``inputs`` maps client id → *pre-noise* encoded signal (signed
    integers; e.g. :meth:`repro.dp.skellam.SkellamMechanism.encode_signal`
    output).  Returns the unmasked ring aggregate with the excess noise
    removed and the residual noise level implied by Theorem 1.
    """
    return run_sync(
        arun_xnoise_round(
            config, inputs, dropout, pki, round_index, client_factory
        )
    )


def run_xnoise_round_reference(
    config: XNoiseConfig,
    inputs: dict[int, np.ndarray],
    dropout: Optional[DropoutSchedule] = None,
    pki: Optional[PublicKeyInfrastructure] = None,
    round_index: int = 0,
    client_factory: Optional[Callable[[int], XNoiseClient]] = None,
) -> XNoiseResult:
    """The pre-engine synchronous driver, kept as executable specification.

    Regression tests run both this and the engine path on identical
    inputs (and, via ``client_factory``, identical noise seeds) and
    require bit-identical outcomes.  Do not add features here.
    """
    if len(inputs) != config.n_sampled:
        raise ValueError(
            f"got {len(inputs)} inputs for n_sampled={config.n_sampled}"
        )
    dropout = dropout or DropoutSchedule()
    sampled = sorted(inputs)
    secagg_cfg = config.secagg

    pki = resolve_round_pki(secagg_cfg, pki, client_factory)
    clients = make_secagg_clients(
        secagg_cfg, sampled, pki, round_index, client_factory,
        client_cls=XNoiseClient, client_config=config,
    )
    server = XNoiseServer(config, pki=pki, round_index=round_index, suite=clients_suite(clients))

    # Stages 0–4 are SecAgg's: ShareKeys also carries the T noise-seed
    # shares, inputs go up perturbed with T+1 components, and Unmasking
    # reveals the excess seeds directly — all inside the XNoise client.
    aggregate, alive, unmask_msgs = run_reference_stages(
        clients, server, inputs, dropout
    )

    # Stage 5 — ExcessiveNoiseRemoval: the server asks, live U5 answers.
    alive -= dropout.dropped_by(STAGE_NOISE_REMOVAL)
    labels = server.seed_requests(unmask_msgs)
    asked = sorted(alive & set(server.u5)) if labels else []
    responses = {v: clients[v].shares_of_extra_secret(labels) for v in asked}
    return server.finish_round(aggregate, responses)
