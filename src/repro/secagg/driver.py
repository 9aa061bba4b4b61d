"""Round driver: runs a full SecAgg round with injected client dropout.

Execution now flows through the unified :class:`repro.engine.RoundEngine`:
the Fig.-5 workflow is declared by
:class:`repro.secagg.workflow.SecAggWorkflowServer`, client operations
fan out concurrently over the engine's transport, and dropout — the role
this module's old synchronous loop played inline — is injected by
:class:`repro.engine.DropoutTransport` middleware.  The paper's dropout
model (§6.1) — "clients drop out after being sampled but before sending
their masked and perturbed update" — corresponds to scheduling dropouts
before ``STAGE_MASKED_INPUT``; any stage works, so tests can also
exercise mid-unmasking failures.

The pre-engine serial loop is retained as
:func:`run_secagg_round_reference` — the executable specification the
engine path is regression-tested against (bit-identical aggregates
and participant sets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.crypto.pki import PublicKeyInfrastructure
from repro.crypto.suite import Suite
from repro.engine import RoundEngine
from repro.engine.core import run_sync
from repro.secagg.client import SecAggClient
from repro.secagg.server import SecAggServer
from repro.secagg.workflow import (
    SecAggWorkflowClient,
    SecAggWorkflowServer,
    with_dropout,
)
from repro.secagg.types import (
    RoundResult,
    SecAggConfig,
    STAGE_ADVERTISE,
    STAGE_SHARE_KEYS,
    STAGE_MASKED_INPUT,
    STAGE_CONSISTENCY,
    STAGE_UNMASK,
    UnmaskingMsg,
)


@dataclass
class DropoutSchedule:
    """Which clients disappear before which stage.

    ``at_stage[s]`` is the set of client ids that stop responding from
    stage ``s`` onward.  A dropped client never comes back within the
    round.
    """

    at_stage: dict[int, set[int]] = field(default_factory=dict)

    @classmethod
    def before_upload(cls, client_ids: set[int]) -> "DropoutSchedule":
        """The paper's canonical model: drop before the masked upload."""
        return cls(at_stage={STAGE_MASKED_INPUT: set(client_ids)})

    def dropped_by(self, stage: int) -> set[int]:
        gone: set[int] = set()
        for s, ids in self.at_stage.items():
            if s <= stage:
                gone |= ids
        return gone


def resolve_round_pki(
    config: SecAggConfig,
    pki: Optional[PublicKeyInfrastructure],
    client_factory,
) -> Optional[PublicKeyInfrastructure]:
    """Default PKI for a round whose clients are built internally.

    Malicious mode needs one PKI shared by clients and server; when the
    caller supplied neither it nor a client factory, create it here so
    both sides of the round see the same instance.
    """
    if client_factory is None and config.malicious and pki is None:
        return PublicKeyInfrastructure()
    return pki


def make_secagg_clients(
    config: SecAggConfig,
    sampled: list[int],
    pki: Optional[PublicKeyInfrastructure],
    round_index: int,
    client_factory: Optional[Callable[[int], SecAggClient]],
    client_cls: type = SecAggClient,
    client_config=None,
) -> dict[int, SecAggClient]:
    """Instantiate one round's clients (registering PKI identities).

    ``client_cls``/``client_config`` let protocol extensions reuse the
    signer/PKI bookkeeping with their own client class (XNoise passes
    ``XNoiseClient`` and its :class:`XNoiseConfig`).

    In malicious mode the caller must supply the PKI (the same instance
    its server uses) — creating one here would silently leave the
    server unable to verify the identities registered for the clients.
    """
    if client_factory is None:
        signers = {}
        if config.malicious:
            if pki is None:
                raise ValueError(
                    "malicious mode requires a shared PKI: construct one "
                    "and pass the same instance to the clients and server"
                )
            for u in sampled:
                if pki.is_registered(u):
                    raise ValueError(
                        f"client {u} already registered in the PKI; pass a "
                        "client_factory that holds the existing signing keys"
                    )
                signers[u] = pki.register(u)
        build_config = config if client_config is None else client_config

        def client_factory(u: int) -> SecAggClient:
            return client_cls(
                u,
                build_config,
                signer=signers.get(u),
                pki=pki,
                round_index=round_index,
            )

    return {u: client_factory(u) for u in sampled}


def clients_suite(clients: dict[int, SecAggClient]) -> Optional[Suite]:
    """The suite a round's server runs on: that of the clients it serves,
    so a primitive a ``client_factory`` overrides is the server's too.
    The server draws no randomness, so a party's child stream is harmless."""
    return next(iter(clients.values())).suite if clients else None


def secagg_round_components(
    config: SecAggConfig,
    inputs: dict[int, np.ndarray],
    pki: Optional[PublicKeyInfrastructure] = None,
    round_index: int = 0,
    client_factory: Optional[Callable[[int], SecAggClient]] = None,
) -> tuple[SecAggWorkflowServer, list[SecAggWorkflowClient]]:
    """(declared server, declared clients) for one engine-executed round."""
    sampled = sorted(inputs)
    pki = resolve_round_pki(config, pki, client_factory)
    clients = make_secagg_clients(
        config, sampled, pki, round_index, client_factory
    )
    server = SecAggServer(config, pki=pki, round_index=round_index, suite=clients_suite(clients))
    return (
        SecAggWorkflowServer(server),
        [SecAggWorkflowClient(clients[u], inputs[u]) for u in sampled],
    )


async def arun_secagg_round(
    config: SecAggConfig,
    inputs: dict[int, np.ndarray],
    dropout: Optional[DropoutSchedule] = None,
    pki: Optional[PublicKeyInfrastructure] = None,
    round_index: int = 0,
    client_factory: Optional[Callable[[int], SecAggClient]] = None,
    engine: Optional[RoundEngine] = None,
) -> RoundResult:
    """Execute one secure-aggregation round on the engine (async).

    Dropout middleware wraps the engine's own transport, so a caller
    that configured e.g. a fleet-priced :class:`SerializingTransport`
    keeps its latency model.
    """
    server, clients = secagg_round_components(
        config, inputs, pki, round_index, client_factory
    )
    engine = engine or RoundEngine()
    return await engine.run_round(
        server,
        clients,
        round_index=round_index,
        transport=with_dropout(engine.transport, dropout),
    )


def run_secagg_round(
    config: SecAggConfig,
    inputs: dict[int, np.ndarray],
    dropout: Optional[DropoutSchedule] = None,
    pki: Optional[PublicKeyInfrastructure] = None,
    round_index: int = 0,
    client_factory: Optional[Callable[[int], SecAggClient]] = None,
) -> RoundResult:
    """Execute one secure-aggregation round end to end.

    Parameters
    ----------
    inputs:
        ``client id → ring vector`` (already DP-encoded).  The key set is
        the sampled set U.
    dropout:
        Clients to silence before each stage; ``None`` → no dropout.
    client_factory:
        Override client construction (XNoise passes clients carrying
        noise seeds).  The factory must accept the client id.

    Returns the :class:`RoundResult` with the unmasked ring aggregate over
    U3 and the per-stage participant sets.  Raises :class:`ProtocolAbort` if any stage
    falls below threshold.
    """
    return run_sync(
        arun_secagg_round(
            config, inputs, dropout, pki, round_index, client_factory
        )
    )


def run_reference_stages(
    clients: dict[int, SecAggClient],
    server: SecAggServer,
    inputs: dict[int, np.ndarray],
    dropout: DropoutSchedule,
) -> tuple[np.ndarray, set[int], dict[int, UnmaskingMsg]]:
    """Fig. 5's stages 0–4, serially, for both reference drivers.

    Returns the unmasked aggregate, the clients still alive after
    Unmasking and their stage-4 messages (XNoise's stage 5 reads the
    revealed seeds from them).
    """
    # Stage 0 — AdvertiseKeys.
    alive = set(clients) - dropout.dropped_by(STAGE_ADVERTISE)
    adverts = {u: clients[u].advertise_keys() for u in sorted(alive)}
    share_requests = server.collect_advertise(adverts)

    # Stage 1 — ShareKeys.
    alive -= dropout.dropped_by(STAGE_SHARE_KEYS)
    outboxes = {
        u: clients[u].share_keys(*share_requests[u])
        for u in sorted(alive & set(share_requests))
    }
    inboxes = server.route_shares(outboxes)

    # Stage 2 — MaskedInputCollection.
    alive -= dropout.dropped_by(STAGE_MASKED_INPUT)
    for u in sorted(alive & set(server.u2)):
        server.admit_masked(u, clients[u].masked_input(inboxes.get(u, {}), inputs[u]))
    u3 = server.collect_masked()

    # Stage 3 — ConsistencyCheck: an exchange in malicious mode only.
    alive -= dropout.dropped_by(STAGE_CONSISTENCY)
    if server.config.malicious:
        server.collect_consistency(
            {u: clients[u].consistency_check(u3) for u in sorted(alive & set(u3))}
        )

    # Stage 4 — Unmasking.
    alive -= dropout.dropped_by(STAGE_UNMASK)
    request = server.unmask_request()
    unmask_msgs = {
        u: clients[u].unmask(*request) for u in sorted(alive & set(server.u4))
    }
    aggregate = server.collect_unmask(unmask_msgs)
    return aggregate, alive, unmask_msgs


def run_secagg_round_reference(
    config: SecAggConfig,
    inputs: dict[int, np.ndarray],
    dropout: Optional[DropoutSchedule] = None,
    pki: Optional[PublicKeyInfrastructure] = None,
    round_index: int = 0,
    client_factory: Optional[Callable[[int], SecAggClient]] = None,
) -> RoundResult:
    """The pre-engine synchronous driver, kept as executable specification.

    Regression tests run both this and the engine path on identical
    inputs and require bit-identical outcomes.  Do not add features here;
    new behavior belongs in the workflow/engine path.
    """
    dropout = dropout or DropoutSchedule()
    sampled = sorted(inputs)

    pki = resolve_round_pki(config, pki, client_factory)
    clients = make_secagg_clients(config, sampled, pki, round_index, client_factory)
    server = SecAggServer(config, pki=pki, round_index=round_index, suite=clients_suite(clients))

    aggregate, _, _ = run_reference_stages(clients, server, inputs, dropout)
    return server.round_result(aggregate)
