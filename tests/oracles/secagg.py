"""SecAgg and XNoise as first written: serial drivers, per-term reductions.

- :func:`accumulate_masks_reference` / :func:`accumulate_signed_masks_reference`
  reduce after every term — the left fold
  :class:`~repro.secagg.masking.MaskAccumulator` must reproduce bit for bit.
- :func:`collect_unmask_reference` is the unmask plane composed from the
  reference primitives: one :class:`~repro.crypto.prg.PRGReference`
  expansion and one full reduction per mask, one
  :func:`~tests.oracles.shamir.reconstruct_reference` per secret.
- :func:`run_secagg_round_reference` / :func:`run_xnoise_round_reference`
  are the pre-engine synchronous drivers: Fig. 5's stages called in
  order on one round's clients and server, no engine, no transport.
  The engine path must produce the same aggregate and participant sets.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.crypto.dh import DHKeyPair
from repro.crypto.pki import PublicKeyInfrastructure
from repro.crypto.prg import PRGReference
from repro.crypto.shamir import ShamirSecretSharing, Share
from repro.secagg.client import SecAggClient
from repro.secagg.driver import (
    DropoutSchedule,
    clients_suite,
    make_secagg_clients,
    resolve_round_pki,
)
from repro.secagg.server import SecAggServer
from repro.secagg.types import (
    STAGE_ADVERTISE,
    STAGE_CONSISTENCY,
    STAGE_MASKED_INPUT,
    STAGE_NOISE_REMOVAL,
    STAGE_SHARE_KEYS,
    STAGE_UNMASK,
    ProtocolAbort,
    RoundResult,
    SecAggConfig,
    UnmaskingMsg,
)
from repro.xnoise.protocol import XNoiseClient, XNoiseConfig, XNoiseResult, XNoiseServer
from tests.oracles.shamir import reconstruct_reference


def accumulate_masks_reference(
    base: np.ndarray, masks: list[np.ndarray], modulus: int
) -> np.ndarray:
    """Reduce after every addition."""
    total = np.asarray(base, dtype=np.int64) % modulus
    for mask in masks:
        total = (total + mask) % modulus
    return total


def accumulate_signed_masks_reference(
    base: np.ndarray, terms: list[tuple[np.ndarray, int]], modulus: int
) -> np.ndarray:
    """One reduced ``(· ± xᵢ) mod R`` step per term, in term order."""
    total = np.asarray(base, dtype=np.int64) % modulus
    for mask, sign in terms:
        if sign > 0:
            total = (total + mask) % modulus
        else:
            total = (total - mask) % modulus
    return total


def reconstruct_or_abort(ss: ShamirSecretSharing, shares: list[Share], what: str) -> bytes:
    """The oracle's reconstruction, a failure wrapped as the round's abort."""
    try:
        return reconstruct_reference(ss, shares)
    except ValueError as exc:
        raise ProtocolAbort(f"cannot reconstruct {what}: {exc}") from exc


def collect_unmask_reference(
    server: SecAggServer,
    messages: dict[int, UnmaskingMsg],
    vectors: dict[int, np.ndarray],
) -> np.ndarray:
    """Serial unmasking of ``server``'s round.

    The server keeps no client's masked input, so the oracle is told
    them: ``vectors`` maps every U3 client to the vector it sent.
    Secrets are reconstructed in the fast plane's order (survivors'
    b_u, then dropped clients' s^SK), so a failed reconstruction aborts
    with the same message.
    """
    good = server._accept_unmask(messages)
    modulus = server.config.modulus
    dim = server.config.dimension
    aggregate = np.zeros(dim, dtype=np.int64)
    for u in server.u3:
        aggregate = (aggregate + vectors[u]) % modulus

    ss = server.suite.ss(server.config.threshold)

    # Remove survivors' self masks: reconstruct b_u, expand, subtract.
    for u in server.u3:
        shares = [m.b_shares[u] for m in good.values() if u in m.b_shares]
        b_seed = reconstruct_or_abort(ss, shares, f"self-mask seed of {u}")
        mask = PRGReference(b_seed).uniform_vector(dim, modulus)
        aggregate = (aggregate - mask) % modulus

    # Cancel dropped clients' pairwise masks: reconstruct s^SK_u, then
    # recompute p_{v,u} for each surviving neighbor v and subtract it.
    for u in server.dropped_after_masking:
        shares = [m.s_sk_shares[u] for m in good.values() if u in m.s_sk_shares]
        sk = int.from_bytes(reconstruct_or_abort(ss, shares, f"mask key of {u}"), "big")
        pair = DHKeyPair(secret=sk, public=0)
        survivors = sorted(server.graph.get(u, set()) & set(server.u3))
        seeds = server.suite.ka.agree(pair, [server._s_publics[v] for v in survivors])
        for v, seed in zip(survivors, seeds):
            base = PRGReference(seed).uniform_vector(dim, modulus)
            mask = base if v > u else (-base) % modulus
            aggregate = (aggregate - mask) % modulus
    return aggregate


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
    roster = server.collect_advertise(adverts)

    # Stage 1 — ShareKeys.
    alive -= dropout.dropped_by(STAGE_SHARE_KEYS)
    outboxes = {u: clients[u].share_keys(roster) for u in sorted(alive & set(roster))}
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
    """The synchronous SecAgg driver, :func:`repro.secagg.run_secagg_round`'s
    signature."""
    dropout = dropout or DropoutSchedule()
    sampled = sorted(inputs)

    pki = resolve_round_pki(config, pki, client_factory)
    clients = make_secagg_clients(config, sampled, pki, round_index, client_factory)
    server = SecAggServer(config, pki=pki, round_index=round_index, suite=clients_suite(clients))

    aggregate, _, _ = run_reference_stages(clients, server, inputs, dropout)
    return server.round_result(aggregate)


def run_xnoise_round_reference(
    config: XNoiseConfig,
    inputs: dict[int, np.ndarray],
    dropout: Optional[DropoutSchedule] = None,
    pki: Optional[PublicKeyInfrastructure] = None,
    round_index: int = 0,
    client_factory: Optional[Callable[[int], XNoiseClient]] = None,
) -> XNoiseResult:
    """The synchronous XNoise driver, :func:`repro.xnoise.run_xnoise_round`'s
    signature: SecAgg's stages, then ExcessiveNoiseRemoval."""
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
