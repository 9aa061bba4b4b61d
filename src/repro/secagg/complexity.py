"""Asymptotic cost accounting for secure-aggregation protocols.

§2.3.2 and §8 discuss the complexity gap that motivates SecAgg+: SecAgg
costs each client O(n) key agreements/shares and the server O(n²)
mask-expansion work, while SecAgg+'s k-regular graph (k = O(log n)) cuts
these to O(log n) and O(n log n).  This module computes the *exact*
per-round operation and byte counts from the protocol parameters, so the
asymptotics are checkable and the Fig.-2-style models have a grounded
counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.ae import AuthenticatedEncryption
from repro.crypto.dh import resolve_group
from repro.crypto.shamir import ShamirSecretSharing
from repro.secagg.codec import _MASKED_HEADER
from repro.secagg.graph import recommended_degree
from repro.secagg.types import AdvertiseKeysMsg, SecAggConfig, SharePayload
from repro.wire.codecs import encode_payload_frame
from repro.wire.frame import FRAME_OVERHEAD, KIND_RESPONSE

#: Fixed bytes around one masked vector on the wire: frame header,
#: payload version, codec tag + length prefix, and the masked-input
#: header (sender, ring width, count).  Independent of the vector.
MASKED_INPUT_ENVELOPE_BYTES = FRAME_OVERHEAD + 1 + 1 + 4 + _MASKED_HEADER.size


def _framed_nbytes(payload) -> int:
    """Wire bytes of ``payload`` as one message: the frame the encoder emits."""
    return len(encode_payload_frame(KIND_RESPONSE, payload))


@dataclass(frozen=True)
class ClientCost:
    """One client's per-round operation counts."""

    key_agreements: int
    shares_generated: int
    ciphertexts_sent: int
    mask_expansions: int  # PRG expansions of model length
    upload_bytes_fixed: int  # excludes the masked vector itself

    @property
    def total_crypto_ops(self) -> int:
        return self.key_agreements + self.shares_generated + self.ciphertexts_sent


@dataclass(frozen=True)
class ServerCost:
    """The server's per-round operation counts."""

    reconstructions: int
    mask_expansions: int
    routed_ciphertexts: int


def masked_upload_bytes(config: SecAggConfig) -> int:
    """Analytic uplink of one masked input: ``d·b`` bits plus the envelope.

    ``config.vector_bytes`` is the one definition of a vector's wire
    size — the codec writes exactly that many body bytes — so this
    equals the framed bytes a socket carries for the message (pinned by
    test against a measured round).
    """
    return config.vector_bytes + MASKED_INPUT_ENVELOPE_BYTES


def fixed_upload_bytes(neighbors: int, dh_group: str = SecAggConfig.dh_group) -> int:
    """Framed bytes one client uploads besides its masked vector.

    Its key advertisement plus its ShareKeys outbox (one ciphertext per
    neighbor), sized by the codecs from representative messages: keys
    at ``dh_group``'s element width, and AE's constant overhead over the
    fixed-width plaintext of one dealing — a share of a mask key at the
    group's secret width, the width :meth:`SecAggClient.share_keys`
    cuts it at, and of a 32-byte seed — each sized as the encoder emits
    it.  Every term is fixed-width, so a round over ids below 128
    measures exactly this (pinned by test on both named groups).
    """
    group = resolve_group(dh_group)
    key = bytes(group.element_bytes)
    s_sk, b = ShamirSecretSharing(1).share([bytes(group.secret_bytes), bytes(32)], [1])
    plaintext = SharePayload(sender=0, recipient=1, s_sk_share=s_sk[1], b_share=b[1]).to_bytes()
    ciphertext = bytes(len(plaintext) + AuthenticatedEncryption.OVERHEAD)
    return _framed_nbytes(AdvertiseKeysMsg(0, key, key)) + _framed_nbytes(
        {peer: ciphertext for peer in range(neighbors)}
    )


def secagg_client_cost(n_clients: int, dropout_rate: float = 0.0) -> ClientCost:
    """Per-client cost of full SecAgg: everything is O(n)."""
    if n_clients < 2:
        raise ValueError("need at least 2 clients")
    neighbors = n_clients - 1
    return ClientCost(
        key_agreements=2 * neighbors,  # c- and s-channel per peer
        shares_generated=2 * (neighbors + 1),  # s_sk and b over U1
        ciphertexts_sent=neighbors,
        mask_expansions=neighbors + 1,  # pairwise + self
        upload_bytes_fixed=fixed_upload_bytes(neighbors),
    )


def secagg_plus_client_cost(
    n_clients: int, degree: int | None = None
) -> ClientCost:
    """Per-client cost of SecAgg+: everything is O(k) = O(log n)."""
    if n_clients < 2:
        raise ValueError("need at least 2 clients")
    k = degree if degree is not None else recommended_degree(n_clients)
    k = min(k, n_clients - 1)
    return ClientCost(
        key_agreements=2 * k,
        shares_generated=2 * (k + 1),
        ciphertexts_sent=k,
        mask_expansions=k + 1,
        upload_bytes_fixed=fixed_upload_bytes(k),
    )


def secagg_server_cost(
    n_clients: int, dropout_rate: float = 0.0, degree: int | None = None
) -> ServerCost:
    """Server cost; ``degree=None`` → full SecAgg (k = n−1).

    Mask expansions: one self-mask per survivor plus, for every dropped
    client, one pairwise mask per surviving neighbor — the O(n²) term
    under dropout (O(n·log n) for SecAgg+).
    """
    if n_clients < 2:
        raise ValueError("need at least 2 clients")
    if not 0 <= dropout_rate < 1:
        raise ValueError("dropout_rate must be in [0, 1)")
    k = (n_clients - 1) if degree is None else min(degree, n_clients - 1)
    dropped = int(round(n_clients * dropout_rate))
    survivors = n_clients - dropped
    return ServerCost(
        reconstructions=survivors + dropped,  # b_u's and s_sk's
        mask_expansions=survivors + dropped * min(survivors, k),
        routed_ciphertexts=n_clients * k,
    )


def crossover_population(base: float = 3.0) -> int:
    """Smallest n where SecAgg+'s per-client work beats SecAgg's.

    k = ⌈base·log₂ n⌉ < n − 1 — solvable by scan; the answer is small
    (tens), matching the regime where SecAgg+ starts to pay off.
    """
    n = 3
    while True:
        k = math.ceil(base * math.log2(n))
        if k < n - 1:
            return n
        n += 1
