"""Shared protocol types: configuration, messages, stage constants.

The stage constants index the dropout-injection points of the round
driver and match the paper's Fig. 5 stage names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.crypto.signature import SchnorrSignature
from repro.wire.bitpack import packed_nbytes

STAGE_ADVERTISE = 0
STAGE_SHARE_KEYS = 1
STAGE_MASKED_INPUT = 2
STAGE_CONSISTENCY = 3
STAGE_UNMASK = 4
STAGE_NOISE_REMOVAL = 5  # XNoise's ExcessiveNoiseRemoval extension

STAGE_NAMES = {
    STAGE_ADVERTISE: "AdvertiseKeys",
    STAGE_SHARE_KEYS: "ShareKeys",
    STAGE_MASKED_INPUT: "MaskedInputCollection",
    STAGE_CONSISTENCY: "ConsistencyCheck",
    STAGE_UNMASK: "Unmasking",
    STAGE_NOISE_REMOVAL: "ExcessiveNoiseRemoval",
}


class ProtocolAbort(Exception):
    """A party aborted the round (below threshold, failed verification…).

    Fig. 5 prescribes abort on: fewer than t responses, duplicate public
    keys, failed signature checks, undecryptable share payloads, or an
    inconsistent broadcast.
    """


@dataclass(frozen=True)
class SecAggConfig:
    """Static parameters of one secure-aggregation round.

    Attributes
    ----------
    threshold:
        Shamir threshold t.  Reconstruction of dropped clients' masking
        keys — and XNoise seed recovery — needs t live clients.  The
        malicious setting requires t > |U|/2 (§3.3 footnote).
    bits:
        Ring bit-width; inputs and masks live in Z_{2^bits}.
    dimension:
        Length of the (already padded/encoded) input vectors.
    malicious:
        Enables the bracketed Fig. 5 steps: signed key advertisements and
        the ConsistencyCheck stage.
    graph_degree:
        ``None`` → complete graph (SecAgg).  An integer k → random
        k-regular communication graph (SecAgg+).
    graph_seed:
        Public randomness for the k-regular graph construction.
    dh_group:
        Named Diffie–Hellman group ("modp2048" for deployment-grade keys,
        "modp512" for fast simulation/testing).
    workers:
        Worker threads for the coordinator's unmask compute plane.
        ``1`` (the default) is the purely inline serial path; ``None``
        means one worker per available core.  Any setting produces the
        bit-identical aggregate (pinned by test) — the fan-out reduces
        with exact order-independent int64 sums.
    """

    threshold: int
    bits: int = 20
    dimension: int = 16
    malicious: bool = False
    graph_degree: Optional[int] = None
    graph_seed: int = 0
    dh_group: str = "modp2048"
    workers: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if not 1 <= self.bits <= 62:
            raise ValueError("bits must be in [1, 62]")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.graph_degree is not None and self.graph_degree < 1:
            raise ValueError("graph_degree must be >= 1 when given")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1 (or None for auto)")
        from repro.crypto.dh import GROUPS

        if self.dh_group not in GROUPS:
            raise ValueError(
                f"unknown dh_group {self.dh_group!r}; choose from {sorted(GROUPS)}"
            )

    @property
    def modulus(self) -> int:
        return 1 << self.bits

    @property
    def vector_bytes(self) -> int:
        """Wire size of one masked vector: ``ceil(dimension × b / 8)``.

        The one definition of that size: the codec writes exactly this
        many body bytes after its fixed header, and the traffic meter
        and :mod:`repro.secagg.complexity` book the same number.
        """
        return packed_nbytes(self.dimension, self.bits)


@dataclass(frozen=True)
class AdvertiseKeysMsg:
    """Stage-0 client → server: the two DH public keys (+ signature)."""

    sender: int
    c_public: int
    s_public: int
    signature: Optional[SchnorrSignature] = None


@dataclass(frozen=True)
class MaskedInputMsg:
    """Stage-2 client → server: the masked (and DP-perturbed) input.

    ``bits`` is the ring width the sender masked in: every element of
    ``masked_vector`` is in ``[0, 2**bits)`` and occupies exactly
    ``bits`` bits on the wire.
    """

    sender: int
    masked_vector: np.ndarray
    bits: int


@dataclass(frozen=True)
class UnmaskingMsg:
    """Stage-4 client → server.

    ``s_sk_shares`` hold shares of *dropped* clients' mask-key secrets
    (U2 \\ U3); ``b_shares`` hold shares of *survivors'* self-mask seeds
    (U3).  A client never reveals both kinds for the same peer — that
    disjointness is what keeps survivors' inputs hidden.
    ``revealed_seeds`` is XNoise's direct seed upload (survivor reveals
    its own excess-component seeds g_{u,k} for k > |D|).
    """

    sender: int
    s_sk_shares: dict  # peer id -> Share
    b_shares: dict  # peer id -> Share
    revealed_seeds: dict = field(default_factory=dict)  # k -> bytes


@dataclass
class TrafficMeter:
    """Per-stage upstream/downstream byte estimates.

    Used by the Fig. 2 / Fig. 10 cost analysis; counts serialized payload
    sizes, not Python object overhead.
    """

    up_bytes: dict = field(default_factory=dict)
    down_bytes: dict = field(default_factory=dict)

    def add_up(self, stage: int, nbytes: int) -> None:
        self.up_bytes[stage] = self.up_bytes.get(stage, 0) + int(nbytes)

    def add_down(self, stage: int, nbytes: int) -> None:
        self.down_bytes[stage] = self.down_bytes.get(stage, 0) + int(nbytes)

    @property
    def total_bytes(self) -> int:
        return sum(self.up_bytes.values()) + sum(self.down_bytes.values())


@dataclass
class RoundResult:
    """Outcome of one secure-aggregation round.

    ``aggregate`` is the ring-domain sum over the survivor set ``u3``
    (Fig. 5's z), before any DP decode.  The u* fields record the
    per-stage participant sets.
    """

    aggregate: np.ndarray
    u1: list
    u2: list
    u3: list
    u4: list
    u5: list
    traffic: TrafficMeter
    u6: list = field(default_factory=list)  # XNoise stage-5 responders
    removed_noise_components: int = 0  # XNoise bookkeeping

    @property
    def survivors(self) -> list:
        return list(self.u3)
