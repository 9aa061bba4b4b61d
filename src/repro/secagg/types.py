"""Shared protocol types: configuration, messages, stage constants.

The stage constants index the dropout-injection points of the round
driver and match the paper's Fig. 5 stage names.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from typing import Optional

import numpy as np

from repro.crypto.field import FIELD
from repro.crypto.shamir import Share, chunk_count
from repro.crypto.signature import SchnorrSignature
from repro.wire.bitpack import pack_bits_into, unpack_bits
from repro.wire.codecs import CodecError, decode_whole_value, encode_value

STAGE_ADVERTISE = 0
STAGE_SHARE_KEYS = 1
STAGE_MASKED_INPUT = 2
STAGE_CONSISTENCY = 3
STAGE_UNMASK = 4
STAGE_NOISE_REMOVAL = 5  # XNoise's ExcessiveNoiseRemoval extension


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
        ``None`` → complete graph (SecAgg).  An integer k → the Harary
        graph H(k, n) over a seeded order of the roster (SecAgg+), see
        :func:`repro.secagg.graph.masking_graph`.
    graph_seed:
        Public randomness for that order.
    dh_group:
        Named Diffie–Hellman group ("modp2048" for deployment-grade keys,
        "modp512" for fast simulation/testing).
    workers:
        Threads the coordinator folds recovered mask seeds on
        (:meth:`repro.secagg.masking.MaskAccumulator.fold_seeds`).
        ``1`` (the default) is the inline serial loop; ``None`` means
        one per available core.  Any setting produces the bit-identical
        aggregate (pinned by test) — the fan-out adds exact int64
        partial sums.
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


def _is_id(value) -> bool:
    """A non-negative integer (client id, noise-component index)."""
    return (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and value >= 0
    )


def _is_map(value, is_key, value_type) -> bool:
    return isinstance(value, dict) and all(
        is_key(k) and isinstance(v, value_type) for k, v in value.items()
    )


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CodecError(what)


class WireRecord:
    """A small message whose wire body is the value encoding of its fields.

    ``to_bytes`` is :func:`repro.wire.codecs.encode_value` of the plain
    field tuple; ``from_bytes`` decodes the whole body back to that
    tuple.  The value encoding gives framing, canonical order and
    duplicate-key rejection; each record's ``_check(*fields)`` adds what
    it cannot know — every field's type and range — and runs on both
    sides, so a record that would not decode is refused before it is
    sent.  Every failure is a :class:`CodecError`.
    """

    def to_bytes(self) -> bytes:
        values = tuple([getattr(self, name) for name in _field_names(type(self))])
        self._check(*values)
        return encode_value(values)

    @classmethod
    def from_bytes(cls, data: bytes):
        try:
            values = decode_whole_value(data)
        except CodecError as exc:
            raise CodecError(f"malformed {cls.__name__} body: {exc}") from exc
        arity = len(_field_names(cls))
        if not isinstance(values, tuple) or len(values) != arity:
            raise CodecError(f"{cls.__name__} is not a {arity}-field tuple")
        cls._check(*values)
        return cls(*values)


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    """A record class's field names, in order (read once per class)."""
    return tuple(f.name for f in fields(cls))


@dataclass(frozen=True)
class AdvertiseKeysMsg(WireRecord):
    """Stage-0 client → server: the two DH public keys (+ signature).

    The keys are :meth:`repro.crypto.dh.KeyAgreement.public_bytes` —
    fixed at the group's width, so the message (and the roster broadcast
    built from it) has one size per group, not one per key value.  The
    record cannot know the group: server and clients refuse any other
    width (:meth:`~repro.crypto.dh.KeyAgreement.decode_public`).

    The record is frozen and every field immutable, so it keeps its
    body after the first encode: the ShareKeys request repeats the
    whole roster to every client.
    """

    sender: int
    c_public: bytes
    s_public: bytes
    signature: Optional[SchnorrSignature] = None

    @cached_property
    def _body(self) -> bytes:
        return WireRecord.to_bytes(self)

    def to_bytes(self) -> bytes:
        return self._body

    @staticmethod
    def _check(sender, c_public, s_public, signature) -> None:
        _require(_is_id(sender), f"AdvertiseKeys sender {sender!r} is not an id")
        _require(
            isinstance(c_public, bytes) and isinstance(s_public, bytes)
            and len(c_public) > 0 and len(s_public) > 0,
            "AdvertiseKeys public keys must be non-empty bytes",
        )
        _require(
            signature is None or isinstance(signature, SchnorrSignature),
            "AdvertiseKeys signature must be a SchnorrSignature or None",
        )


#: ``sender u64 ∥ recipient u64``: the route that opens a ShareKeys plaintext.
_ROUTE = struct.Struct(">QQ")

#: Bytes of one share evaluation (a y-value) in a ShareKeys plaintext.
_Y_BYTES = FIELD.element_bytes


@dataclass(frozen=True)
class DealingShape:
    """What a dealer shares in ShareKeys, in dealing order: the byte
    width of s^SK (its group's secret width), of the self-mask seed b,
    then of each extra secret, whose labels ``labels`` holds.

    Every client of a round deals the same labels at the same widths,
    so a recipient parses each plaintext it holds against its own shape.
    """

    widths: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.widths) != 2 + len(self.labels) or any(
            type(w) is not int or w < 0 for w in self.widths
        ):
            raise ValueError(
                f"dealing shape needs s^SK, b and one width per label, "
                f"got widths {self.widths} for labels {self.labels}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"dealing shape labels {self.labels} repeat a label")

    @cached_property
    def chunks(self) -> tuple[int, ...]:
        return tuple([chunk_count(w) for w in self.widths])

    @cached_property
    def nbytes(self) -> int:
        """Length of every plaintext dealt at this shape."""
        return _ROUTE.size + _Y_BYTES * sum(self.chunks)


@dataclass(frozen=True)
class SharePayload:
    """The plaintext of one ShareKeys ciphertext (Fig. 5):
    ``u ∥ v ∥ s^SK_{u,v} ∥ b_{u,v} [∥ g_{u,1,v} … g_{u,T,v}]``.

    ``extra_shares`` maps a label to the recipient's share of that
    extra secret (XNoise: the noise-component seeds), in dealing order.

    A fixed-width leaf format, like :meth:`Share.to_bytes`: ``sender
    u64 ∥ recipient u64``, then the y-values (16 B each, big-endian) of
    the s^SK share, the b share and each extra share, in that order.
    Nothing else travels: every share's ``x`` is the recipient, and its
    secret length, chunk count and label come from the recipient's own
    :class:`DealingShape`.  :meth:`from_bytes` refuses any other length,
    a wrong route and a y outside GF(p), each by name; :meth:`to_bytes`
    refuses what would not parse back, so nothing unparseable is sent.
    Every failure is a :class:`CodecError`.
    """

    sender: int
    recipient: int
    s_sk_share: Share
    b_share: Share
    extra_shares: dict = field(default_factory=dict)  # label -> Share

    @property
    def shape(self) -> DealingShape:
        """The shape this payload was dealt at."""
        return DealingShape(
            tuple([share.secret_len for share in self._shares()]),
            tuple(self.extra_shares),
        )

    def _shares(self) -> list:
        return [self.s_sk_share, self.b_share, *self.extra_shares.values()]

    def to_bytes(self) -> bytes:
        sender, recipient = self.sender, self.recipient
        _require(
            _is_id(sender) and _is_id(recipient)
            and sender < 1 << 64 and recipient < 1 << 64,
            f"share payload route {sender!r} -> {recipient!r} is not a pair of ids",
        )
        _require(
            all(isinstance(label, str) for label in self.extra_shares),
            "share payload extras must map str labels to Shares",
        )
        ys: list[int] = []
        for share in self._shares():
            if not isinstance(share, Share):
                raise CodecError(
                    "share payload must carry Shares of the mask key, the seed and each extra"
                )
            if share.x != recipient:
                raise CodecError(
                    f"share payload for {recipient} carries a share at x = {share.x}"
                )
            if len(share.ys) != chunk_count(share.secret_len):
                raise CodecError(
                    f"share of a {share.secret_len}-byte secret has {len(share.ys)} chunks"
                )
            ys += share.ys
        _check_field_elements(ys)
        return _ROUTE.pack(sender, recipient) + b"".join(
            [y.to_bytes(_Y_BYTES, "big") for y in ys]
        )

    @classmethod
    def from_bytes(
        cls, data: bytes, shape: DealingShape, sender: int, recipient: int
    ) -> "SharePayload":
        """Strict inverse of :meth:`to_bytes` for the plaintext ``sender``
        dealt ``recipient`` at ``shape``."""
        n = len(data)
        if n != shape.nbytes:
            raise CodecError(
                f"SharePayload of {n} bytes; the dealing shape {shape.widths} "
                f"needs {shape.nbytes}"
            )
        route = _ROUTE.unpack_from(data)
        if route != (sender, recipient):
            raise CodecError(
                f"SharePayload routed {route[0]} -> {route[1]}, "
                f"expected {sender} -> {recipient}"
            )
        ys = [
            int.from_bytes(data[i : i + _Y_BYTES], "big")
            for i in range(_ROUTE.size, n, _Y_BYTES)
        ]
        _check_field_elements(ys)
        shares = []
        start = 0
        for width, count in zip(shape.widths, shape.chunks):
            shares.append(
                Share(x=recipient, ys=tuple(ys[start : start + count]), secret_len=width)
            )
            start += count
        s_sk_share, b_share, *extras = shares
        return cls(sender, recipient, s_sk_share, b_share, dict(zip(shape.labels, extras)))


def _check_field_elements(ys: list[int]) -> None:
    """Every y-value of a ShareKeys plaintext is an element of the
    share field GF(p), p = 2**127 − 1."""
    p = FIELD.p
    for i, y in enumerate(ys):
        if not (type(y) is int and 0 <= y < p):
            raise CodecError(f"share payload y-value {i} = {y!r} is not in [0, p)")


@dataclass(frozen=True)
class MaskedInputMsg:
    """Stage-2 client → server: the masked (and DP-perturbed) input.

    The one model-sized message, and it is never a vector: ``packed``
    is the ring-width bit stream of :mod:`repro.wire.bitpack` —
    ``count`` elements of ``bits`` bits, the form the client's
    accumulator is packed into
    (:meth:`repro.secagg.masking.MaskAccumulator.finish_packed`), the
    wire carries (:mod:`repro.secagg.codec` appends it to the frame and
    decodes to a ``memoryview`` of the frame) and the coordinator adds
    into its sum (:meth:`repro.secagg.server.SecAggServer.admit_masked`).
    A stream of exactly ``ceil(count·bits/8)`` bytes with zero pad bits
    holds elements of ``[0, 2**bits)`` and nothing else — "out of ring"
    and "negative" cannot be written down.  The decoder refuses any
    other stream; a message built in process is checked at the
    coordinator's door.
    """

    sender: int
    bits: int
    count: int
    packed: object  # bytes-like: bytes, bytearray, or a memoryview of the frame

    @classmethod
    def from_vector(cls, sender: int, vector, bits: int) -> "MaskedInputMsg":
        """The message carrying ``vector`` (tests, benches); an element
        outside ``[0, 2**bits)`` is a ``ValueError``."""
        packed = bytearray()
        pack_bits_into(vector, bits, packed)
        return cls(sender=sender, bits=bits, count=len(vector), packed=packed)

    @property
    def masked_vector(self) -> np.ndarray:
        """The stream unpacked into a fresh ``int64`` array — for tests
        and oracles; no round path reads it."""
        return unpack_bits(self.packed, self.count, self.bits)


@dataclass(frozen=True)
class UnmaskingMsg(WireRecord):
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

    @staticmethod
    def _check(sender, s_sk_shares, b_shares, revealed_seeds) -> None:
        _require(_is_id(sender), f"Unmasking sender {sender!r} is not an id")
        _require(
            _is_map(s_sk_shares, _is_id, Share) and _is_map(b_shares, _is_id, Share),
            "Unmasking share maps must map peer ids to Shares",
        )
        _require(
            _is_map(revealed_seeds, _is_id, bytes),
            "Unmasking revealed seeds must map component indices to bytes",
        )


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
    u6: list = field(default_factory=list)  # XNoise stage-5 responders
    removed_noise_components: int = 0  # XNoise bookkeeping

    @property
    def survivors(self) -> list:
        return list(self.u3)
