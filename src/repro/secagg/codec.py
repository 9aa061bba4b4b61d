"""Wire codecs for every protocol message.

The round driver passes Python objects in-process; a deployment ships
bytes.  This module gives each message type a canonical binary body —
registered with :mod:`repro.wire.codecs`, which frames it — and tests
pin the format (a tampered or truncated encoding must fail to parse,
never mis-parse).

Format conventions: 4-byte big-endian length prefixes via
:mod:`repro.secagg.wire`; group elements at the group's fixed width.
The masked input — the one model-sized message — is the exception: a
fixed 13-byte header and the vector bit-packed at the ring width
(:mod:`repro.wire.bitpack`), written straight into the frame buffer and
read straight out of it.
"""

from __future__ import annotations

import struct

from repro.crypto.signature import SchnorrSignature
from repro.secagg import wire
from repro.secagg.types import AdvertiseKeysMsg, MaskedInputMsg, UnmaskingMsg
from repro.wire.bitpack import pack_bits_into, packed_nbytes, unpack_bits
from repro.wire.codecs import CodecError

_KEY_BYTES = 256  # MODP group elements (≤ 2048 bits)


def encode_advertise(msg: AdvertiseKeysMsg) -> bytes:
    fields = [
        msg.sender.to_bytes(8, "big"),
        msg.c_public.to_bytes(_KEY_BYTES, "big"),
        msg.s_public.to_bytes(_KEY_BYTES, "big"),
        msg.signature.to_bytes() if msg.signature is not None else b"",
    ]
    return wire.encode_fields(fields)


def decode_advertise(data: bytes) -> AdvertiseKeysMsg:
    fields = wire.decode_fields(data)
    if len(fields) != 4:
        raise ValueError("malformed AdvertiseKeys encoding")
    signature = (
        SchnorrSignature.from_bytes(fields[3]) if fields[3] else None
    )
    return AdvertiseKeysMsg(
        sender=int.from_bytes(fields[0], "big"),
        c_public=int.from_bytes(fields[1], "big"),
        s_public=int.from_bytes(fields[2], "big"),
        signature=signature,
    )


#: Masked-input body header: sender u64 ∥ bits u8 ∥ count u32 (big-endian).
_MASKED_HEADER = struct.Struct(">QBI")


def masked_input_nbytes(count: int, bits: int) -> int:
    """Body size of a masked input: header + ``ceil(count·bits/8)``."""
    return _MASKED_HEADER.size + packed_nbytes(count, bits)


def encode_masked_input(msg: MaskedInputMsg, out: bytearray | None = None) -> bytearray:
    """Append the masked-input body to ``out`` (a fresh buffer if none).

    ``sender u64 ∥ bits u8 ∥ count u32`` then the vector as a
    little-endian bit stream, element *i* in bits ``[i·b, (i+1)·b)``.
    The vector's only copy is the pack into ``out`` — in a round, the
    frame buffer the socket writes.
    """
    if out is None:
        out = bytearray()
    vector = msg.masked_vector
    start = len(out)
    try:
        out += _MASKED_HEADER.pack(msg.sender, msg.bits, vector.size)
        pack_bits_into(vector, msg.bits, out)
    except (struct.error, ValueError) as exc:
        del out[start:]
        raise CodecError(f"unencodable MaskedInput: {exc}") from exc
    return out


def decode_masked_input(data) -> MaskedInputMsg:
    """Strict inverse of :func:`encode_masked_input`.

    ``data`` is any bytes-like object — in a round, a ``memoryview`` of
    the received frame, unpacked in place into one fresh ``int64``
    array.  Truncation, extra bytes, a width outside ``[1, 62]``, a
    count that disagrees with the length and non-zero pad bits all
    raise :class:`CodecError`.
    """
    view = memoryview(data)
    if view.nbytes < _MASKED_HEADER.size:
        raise CodecError("truncated MaskedInput header")
    sender, bits, count = _MASKED_HEADER.unpack_from(view)
    try:
        vector = unpack_bits(view[_MASKED_HEADER.size :], count, bits)
    except ValueError as exc:
        raise CodecError(f"malformed MaskedInput body: {exc}") from exc
    return MaskedInputMsg(sender=sender, masked_vector=vector, bits=bits)


def _encode_share_map(shares: dict) -> bytes:
    fields = []
    for peer in sorted(shares):
        fields.append(int(peer).to_bytes(8, "big"))
        fields.append(wire.encode_share(shares[peer]))
    return wire.encode_fields(fields)


def _decode_share_map(data: bytes) -> dict:
    fields = wire.decode_fields(data)
    if len(fields) % 2:
        raise ValueError("malformed share map")
    return {
        int.from_bytes(fields[i], "big"): wire.decode_share(fields[i + 1])
        for i in range(0, len(fields), 2)
    }


def encode_unmasking(msg: UnmaskingMsg) -> bytes:
    seed_fields = []
    for k in sorted(msg.revealed_seeds):
        seed_fields.append(int(k).to_bytes(4, "big"))
        seed_fields.append(msg.revealed_seeds[k])
    return wire.encode_fields(
        [
            msg.sender.to_bytes(8, "big"),
            _encode_share_map(msg.s_sk_shares),
            _encode_share_map(msg.b_shares),
            wire.encode_fields(seed_fields),
        ]
    )


def decode_unmasking(data: bytes) -> UnmaskingMsg:
    fields = wire.decode_fields(data)
    if len(fields) != 4:
        raise ValueError("malformed Unmasking encoding")
    seed_fields = wire.decode_fields(fields[3])
    if len(seed_fields) % 2:
        raise ValueError("malformed revealed-seed list")
    seeds = {
        int.from_bytes(seed_fields[i], "big"): seed_fields[i + 1]
        for i in range(0, len(seed_fields), 2)
    }
    return UnmaskingMsg(
        sender=int.from_bytes(fields[0], "big"),
        s_sk_shares=_decode_share_map(fields[1]),
        b_shares=_decode_share_map(fields[2]),
        revealed_seeds=seeds,
    )


def message_bytes(msg) -> int:
    """Exact wire size of any protocol message (for traffic metering)."""
    if isinstance(msg, AdvertiseKeysMsg):
        return len(encode_advertise(msg))
    if isinstance(msg, MaskedInputMsg):
        return masked_input_nbytes(msg.masked_vector.size, msg.bits)
    if isinstance(msg, UnmaskingMsg):
        return len(encode_unmasking(msg))
    raise TypeError(f"unknown message type {type(msg).__name__}")
