"""The masked input's wire body — the one model-sized message.

Every other protocol message is small and rides the recursive value
encoding (:class:`repro.secagg.types.WireRecord`).  The masked input is
the exception: a fixed 13-byte header and the vector bit-packed at the
ring width (:mod:`repro.wire.bitpack`).  The message already holds that
stream (:class:`~repro.secagg.types.MaskedInputMsg`), so encoding
appends it to the frame buffer and decoding checks it where it lies and
hands on a ``memoryview`` of the frame — no vector on either side.
:mod:`repro.wire.codecs` registers the pair ``in_place`` and frames it;
tests pin the format (a tampered or truncated encoding must fail to
parse, never mis-parse).
"""

from __future__ import annotations

import struct

from repro.secagg.types import MaskedInputMsg
from repro.wire.bitpack import packed_stream
from repro.wire.codecs import CodecError

#: Masked-input body header: sender u64 ∥ bits u8 ∥ count u32 (big-endian).
_MASKED_HEADER = struct.Struct(">QBI")


def encode_masked_input(msg: MaskedInputMsg, out: bytearray | None = None) -> bytearray:
    """Append the masked-input body to ``out`` (a fresh buffer if none).

    ``sender u64 ∥ bits u8 ∥ count u32`` then the vector as a
    little-endian bit stream, element *i* in bits ``[i·b, (i+1)·b)`` —
    the message's ``packed`` bytes as they are, once they pass the
    decoder's own check: what is sent is what would be accepted.
    """
    if out is None:
        out = bytearray()
    start = len(out)
    try:
        packed = packed_stream(msg.packed, msg.count, msg.bits)
        out += _MASKED_HEADER.pack(msg.sender, msg.bits, msg.count)
        out += packed.data
    except (struct.error, ValueError, TypeError) as exc:
        del out[start:]
        raise CodecError(f"unencodable MaskedInput: {exc}") from exc
    return out


def decode_masked_input(data) -> MaskedInputMsg:
    """Strict inverse of :func:`encode_masked_input`.

    ``data`` is any bytes-like object — in a round, a ``memoryview`` of
    the received frame; the message's stream is a slice of it, checked
    in place and not copied.  Truncation, extra bytes, a width outside
    ``[1, 62]``, a count that disagrees with the length and non-zero
    pad bits all raise :class:`CodecError`.
    """
    view = memoryview(data)
    if view.nbytes < _MASKED_HEADER.size:
        raise CodecError("truncated MaskedInput header")
    sender, bits, count = _MASKED_HEADER.unpack_from(view)
    packed = view[_MASKED_HEADER.size :]
    try:
        packed_stream(packed, count, bits)
    except ValueError as exc:
        raise CodecError(f"malformed MaskedInput body: {exc}") from exc
    return MaskedInputMsg(sender=sender, bits=bits, count=count, packed=packed)
