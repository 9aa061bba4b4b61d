"""The masked input's wire body — the one model-sized message.

Every other protocol message is small and rides the recursive value
encoding (:class:`repro.secagg.types.WireRecord`).  The masked input is
the exception: a fixed 13-byte header and the vector bit-packed at the
ring width (:mod:`repro.wire.bitpack`), written straight into the frame
buffer and read straight out of it.  :mod:`repro.wire.codecs` registers
the pair ``in_place`` and frames it; tests pin the format (a tampered
or truncated encoding must fail to parse, never mis-parse).
"""

from __future__ import annotations

import struct

from repro.secagg.types import MaskedInputMsg
from repro.wire.bitpack import pack_bits_into, packed_nbytes, unpack_bits
from repro.wire.codecs import CodecError

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
