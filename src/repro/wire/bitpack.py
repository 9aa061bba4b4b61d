"""Ring-width bit packing: a vector of ``b``-bit elements as ``d·b`` bits.

The masked vector is the one model-sized payload of a round, and the
paper prices it at ``d·b`` bits (Table 3 / Fig. 9), so the wire carries
exactly that: element *i* occupies bits ``[i·b, (i+1)·b)`` of a
little-endian bit stream (bit *k* of the stream is bit ``k & 7`` of byte
``k >> 3``), ``ceil(d·b/8)`` bytes in all, the pad bits of the last byte
zero.

Two implementations, bit-identical and pinned so by test:

- the C loops in ``_native/bitpack.c`` (the shared object
  :func:`repro.native.load` builds), one 64-bit window over the stream
  — and, for :func:`pack_low_bits_into` and :func:`unpack_add` on a CPU
  with the kernel's AVX-512 lanes, eight elements a register: a group
  of eight is exactly ``b`` bytes, one 64-byte load or one masked store;
- the numpy fallback below.  The stream's layout repeats every
  ``P = 64/gcd(b, 64)`` elements (``P·b`` bits are a whole number of
  64-bit words), so the vector is viewed as rows of ``P`` elements and
  every *column* moves with one shift/or over all rows — at most 64
  column steps whatever the length.

Both write into / read from caller-owned memory: :func:`pack_bits_into`
appends to the frame buffer, :func:`unpack_bits` reads a ``memoryview``
of the frame and fills one fresh ``int64`` array.

A round never holds a masked input in any form but this stream.  The
client leaves its ``int64`` accumulator through :func:`pack_low_bits_into`
— the pack with the ``mod 2**b`` reduction fused in: the low ``b`` bits
of each two's-complement sum — and the coordinator enters its own
through :func:`unpack_add`, which adds the stream's elements into a
vector that is already there.  Their fallbacks work a slab at a time,
so neither side ever allocates a second model-sized array.

The same layout defines what a mask seed expands to
(:mod:`repro.crypto.prg`): a mask over ``2**b`` is the unpacking of its
seed's SHA-256 counter stream, so there is one definition of "a b-bit
vector as bytes" on the wire and in the PRG.
"""

from __future__ import annotations

import math

import numpy as np

from repro import native

#: Element widths the format carries (``SecAggConfig.bits`` has the same range).
MIN_BITS = 1
MAX_BITS = 62

#: Elements the fused fallbacks move per numpy step.  A multiple of 64,
#: so every slab starts on a word boundary of the stream at any width.
_SLAB = 1 << 15


def packed_nbytes(count: int, bits: int) -> int:
    """Bytes occupied by ``count`` elements of ``bits`` bits: ``ceil(count·bits/8)``."""
    return (count * bits + 7) // 8


def _check_bits(bits: int) -> None:
    if not MIN_BITS <= bits <= MAX_BITS:
        raise ValueError(f"element width {bits} outside [{MIN_BITS}, {MAX_BITS}]")


def _column_schedule(bits: int) -> tuple[int, int, list[tuple[int, int, int]]]:
    """``(P, W, [(column, word, shift)])``: ``P`` elements fill ``W`` words."""
    period = 64 // math.gcd(bits, 64)
    words = period * bits // 64
    return period, words, [
        (j, (j * bits) >> 6, (j * bits) & 63) for j in range(period)
    ]


def _pack_numpy(values: np.ndarray, bits: int) -> np.ndarray:
    """The packed stream of ``values`` as a ``uint8`` array (fallback path)."""
    n = values.size
    period, words, schedule = _column_schedule(bits)
    rows = -(-n // period)
    if n == rows * period:
        grid = values.view(np.uint64).reshape(rows, period)
    else:
        grid = np.zeros((rows, period), dtype=np.uint64)
        grid.reshape(-1)[:n] = values.view(np.uint64)
    out = np.zeros((rows, words), dtype="<u8")
    for column, word, shift in schedule:
        elems = grid[:, column]
        out[:, word] |= elems << np.uint64(shift)
        if shift + bits > 64:
            out[:, word + 1] |= elems >> np.uint64(64 - shift)
    return out.reshape(-1).view(np.uint8)[: packed_nbytes(n, bits)]


def bit_fields(data: np.ndarray, count: int, bits: int) -> np.ndarray:
    """The first ``count`` ``bits``-wide fields of the ``uint8`` stream ``data``.

    The numpy loop under :func:`unpack_bits`, which adds what a received
    frame needs — exact length, zero pad bits.  On its own it is how
    :mod:`repro.crypto.prg` reads a mask out of a seed's counter stream,
    where whatever follows the last element is more stream, not padding,
    and is ignored: ``data`` is the ``ceil(count·bits/8)`` bytes that
    hold the fields.
    """
    period, words, schedule = _column_schedule(bits)
    rows = -(-count // period)
    if data.size == rows * words * 8:
        stream = data.view("<u8")
    else:
        stream = np.zeros(rows * words, dtype="<u8")
        stream.view(np.uint8)[: data.size] = data
    stream = stream.reshape(rows, words)
    mask = np.uint64((1 << bits) - 1)
    out = np.empty(rows * period, dtype=np.int64)
    grid = out.view(np.uint64).reshape(rows, period)
    for column, word, shift in schedule:
        elems = stream[:, word] >> np.uint64(shift)
        if shift + bits > 64:
            elems |= stream[:, word + 1] << np.uint64(64 - shift)
        grid[:, column] = elems & mask
    return out[:count]


def _as_vector(values) -> np.ndarray:
    values = np.ascontiguousarray(values, dtype=np.int64)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {values.shape}")
    return values


def _reserve(out: bytearray, nbytes: int) -> np.ndarray:
    """``nbytes`` zero bytes appended to ``out``, as a writable view.

    The view exports ``out``'s buffer: drop it before appending again.
    """
    start = len(out)
    out += bytes(nbytes)
    return np.frombuffer(out, dtype=np.uint8, count=nbytes, offset=start)


def pack_bits_into(values: np.ndarray, bits: int, out: bytearray) -> None:
    """Append the packed stream of ``values`` (1-D ``int64``) to ``out``.

    The only copy of the vector's data is the pack itself, straight
    into the caller's buffer.  Raises ``ValueError`` when an element is
    outside ``[0, 2**bits)`` — packing would silently truncate it.
    """
    _check_bits(bits)
    values = _as_vector(values)
    start = len(out)
    lib = native.load()
    if lib is None:
        in_ring = values.size == 0 or (
            0 <= int(values.min()) and int(values.max()) >> bits == 0
        )
        if in_ring:
            out += _pack_numpy(values, bits).data
    else:
        dst = _reserve(out, packed_nbytes(values.size, bits))
        in_ring = (
            lib.repro_pack_bits(values.ctypes.data, values.size, bits, dst.ctypes.data)
            == 0
        )
        del dst  # release the buffer export so the caller can keep appending
    if not in_ring:
        del out[start:]
        raise ValueError(f"vector element outside the ring [0, 2**{bits})")


def pack_low_bits_into(values: np.ndarray, bits: int, out: bytearray) -> None:
    """Append the packed stream of ``values mod 2**bits`` to ``out``.

    :func:`pack_bits_into` of ``values % 2**bits`` without that vector:
    the low ``bits`` bits of each two's-complement element *are* its
    residue, negative or not, so the reduction is one ``and`` inside
    the pack loop.  This is how a deferred ``int64`` sum leaves its
    accumulator — one pass, no element can be out of range.
    """
    _check_bits(bits)
    values = _as_vector(values)
    lib = native.load()
    if lib is None:
        mask = (1 << bits) - 1
        for start in range(0, values.size, _SLAB):
            out += _pack_numpy(values[start : start + _SLAB] & mask, bits).data
        return
    dst = _reserve(out, packed_nbytes(values.size, bits))
    rc = lib.repro_pack_low_bits(values.ctypes.data, values.size, bits, dst.ctypes.data)
    del dst
    if rc != 0:  # unreachable after the checks above
        raise ValueError(f"bit packer rejected its arguments (code {rc})")


def packed_stream(data, count: int, bits: int) -> np.ndarray:
    """``data`` as the ``uint8`` stream of ``count`` ``bits``-wide elements.

    The one check a received stream passes before anything reads it:
    ``data`` is a contiguous bytes-like object of exactly
    ``ceil(count·bits/8)`` bytes whose pad bits are zero — else
    ``ValueError``.  Every element of a stream that passes is in
    ``[0, 2**bits)`` by construction.  No copy is made.
    """
    _check_bits(bits)
    try:
        stream = np.frombuffer(data, dtype=np.uint8)
    except (TypeError, ValueError, BufferError) as exc:
        raise ValueError(f"packed vector is not a contiguous byte buffer: {exc}") from exc
    if stream.size != packed_nbytes(count, bits):
        raise ValueError(
            f"packed vector of {stream.size} bytes does not hold "
            f"{count} elements of {bits} bits"
        )
    pad = 8 * stream.size - count * bits
    if pad and int(stream[-1]) >> (8 - pad):
        raise ValueError("non-zero pad bits after the last vector element")
    return stream


def unpack_bits(data, count: int, bits: int) -> np.ndarray:
    """``count`` elements from the packed stream ``data`` as a fresh ``int64`` array.

    ``data`` is any contiguous bytes-like object — in the decode path a
    ``memoryview`` of the received frame, read in place.  Strict
    (:func:`packed_stream`): the length must be exactly
    ``ceil(count·bits/8)`` and the pad bits of the last byte zero, else
    ``ValueError``.  Every element is in ``[0, 2**bits)`` by construction.
    """
    stream = packed_stream(data, count, bits)
    lib = native.load()
    if lib is None:
        return bit_fields(stream, count, bits)
    out = np.empty(count, dtype=np.int64)
    rc = lib.repro_unpack_bits(
        stream.ctypes.data, stream.size, count, bits, out.ctypes.data
    )
    if rc != 0:  # unreachable after the checks above; never trust a misparse
        raise ValueError(f"bit unpacker rejected the stream (code {rc})")
    return out


def unpack_add(data, bits: int, out: np.ndarray) -> np.ndarray:
    """``out[i] +=`` element ``i`` of the packed stream ``data``; returns ``out``.

    ``out += unpack_bits(data, out.size, bits)`` without that vector:
    how a received masked input joins the coordinator's sum.  ``out`` is
    a writable contiguous 1-D ``int64`` array and the caller owns its
    headroom; ``data`` is checked exactly as :func:`unpack_bits` checks
    it, and a stream that fails raises ``ValueError`` *before* ``out``
    is touched.
    """
    if not (
        isinstance(out, np.ndarray)
        and out.dtype == np.int64
        and out.ndim == 1
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise ValueError("unpack_add needs a writable contiguous 1-D int64 vector")
    count = out.size
    stream = packed_stream(data, count, bits)
    lib = native.load()
    if lib is None:
        for start in range(0, count, _SLAB):
            n = min(_SLAB, count - start)
            at = start * bits // 8
            out[start : start + n] += bit_fields(
                stream[at : at + packed_nbytes(n, bits)], n, bits
            )
    elif lib.repro_unpack_add(
        stream.ctypes.data, stream.size, count, bits, out.ctypes.data
    ):  # unreachable after the checks above; the kernel adds nothing then
        raise ValueError("bit unpacker rejected the stream")
    return out
