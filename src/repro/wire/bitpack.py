"""Ring-width bit packing: a vector of ``b``-bit elements as ``d·b`` bits.

The masked vector is the one model-sized payload of a round, and the
paper prices it at ``d·b`` bits (Table 3 / Fig. 9), so the wire carries
exactly that: element *i* occupies bits ``[i·b, (i+1)·b)`` of a
little-endian bit stream (bit *k* of the stream is bit ``k & 7`` of byte
``k >> 3``), ``ceil(d·b/8)`` bytes in all, the pad bits of the last byte
zero.

Two implementations, bit-identical and pinned so by test:

- the two C loops in ``_native/sha256ctr.c`` (the shared object
  :func:`repro.native.load` builds), one 64-bit window over the stream;
- the numpy fallback below.  The stream's layout repeats every
  ``P = 64/gcd(b, 64)`` elements (``P·b`` bits are a whole number of
  64-bit words), so the vector is viewed as rows of ``P`` elements and
  every *column* moves with one shift/or over all rows — at most 64
  column steps whatever the length.

Both write into / read from caller-owned memory: :func:`pack_bits_into`
appends to the frame buffer, :func:`unpack_bits` reads a ``memoryview``
of the frame and fills one fresh ``int64`` array.

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


def pack_bits_into(values: np.ndarray, bits: int, out: bytearray) -> None:
    """Append the packed stream of ``values`` (1-D ``int64``) to ``out``.

    The only copy of the vector's data is the pack itself, straight
    into the caller's buffer.  Raises ``ValueError`` when an element is
    outside ``[0, 2**bits)`` — packing would silently truncate it.
    """
    _check_bits(bits)
    values = np.ascontiguousarray(values, dtype=np.int64)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {values.shape}")
    start = len(out)
    nbytes = packed_nbytes(values.size, bits)
    lib = native.load()
    if lib is None:
        in_ring = values.size == 0 or (
            0 <= int(values.min()) and int(values.max()) >> bits == 0
        )
        if in_ring:
            out += _pack_numpy(values, bits).data
    else:
        out += bytes(nbytes)
        dst = np.frombuffer(out, dtype=np.uint8, count=nbytes, offset=start)
        in_ring = (
            lib.repro_pack_bits(values.ctypes.data, values.size, bits, dst.ctypes.data)
            == 0
        )
        del dst  # release the buffer export so the caller can keep appending
    if not in_ring:
        del out[start:]
        raise ValueError(f"vector element outside the ring [0, 2**{bits})")


def unpack_bits(data, count: int, bits: int) -> np.ndarray:
    """``count`` elements from the packed stream ``data`` as a fresh ``int64`` array.

    ``data`` is any contiguous bytes-like object — in the decode path a
    ``memoryview`` of the received frame, read in place.  Strict: the
    length must be exactly ``ceil(count·bits/8)`` and the pad bits of
    the last byte zero, else ``ValueError``.  Every element is in
    ``[0, 2**bits)`` by construction.
    """
    _check_bits(bits)
    stream = np.frombuffer(data, dtype=np.uint8)
    if stream.size != packed_nbytes(count, bits):
        raise ValueError(
            f"packed vector of {stream.size} bytes does not hold "
            f"{count} elements of {bits} bits"
        )
    pad = 8 * stream.size - count * bits
    if pad and int(stream[-1]) >> (8 - pad):
        raise ValueError("non-zero pad bits after the last vector element")
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
