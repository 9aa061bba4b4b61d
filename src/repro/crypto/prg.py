"""SHA-256 counter-mode pseudorandom generator.

SecAgg expands short seeds into model-length mask vectors, and XNoise
expands noise seeds into DP noise (§3.1: "a DP noise is a sequence of
pseudo-random numbers of the same length as the model, and can be uniquely
generated via feeding a seed into a PRN generator").

The construction is the standard counter-mode PRF: block *i* of the stream
is ``SHA256(seed || i)``.  Identical seeds always produce identical
streams, which is what lets XNoise ship 32-byte seeds instead of
model-sized noise vectors.

Two implementations live here, bit-identical by construction and pinned
bit-identical by test (``tests/crypto/test_hotpath_parity.py``,
``tests/crypto/test_mask_vectors.py``):

- :func:`counter_stream` and :func:`expand_uniform` — the hot path.
  The stream comes from the native kernel (:mod:`repro.native`) when
  the host can build it; otherwise the SHA-256 midstate over the seed
  is computed once and ``.copy()``-ed per counter block (the seed bytes
  are never re-absorbed).
- :class:`PRGReference` — the retained executable specification: one
  ``hashlib.sha256(seed + counter)`` call per 32-byte block and Python
  integers for every element, exactly as the deployed protocol
  describes it.  Every optimization above must reproduce it bit for bit.

**What a seed expands to.**  Over a ring ``2**b`` (``1 ≤ b ≤ 62`` — every
ring the protocol uses; the paper's is ``2**20``) element *i* of the
mask is bits ``[i·b, (i+1)·b)`` of the seed's counter stream, read as
the little-endian bit stream :mod:`repro.wire.bitpack` puts on the wire
(bit *k* is bit ``k & 7`` of byte ``k >> 3``): a mask *is*
``unpack_bits(stream, n, b)``.  Every stream bit is used exactly once, so
the draw is exactly uniform and costs ``b/8`` bytes — ``⌈n·b/256⌉``
blocks in all, the bits past ``n·b`` ignored.  Element ``256·j`` starts
at block ``j·b`` exactly, so any 256-aligned run of elements expands
from its own counter and nothing ever holds more than a slab of stream.
Any other modulus reduces one big-endian 64-bit word per element (modulo
bias below ``modulus / 2**64``, irrelevant for masking: any fixed bias
cancels in ``p_{u,v} + p_{v,u} = 0``); ``modulus == 1`` draws nothing.

:func:`expand_uniform` is the one whole-mask entry point (counter 0).
Given ``out`` it adds ``sign·mask`` into the caller's vector instead of
returning a fresh one — in the kernel (``repro_mask_fold``) one C loop
that produces the stream ≤ 2 KiB at a time on its stack and unpack-adds
it, so a mask that is about to be summed is never materialised;
:func:`expand_uniform_reference` is its numpy twin and
:func:`expand_uniform_batch` the loop over it for many seeds.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from typing import Optional, Sequence

import numpy as np

from repro import native
from repro.wire.bitpack import MAX_BITS, bit_fields, packed_nbytes

_BLOCK = hashlib.sha256().digest_size  # 32 bytes

# Backend for the *fast* paths only (PRGReference stays on hashlib, the
# spec as written).  CPython's bundled HACL* SHA-256 (_sha256 on 3.11,
# _sha2 on 3.12+) has a much cheaper midstate copy() than the OpenSSL
# object hashlib hands out — and copy() dominates the counter loop,
# where each block appends only 8 bytes to a copied midstate.  Both
# produce the same digests (it's SHA-256); the parity pins against
# PRGReference hold regardless of which backend is picked.
try:  # pragma: no cover - exercised implicitly by every fast-path test
    from _sha2 import sha256 as _sha256_fast  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover
    try:
        from _sha256 import sha256 as _sha256_fast  # type: ignore[import-not-found]
    except ImportError:
        _sha256_fast = hashlib.sha256

# Counter blocks are the same for every seed (block i appends
# ``i.to_bytes(8, "big")``), so the 8-byte encodings are precomputed
# once and shared across all expansions.  Grown on demand under a lock
# (concurrent growers would interleave appends), capped so a one-off
# huge expansion cannot pin unbounded memory.
_CTR_CAP = 1 << 19
_ctr_table: list[bytes] = []
_ctr_lock = threading.Lock()

#: Elements the numpy twin unpacks per pass — a multiple of 256, so each
#: slab starts on a block boundary; its temporaries stay cache-resident.
_SLAB = 1 << 14


def _counter_bytes(start: int, stop: int) -> list[bytes]:
    """Counter encodings ``start … stop − 1`` (shared, cached ≤ cap)."""
    if stop > _CTR_CAP:
        return [i.to_bytes(8, "big") for i in range(start, stop)]
    if len(_ctr_table) < stop:
        with _ctr_lock:
            for i in range(len(_ctr_table), stop):
                _ctr_table.append(i.to_bytes(8, "big"))
    return _ctr_table[start:stop]


def _check_draw(length: int, modulus: int) -> Optional[int]:
    """Validate a draw; ``b`` for the ring ``2**b`` with ``b ≤ 62``
    (bit-packed draws, ``b == 0`` drawing nothing), ``None`` for any
    other modulus (one 64-bit word per element)."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if length < 0:
        raise ValueError("length must be non-negative")
    modulus = int(modulus)
    bits = modulus.bit_length() - 1
    return bits if modulus == 1 << bits and bits <= MAX_BITS else None


class PRGReference:
    """The retained scalar reference: ``SHA256(seed ∥ counter)`` per block.

    This is the executable specification :func:`counter_stream` and
    :func:`expand_uniform` are parity-pinned against — slow on purpose,
    never used on the hot path.
    """

    def __init__(self, seed: bytes):
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("seed must be bytes")
        self._seed = bytes(seed)
        self._counter = 0

    def read(self, n: int) -> bytes:
        """Return the next ``n`` pseudorandom bytes."""
        if n < 0:
            raise ValueError("n must be non-negative")
        blocks = []
        remaining = n
        while remaining > 0:
            block = hashlib.sha256(
                self._seed + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            blocks.append(block[:remaining])
            remaining -= len(block[:remaining])
        return b"".join(blocks)

    def uniform_vector(self, length: int, modulus: int) -> np.ndarray:
        """Return ``length`` integers uniform in ``[0, modulus)`` as int64.

        The draw definition in Python integers: over a ring ``2**b``
        element *i* is the ``b`` bits at bit ``i·b`` of the little-endian
        stream (``⌈length·b/256⌉`` whole blocks are consumed); any other
        modulus reduces the big-endian 64-bit word at byte ``8·i``.
        """
        bits = _check_draw(length, modulus)
        if bits is None:
            raw = self.read(8 * length)
            words = np.frombuffer(raw, dtype=">u8").astype(np.uint64)
            return (words % np.uint64(modulus)).astype(np.int64)
        if bits == 0:
            return np.zeros(length, dtype=np.int64)
        raw = self.read(packed_nbytes(length, bits))
        # Nine bytes from an element's first byte cover 7 + 62 bits.
        draws = [
            (int.from_bytes(raw[at >> 3 : (at >> 3) + 9], "little") >> (at & 7))
            & (modulus - 1)
            for at in range(0, length * bits, bits)
        ]
        return np.array(draws, dtype=np.int64)


def _reduce_words(buf: bytearray, length: int, modulus: int) -> np.ndarray:
    """The first ``length`` big-endian 64-bit words of ``buf`` mod ``modulus``.

    Byteswapped and reduced in place, then reinterpreted as int64:
    value-preserving while ``modulus`` ≤ 2**63, wrapping above it.
    """
    words = np.frombuffer(buf, dtype=np.uint64, count=length)
    if sys.byteorder == "little":
        words.byteswap(inplace=True)
    words %= np.uint64(modulus)
    return words.view(np.int64)


def counter_stream(seed: bytes, nblocks: int, ctr0: int = 0) -> bytearray:
    """Blocks ``ctr0 … ctr0 + nblocks − 1`` of ``SHA256(seed ∥ be64(ctr))``.

    The raw block stream under every seed expansion — masks
    (:func:`expand_uniform`), Skellam noise (:mod:`repro.dp.sampler`)
    and the AE keystream (:mod:`repro.crypto.ae`) — in one writable
    buffer.  The native kernel (repro.native) emits it
    ~10× faster when the host can build it; otherwise the hashlib
    midstate loop serves the identical bytes.
    """
    buf = native.sha256_ctr_stream(seed, nblocks, ctr0)
    if buf is None:
        copy = _sha256_fast(seed).copy
        blocks: list[bytes] = []
        append = blocks.append
        for ctr in _counter_bytes(ctr0, ctr0 + nblocks):
            h = copy()
            h.update(ctr)
            append(h.digest())
        buf = bytearray(b"".join(blocks))
    return buf


def _add_signed(out: np.ndarray, draws: np.ndarray, sign: int) -> None:
    if sign > 0:
        out += draws
    else:
        out -= draws


def _fold_numpy(seed: bytes, bits: int, out: np.ndarray, sign: int) -> None:
    """The kernel's loop on numpy: ``out += sign·mask`` a slab at a time.

    Slab ``j`` starts at element ``j·_SLAB`` and therefore at block
    ``j·_SLAB/256·bits``; where the slabs end never shows in the result.
    """
    for start in range(0, len(out), _SLAB):
        part = out[start : start + _SLAB]
        nbytes = packed_nbytes(len(part), bits)
        blocks = counter_stream(seed, -(-nbytes // _BLOCK), start // 256 * bits)
        stream = np.frombuffer(blocks, dtype=np.uint8, count=nbytes)
        _add_signed(part, bit_fields(stream, len(part), bits), sign)


def _expand(seed, length, modulus, out, sign, kernel: bool) -> np.ndarray:
    if not isinstance(seed, (bytes, bytearray)):
        raise TypeError("seed must be bytes")
    bits = _check_draw(length, modulus)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if out is None:
        out = np.zeros(length, dtype=np.int64)
    elif not (
        isinstance(out, np.ndarray)
        and out.dtype == np.int64
        and out.shape == (length,)
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise ValueError(
            f"out must be a writable contiguous int64 vector of length {length}"
        )
    if length == 0 or bits == 0:
        return out
    seed = bytes(seed)
    if bits is None:
        stream = counter_stream(seed, -(-length // 4))
        _add_signed(out, _reduce_words(stream, length, modulus), sign)
    elif not (kernel and native.mask_fold(seed, bits, out, sign)):
        _fold_numpy(seed, bits, out, sign)
    return out


def expand_uniform(
    seed: bytes,
    length: int,
    modulus: int,
    out: Optional[np.ndarray] = None,
    sign: int = 1,
) -> np.ndarray:
    """Expand ``seed`` into ``length`` uniform ring elements (counter 0).

    The one shared mask-expansion entry point: SecAgg's client and
    coordinator and the API layer's PG handler all call this.  Returns a
    fresh ``int64`` vector, or — given ``out`` (a writable contiguous
    ``int64`` vector of that length, else ``ValueError`` before anything
    is drawn) — adds ``sign·mask`` raw into it and returns it, so a mask
    that is about to be summed or subtracted is never materialised; the
    caller owns the ``int64`` headroom.  Bit-identical to
    ``PRGReference(seed).uniform_vector(length, modulus)`` with or
    without the native kernel (pinned by test).
    """
    return _expand(seed, length, modulus, out, sign, kernel=True)


def expand_uniform_reference(
    seed: bytes,
    length: int,
    modulus: int,
    out: Optional[np.ndarray] = None,
    sign: int = 1,
) -> np.ndarray:
    """:func:`expand_uniform` on the numpy twin, never the mask kernel."""
    return _expand(seed, length, modulus, out, sign, kernel=False)


def expand_uniform_batch(
    seeds: Sequence[bytes],
    length: int,
    modulus: int,
    out: np.ndarray,
    signs: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """:func:`expand_uniform` over ``k`` seeds into one accumulator.

    Adds ``signs[i]·mask(seeds[i])`` (default +1 each) into ``out``, one
    ``(length,)`` int64 vector, and returns it; no mask is ever
    materialised.  One slab of the coordinator's unmask fan-out
    (:meth:`repro.secagg.masking.MaskAccumulator.fold_seeds`).
    """
    if signs is None:
        signs = [1] * len(seeds)
    elif len(signs) != len(seeds):
        raise ValueError("signs must name one sign per seed")
    for seed, sign in zip(seeds, signs):
        expand_uniform(seed, length, modulus, out=out, sign=sign)
    return out
