"""AES-256-CTR pseudorandom generator.

SecAgg expands short seeds into model-length mask vectors, and XNoise
expands noise seeds into DP noise (§3.1: "a DP noise is a sequence of
pseudo-random numbers of the same length as the model, and can be uniquely
generated via feeding a seed into a PRN generator").  SecAgg names AES in
counter mode as that generator, and this is it:

    block *i* (32 bytes) of ``seed`` is ``E_K(be128(2i)) ∥ E_K(be128(2i+1))``,
    where ``K = SHA-256(seed)``

— plain AES-256-CTR from a zero counter block, with the full 128-bit
big-endian increment, read 32 bytes a block.  Identical seeds always
produce identical streams, which is what lets XNoise ship 32-byte seeds
instead of model-sized noise vectors.

Two implementations live here, bit-identical by construction and pinned
bit-identical by test (``tests/crypto/test_hotpath_parity.py``,
``tests/crypto/test_mask_vectors.py``, ``tests/crypto/test_aes_vectors.py``):

- :func:`counter_stream` and :func:`expand_uniform` — the hot path.
  The stream comes from the native kernel (:mod:`repro.native`: AES-NI,
  VAES where the CPU has it) for seeds up to 55 bytes — one padded
  SHA-256 block, every protocol seed — when the host can build it;
  otherwise from OpenSSL through ``cryptography``, and on a host without
  that either from the specification AES below (announced once: it
  takes about 50 ns a byte).
- :class:`PRGReference` — the retained executable specification: the
  stream block by block from :mod:`repro.crypto.aes`, AES-256 written
  out from FIPS-197 in numpy and shared with neither the kernel nor
  OpenSSL, and Python integers for every element.  Every optimization
  above must reproduce it bit for bit.

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
returning a fresh one — in the kernel (:func:`repro.native.mask_fold`) one C loop
that produces the stream ≤ 2 KiB at a time on its stack and unpack-adds
it (sixteen AES blocks in flight and eight elements a register on an
AVX-512 host with VAES), so a mask that is about to be summed is never
materialised; :func:`expand_uniform_numpy` is its numpy twin and
:func:`expand_uniform_batch` the loop over it for many seeds.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import warnings
from typing import Optional, Sequence

import numpy as np

from repro import native
from repro.crypto import aes
from repro.wire.bitpack import MAX_BITS, bit_fields, packed_nbytes

_BLOCK = 32  # bytes a stream block: two AES blocks

#: Elements the numpy twin unpacks per pass — a multiple of 256, so each
#: slab starts on a block boundary; its temporaries stay cache-resident.
_SLAB = 1 << 14

_announced_spec_aes = False


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
    """The retained scalar reference: the stream block by block.

    Block *i* is ``E_K(be128(2i)) ∥ E_K(be128(2i+1))`` with
    ``K = SHA-256(seed)``, computed by the specification AES
    (:mod:`repro.crypto.aes`).  This is the executable specification
    :func:`counter_stream` and :func:`expand_uniform` are parity-pinned
    against — slow on purpose, never used on the hot path.
    """

    def __init__(self, seed: bytes):
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("seed must be bytes")
        self._key = hashlib.sha256(bytes(seed)).digest()
        self._counter = 0

    def block(self, i: int) -> bytes:
        """Stream block ``i``: the two AES blocks at counters ``2i`` and ``2i + 1``."""
        return aes.ctr_keystream(self._key, 2 * i, 2)

    def read(self, n: int) -> bytes:
        """Return the next ``n`` pseudorandom bytes (whole blocks are
        consumed: the rest of a block's bytes are never returned)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        nblocks = -(-n // _BLOCK)
        stream = aes.ctr_keystream(self._key, 2 * self._counter, 2 * nblocks)
        self._counter += nblocks
        return stream[:n]

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


@functools.cache
def _openssl():
    """``cryptography``'s cipher module, or ``None`` where it is not
    installed — imported on first use, as a round on the kernel never
    needs it."""
    try:
        from cryptography.hazmat.primitives import ciphers
    except ImportError:
        return None
    return ciphers


def _python_stream(seed: bytes, nblocks: int, ctr0: int) -> bytearray:
    """The stream without the kernel: OpenSSL's AES-CTR from the counter
    block ``be128(2·ctr0)``, or the specification AES where
    ``cryptography`` is not installed (announced once a process)."""
    global _announced_spec_aes
    key = hashlib.sha256(seed).digest()
    ciphers = _openssl()
    if ciphers is not None:
        counter = ciphers.modes.CTR((2 * ctr0).to_bytes(16, "big"))
        keystream = ciphers.Cipher(ciphers.algorithms.AES(key), counter).encryptor()
        nbytes = _BLOCK * nblocks
        buf = bytearray(nbytes + 15)  # update_into's room for a partial block
        keystream.update_into(bytes(nbytes), buf)
        del buf[nbytes:]
        return buf
    if not _announced_spec_aes:
        _announced_spec_aes = True
        warnings.warn(
            "repro.crypto.prg: cryptography is not installed, the AES-CTR "
            "stream runs on the numpy specification AES (about 50 ns a byte)",
            RuntimeWarning,
            stacklevel=3,
        )
    return bytearray(aes.ctr_keystream(key, 2 * ctr0, 2 * nblocks))


def counter_stream(seed: bytes, nblocks: int, ctr0: int = 0) -> bytearray:
    """Blocks ``ctr0 … ctr0 + nblocks − 1`` of ``seed``'s AES-256-CTR stream.

    The raw block stream under every seed expansion — masks
    (:func:`expand_uniform`), Skellam noise (:mod:`repro.dp.sampler`)
    and the AE keystream (:mod:`repro.crypto.ae`) — in one writable
    buffer.  The native kernel (:mod:`repro.native`) emits it for seeds
    up to 55 bytes when the host can build it; otherwise
    :func:`_python_stream` serves the identical bytes.  Every counter
    must lie in ``[0, 2**64)``: ``ValueError`` on both paths.
    """
    if ctr0 < 0 or ctr0 + nblocks > 1 << 64:
        raise ValueError("stream counters must lie in [0, 2**64)")
    buf = native.counter_stream(seed, nblocks, ctr0)
    if buf is None:
        buf = _python_stream(seed, nblocks, ctr0)
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
    coordinator reach it through the suite's PG slot
    (:class:`CounterPRG`).  Returns a
    fresh ``int64`` vector, or — given ``out`` (a writable contiguous
    ``int64`` vector of that length, else ``ValueError`` before anything
    is drawn) — adds ``sign·mask`` raw into it and returns it, so a mask
    that is about to be summed or subtracted is never materialised; the
    caller owns the ``int64`` headroom.  Bit-identical to
    ``PRGReference(seed).uniform_vector(length, modulus)`` with or
    without the native kernel (pinned by test).
    """
    return _expand(seed, length, modulus, out, sign, kernel=True)


class CounterPRG:
    """The PG slot of :class:`repro.crypto.suite.Suite`: :func:`expand_uniform`,
    looked up at each call (a tracer that rebinds it sees every mask)."""

    def expand(self, seed, length, modulus, out=None, sign=1) -> np.ndarray:
        return expand_uniform(seed, length, modulus, out, sign)


#: The default PG slot.
COUNTER_PRG = CounterPRG()


def expand_uniform_numpy(
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
