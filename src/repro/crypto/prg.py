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
bit-identical by test (``tests/crypto/test_hotpath_parity.py``):

- :class:`PRG` — the hot path.  The SHA-256 midstate over the seed is
  computed once and ``.copy()``-ed per counter block (the seed bytes are
  never re-absorbed), counter blocks land in one preallocated buffer,
  and :meth:`PRG.uniform_vector` reduces through a zero-copy
  ``np.frombuffer`` view of that buffer (in-place byteswap + in-place
  modulo + ``int64`` reinterpretation — no ``.astype`` round trips).
- :class:`PRGReference` — the retained executable specification: one
  ``hashlib.sha256(seed + counter)`` call per 32-byte block, exactly as
  the deployed protocol describes it.  Every optimization above must
  reproduce this stream byte for byte.

Draw width: a ring element costs 4 stream bytes when the modulus is
``2**b`` with ``b ≤ 32`` — a big-endian 32-bit word masked down to ``b``
bits, exactly uniform — and 8 bytes (a 64-bit word reduced mod
``modulus``) otherwise (:func:`draw_nbytes`).  The protocol's ring is
``2**20``, so a mask costs half the SHA-256 compressions an 8-byte draw
would.

:func:`expand_uniform` is the shared whole-mask entry point (counter 0,
``length · draw_nbytes(modulus)`` bytes of stream) and
:func:`expand_uniform_batch` amortizes its per-mask setup across the k
expansions of an unmask round; both are parity-pinned per element
against :class:`PRGReference`.
"""

from __future__ import annotations

import hashlib
import sys
import threading

import numpy as np

from repro import native

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
# once and shared across all expansions — at d = 2^20 that is 2^18
# encodings per mask, ~1000 masks per unmask round.  Grown on demand
# under a lock (concurrent growers would interleave appends), capped so
# a one-off huge expansion cannot pin unbounded memory.
_CTR_CAP = 1 << 19
_ctr_table: list[bytes] = []
_ctr_lock = threading.Lock()


def draw_nbytes(modulus: int) -> int:
    """Stream bytes one uniform draw in ``[0, modulus)`` consumes.

    4 when ``modulus`` is a power of two up to ``2**32`` — the low bits
    of a 32-bit word are exactly uniform, so nothing is gained by
    drawing 64 — else 8, where reducing a 64-bit word keeps the modulo
    bias below ``modulus / 2**64``.
    """
    return 4 if modulus <= 1 << 32 and modulus & (modulus - 1) == 0 else 8


def _counter_bytes(nblocks: int) -> list[bytes]:
    """The first ``nblocks`` counter encodings (shared, cached ≤ cap)."""
    if nblocks > _CTR_CAP:
        return [i.to_bytes(8, "big") for i in range(nblocks)]
    if len(_ctr_table) < nblocks:
        with _ctr_lock:
            for i in range(len(_ctr_table), nblocks):
                _ctr_table.append(i.to_bytes(8, "big"))
    return _ctr_table[:nblocks]


class PRGReference:
    """The retained scalar reference: ``SHA256(seed ∥ counter)`` per block.

    This is the executable specification :class:`PRG` is parity-pinned
    against — slow on purpose, never used on the hot path.
    """

    def __init__(self, seed: bytes):
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("seed must be bytes")
        self._seed = bytes(seed)
        self._counter = 0

    @property
    def seed(self) -> bytes:
        return self._seed

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
        """Return ``length`` integers uniform in ``[0, modulus)`` as int64."""
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        if length < 0:
            raise ValueError("length must be non-negative")
        width = draw_nbytes(modulus)
        raw = self.read(width * length)
        words = np.frombuffer(raw, dtype=f">u{width}").astype(np.uint64)
        return (words % np.uint64(modulus)).astype(np.int64)


class PRG:
    """Deterministic byte/vector stream expanded from a seed.

    Each call advances an internal counter, so successive calls return
    disjoint stream segments; two PRGs built from the same seed produce
    the same sequence of outputs for the same sequence of calls.  The
    stream is bit-identical to :class:`PRGReference` for any sequence of
    calls (pinned by test); only the per-block bookkeeping differs.
    """

    def __init__(self, seed: bytes):
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("seed must be bytes")
        self._seed = bytes(seed)
        self._counter = 0
        # Midstate: the seed is absorbed exactly once; each block copies
        # this state and appends only its 8 counter bytes.  copy()
        # preserves buffered input, so SHA256(seed ∥ ctr) ==
        # copy().update(ctr).digest() for any seed length.
        self._midstate = _sha256_fast(self._seed)

    @property
    def seed(self) -> bytes:
        return self._seed

    def _block_digests(self, nblocks: int) -> list[bytes]:
        """The next ``nblocks`` whole counter blocks, one digest each."""
        copy = self._midstate.copy
        out: list[bytes] = []
        append = out.append
        for ctr in range(self._counter, self._counter + nblocks):
            h = copy()
            h.update(ctr.to_bytes(8, "big"))
            append(h.digest())
        self._counter += nblocks
        return out

    def read(self, n: int) -> bytes:
        """Return the next ``n`` pseudorandom bytes."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return b""
        nblocks = -(-n // _BLOCK)
        blocks = self._block_digests(nblocks)
        # The final partial block is sliced exactly once (the reference
        # discards the tail of its last block the same way).
        rem = n - (nblocks - 1) * _BLOCK
        if rem != _BLOCK:
            blocks[-1] = blocks[-1][:rem]
        return b"".join(blocks)

    def uniform_vector(self, length: int, modulus: int) -> np.ndarray:
        """Return ``length`` integers uniform in ``[0, modulus)`` as int64.

        Used for SecAgg masks over the ring Z_R.  Rejection-free: a
        power-of-two ring up to 2**32 (the paper uses bit-width b = 20)
        masks a 32-bit word — exactly uniform; any other modulus
        reduces a 64-bit word, whose modulo bias is < modulus / 2**64
        and irrelevant for masking (any fixed bias cancels in the
        pairwise mask sum p_{u,v} + p_{v,u} = 0).

        Zero-copy reduction (:func:`_reduce_stream`): the counter blocks
        land in one writable buffer, viewed as native words (in-place
        byteswap on little-endian hosts recovers the stream's
        big-endian word order) and reduced in place.
        """
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        if length < 0:
            raise ValueError("length must be non-negative")
        if length == 0:
            self.read(0)
            return np.zeros(0, dtype=np.int64)
        if modulus > 1 << 63:
            # int64 reinterpretation would be lossy; take the reference
            # reduction (protocol moduli are 2**bits with bits ≤ 62).
            raw = self.read(8 * length)
            words = np.frombuffer(raw, dtype=">u8").astype(np.uint64)
            return (words % np.uint64(modulus)).astype(np.int64)
        nbytes = draw_nbytes(modulus) * length
        buf = bytearray(b"".join(self._block_digests(-(-nbytes // _BLOCK))))
        return _reduce_stream(buf, length, modulus)


def _reduce_stream(buf: bytearray, length: int, modulus: int) -> np.ndarray:
    """The first ``length`` draws of the block stream ``buf`` as int64.

    ``modulus`` ≤ 2**63.  Power-of-two rings up to 2**32 read 32-bit
    words: byteswapped and masked in place at half the memory traffic,
    then widened once into the int64 result.  Everything else reads
    64-bit words, reduced in place (a bitmask for the remaining powers
    of two — ``x % 2**b == x & (2**b − 1)`` for unsigned x) and
    reinterpreted as int64: every value is < ``modulus`` ≤ 2**63, so the
    view is value-preserving and copies nothing.
    """
    if draw_nbytes(modulus) == 4:
        words = np.frombuffer(buf, dtype=np.uint32, count=length)
        if sys.byteorder == "little":
            words.byteswap(inplace=True)
        if modulus < 1 << 32:
            words &= np.uint32(modulus - 1)
        return words.astype(np.int64)
    words = np.frombuffer(buf, dtype=np.uint64, count=length)
    if sys.byteorder == "little":
        words.byteswap(inplace=True)
    if modulus & (modulus - 1) == 0:
        words &= np.uint64(modulus - 1)
    else:
        words %= np.uint64(modulus)
    return words.view(np.int64)


def counter_stream(seed: bytes, nblocks: int, ctr0: int = 0) -> bytearray:
    """Blocks ``ctr0 … ctr0 + nblocks − 1`` of ``SHA256(seed ∥ be64(ctr))``.

    The raw block stream under every seed expansion — masks
    (:func:`expand_uniform`) and Skellam noise (:mod:`repro.dp.sampler`)
    — in one writable buffer.  The native kernel (repro.native) emits it
    ~10× faster when the host can build it; otherwise the hashlib
    midstate loop serves the identical bytes.
    """
    buf = native.sha256_ctr_stream(seed, nblocks, ctr0)
    if buf is None:
        copy = _sha256_fast(seed).copy
        blocks: list[bytes] = []
        append = blocks.append
        for ctr in _counter_bytes(ctr0 + nblocks)[ctr0:]:
            h = copy()
            h.update(ctr)
            append(h.digest())
        buf = bytearray(b"".join(blocks))
    return buf


def _expand_reduced(seed: bytes, length: int, modulus: int) -> np.ndarray:
    """One full-speed mask expansion (counter 0, ``modulus`` ≤ 2**63):
    ``length`` draws of :func:`counter_stream`, one :func:`_reduce_stream`
    — the shared inner step of :func:`expand_uniform` and
    :func:`expand_uniform_batch`.
    """
    nbytes = draw_nbytes(modulus) * length
    return _reduce_stream(counter_stream(seed, -(-nbytes // _BLOCK)), length, modulus)


def expand_uniform(seed: bytes, length: int, modulus: int) -> np.ndarray:
    """Expand ``seed`` into ``length`` uniform ring elements (fresh PRG).

    The one shared mask-expansion entry point: SecAgg masking
    (:mod:`repro.secagg.masking`) and the API layer's PG handler both
    call this, so there is exactly one hot-path implementation and one
    parity surface.  Bit-identical to
    ``PRGReference(seed).uniform_vector(length, modulus)`` (pinned by
    test); oversized moduli take the :class:`PRG` fallback reduction.
    """
    if not isinstance(seed, (bytes, bytearray)):
        raise TypeError("seed must be bytes")
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if length < 0:
        raise ValueError("length must be non-negative")
    if length == 0:
        return np.zeros(0, dtype=np.int64)
    if modulus > 1 << 63:
        return PRG(seed).uniform_vector(length, modulus)
    return _expand_reduced(bytes(seed), length, modulus)


def expand_uniform_batch(
    seeds: list[bytes], length: int, modulus: int
) -> np.ndarray:
    """Expand ``k`` seeds into a ``(k, length)`` int64 matrix.

    Row ``i`` is bit-identical to ``expand_uniform(seeds[i], …)`` —
    batching only amortizes the per-mask setup (the shared counter
    table, one output allocation) across the round's expansions.  The
    coordinator's unmask plane expands ~|U3| + |U2\\U3|·degree masks per
    round through this.
    """
    out = np.empty((len(seeds), length), dtype=np.int64)
    for i, seed in enumerate(seeds):
        out[i] = expand_uniform(seed, length, modulus)
    return out
