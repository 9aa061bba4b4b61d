"""Where a round's randomness comes from — the one module that reads the
OS CSPRNG (the ``determinism`` lint rule holds the rest of ``src/repro``
to that).  Every draw of the protocol (DH exponents, AE nonces, Shamir
coefficients, b_u and noise seeds, Schnorr and VRF nonces) goes through
an :class:`EntropySource`:

- :class:`EntropySource` itself is the OS CSPRNG, every party's default;
- :class:`SeededEntropy` is a DRBG over the protocol's own AES-256-CTR
  stream, so a seeded round replays byte for byte.  ``token_bytes(n)``
  is the next :meth:`~repro.crypto.prg.PRGReference.read` of the seed's
  stream; ``randbelow(n)`` reads ``bitlen(n − 1)``-bit big-endian words
  and redraws while one is ≥ ``n``; ``for_party(party, round)`` seeds
  a child with ``SHA-256(seed ∥ "party" ∥ be64(party) ∥ be64(round))``,
  so what a party draws never depends on which party drew first.
"""

from __future__ import annotations

import hashlib
import secrets

from repro.crypto.prg import counter_stream


class EntropySource:
    """The OS CSPRNG, and the interface every source answers."""

    def token_bytes(self, n: int) -> bytes:
        return secrets.token_bytes(n)

    def randbelow(self, n: int) -> int:
        """Uniform integer in ``[0, n)``."""
        return secrets.randbelow(n)

    def for_party(self, party: int, round_index: int) -> "EntropySource":
        """The independent stream ``party`` draws from in ``round_index``."""
        return self


#: Every party's source unless a suite names another.
SYSTEM_ENTROPY = EntropySource()


class SeededEntropy(EntropySource):
    """A seeded DRBG over the AES-256-CTR counter stream."""

    def __init__(self, seed: bytes):
        if not isinstance(seed, bytes):
            raise TypeError("seed must be bytes")
        self.seed = seed
        self._block = 0

    def token_bytes(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("n must be non-negative")
        nblocks = -(-n // 32)
        stream = counter_stream(self.seed, nblocks, self._block)
        self._block += nblocks
        return bytes(stream[:n])

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("upper bound must be positive")
        bits = (n - 1).bit_length()
        while bits:
            word = int.from_bytes(self.token_bytes((bits + 7) // 8), "big")
            word &= (1 << bits) - 1
            if word < n:
                return word
        return 0

    def for_party(self, party: int, round_index: int) -> "SeededEntropy":
        tag = party.to_bytes(8, "big", signed=True) + round_index.to_bytes(8, "big")
        return SeededEntropy(hashlib.sha256(self.seed + b"party" + tag).digest())
