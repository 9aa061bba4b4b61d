"""Finite-field Diffie–Hellman key agreement.

SecAgg has every pair of clients agree on two shared secrets — one to
encrypt their pairwise channel (``c`` keys) and one to seed the pairwise
mask (``s`` keys) — via Diffie–Hellman composed with a hash (Fig. 5,
AdvertiseKeys/ShareKeys).  We implement classic DH in the 2048-bit MODP
group of RFC 3526 (a safe-prime group: q = (p−1)/2 is prime), with the
agreed key being SHA-256 of the shared group element.

Every modular power of the protocol — DH generate/agree, Schnorr
sign/verify, the VRF — goes through :meth:`DHGroup.powers`, which hands
the operands to the native Montgomery kernel (:mod:`repro.native`) when
it covers them and to ``pow()`` otherwise.  A party's agreements in one
stage share its secret exponent, so :meth:`KeyAgreement.agree` takes a
whole neighbourhood and the kernel raises it eight bases a pass where
the CPU has the lanes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from repro import native
from repro.crypto.entropy import SYSTEM_ENTROPY, EntropySource

#: RFC 3526, group 14 (2048-bit MODP).  Generator 2.
MODP_2048_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
MODP_2048_G = 2
#: Order of the prime-order subgroup generated by squares; (p-1)/2 is prime.
MODP_2048_Q = (MODP_2048_P - 1) // 2


@dataclass(frozen=True)
class DHGroup:
    """A Schnorr/DH group: prime modulus ``p``, generator ``g``, order ``q``."""

    p: int
    g: int
    q: int

    def powers(self, bases: Sequence[int], exp: int) -> list[int]:
        """``[b**exp mod p for b in bases]`` — the one place a group
        exponentiates.

        The native kernel answers when it is loaded, ``p`` is an odd
        multiple-of-64-bit modulus, every base is in ``[0, p)`` and
        ``exp ≥ 0``; anything else (:data:`TOY_GROUP`, a negative
        exponent, an unreduced base, no kernel) is ``pow()``.  The
        results are integers, so the two cannot differ; the kernel's
        absence is announced once per process by :func:`repro.native.load`.
        """
        ctx = self._montgomery
        if ctx is not None:
            results = native.modexp(ctx, bases, exp)
            if results is not None:
                return results
        return [pow(base, exp, self.p) for base in bases]

    def power(self, base: int, exp: int) -> int:
        """``base**exp mod p``: :meth:`powers` of one base."""
        return self.powers([base], exp)[0]

    @cached_property
    def _montgomery(self) -> Optional[native.MontgomeryContext]:
        return native.montgomery_context(self.p)

    @property
    def element_bytes(self) -> int:
        """Width of one group element as fixed-size big-endian bytes."""
        return (self.p.bit_length() + 7) // 8

    @property
    def secret_bytes(self) -> int:
        """Width of one secret exponent (< q) as fixed-size big-endian
        bytes — what a client Shamir-shares its mask key at: 64 on
        ``modp512``, 256 on ``modp2048``."""
        return (self.q.bit_length() + 7) // 8


MODP_2048 = DHGroup(p=MODP_2048_P, g=MODP_2048_G, q=MODP_2048_Q)

#: A 512-bit safe-prime group (p = 2q + 1, q prime; generator 4 spans the
#: order-q subgroup of squares).  Too small for production security but
#: structurally identical to MODP_2048 — used to keep protocol tests and
#: simulations fast.
MODP_512_P = int(
    "8ec67d261168f70f08f6c6437fe3dcb3ab74d4025bbc663ab4114c39af30990e"
    "18136cb74af75c5143ee78cdf6cb0cb2a18168dacc814ecbc8b206e4736fc46b",
    16,
)
MODP_512 = DHGroup(p=MODP_512_P, g=4, q=(MODP_512_P - 1) // 2)

#: A tiny toy group for fast unit tests only (p = 2q+1, q prime).  Never
#: used by default; exported so tests can exercise group-edge behaviour.
TOY_GROUP = DHGroup(p=2 * 1019 + 1, g=4, q=1019)

#: Named groups resolvable from configuration strings.
GROUPS: dict[str, DHGroup] = {
    "modp2048": MODP_2048,
    "modp512": MODP_512,
}


def resolve_group(name: str) -> DHGroup:
    """Look up a named DH group (raises ``KeyError`` with the options)."""
    try:
        return GROUPS[name]
    except KeyError:
        raise KeyError(
            f"unknown DH group {name!r}; choose from {sorted(GROUPS)}"
        ) from None


@dataclass(frozen=True)
class DHKeyPair:
    """A Diffie–Hellman key pair ``(sk, pk = g**sk mod p)``."""

    secret: int
    public: int


class KeyAgreement:
    """KA.gen / KA.agree as used in Fig. 5.

    ``agree(my_keypair, peer_publics)`` returns one 32-byte symmetric key
    per peer: SHA-256 of the shared group element, following the
    hash-composed DH the paper specifies.  A public key's wire form
    (:meth:`public_bytes`) is the group's element width whatever its
    value, so a message's size never depends on the key drawn.
    """

    def __init__(self, group: DHGroup = MODP_2048):
        self.group = group

    def generate(self, entropy: EntropySource = SYSTEM_ENTROPY) -> DHKeyPair:
        """A key pair whose secret exponent is uniform in ``[1, q)``."""
        sk = 1 + entropy.randbelow(self.group.q - 1)
        return DHKeyPair(secret=sk, public=self.group.power(self.group.g, sk))

    def public_bytes(self, pair: DHKeyPair) -> bytes:
        return pair.public.to_bytes(self.group.element_bytes, "big")

    def decode_public(self, data: bytes) -> int:
        """Strict inverse of :meth:`public_bytes`: a padded or re-split
        key is a ``ValueError``, not another spelling of the same key."""
        width = self.group.element_bytes
        if not isinstance(data, bytes) or len(data) != width:
            raise ValueError(f"public key is not {width} bytes")
        public = int.from_bytes(data, "big")
        self._require_element(public)
        return public

    def agree(self, mine: DHKeyPair, peer_publics: Sequence[int]) -> list[bytes]:
        """The keys ``mine`` shares with each of ``peer_publics``, in order.

        One call per neighbourhood: every public is range-checked before
        any power is taken, then all are raised to ``mine.secret`` in one
        :meth:`DHGroup.powers`.
        """
        for public in peer_publics:
            self._require_element(public)
        width = self.group.element_bytes
        return [
            hashlib.sha256(shared.to_bytes(width, "big")).digest()
            for shared in self.group.powers(peer_publics, mine.secret)
        ]

    def _require_element(self, public: int) -> None:
        if not 1 < public < self.group.p - 1:
            raise ValueError("peer public key outside the group range")
