"""Schnorr signatures over the RFC 3526 MODP group.

The malicious-setting protocol (Fig. 5, bracketed steps) requires a UF-CMA
signature scheme SIG: clients sign their advertised keys, the round
number, and the ConsistencyCheck set so the server cannot impersonate
clients or understate dropout (§3.3).  We implement classic Schnorr
signatures in the prime-order subgroup of the 2048-bit safe-prime group,
with the Fiat–Shamir hash over (commitment, public key, message).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.dh import DHGroup, MODP_2048
from repro.crypto.entropy import SYSTEM_ENTROPY, EntropySource


@dataclass(frozen=True)
class SchnorrSignature:
    """A Schnorr signature ``(e, s)``; fixed-size when serialized."""

    e: int
    s: int

    def to_bytes(self) -> bytes:
        return self.e.to_bytes(32, "big") + self.s.to_bytes(256, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "SchnorrSignature":
        if len(data) != 32 + 256:
            raise ValueError("malformed signature encoding")
        return cls(
            e=int.from_bytes(data[:32], "big"),
            s=int.from_bytes(data[32:], "big"),
        )


def _challenge(group: DHGroup, commitment: int, public: int, message: bytes) -> int:
    size = group.element_bytes
    h = hashlib.sha256()
    h.update(commitment.to_bytes(size, "big"))
    h.update(public.to_bytes(size, "big"))
    h.update(hashlib.sha256(message).digest())
    return int.from_bytes(h.digest(), "big") % group.q


def generate_signing_keypair(
    group: DHGroup = MODP_2048, entropy: EntropySource = SYSTEM_ENTROPY
) -> tuple[int, int]:
    """Return ``(signing_key, verification_key)`` with vk = g**sk mod p.

    The signing key is the ``d^SK`` of Fig. 5 (distributed by the trusted
    third party / PKI), the verification key the matching ``d^PK``.
    """
    sk = 1 + entropy.randbelow(group.q - 1)
    return sk, group.power(group.g, sk)


class SchnorrSigner:
    """SIG.sign with a private signing key."""

    def __init__(self, signing_key: int, group: DHGroup = MODP_2048):
        if not 1 <= signing_key < group.q:
            raise ValueError("signing key outside [1, q)")
        self.group = group
        self._sk = signing_key
        self.public = group.power(group.g, signing_key)

    def sign(self, message: bytes, entropy: EntropySource = SYSTEM_ENTROPY) -> SchnorrSignature:
        k = 1 + entropy.randbelow(self.group.q - 1)
        commitment = self.group.power(self.group.g, k)
        e = _challenge(self.group, commitment, self.public, message)
        s = (k + self._sk * e) % self.group.q
        return SchnorrSignature(e=e, s=s)


class SchnorrVerifier:
    """SIG.ver with a public verification key."""

    def __init__(self, verification_key: int, group: DHGroup = MODP_2048):
        self.group = group
        self.public = verification_key

    def verify(self, message: bytes, signature: SchnorrSignature) -> bool:
        if not 0 <= signature.e < self.group.q or not 0 <= signature.s < self.group.q:
            return False
        # g**s must equal commitment * pk**e; recover commitment and re-hash.
        gs = self.group.power(self.group.g, signature.s)
        pk_e = self.group.power(self.public, signature.e)
        commitment = (gs * pow(pk_e, -1, self.group.p)) % self.group.p
        return _challenge(self.group, commitment, self.public, message) == signature.e
