"""A minimal public-key infrastructure.

The paper assumes a PKI run by a trusted third party that binds each
client identity to a signature verification key (§2.1, §3.3): honest
clients use it to verify message provenance, which is what stops a
malicious server from impersonating or simulating clients.  This module
is that trusted directory, plus key issuance.
"""

from __future__ import annotations

from repro.crypto.dh import DHGroup, MODP_2048
from repro.crypto.entropy import SYSTEM_ENTROPY, EntropySource
from repro.crypto.signature import (
    SchnorrSigner,
    SchnorrVerifier,
    generate_signing_keypair,
)


class PublicKeyInfrastructure:
    """Issue signing keys and answer verification-key lookups.

    The registry is append-only: re-registering an identity raises, which
    models the PKI preventing Sybil re-registration under an existing
    identity.
    """

    def __init__(self, group: DHGroup = MODP_2048):
        self.group = group
        self._verification_keys: dict[int, int] = {}

    def register(self, identity: int, entropy: EntropySource = SYSTEM_ENTROPY) -> SchnorrSigner:
        """Issue a fresh signing key for ``identity``; returns the signer.

        The verification key is recorded in the public directory.
        """
        if identity in self._verification_keys:
            raise ValueError(f"identity {identity} already registered")
        sk, vk = generate_signing_keypair(self.group, entropy)
        self._verification_keys[identity] = vk
        return SchnorrSigner(sk, self.group)

    def verifier(self, identity: int) -> SchnorrVerifier:
        """Look up the verifier bound to ``identity``."""
        try:
            vk = self._verification_keys[identity]
        except KeyError:
            raise KeyError(f"identity {identity} is not registered") from None
        return SchnorrVerifier(vk, self.group)

    def is_registered(self, identity: int) -> bool:
        return identity in self._verification_keys
