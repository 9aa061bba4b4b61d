"""One primitive suite: Appendix D's four SecAgg handler slots (Fig. 5 of
Bonawitz et al., CCS 2017) and the entropy every draw comes from:
``ka`` (``generate(entropy)``, ``agree(mine, peer_publics)``,
``public_bytes`` / ``decode_public``, ``group``), ``ae`` (``ae(key)``
keys a channel: ``encrypt(plaintext, entropy)`` / ``decrypt(blob)``),
``ss`` (``ss(threshold)``: ``share(secret_list, ids, entropy)`` /
``reconstruct(shares)``), ``prg`` (``expand(seed, length, modulus,
out=None, sign=1)``) and ``entropy`` (an ``EntropySource``).

The SecAgg and XNoise clients and servers take one ``suite=`` (by
default that of the config's ``dh_group``) and reach a primitive only
through it; a client draws from ``suite.for_party(id, round)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.crypto.ae import AuthenticatedEncryption
from repro.crypto.dh import KeyAgreement, resolve_group
from repro.crypto.entropy import SYSTEM_ENTROPY, EntropySource
from repro.crypto.prg import COUNTER_PRG, CounterPRG
from repro.crypto.shamir import ShamirSecretSharing


@dataclass(frozen=True)
class Suite:
    """The primitives one party runs a round on."""

    ka: KeyAgreement
    ae: Callable[[bytes], AuthenticatedEncryption] = AuthenticatedEncryption
    ss: Callable[[int], ShamirSecretSharing] = ShamirSecretSharing
    prg: CounterPRG = COUNTER_PRG
    entropy: EntropySource = SYSTEM_ENTROPY

    @classmethod
    def for_group(
        cls, group_name: str, entropy: EntropySource = SYSTEM_ENTROPY
    ) -> "Suite":
        """The default primitives over the named DH group."""
        return cls(ka=KeyAgreement(resolve_group(group_name)), entropy=entropy)

    def for_party(self, party: int, round_index: int) -> "Suite":
        """This suite drawing from ``party``'s stream in ``round_index``."""
        return replace(self, entropy=self.entropy.for_party(party, round_index))
