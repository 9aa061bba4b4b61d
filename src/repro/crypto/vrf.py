"""A verifiable random function (VRF) over the MODP group.

§7 of the paper proposes VRF-based client sampling to stop a malicious
server from cherry-picking colluded clients into the sample: each client
derives its participation from verifiable randomness that neither it nor
the server can bias.

Construction (the classic DDH-based VRF, ECVRF's structure in a prime
field):

- keys: sk = x, pk = y = g**x;
- hash-to-group: h = (SHA-256 stretched to [0, p))² mod p — squaring
  lands in the prime-order subgroup of quadratic residues while keeping
  log_g(h) unknown;
- evaluation: γ = h**x; the VRF *output* is SHA-256(γ);
- proof: a Chaum–Pedersen DLEQ showing log_g(y) = log_h(γ), made
  non-interactive with Fiat–Shamir.

Uniqueness (γ is a function of (h, x)) is what prevents grinding: a
client cannot re-roll its randomness, and the server cannot forge
another client's.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.dh import DHGroup, MODP_2048
from repro.crypto.entropy import SYSTEM_ENTROPY


@dataclass(frozen=True)
class VRFProof:
    """Output γ plus the DLEQ transcript (c, s)."""

    gamma: int
    c: int
    s: int


def _int_bytes(group: DHGroup, value: int) -> bytes:
    size = (group.p.bit_length() + 7) // 8
    return value.to_bytes(size, "big")


def _hash_to_group(group: DHGroup, message: bytes) -> int:
    """Map a message to the quadratic-residue subgroup."""
    counter = 0
    while True:
        digest = b""
        while len(digest) * 8 < group.p.bit_length() + 64:
            digest += hashlib.sha256(
                b"vrf-h2g" + counter.to_bytes(4, "big")
                + len(digest).to_bytes(4, "big") + message
            ).digest()
        candidate = int.from_bytes(digest, "big") % group.p
        if candidate > 1:
            return group.power(candidate, 2)
        counter += 1


def _challenge(group: DHGroup, points: list[int]) -> int:
    h = hashlib.sha256()
    for pt in points:
        h.update(_int_bytes(group, pt))
    return int.from_bytes(h.digest(), "big") % group.q


def generate_vrf_keypair(group: DHGroup = MODP_2048) -> tuple[int, int]:
    """Return ``(secret_key, public_key)``."""
    sk = 1 + SYSTEM_ENTROPY.randbelow(group.q - 1)
    return sk, group.power(group.g, sk)


def vrf_prove(
    secret_key: int, message: bytes, group: DHGroup = MODP_2048
) -> tuple[bytes, VRFProof]:
    """Evaluate the VRF; returns ``(output, proof)``.

    The output is a 32-byte uniform-looking string bound to
    (secret_key, message); the proof convinces any holder of the public
    key without revealing the key.
    """
    h = _hash_to_group(group, message)
    gamma = group.power(h, secret_key)
    k = 1 + SYSTEM_ENTROPY.randbelow(group.q - 1)
    a1 = group.power(group.g, k)
    a2 = group.power(h, k)
    public = group.power(group.g, secret_key)
    c = _challenge(group, [group.g, h, public, gamma, a1, a2])
    s = (k - c * secret_key) % group.q
    output = hashlib.sha256(b"vrf-out" + _int_bytes(group, gamma)).digest()
    return output, VRFProof(gamma=gamma, c=c, s=s)


def vrf_verify(
    public_key: int,
    message: bytes,
    output: bytes,
    proof: VRFProof,
    group: DHGroup = MODP_2048,
) -> bool:
    """Check the proof and that ``output`` matches γ."""
    if not 1 < public_key < group.p - 1:
        return False
    if not (0 <= proof.c < group.q and 0 <= proof.s < group.q):
        return False
    h = _hash_to_group(group, message)
    # Recompute the commitments: a1 = g^s · y^c, a2 = h^s · γ^c.
    a1 = (group.power(group.g, proof.s) * group.power(public_key, proof.c)) % group.p
    a2 = (group.power(h, proof.s) * group.power(proof.gamma, proof.c)) % group.p
    expected_c = _challenge(
        group, [group.g, h, public_key, proof.gamma, a1, a2]
    )
    if expected_c != proof.c:
        return False
    expected_out = hashlib.sha256(
        b"vrf-out" + _int_bytes(group, proof.gamma)
    ).digest()
    return output == expected_out


def output_to_unit(output: bytes) -> float:
    """Map a VRF output to [0, 1) for threshold comparisons."""
    return int.from_bytes(output[:8], "big") / float(1 << 64)
