"""Cryptographic primitives for SecAgg and XNoise, built on the stdlib.

The paper instantiates SecAgg/XNoise with a PKI, Diffie–Hellman key
agreement composed with a hash, Shamir t-out-of-n secret sharing, an
IND-CPA + INT-CTXT authenticated-encryption scheme, a UF-CMA signature
scheme, and a secure PRG (Fig. 5).  This subpackage provides each of those
interfaces from scratch:

- :mod:`repro.crypto.field`     — GF(p) arithmetic, p = 2**127 − 1.
- :mod:`repro.crypto.prg`       — AES-256-CTR PRG.
- :mod:`repro.crypto.shamir`    — Shamir secret sharing over GF(p).
- :mod:`repro.crypto.dh`        — finite-field Diffie–Hellman (RFC 3526).
- :mod:`repro.crypto.ae`        — encrypt-then-MAC authenticated encryption.
- :mod:`repro.crypto.signature` — Schnorr signatures.
- :mod:`repro.crypto.pki`       — a trusted key directory.
- :mod:`repro.crypto.entropy`   — where every random draw comes from.
- :mod:`repro.crypto.suite`     — the primitives a round reaches.

These are *reproduction-grade* primitives: they implement the textbook
constructions faithfully and pass adversarial unit tests (tamper
detection, forged-signature rejection, below-threshold reconstruction
failure), but they have not been audited for production deployment.
"""

from repro.crypto.field import PrimeField, FIELD
from repro.crypto.prg import PRGReference, expand_uniform
from repro.crypto.shamir import ShamirSecretSharing, Share
from repro.crypto.dh import DHKeyPair, KeyAgreement, MODP_2048
from repro.crypto.ae import AuthenticatedEncryption, AEError
from repro.crypto.signature import SchnorrSigner, SchnorrVerifier, generate_signing_keypair
from repro.crypto.pki import PublicKeyInfrastructure

__all__ = [
    "PrimeField",
    "FIELD",
    "PRGReference",
    "expand_uniform",
    "ShamirSecretSharing",
    "Share",
    "DHKeyPair",
    "KeyAgreement",
    "MODP_2048",
    "AuthenticatedEncryption",
    "AEError",
    "SchnorrSigner",
    "SchnorrVerifier",
    "generate_signing_keypair",
    "PublicKeyInfrastructure",
]
