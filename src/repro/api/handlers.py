"""Pluggable privacy/security primitive handlers (Appendix D).

Each abstract handler pins the interface one primitive family exposes to
protocol code; the ``Default*`` classes delegate to this repository's
implementations.  Swapping a handler (say, a different DP mechanism or a
hardware AE scheme) requires no protocol changes — the Table-4 promise.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.crypto.ae import AuthenticatedEncryption
from repro.crypto.dh import DHKeyPair, KeyAgreement, resolve_group
from repro.crypto.prg import expand_uniform
from repro.crypto.shamir import Share, ShamirSecretSharing
from repro.dp.skellam import SkellamConfig, SkellamMechanism


# ---------------------------------------------------------------------------
# Differential privacy
# ---------------------------------------------------------------------------


class DPHandler:
    """DP mechanism interface: parameter setup, encode, decode."""

    def init_params(self, **kwargs) -> None:
        """Configure the mechanism before the round starts."""
        raise NotImplementedError

    def encode_data(self, chunk: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Client-side: real-valued chunk → aggregation-domain chunk."""
        raise NotImplementedError

    def decode_data(self, chunk: np.ndarray) -> np.ndarray:
        """Server-side: aggregated chunk → real-valued chunk."""
        raise NotImplementedError


class PlainDPHandler(DPHandler):
    """No-op encoding (float aggregation, no privacy) — the null object."""

    def init_params(self, **kwargs) -> None:  # noqa: D102 - nothing to do
        pass

    def encode_data(self, chunk, rng):
        return np.asarray(chunk, dtype=float)

    def decode_data(self, chunk):
        return np.asarray(chunk, dtype=float)


class SkellamDPHandler(DPHandler):
    """The DSkellam mechanism behind the DPHandler interface."""

    def __init__(self):
        self.mechanism: SkellamMechanism | None = None
        self.noise_variance: float = 0.0

    def init_params(
        self,
        dimension: int = 16,
        clip_bound: float = 1.0,
        bits: int = 20,
        scale: float = 64.0,
        noise_variance: float = 0.0,
        **kwargs,
    ) -> None:
        self.mechanism = SkellamMechanism(
            SkellamConfig(
                dimension=dimension, clip_bound=clip_bound, bits=bits,
                scale=scale, **kwargs,
            )
        )
        self.noise_variance = noise_variance

    def _require(self) -> SkellamMechanism:
        if self.mechanism is None:
            raise RuntimeError("call init_params() before encode/decode")
        return self.mechanism

    def encode_data(self, chunk, rng):
        return self._require().encode(chunk, self.noise_variance, rng)

    def decode_data(self, chunk):
        return self._require().decode(chunk)


# ---------------------------------------------------------------------------
# Security primitives
# ---------------------------------------------------------------------------


class AEHandler:
    """Authenticated encryption interface."""

    def encrypt(self, key: bytes, plaintext: bytes) -> bytes:
        raise NotImplementedError

    def decrypt(self, key: bytes, blob: bytes) -> bytes:
        raise NotImplementedError


class DefaultAEHandler(AEHandler):
    """Encrypt-then-MAC over the counter-mode PRG (repro.crypto.ae)."""

    def encrypt(self, key, plaintext):
        return AuthenticatedEncryption(key).encrypt(plaintext)

    def decrypt(self, key, blob):
        return AuthenticatedEncryption(key).decrypt(blob)


class KAHandler:
    """Key agreement interface (KA.gen / KA.agree)."""

    def generate(self):
        raise NotImplementedError

    def agree(self, mine, peer_publics) -> list[bytes]:
        """One key per peer public, in order (a whole neighbourhood)."""
        raise NotImplementedError


class DefaultKAHandler(KAHandler):
    """Finite-field Diffie–Hellman (repro.crypto.dh)."""

    def __init__(self, group_name: str = "modp2048"):
        self._ka = KeyAgreement(resolve_group(group_name))

    def generate(self) -> DHKeyPair:
        return self._ka.generate()

    def agree(self, mine: DHKeyPair, peer_publics: Sequence[int]) -> list[bytes]:
        return self._ka.agree(mine, peer_publics)


class PGHandler:
    """Pseudorandom generation interface."""

    def expand(self, seed: bytes, length: int, modulus: int) -> np.ndarray:
        raise NotImplementedError


class DefaultPGHandler(PGHandler):
    """SHA-256 counter-mode PRG (repro.crypto.prg)."""

    def expand(self, seed, length, modulus):
        return expand_uniform(seed, length, modulus)


class SSHandler:
    """Secret sharing interface."""

    def share(self, secret: bytes, threshold: int, ids: list[int]) -> dict[int, Share]:
        raise NotImplementedError

    def reconstruct(self, shares: list[Share], threshold: int) -> bytes:
        raise NotImplementedError


class DefaultSSHandler(SSHandler):
    """Shamir over GF(2**127 − 1) (repro.crypto.shamir)."""

    def __init__(self):
        self._schemes: dict[int, ShamirSecretSharing] = {}

    def _scheme(self, threshold: int) -> ShamirSecretSharing:
        scheme = self._schemes.get(threshold)
        if scheme is None:
            scheme = self._schemes[threshold] = ShamirSecretSharing(threshold)
        return scheme

    def share(self, secret, threshold, ids):
        (shares,) = self._scheme(threshold).share([secret], ids)
        return shares

    def reconstruct(self, shares, threshold):
        return self._scheme(threshold).reconstruct(shares)
