"""Authenticated encryption: encrypt-then-MAC over the counter-mode PRG.

SecAgg requires an IND-CPA + INT-CTXT authenticated-encryption scheme AE
to protect the secret shares that clients route through the untrusted
server (Fig. 5, ShareKeys).  We build the standard composition:

- keystream: the AES-256-CTR counter stream (:func:`repro.crypto.prg.counter_stream`)
  of the 48-byte seed ``HKDF(key, "enc") || nonce`` — AES-256 under
  ``SHA-256(seed)`` from a zero counter block, on the native kernel
  where it is loaded (a seed fits its one-block key derivation);
- ciphertext: plaintext XOR keystream;
- tag: HMAC-SHA256 under ``HKDF(key, "mac")`` over ``nonce || ciphertext``.

Encrypt-then-MAC with independent keys is the composition that yields
INT-CTXT + IND-CPA from a secure stream cipher and PRF.

An object is keyed once: its constructor derives both subkeys and
absorbs the HMAC key's two pad blocks (RFC 2104), so each message's tag
costs one copy of each SHA-256 state.  A SecAgg client keeps one object
per peer for the round and uses it in both directions — to encrypt its
shares for the peer and to decrypt the peer's shares for it.
"""

from __future__ import annotations

import hmac
import hashlib

from repro.crypto.entropy import SYSTEM_ENTROPY, EntropySource
from repro.crypto.prg import counter_stream

_NONCE_LEN = 16
_TAG_LEN = 32
_KEY_LEN = 32


class AEError(Exception):
    """Raised when decryption fails authentication (tampered or wrong key)."""


#: RFC 2104's inner and outer pad bytes, as ``bytes.translate`` tables.
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))
_SHA256_BLOCK = 64


def _subkey(key: bytes, label: bytes) -> bytes:
    """Derive an independent subkey (HKDF-style extract+expand, one block)."""
    return hmac.new(key, b"dordis-ae" + label, hashlib.sha256).digest()


class AuthenticatedEncryption:
    """AE.enc / AE.dec with a 32-byte symmetric key.

    The wire format is ``nonce (16B) || ciphertext || tag (32B)``.
    Decryption raises :class:`AEError` on any authentication failure —
    matching the protocol's "if the ciphertext does not correctly
    authenticate, abort" behaviour.
    """

    #: Bytes a ciphertext is longer than its plaintext (nonce + tag).
    OVERHEAD = _NONCE_LEN + _TAG_LEN

    def __init__(self, key: bytes):
        if len(key) != _KEY_LEN:
            raise ValueError(f"key must be {_KEY_LEN} bytes, got {len(key)}")
        self._enc_key = _subkey(key, b"enc")
        # HMAC-SHA256 under the mac subkey, its pad blocks absorbed once.
        block = _subkey(key, b"mac").ljust(_SHA256_BLOCK, b"\0")
        self._inner = hashlib.sha256(block.translate(_IPAD))
        self._outer = hashlib.sha256(block.translate(_OPAD))

    def _tag(self, nonce: bytes, ciphertext: bytes) -> bytes:
        """``HMAC-SHA256(mac subkey, nonce ∥ ciphertext)``."""
        inner = self._inner.copy()
        inner.update(nonce)
        inner.update(ciphertext)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def _xor_keystream(self, nonce: bytes, data: bytes) -> bytes:
        """``data`` XOR the first ``len(data)`` keystream bytes, as one
        big-integer operation."""
        n = len(data)
        stream = counter_stream(self._enc_key + nonce, -(-n // 32))
        mixed = int.from_bytes(data, "big") ^ int.from_bytes(
            memoryview(stream)[:n], "big"
        )
        return mixed.to_bytes(n, "big")

    def encrypt(self, plaintext: bytes, entropy: EntropySource = SYSTEM_ENTROPY) -> bytes:
        nonce = entropy.token_bytes(_NONCE_LEN)
        ciphertext = self._xor_keystream(nonce, plaintext)
        return nonce + ciphertext + self._tag(nonce, ciphertext)

    def decrypt(self, blob: bytes) -> bytes:
        if len(blob) < _NONCE_LEN + _TAG_LEN:
            raise AEError("ciphertext too short")
        nonce = blob[:_NONCE_LEN]
        ciphertext = blob[_NONCE_LEN:-_TAG_LEN]
        tag = blob[-_TAG_LEN:]
        if not hmac.compare_digest(tag, self._tag(nonce, ciphertext)):
            raise AEError("authentication failed")
        return self._xor_keystream(nonce, ciphertext)
