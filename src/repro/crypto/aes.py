"""AES-256 as FIPS-197 writes it, in numpy: the stream's specification.

The counter stream under every mask, noise vector and AE keystream is
AES-256 in counter mode (:mod:`repro.crypto.prg`).  This module is the
cipher written out from the standard — the S-box built from its
definition (the inverse in GF(2⁸) followed by the affine map), the key
expansion of §5.2, and the rounds of §5.1 applied to a whole batch of
blocks at once — with nothing shared with the native kernel or with
OpenSSL.  :class:`repro.crypto.prg.PRGReference` computes the stream
with it, and :func:`repro.crypto.prg.counter_stream` falls back to it
(announced) on a host that has neither the kernel nor ``cryptography``.
Its known answers are FIPS-197 Appendix C.3 and NIST SP 800-38A F.5.5
(``tests/crypto/test_aes_vectors.py``).

It is a specification, not a fast path: about 50 ns a byte on large
batches (the kernel takes 0.1–0.2, OpenSSL about 1), and half a millisecond
a call however small.
"""

from __future__ import annotations

import numpy as np

ROUNDS = 14  # AES-256
KEY_BYTES = 32
BLOCK_BYTES = 16


def _xtime(a: int) -> int:
    """``a · x`` in GF(2⁸) modulo x⁸ + x⁴ + x³ + x + 1."""
    return ((a << 1) ^ (0x1B if a & 0x80 else 0)) & 0xFF


def _sbox() -> np.ndarray:
    """§5.1.1: the multiplicative inverse (0 ↦ 0), then the affine map.
    The inverse of ``3**i`` is ``3**(255 − i)``: 3 generates GF(2⁸)*."""
    powers = [1]
    for _ in range(254):
        powers.append(powers[-1] ^ _xtime(powers[-1]))  # · 3 = · (x + 1)
    inverse = [0] * 256
    for i, power in enumerate(powers):
        inverse[power] = powers[-i % 255]
    table = np.zeros(256, dtype=np.uint8)
    for a in range(256):
        s = inverse[a]
        for shift in range(1, 5):
            s ^= ((inverse[a] << shift) | (inverse[a] >> (8 - shift))) & 0xFF
        table[a] = s ^ 0x63
    return table


SBOX = _sbox()
#: The S-box on two bytes at once (a ``uint16`` view of the state): half
#: the lookups, and a lookup is what a round mostly costs in numpy.
_SBOX_PAIRS = SBOX[np.arange(1 << 16, dtype=np.uint16).view(np.uint8)].view(np.uint16)
#: §5.1.2 on the column-major state (byte r + 4c is row r, column c):
#: row r moves left by r columns.
_SHIFT_ROWS = np.array([r + 4 * ((c + r) % 4) for c in range(4) for r in range(4)])
_LOW7 = np.uint64(0x7F7F7F7F7F7F7F7F)
_BIT0 = np.uint64(0x0101010101010101)
#: Blocks the state is padded to a multiple of, for the ``uint64`` view.
_LANES = 8
#: Blocks one pass of the rounds takes: 128 KiB of state.
_PASS = 8192


def expand_key(key: bytes) -> np.ndarray:
    """§5.2 with Nk = 8: the fifteen round keys, one row of 16 bytes each."""
    if len(key) != KEY_BYTES:
        raise ValueError(f"an AES-256 key is {KEY_BYTES} bytes, got {len(key)}")
    words = [list(key[i : i + 4]) for i in range(0, KEY_BYTES, 4)]
    rcon = 1
    for i in range(8, 4 * (ROUNDS + 1)):
        temp = list(words[i - 1])
        if i % 8 == 0:
            temp = [int(SBOX[b]) for b in temp[1:] + temp[:1]]
            temp[0] ^= rcon
            rcon = _xtime(rcon)
        elif i % 8 == 4:
            temp = [int(SBOX[b]) for b in temp]
        words.append([a ^ b for a, b in zip(words[i - 8], temp)])
    return np.array(words, dtype=np.uint8).reshape(ROUNDS + 1, BLOCK_BYTES)


def _xtime_bytes(a: np.ndarray) -> np.ndarray:
    """``2·b`` in GF(2⁸) for each of the eight bytes of every ``uint64``."""
    return ((a & _LOW7) << np.uint64(1)) ^ (((a >> np.uint64(7)) & _BIT0) * np.uint64(0x1B))


def _sub_shift(state: np.ndarray) -> np.ndarray:
    """SubBytes (§5.1.1) and ShiftRows (§5.1.2)."""
    return _SBOX_PAIRS[state[_SHIFT_ROWS].view(np.uint16)].view(np.uint64)


def _mix_columns(state: np.ndarray) -> np.ndarray:
    """§5.1.3, as ``b_r = a_r ⊕ t ⊕ 2·(a_r ⊕ a_{r+1})`` with ``t`` the
    xor of the column."""
    columns = state.reshape(4, 4, -1)
    total = columns[:, 0] ^ columns[:, 1] ^ columns[:, 2] ^ columns[:, 3]
    following = np.roll(columns, -1, axis=1)
    return (columns ^ total[:, None] ^ _xtime_bytes(columns ^ following)).reshape(BLOCK_BYTES, -1)


def _rounds(round_keys: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """§5.1 on up to :data:`_PASS` blocks, on the transpose: row ``i``
    holds byte ``i`` of every block, eight blocks a ``uint64``, so
    ShiftRows is a permutation of rows and each step of a round is one
    numpy operation over all the blocks."""
    count = len(blocks)
    state = np.zeros((BLOCK_BYTES, -(-count // _LANES) * _LANES), dtype=np.uint8)
    state[:, :count] = blocks.T
    state = state.view(np.uint64) ^ round_keys[0]
    for r in range(1, ROUNDS):
        state = _mix_columns(_sub_shift(state.view(np.uint8))) ^ round_keys[r]
    state = _sub_shift(state.view(np.uint8)) ^ round_keys[ROUNDS]
    return state.view(np.uint8)[:, :count].T


def encrypt_blocks(key: bytes, blocks: np.ndarray) -> np.ndarray:
    """AES-256 of every row of ``blocks`` (an ``(n, 16)`` uint8 array),
    :data:`_PASS` blocks a pass so the state stays in cache."""
    # Byte i of each round key, eight times over: one uint64 per row.
    round_keys = expand_key(key).repeat(_LANES, axis=1).view(np.uint64)[:, :, None]
    out = np.empty((len(blocks), BLOCK_BYTES), dtype=np.uint8)
    for start in range(0, len(blocks), _PASS):
        out[start : start + _PASS] = _rounds(round_keys, blocks[start : start + _PASS])
    return out


def counter_blocks(counter: int, count: int) -> np.ndarray:
    """``be128(counter + j)`` for j in ``[0, count)``, as ``(count, 16)``
    uint8 rows; the count wraps at 2¹²⁸ as CTR mode does."""
    low = np.uint64(counter % (1 << 64)) + np.arange(count, dtype=np.uint64)
    high = np.uint64((counter >> 64) % (1 << 64)) + (low < low[:1])
    return np.stack([high, low], axis=1).astype(">u8").view(np.uint8).reshape(count, BLOCK_BYTES)


def ctr_keystream(key: bytes, counter: int, count: int) -> bytes:
    """``E_key(be128(counter)) ∥ E_key(be128(counter + 1)) ∥ …``, ``count``
    blocks: the AES-256-CTR keystream from the counter block ``counter``."""
    if count == 0:
        return b""
    return encrypt_blocks(key, counter_blocks(counter, count)).tobytes()
