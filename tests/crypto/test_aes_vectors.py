"""Known answers for the stream's cipher, on every path that computes it.

Block *i* of a seed's stream is ``E_K(be128(2i)) ∥ E_K(be128(2i+1))``
with ``K = SHA-256(seed)`` — AES-256-CTR from a zero counter block.
Three independent AES implementations serve it: the specification in
:mod:`repro.crypto.aes` (``PRGReference`` and the last fallback), OpenSSL
through ``cryptography`` (the fallback without the kernel) and the
kernel's AES-NI and VAES paths.  Each must give the published answers:

- FIPS-197 Appendix C.3 (AES-256, one block);
- NIST SP 800-38A F.5.5 (CTR-AES256.Encrypt, four blocks from the
  counter block ``f0f1…ff``, whose low byte carries twice).

and agree with the others on ragged runs and on counter blocks whose low
64 bits carry or whose whole 128 bits wrap.
"""

import ctypes
import hashlib
import random

import numpy as np
import pytest

from repro import native
from repro.crypto import aes
from repro.crypto.prg import PRGReference, counter_stream

FIPS197_KEY = bytes(range(32))
FIPS197_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS197_CIPHERTEXT = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")

SP800_38A_KEY = bytes.fromhex(
    "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"
)
SP800_38A_COUNTER = 0xF0F1F2F3F4F5F6F7F8F9FAFBFCFDFEFF
SP800_38A_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
SP800_38A_CIPHERTEXT = bytes.fromhex(
    "601ec313775789a5b7a7f504bbf3d228"
    "f443e3ca4d62b59aca84e990cacaf5c5"
    "2b0930daa23de94ce87017ba2d84988d"
    "dfc9c58db67aada613c2dd08457941a6"
)

#: ``(key, counter block as an integer, keystream from it)``: C.3 as the
#: keystream of one block whose counter is the plaintext, F.5.5 as
#: plaintext ⊕ ciphertext.
KNOWN_ANSWERS = (
    (FIPS197_KEY, int.from_bytes(FIPS197_PLAINTEXT, "big"), FIPS197_CIPHERTEXT),
    (
        SP800_38A_KEY,
        SP800_38A_COUNTER,
        bytes(a ^ b for a, b in zip(SP800_38A_PLAINTEXT, SP800_38A_CIPHERTEXT)),
    ),
)

#: Counter blocks where an increment is easy to get wrong.
EDGE_COUNTERS = (0, 2**64 - 5, 2**64 - 1, 2**128 - 7, SP800_38A_COUNTER)


def kernel_paths():
    """``(path, name)`` for the kernel's AES paths; a named skip where the
    kernel or the path is not here."""
    lib = native.load()
    for path, name in ((1, "AES-NI"), (2, "VAES")):
        if lib is None:
            yield pytest.param(path, marks=pytest.mark.skip(reason="no kernel"), id=name)
            continue
        rc = lib.repro_stream_path(path, None, None, 0, None)
        if rc != -1:
            why = {-2: "this CPU lacks it", -3: "this build left it out"}[rc]
            yield pytest.param(path, marks=pytest.mark.skip(reason=why), id=name)
        else:
            yield pytest.param(path, id=name)


def kernel_keystream(path: int, key: bytes, counter: int, n: int) -> bytes:
    out = bytearray(16 * n + 16)
    buf = (ctypes.c_char * len(out)).from_buffer(out)
    assert native.load().repro_stream_path(path, key, counter.to_bytes(16, "big"), n, buf) == 0
    assert out[16 * n :] == bytes(16)
    return bytes(out[: 16 * n])


class TestSpecification:
    def test_fips197_c3(self):
        block = np.frombuffer(FIPS197_PLAINTEXT, dtype=np.uint8).reshape(1, 16)
        assert aes.encrypt_blocks(FIPS197_KEY, block).tobytes() == FIPS197_CIPHERTEXT

    def test_fips197_key_expansion_ends_as_published(self):
        # FIPS-197 A.3 expands the SP 800-38A key: its words w56 … w59.
        last = aes.expand_key(SP800_38A_KEY)[14].tobytes()
        assert last.hex() == "fe4890d1e6188d0b046df344706c631e"

    @pytest.mark.parametrize("key, counter, want", KNOWN_ANSWERS)
    def test_known_answers(self, key, counter, want):
        assert aes.ctr_keystream(key, counter, len(want) // 16) == want

    def test_sp800_38a_f55_encrypts_and_decrypts(self):
        keystream = aes.ctr_keystream(SP800_38A_KEY, SP800_38A_COUNTER, 4)
        xor = bytes(a ^ b for a, b in zip(SP800_38A_PLAINTEXT, keystream))
        assert xor == SP800_38A_CIPHERTEXT

    @pytest.mark.parametrize("counter", EDGE_COUNTERS)
    def test_a_run_is_its_blocks_one_at_a_time(self, counter):
        key = bytes(range(100, 132))
        run = aes.ctr_keystream(key, counter, 33)
        for n in range(34):
            assert aes.ctr_keystream(key, counter, n) == run[: 16 * n]
        ones = b"".join(aes.ctr_keystream(key, (counter + j) % 2**128, 1) for j in range(33))
        assert ones == run

    def test_a_key_of_another_length_is_refused(self):
        with pytest.raises(ValueError, match="32 bytes"):
            aes.expand_key(bytes(16))


class TestTheStreamIsAesCtr:
    @pytest.mark.parametrize("seedlen", [0, 1, 32, 48, 55, 56, 80])
    def test_block_i_is_two_aes_blocks_under_the_seeds_digest(self, seedlen):
        seed = bytes(range(seedlen))
        key = hashlib.sha256(seed).digest()
        reference = PRGReference(seed)
        for i in (0, 1, 2, 7, 2**63 - 1, 2**63, 2**64 - 1):
            want = aes.ctr_keystream(key, 2 * i, 2)
            assert reference.block(i) == want
            assert bytes(counter_stream(seed, 1, i)) == want

    def test_read_continues_block_by_block(self):
        reference = PRGReference(b"r" * 32)
        assert reference.read(64) + reference.read(32) == PRGReference(b"r" * 32).read(96)
        assert PRGReference(b"r" * 32).read(96) == b"".join(
            PRGReference(b"r" * 32).block(i) for i in range(3)
        )

    @pytest.mark.parametrize("ctr0", [0, 3, 2**63 - 9, 2**64 - 40])
    def test_counter_stream_at_ragged_lengths(self, ctr0):
        seed = bytes(range(48))  # the AE's seed length
        whole = aes.ctr_keystream(hashlib.sha256(seed).digest(), 2 * ctr0, 2 * 40)
        for n in range(41):
            assert bytes(counter_stream(seed, n, ctr0)) == whole[: 32 * n], n

    def test_the_probe_constants_are_the_specifications(self):
        for seed, ctr0, nblocks, want in native._STREAM_PROBE:
            stream = aes.ctr_keystream(hashlib.sha256(seed).digest(), 2 * ctr0, 2 * nblocks)
            assert hashlib.sha256(stream).hexdigest() == want
        for bits, count, sign, want in native._MASK_FOLD_PROBE:
            folded = np.arange(0, 3 * count, 3, dtype=np.int64)
            folded += sign * PRGReference(bytes(32)).uniform_vector(count, 1 << bits)
            assert hashlib.sha256(folded.astype("<i8").tobytes()).hexdigest() == want


class TestKernelPaths:
    @pytest.mark.parametrize("path", kernel_paths())
    @pytest.mark.parametrize("key, counter, want", KNOWN_ANSWERS)
    def test_known_answers(self, path, key, counter, want):
        assert kernel_keystream(path, key, counter, len(want) // 16) == want

    @pytest.mark.parametrize("path", kernel_paths())
    @pytest.mark.parametrize("counter", EDGE_COUNTERS)
    def test_ragged_runs_and_carries_match_the_specification(self, path, counter):
        key = bytes(range(100, 132))
        want = aes.ctr_keystream(key, counter, 33)
        for n in range(34):
            assert kernel_keystream(path, key, counter, n) == want[: 16 * n], n


class TestAgainstOpenSSL:
    """The specification and the stream against ``cryptography``'s AES."""

    @staticmethod
    def openssl(key: bytes, counter: int, n: int) -> bytes:
        ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
        cipher = ciphers.Cipher(
            ciphers.algorithms.AES(key), ciphers.modes.CTR(counter.to_bytes(16, "big"))
        )
        return cipher.encryptor().update(bytes(16 * n))

    @pytest.mark.parametrize("key, counter, want", KNOWN_ANSWERS)
    def test_known_answers(self, key, counter, want):
        assert self.openssl(key, counter, len(want) // 16) == want

    @pytest.mark.parametrize("counter", EDGE_COUNTERS)
    def test_specification_at_the_edges(self, counter):
        key = bytes(range(1, 33))
        assert aes.ctr_keystream(key, counter, 33) == self.openssl(key, counter, 33)

    def test_random_keys_counters_and_seeds(self):
        rng = random.Random(0xAE5)
        for _ in range(20):
            key, counter, n = rng.randbytes(32), rng.getrandbits(128), rng.randint(0, 40)
            assert aes.ctr_keystream(key, counter, n) == self.openssl(key, counter, n)
            seed = rng.randbytes(rng.randint(0, 64))
            ctr0 = rng.getrandbits(rng.choice([8, 63, 64])) % (2**64 - 64)
            want = self.openssl(hashlib.sha256(seed).digest(), 2 * ctr0, 2 * n)
            assert bytes(counter_stream(seed, n, ctr0)) == want
            reference = PRGReference(seed)
            assert b"".join(reference.block(ctr0 + j) for j in range(min(n, 3))) == want[:96]
