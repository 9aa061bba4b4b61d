"""The entropy sources: the OS CSPRNG and the seeded DRBG a replayed
round draws from.

The seeded source's every byte is pinned against the written-out rule
over :class:`~repro.crypto.prg.PRGReference` — the specification AES,
shared with neither the kernel nor OpenSSL — never against itself.
"""

import pytest

from repro.crypto.dh import MODP_512
from repro.crypto.entropy import SYSTEM_ENTROPY, EntropySource, SeededEntropy
from repro.crypto.prg import PRGReference

SEED = bytes(range(32))


def reference_randbelow(ref: PRGReference, n: int) -> int:
    """``randbelow`` written out: ``bitlen(n − 1)``-bit big-endian words
    read off the reference stream, redrawn while ≥ n; n = 1 reads none."""
    bits = (n - 1).bit_length()
    if bits == 0:
        return 0
    while True:
        word = int.from_bytes(ref.read((bits + 7) // 8), "big") & ((1 << bits) - 1)
        if word < n:
            return word


class TestSeededKnownAnswer:
    def test_first_block_is_aes256_ctr_under_sha256_of_the_seed(self):
        # AES-256 under SHA-256(0^32), counter blocks 0 and 1 (also what
        # OpenSSL's AES-CTR gives for that key and a zero counter).
        assert SeededEntropy(bytes(32)).token_bytes(32).hex() == (
            "87eeabbc603b2f5cd49f03d2e811947f769a2f8d870a959a2866cdbac7b49c38"
        )

    def test_token_bytes_are_successive_reference_reads(self):
        source, ref = SeededEntropy(SEED), PRGReference(SEED)
        for n in (0, 1, 16, 31, 32, 33, 100, 256, 5):
            assert source.token_bytes(n) == ref.read(n)

    @pytest.mark.parametrize(
        "n",
        [1, 2, 1 << 8, 1 << 61, (1 << 61) + 1, (1 << 127) + 1, MODP_512.q],
        ids=["1", "2", "2^8", "2^61", "2^61+1", "2^127+1", "q_modp512"],
    )
    def test_randbelow_is_the_written_out_rule(self, n):
        source, ref = SeededEntropy(SEED), PRGReference(SEED)
        draws = [source.randbelow(n) for _ in range(40)]
        assert draws == [reference_randbelow(ref, n) for _ in range(40)]
        assert all(0 <= d < n for d in draws)
        # Both streams stopped at the same place: rejections included.
        assert source.token_bytes(32) == ref.read(32)

    def test_randbelow_one_draws_nothing_and_two_draws_both_values(self):
        source = SeededEntropy(SEED)
        assert [source.randbelow(1) for _ in range(5)] == [0] * 5
        assert source.token_bytes(8) == PRGReference(SEED).read(8)
        assert {source.randbelow(2) for _ in range(64)} == {0, 1}

    def test_a_bound_just_past_a_power_of_two_rejects(self):
        """2**k + 1 reads k + 1 bits, so about half the words are redrawn:
        the source must consume more stream than one word per draw."""
        n = (1 << 61) + 1
        source, ref = SeededEntropy(SEED), PRGReference(SEED)
        for _ in range(32):
            source.randbelow(n)
        words = [int.from_bytes(ref.read(8), "big") & ((1 << 62) - 1) for _ in range(32)]
        assert any(w >= n for w in words)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_bound_is_refused(self, bad):
        with pytest.raises(ValueError):
            SeededEntropy(SEED).randbelow(bad)
        with pytest.raises(ValueError):
            SYSTEM_ENTROPY.randbelow(bad)

    def test_seed_must_be_bytes(self):
        with pytest.raises(TypeError):
            SeededEntropy("seed")
        with pytest.raises(ValueError):
            SeededEntropy(SEED).token_bytes(-1)


class TestForParty:
    def test_children_do_not_depend_on_creation_or_draw_order(self):
        def draws(order, parent_draws_first):
            parent = SeededEntropy(SEED)
            if parent_draws_first:
                parent.token_bytes(100)
            children = {p: parent.for_party(p, 3) for p in order}
            return {p: children[p].token_bytes(48) for p in reversed(order)}

        assert draws([1, 2, 3], False) == draws([3, 1, 2], True)

    def test_children_are_distinct_streams(self):
        parent = SeededEntropy(SEED)
        firsts = {
            parent.for_party(p, r).token_bytes(32)
            for p in (-1, 0, 1, 2)
            for r in (0, 1)
        }
        firsts.add(parent.for_party(1, 0).for_party(1, 0).token_bytes(32))
        firsts.add(SeededEntropy(SEED).token_bytes(32))
        assert len(firsts) == 10

    def test_child_seed_is_the_documented_hash(self):
        import hashlib

        child = SeededEntropy(SEED).for_party(7, 2)
        tag = (7).to_bytes(8, "big") + (2).to_bytes(8, "big")
        assert child.seed == hashlib.sha256(SEED + b"party" + tag).digest()

    def test_the_system_source_is_every_partys(self):
        assert SYSTEM_ENTROPY.for_party(5, 1) is SYSTEM_ENTROPY
        assert isinstance(SYSTEM_ENTROPY, EntropySource)
        assert len(SYSTEM_ENTROPY.token_bytes(24)) == 24
        assert SYSTEM_ENTROPY.token_bytes(32) != SYSTEM_ENTROPY.token_bytes(32)
