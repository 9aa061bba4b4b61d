"""Golden mask vectors: what a mask seed expands to is pinned.

Over a ring ``2**b`` element *i* of ``expand_uniform(seed, n, 2**b)`` is
bits ``[i·b, (i+1)·b)`` of the seed's AES-256-CTR stream
(``K = SHA-256(seed)``, counter block 0 up) read as the wire's
little-endian bit stream — protocol semantics since payload version 8
(the bit fields since wire version 5).  The vectors below (first three
elements, SHA-256 of the 1000-element vector as little-endian int64)
were computed by ``PRGReference`` — the FIPS-197 AES of
``repro.crypto.aes`` and Python integers — and confirmed against
OpenSSL's AES-CTR with Python integers; they must come out of the C
kernel, the numpy twin and ``PRGReference`` alike, at every length (a
shorter mask is a prefix of a longer one), whatever slab either loop
works in.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.crypto import prg
from repro.crypto.prg import (
    COUNTER_PRG,
    PRGReference,
    expand_uniform,
    expand_uniform_batch,
    expand_uniform_numpy,
)
from repro.secagg.masking import MaskAccumulator
from repro.wire.bitpack import pack_bits_into, packed_nbytes, unpack_bits

SEEDS = (bytes(32), bytes(range(32)))
LENGTHS = (0, 1, 255, 256, 257, 1000)

GOLDEN = {
    (0, 1): (
        [1, 1, 1],
        "325955ee211539f3417efb333a0a9714c4e2db414508b956db4240d41fb67115",
    ),
    (0, 8): (
        [135, 238, 171],
        "f78f25fe2916153f8e97c359e683b59d0ff715dc51d545094bec5c6df6aa2003",
    ),
    (0, 20): (
        [781959, 396234, 798523],
        "3c0a2ebd6522e1329c109c7000306dfeadc77780583b5b243cee4e38fda60a46",
    ),
    (0, 31): (
        [1017900679, 945714881, 1208909649],
        "a13a7dd0d29eed7c4b4f1675c0757d814466983f96699159b76b31f727315ef5",
    ),
    (0, 32): (
        [3165384327, 1546599264, 3523452884],
        "40434f0606afea59cb2f06e38082ab43ea04005a12d15415464deb02962713d8",
    ),
    (0, 33): (
        [3165384327, 773299632, 880863221],
        "8d7e2fefad69126d86b6e50b8288f81cf94330f192e3167f1a8179e098807cca",
    ),
    (0, 57): (
        [13294610573684359, 2520531652831790, 45567386381557733],
        "eb774a92ee9a149dfcfaff6b03911c34b314e4dd9b6b00c2e81967fc2a9a1c68",
    ),
    (0, 58): (
        [13294610573684359, 73317859864343831, 47420643614353401],
        "a527fad18d7e8b435459d5880dafa4350401a93164e8dd7e891e5a524c9dabf8",
    ),
    (0, 62): (
        [2030907243635666567, 4490167595102535505, 2977064590581016423],
        "5fbf048ad5fa751ddefef3926bf8802f881a791ec31aa69f4476f76c101be437",
    ),
    (1, 1): (
        [1, 1, 1],
        "be0395e1382ed0d4862bd0355f11ef26e27cd3b30b73ef3aa42db4478b4b10de",
    ),
    (1, 8): (
        [167, 61, 95],
        "6d22082bd87588fdbd722544626d1779e2b255b8d6a8f981f47983f7834daeea",
    ),
    (1, 20): (
        [998823, 936709, 4100],
        "1e2c951cf600fadaeb59a21b419170bd27f68004c8c727dfa25dde20206fd7fe",
    ),
    (1, 31): (
        [811548071, 538970569, 1661318954],
        "16416974b11d7925b3271cd9ecb85a6dab2fc570b0479ac66cd5aeba83b71fc1",
    ),
    (1, 32): (
        [2959031719, 2416968932, 3099684298],
        "866335ca239ddd8ae9292d76100c2f7cbe70f52cac2f6002c835535525449605",
    ),
    (1, 33): (
        [2959031719, 5503451762, 774921074],
        "3d55002dd299b8e35ba93180377fd62de79bfea0ec6a98f495af616847c53639",
    ),
    (1, 57): (
        [4508979885456807, 136955565115368776, 28992094336226411],
        "eb2adc0366872398015718fd79f27bb85bfb5d6c48b5acf71b1cb541fc8c1fb8",
    ),
    (1, 58): (
        [4508979885456807, 284650564671468196, 79305617621984538],
        "2f216de69efce3a7889989660ed0a1d393ca64a3603422f4ae75d67f2caf8c89",
    ),
    (1, 62): (
        [1157430484492303783, 486165021538498346, 2570739274890546469],
        "1b406f89f31b4a93c9649f7cb41866dc96b69aef9f116d3d4347cd05f6823f29",
    ),
}

EXPANDERS = {
    "kernel": expand_uniform,
    "twin": expand_uniform_numpy,
    "reference": lambda seed, n, m: PRGReference(seed).uniform_vector(n, m),
    "batch": lambda seed, n, m: expand_uniform_batch(
        [seed], n, m, out=np.zeros(n, dtype=np.int64)
    ),
}


@pytest.mark.parametrize("expand", EXPANDERS.values(), ids=EXPANDERS)
@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: f"seed{c[0]}-b{c[1]}")
def test_golden_vector(case, expand):
    seed, bits = SEEDS[case[0]], case[1]
    head, digest = GOLDEN[case]
    full = expand(seed, 1000, 1 << bits)
    assert full.dtype == np.int64 and full[:3].tolist() == head
    assert hashlib.sha256(full.astype("<i8").tobytes()).hexdigest() == digest
    for length in LENGTHS:
        mask = expand(seed, length, 1 << bits)
        assert mask.dtype == np.int64 and mask.shape == (length,)
        np.testing.assert_array_equal(mask, full[:length])


@pytest.mark.parametrize("bits", [1, 8, 20, 31, 33, 57, 58, 62])
@pytest.mark.parametrize("length", [1, 255, 256, 257, 1000])
def test_a_mask_is_the_wire_unpacking_of_its_stream(bits, length):
    # One definition of "a b-bit vector as bytes", both directions: the
    # stream's first ceil(n·b/8) bytes (pad bits dropped) unpack to the
    # mask, and the mask packs back to exactly those bytes.
    seed = SEEDS[1]
    nbytes = packed_nbytes(length, bits)
    prefix = bytearray(PRGReference(seed).read(nbytes))
    pad = 8 * nbytes - length * bits
    prefix[-1] &= 0xFF >> pad
    mask = expand_uniform(seed, length, 1 << bits)
    np.testing.assert_array_equal(unpack_bits(prefix, length, bits), mask)
    packed = bytearray()
    pack_bits_into(mask, bits, packed)
    assert packed == prefix


class TestInPlaceFold:
    @given(
        seed=st.binary(min_size=1, max_size=64),  # > 55 B: only the twin runs
        bits=st.integers(1, 62),
        length=st.integers(0, 2000),
        sign=st.sampled_from([1, -1]),
        slab=st.sampled_from([256, 512, 1 << 14]),
        fill=st.integers(-(2**40), 2**40),
    )
    @settings(max_examples=150, deadline=None)
    def test_fold_is_expand_then_add_on_kernel_and_twin(
        self, seed, bits, length, sign, slab, fill
    ):
        modulus = 1 << bits
        base = np.arange(length, dtype=np.int64) * 3 + fill
        want = base + sign * PRGReference(seed).uniform_vector(length, modulus)
        np.testing.assert_array_equal(
            base + sign * expand_uniform(seed, length, modulus), want
        )
        folded = base.copy()
        assert expand_uniform(seed, length, modulus, out=folded, sign=sign) is folded
        np.testing.assert_array_equal(folded, want)
        # The twin in slabs small enough to cross several: the vector may
        # not depend on where they end.
        with mock.patch.object(prg, "_SLAB", slab):
            twin = expand_uniform_numpy(
                seed, length, modulus, out=base.copy(), sign=sign
            )
        np.testing.assert_array_equal(twin, want)

    @pytest.mark.parametrize("bits", range(1, 63))
    def test_kernel_matches_twin_across_its_slab_boundary(self, bits):
        if native.load() is None:
            pytest.skip("native kernel unavailable on this host")
        # A slab is MASK_SLAB_BLOCKS = 64 blocks: after k of them the
        # kernel has folded the whole groups of eight in 2048·k bytes and
        # carried the odd bytes into the next.
        first, second = (2048 * k // bits * 8 for k in (1, 2))
        for length in (first - 1, first, first + 1, second - 1, second, second + 1,
                       2 * second + 5):
            base = np.full(length, 7, dtype=np.int64)
            assert native.mask_fold(SEEDS[1], bits, base, -1)
            np.testing.assert_array_equal(
                base, 7 - expand_uniform_numpy(SEEDS[1], length, 1 << bits)
            )

    def test_twin_never_calls_the_mask_kernel(self):
        with mock.patch.object(native, "mask_fold", side_effect=AssertionError):
            expand_uniform_numpy(SEEDS[0], 300, 1 << 20)

    @pytest.mark.parametrize("expand", [expand_uniform, expand_uniform_numpy])
    def test_a_bad_out_or_sign_is_refused_before_anything_is_drawn(self, expand):
        n = 40
        good = np.arange(n, dtype=np.int64)
        read_only = good.copy()
        read_only.setflags(write=False)
        bad_outs = [
            good.astype(np.int32),
            good.astype(np.uint64),
            np.arange(n + 1, dtype=np.int64),
            good.reshape(n, 1).copy(),
            np.arange(2 * n, dtype=np.int64)[::2],  # strided view
            read_only,
            good.tolist(),
        ]
        with mock.patch.object(prg, "counter_stream", side_effect=AssertionError), \
                mock.patch.object(native, "mask_fold", side_effect=AssertionError):
            for out in bad_outs:
                keep = np.array(out, copy=True)
                with pytest.raises(ValueError, match="out must be"):
                    expand(SEEDS[0], n, 1 << 20, out=out, sign=1)
                np.testing.assert_array_equal(np.asarray(out), keep)
            for sign in (0, 2, -2):
                out = good.copy()
                with pytest.raises(ValueError, match="sign"):
                    expand(SEEDS[0], n, 1 << 20, out=out, sign=sign)
                np.testing.assert_array_equal(out, good)
                with pytest.raises(ValueError, match="sign"):
                    expand(SEEDS[0], n, 1 << 20, sign=sign)

    def test_a_one_element_ring_draws_no_stream(self):
        with mock.patch.object(prg, "counter_stream", side_effect=AssertionError), \
                mock.patch.object(native, "mask_fold", side_effect=AssertionError):
            assert not expand_uniform(SEEDS[0], 9, 1).any()
            out = np.arange(9, dtype=np.int64)
            expand_uniform(SEEDS[0], 9, 1, out=out, sign=-1)
            np.testing.assert_array_equal(out, np.arange(9))
        stream = PRGReference(SEEDS[0])
        assert not stream.uniform_vector(9, 1).any()
        assert stream.read(32) == PRGReference(SEEDS[0]).read(32)


class TestOnlyRingsDraw:
    """A modulus that is not ``2**b`` with ``0 ≤ b ≤ 62`` is refused by
    name at every entry point, before anything is drawn or folded."""

    @pytest.mark.parametrize("modulus", [3, 997, (1 << 20) + 17, (1 << 62) + 1, 1 << 63])
    @pytest.mark.parametrize(
        "entry",
        [
            "expand_uniform", "expand_uniform_numpy", "CounterPRG.expand",
            "PRGReference.uniform_vector", "MaskAccumulator", "MaskAccumulator.zeros",
        ],
    )
    def test_a_modulus_outside_the_rings_is_refused(self, modulus, entry):
        out = np.arange(300, dtype=np.int64) - 150
        calls = {
            "expand_uniform": lambda: expand_uniform(SEEDS[1], 300, modulus, out=out, sign=-1),
            "expand_uniform_numpy": lambda: expand_uniform_numpy(
                SEEDS[1], 300, modulus, out=out, sign=-1
            ),
            "CounterPRG.expand": lambda: COUNTER_PRG.expand(
                SEEDS[1], 300, modulus, out=out, sign=-1
            ),
            "PRGReference.uniform_vector": lambda: PRGReference(SEEDS[1]).uniform_vector(
                300, modulus
            ),
            "MaskAccumulator": lambda: MaskAccumulator(out, modulus, 2, owned=True),
            "MaskAccumulator.zeros": lambda: MaskAccumulator.zeros(300, modulus, 2),
        }
        with mock.patch.object(prg, "counter_stream", side_effect=AssertionError), \
                mock.patch.object(native, "mask_fold", side_effect=AssertionError), \
                pytest.raises(ValueError, match=f"modulus {modulus} is not a ring"):
            calls[entry]()
        np.testing.assert_array_equal(out, np.arange(300) - 150)


class TestBatch:
    def test_out_form_folds_every_signed_seed_into_one_accumulator(self):
        seeds = [bytes([i]) * 32 for i in range(5)]
        signs = [1, -1, -1, 1, -1]
        base = np.arange(777, dtype=np.int64)
        want = base.copy()
        for seed, sign in zip(seeds, signs):
            want += sign * PRGReference(seed).uniform_vector(777, 1 << 20)
        acc = base.copy()
        assert expand_uniform_batch(seeds, 777, 1 << 20, out=acc, signs=signs) is acc
        np.testing.assert_array_equal(acc, want)

    def test_signs_default_to_plus_one_and_an_empty_batch_adds_nothing(self):
        seeds = [b"a" * 32, b"b" * 32]
        acc = np.zeros(33, dtype=np.int64)
        expand_uniform_batch(seeds, 33, 1 << 33, out=acc)
        np.testing.assert_array_equal(
            acc,
            expand_uniform(seeds[0], 33, 1 << 33)
            + expand_uniform(seeds[1], 33, 1 << 33),
        )
        before = acc.copy()
        assert expand_uniform_batch([], 33, 1 << 33, out=acc) is acc
        np.testing.assert_array_equal(acc, before)

    def test_signs_must_match_seeds(self):
        acc = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError, match="one sign per seed"):
            expand_uniform_batch([b"a" * 32], 4, 1 << 20, out=acc, signs=[1, 1])
        assert not acc.any()
