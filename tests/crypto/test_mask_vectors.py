"""Golden mask vectors: what a mask seed expands to is pinned.

Over a ring ``2**b`` element *i* of ``expand_uniform(seed, n, 2**b)`` is
bits ``[i·b, (i+1)·b)`` of ``SHA256(seed ∥ be64(ctr))`` read as the wire's
little-endian bit stream — protocol semantics since wire version 5.  The
vectors below were computed from hashlib and Python integers alone
(first three elements, SHA-256 of the 1000-element vector as
little-endian int64) and must come out of the C kernel, the numpy twin
and ``PRGReference`` alike, at every length (a shorter mask is a
prefix of a longer one), whatever slab either loop works in.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.crypto import prg
from repro.crypto.prg import (
    PRGReference,
    expand_uniform,
    expand_uniform_batch,
    expand_uniform_reference,
)
from repro.wire.bitpack import pack_bits_into, packed_nbytes, unpack_bits

SEEDS = (bytes(32), bytes(range(32)))
LENGTHS = (0, 1, 255, 256, 257, 1000)

GOLDEN = {
    (0, 1): (
        [0, 0, 1],
        "86960d59da9722225e580bee1d157df3d49a859d1c3e20370e173efcdb0d555b",
    ),
    (0, 8): (
        [44, 52, 206],
        "62f872f0ca7f82bc6ad61e8c5617884e06b6caccac7a9c27a681562de99377c2",
    ),
    (0, 20): (
        [930860, 991708, 820027],
        "f8d70b1894f0f27b2668037f48c1ff75be1e26ab1de70859145a01d61cd425c8",
    ),
    (0, 31): (
        [500053036, 419854308, 2091580778],
        "54cb9599162bd3ddb2cecd0a29bd281081a91218e085883a06225cddf5be6d0a",
    ),
    (0, 32): (
        [500053036, 2357410802, 2133507930],
        "f7ee06ee70e93c95b8b14e538ee2ef768eeb13916c3334e552a2abd19a4ce117",
    ),
    (0, 33): (
        [500053036, 5473672697, 4828344278],
        "c4cf51dfd11ddbc852b16646f89d328cf2d8c33e0657301727ac3fce840e20cf",
    ),
    (0, 57): (
        [36939133017273388, 7795810529946950, 126792792578255091],
        "6a1b2410a0c5ccfc50ff70d1a3e5dc8bf92435e00d4d57c4f1f0d8fcd9d30b52",
    ),
    (0, 58): (
        [36939133017273388, 220070687378757283, 283899777277311548],
        "449d7dafff8ddbb04c37795e526ab77237b9473f563fd19b580c59d35e4fd284",
    ),
    (0, 62): (
        [901630261472408620, 1094618328530091370, 1324041374045072698],
        "0f49b1516236279f5ecc1f742879984bbe81177ebb01ee5075c9decc908c676c",
    ),
    (1, 1): (
        [1, 0, 0],
        "0495d931a36db9fb5fdd5cc30222945a6fe1689ff390b2270b62a2782c497afc",
    ),
    (1, 8): (
        [169, 214, 229],
        "8b79cf8f461156e009823baea8a22786f829f995993d4ced95aae4f78e97208d",
    ),
    (1, 20): (
        [382633, 167950, 886842],
        "099030cb0bdfd5126bc15b9a14d1c81a424280a143ff7ea34f7a2863047e7060",
    ),
    (1, 31): (
        [15062697, 2064675922, 1334521058],
        "d7848a67eba72affa0301d7733e1c9a0bce8da2c04d0dc9de1ecdd81c0f4c096",
    ),
    (1, 32): (
        [15062697, 3179821609, 333630264],
        "6d3999df1e5649850041279b22851fc196f94fbd6a625ddd1791facfd1cfb57e",
    ),
    (1, 33): (
        [4310029993, 1589910804, 83407566],
        "2eca8694f673c25e89510e5bc67bf0b8d1160f6296372bfba9a078fc52371918",
    ),
    (1, 57): (
        [110402138653709993, 125370756550204510, 131907625827895277],
        "4efc3e9b5b5a11f5ac9dc56c2295f9603a2003444fb7d8e3082bbbc967ac3a7f",
    ),
    (1, 58): (
        [110402138653709993, 134742972313030191, 32976906456973819],
        "e9e2fa4b0971b74c4dd4460995306219a08773ccf0cab70c5c2f243eaa924873",
    ),
    (1, 62): (
        [4433857780929386153, 4530035461649542370, 1342201504997255361],
        "90b238aa24ccc4273c66fd878d87cb7c785d469fb34b8381e0c8a927eb1d41e0",
    ),
}

EXPANDERS = {
    "kernel": expand_uniform,
    "twin": expand_uniform_reference,
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
        seed=st.binary(min_size=1, max_size=64),  # > 47 B: only the twin runs
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
            twin = expand_uniform_reference(
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
                base, 7 - expand_uniform_reference(SEEDS[1], length, 1 << bits)
            )

    def test_twin_never_calls_the_mask_kernel(self):
        with mock.patch.object(native, "mask_fold", side_effect=AssertionError):
            expand_uniform_reference(SEEDS[0], 300, 1 << 20)

    @pytest.mark.parametrize("expand", [expand_uniform, expand_uniform_reference])
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


class TestOtherModuli:
    """Everything that is not ``2**b`` with ``b ≤ 62`` keeps one reduced
    big-endian 64-bit word per element."""

    @pytest.mark.parametrize("modulus", [3, 997, (1 << 20) + 17, (1 << 62) + 1, 1 << 63])
    @pytest.mark.parametrize("expand", [expand_uniform, expand_uniform_reference])
    def test_word_draws_fresh_and_in_place(self, modulus, expand):
        seed = SEEDS[1]
        stream = PRGReference(seed).read(8 * 300)
        words = np.array(
            [int.from_bytes(stream[8 * i : 8 * i + 8], "big") % modulus for i in range(300)],
            dtype=np.int64,
        )
        np.testing.assert_array_equal(expand(seed, 300, modulus), words)
        np.testing.assert_array_equal(
            PRGReference(seed).uniform_vector(300, modulus), words
        )
        out = np.arange(300, dtype=np.int64) - 150
        with mock.patch.object(native, "mask_fold", side_effect=AssertionError):
            expand(seed, 300, modulus, out=out, sign=-1)
        np.testing.assert_array_equal(out, np.arange(300) - 150 - words)


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
