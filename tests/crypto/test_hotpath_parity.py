"""Parity pins: every hot-path implementation vs its retained twin.

The perf work keeps each original implementation in-tree as an
executable specification (``PRGReference``, ``share_reference`` /
``reconstruct_reference``, ``accumulate_masks_reference``) and this
suite holds the optimized paths bit-identical to them — across call
boundaries, random shapes, odd moduli, and the guard fallbacks.  The
native kernels under those paths, each on every object and compression
path, are ``tests/test_native_matrix.py``'s.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
import pytest

from repro import native
from repro.crypto.prg import (
    PRGReference,
    counter_stream,
    expand_uniform,
    expand_uniform_batch,
)
from repro.crypto.shamir import ShamirSecretSharing
from repro.secagg.masking import (
    MaskAccumulator,
    accumulate_masks_reference,
    accumulate_signed_masks_reference,
)


class TestPRGParity:
    def test_counter_stream_bit_identical_at_random_offsets(self):
        # Seeds past 55 bytes take the Python stream on every host; the
        # stream is the same stream.
        rng = random.Random(0xC0FFEE)
        for trial in range(20):
            seed = rng.randbytes(rng.choice([16, 32, 48, 57]))
            whole = PRGReference(seed).read(32 * 160)
            for _ in range(rng.randint(1, 8)):
                ctr0, nblocks = rng.randint(0, 128), rng.choice([0, 1, 2, 3, 32])
                got = counter_stream(seed, nblocks, ctr0)
                assert isinstance(got, bytearray)
                assert got == whole[32 * ctr0 : 32 * (ctr0 + nblocks)], (trial, ctr0)

    @pytest.mark.parametrize("seed_len", [55, 56])  # kernel, then Python
    def test_counter_stream_refuses_counters_be64_cannot_name(self, seed_len):
        """ctypes would pass a negative ctr0 to the kernel as 2**64 − 1,
        and a counter past 2**64 − 1 is none the kernel's ``uint64_t``
        can name; counter_stream refuses both before either path runs,
        and a run ending on the last counter is served on either path
        (its AES counters carry into the top half)."""
        seed, top = bytes(seed_len), 1 << 64
        last = counter_stream(seed, 40, top - 40)[-32:]
        assert last == PRGReference(seed).block(top - 1)
        for nblocks, ctr0 in ((41, top - 40), (1, top), (1, -1)):
            with pytest.raises(ValueError, match="2\\*\\*64"):
                counter_stream(seed, nblocks, ctr0)

    @pytest.mark.parametrize("length", [0, 1, 3, 4, 5, 100, 1021, 4096])
    @pytest.mark.parametrize(
        "modulus",
        [1, 2, 3, 7, 1 << 20, (1 << 20) + 17, 1 << 62, (1 << 63) - 1],
    )
    def test_uniform_vector_parity(self, length, modulus):
        out_fast = expand_uniform(b"seed-a" * 5, length, modulus)
        out_ref = PRGReference(b"seed-a" * 5).uniform_vector(length, modulus)
        assert out_fast.dtype == out_ref.dtype == np.int64
        np.testing.assert_array_equal(out_fast, out_ref)

    def test_uniform_vector_parity_above_int64_fallback(self):
        # modulus > 2**63 takes the reference-style reduction branch.
        modulus = (1 << 63) + 3
        np.testing.assert_array_equal(
            expand_uniform(b"big" * 11, 33, modulus),
            PRGReference(b"big" * 11).uniform_vector(33, modulus),
        )

    def test_expand_uniform_matches_reference(self):
        np.testing.assert_array_equal(
            expand_uniform(b"z" * 32, 257, 1 << 24),
            PRGReference(b"z" * 32).uniform_vector(257, 1 << 24),
        )

    @pytest.mark.parametrize(
        "modulus", [1, 997, 1 << 20, 1 << 62, (1 << 63) + 5]
    )
    def test_expand_uniform_batch_sum_matches_reference(self, modulus):
        rng = random.Random(17)
        seeds = [rng.randbytes(32) for _ in range(5)]
        out = expand_uniform_batch(
            seeds, 123, modulus, out=np.zeros(123, dtype=np.int64)
        )
        # Raw int64 sums on both sides (they wrap alike past 2**63).
        want = np.zeros(123, dtype=np.int64)
        for seed in seeds:
            want += PRGReference(seed).uniform_vector(123, modulus)
        np.testing.assert_array_equal(out, want)

    def test_expand_uniform_long_seed_matches_reference(self):
        # Seeds longer than one padded SHA-256 block bypass the native
        # kernel; the Python stream must serve the identical one.
        seed = b"q" * 80
        np.testing.assert_array_equal(
            expand_uniform(seed, 65, 1 << 20),
            PRGReference(seed).uniform_vector(65, 1 << 20),
        )

    @pytest.mark.parametrize("bits", [1, 8, 20, 31, 32, 33, 34, 62])
    @pytest.mark.parametrize("length", [1, 7, 8, 9, 257])
    def test_ring_width_draws_match_reference(self, bits, length):
        # Either side of the b = 32/33 boundary, on every entry point.
        modulus = 1 << bits
        seed = bytes(range(32))
        want = PRGReference(seed).uniform_vector(length, modulus)
        assert want.dtype == np.int64 and int(want.max()) < modulus
        np.testing.assert_array_equal(expand_uniform(seed, length, modulus), want)
        np.testing.assert_array_equal(
            expand_uniform_batch(
                [seed], length, modulus, out=np.zeros(length, dtype=np.int64)
            ),
            want,
        )

    def test_a_ring_draw_is_a_bit_field_of_the_little_endian_stream(self):
        # Element i is bits [i·b, (i+1)·b) of the stream — b/8 bytes an
        # element, no word is cut down and thrown away.
        seed = b"w" * 32
        stream = int.from_bytes(PRGReference(seed).read(64), "little")
        for bits, count in ((20, 25), (32, 16), (33, 15), (62, 8)):
            np.testing.assert_array_equal(
                expand_uniform(seed, count, 1 << bits),
                [(stream >> (i * bits)) & ((1 << bits) - 1) for i in range(count)],
            )

    def test_non_power_of_two_modulus_stays_on_8_byte_draws(self):
        seed = b"n" * 32
        modulus = (1 << 20) + 17
        stream = PRGReference(seed).read(8 * 9)
        words = [
            int.from_bytes(stream[8 * i : 8 * i + 8], "big") for i in range(9)
        ]
        np.testing.assert_array_equal(
            expand_uniform(seed, 9, modulus), [w % modulus for w in words]
        )

    def test_stream_position_after_a_vector_is_the_next_block(self):
        # Twelve 20-bit draws are 30 bytes — one 32-byte block, not two:
        # the specification's next read continues from block 1.
        ref = PRGReference(b"p" * 32)
        np.testing.assert_array_equal(
            expand_uniform(b"p" * 32, 12, 1 << 20), ref.uniform_vector(12, 1 << 20)
        )
        assert ref.read(32) == counter_stream(b"p" * 32, 1, ctr0=1)

    def test_validation_parity(self):
        with pytest.raises(TypeError):
            PRGReference("not-bytes")
        with pytest.raises(TypeError):
            expand_uniform("not-bytes", 4, 7)
        prg = PRGReference(b"v" * 32)
        with pytest.raises(ValueError):
            prg.read(-1)
        for length, modulus in ((4, 0), (-1, 7)):
            with pytest.raises(ValueError):
                prg.uniform_vector(length, modulus)
            with pytest.raises(ValueError):
                expand_uniform(b"v" * 32, length, modulus)


class TestShamirParity:
    def test_evaluate_shares_matches_reference_on_random_polys(self):
        # Slots sized by the largest id: small cohorts, 2**64 and p − 1
        # (a coefficient of p − 1 at every degree is the widest slot).
        rng = random.Random(7)
        for trial in range(24):
            threshold = rng.randint(1, 40)
            scheme = ShamirSecretSharing(threshold)
            p = scheme.field.p
            n_chunks = rng.randint(0, 24)
            polys = [
                [p - 1 if trial % 4 == 0 else rng.randrange(p) for _ in range(threshold)]
                for _ in range(n_chunks)
            ]
            top = (1000, 1 << 64, p - 1)[trial % 3]
            ids = list(dict.fromkeys(
                [rng.randrange(1, top) for _ in range(threshold)] + [top - 1]
            ))
            assert scheme._evaluate_shares(
                polys, ids
            ) == scheme._evaluate_shares_reference(polys, ids)

    def test_reconstruct_matches_reference_on_identical_shares(self):
        rng = random.Random(11)
        for _ in range(10):
            threshold = rng.randint(2, 5)
            scheme = ShamirSecretSharing(threshold)
            secret = rng.randbytes(rng.randint(0, 64))
            shares = list(
                scheme.share([secret], list(range(1, threshold + 3)))[0].values()
            )
            rng.shuffle(shares)
            assert scheme.reconstruct(shares) == scheme.reconstruct_reference(
                shares
            )

    def test_cross_round_trips(self):
        # fast share → reference reconstruct and vice versa.
        scheme = ShamirSecretSharing(3)
        secret = b"the cross-implementation secret"
        ids = [1, 5, 9, 14]
        assert (
            scheme.reconstruct_reference(
                list(scheme.share([secret], ids)[0].values())
            )
            == secret
        )
        assert (
            scheme.reconstruct(
                list(scheme.share_reference([secret], ids)[0].values())
            )
            == secret
        )

    def test_share_reference_validation_parity(self):
        scheme = ShamirSecretSharing(3)
        for method in (scheme.share, scheme.share_reference):
            with pytest.raises(ValueError):
                method([b"s"], [1, 1, 2])
            with pytest.raises(ValueError):
                method([b"s"], [0, 1, 2])
            with pytest.raises(ValueError):
                method([b"s"], [1, 2])

    def test_lagrange_cache_leaves_single_call_behavior_unchanged(self):
        # Repeated reconstructions over the same share-holder set hit
        # the per-instance coefficient cache; results stay identical to
        # the per-call reference, and different holder sets never mix.
        scheme = ShamirSecretSharing(3)
        secrets = [b"alpha-secret", b"beta", b"\x00" * 40]
        ids = [2, 4, 6, 8]
        for secret in secrets:
            shares = list(scheme.share([secret], ids)[0].values())
            assert (
                scheme.reconstruct(shares)
                == scheme.reconstruct_reference(shares)
                == secret
            )
        assert len(scheme._lagrange_cache) == 1
        other = list(scheme.share([b"other-holders"], [1, 3, 5])[0].values())
        assert scheme.reconstruct(other) == b"other-holders"
        assert len(scheme._lagrange_cache) == 2

    def test_lagrange_cache_is_bounded(self):
        scheme = ShamirSecretSharing(2)
        scheme._LAGRANGE_CACHE_CAP = 4
        for i in range(1, 12, 2):
            shares = list(scheme.share([b"s"], [i, i + 1])[0].values())
            assert scheme.reconstruct(shares) == b"s"
        assert len(scheme._lagrange_cache) <= 4

    def test_reconstruct_many_matches_sequential_reference(self):
        rng = random.Random(29)
        scheme = ShamirSecretSharing(4)
        share_lists = []
        secrets = []
        for i in range(6):
            secret = rng.randbytes(rng.randint(1, 64))
            # Alternate between two holder sets to exercise cache reuse.
            ids = [1, 2, 3, 4, 5] if i % 2 else [6, 7, 8, 9]
            shares = list(scheme.share([secret], ids)[0].values())
            rng.shuffle(shares)
            secrets.append(secret)
            share_lists.append(shares)
        assert scheme.reconstruct_many(share_lists) == [
            scheme.reconstruct_reference(s) for s in share_lists
        ]
        assert scheme.reconstruct_many(share_lists) == secrets
        assert scheme.reconstruct_many([]) == []

    def test_reconstruct_many_fails_like_sequential(self):
        scheme = ShamirSecretSharing(3)
        good = list(scheme.share([b"ok"], [1, 2, 3])[0].values())
        with pytest.raises(ValueError):
            scheme.reconstruct_many([good, good[:2]])


class TestMaskAccumulatorParity:
    def _masks(self, rng, k, dim, modulus):
        return [
            np.asarray(
                [rng.randrange(modulus) for _ in range(dim)], dtype=np.int64
            )
            for _ in range(k)
        ]

    def test_deferred_path_matches_reference(self):
        rng = random.Random(3)
        modulus = 1 << 20
        for _ in range(8):
            dim = rng.randint(1, 64)
            k = rng.randint(0, 12)
            base = self._masks(rng, 1, dim, modulus)[0]
            masks = self._masks(rng, k, dim, modulus)
            acc = MaskAccumulator(base, modulus, n_terms=1 + k)
            assert acc._deferred
            for m in masks:
                acc.add(m)
            np.testing.assert_array_equal(
                acc.finish(),
                accumulate_masks_reference(base, masks, modulus),
            )

    def test_guard_fallback_matches_reference(self):
        # A modulus big enough that deferred summation could overflow
        # int64 must fall back to per-add reduction — same result.
        modulus = 1 << 62
        rng = random.Random(5)
        base = self._masks(rng, 1, 16, modulus)[0]
        masks = self._masks(rng, 4, 16, modulus)
        acc = MaskAccumulator(base, modulus, n_terms=5)
        assert not acc._deferred
        for m in masks:
            acc.add(m)
        np.testing.assert_array_equal(
            acc.finish(), accumulate_masks_reference(base, masks, modulus)
        )

    def test_signed_deferred_path_matches_reference(self):
        rng = random.Random(13)
        modulus = 1 << 20
        for _ in range(8):
            dim = rng.randint(1, 64)
            k = rng.randint(0, 12)
            base = self._masks(rng, 1, dim, modulus)[0]
            terms = [
                (m, rng.choice([1, -1]))
                for m in self._masks(rng, k, dim, modulus)
            ]
            acc = MaskAccumulator(base, modulus, n_terms=1 + k)
            assert acc._deferred
            for m, sign in terms:
                (acc.add if sign > 0 else acc.sub)(m)
            np.testing.assert_array_equal(
                acc.finish(),
                accumulate_signed_masks_reference(base, terms, modulus),
            )

    def test_signed_guard_fallback_matches_reference(self):
        modulus = 1 << 62
        rng = random.Random(19)
        base = self._masks(rng, 1, 16, modulus)[0]
        terms = [
            (m, sign)
            for m, sign in zip(self._masks(rng, 4, 16, modulus), [1, -1, -1, 1])
        ]
        acc = MaskAccumulator(base, modulus, n_terms=5)
        assert not acc._deferred
        for m, sign in terms:
            (acc.add if sign > 0 else acc.sub)(m)
        np.testing.assert_array_equal(
            acc.finish(),
            accumulate_signed_masks_reference(base, terms, modulus),
        )

    @pytest.mark.parametrize("modulus", [1 << 20, 1 << 62])
    def test_out_of_range_base_matches_reference(self, modulus):
        # An in-ring base joins the deferred sum unreduced; anything
        # else is reduced eagerly.  Both must equal the left fold.
        rng = random.Random(29)
        dim = 16
        terms = [
            (m, sign)
            for m, sign in zip(self._masks(rng, 4, dim, modulus), [1, -1, 1, -1])
        ]
        in_ring = self._masks(rng, 1, dim, modulus)[0]
        for base in (
            in_ring,
            in_ring - modulus,  # all negative
            in_ring + modulus,  # all above the ring
            np.where(np.arange(dim) % 2, in_ring, -in_ring - 1),  # mixed
            np.zeros(dim, dtype=np.int64),
            np.full(dim, modulus - 1, dtype=np.int64),
            np.full(dim, modulus, dtype=np.int64),
        ):
            acc = MaskAccumulator(base, modulus, n_terms=5)
            for m, sign in terms:
                (acc.add if sign > 0 else acc.sub)(m)
            got = acc.finish()
            np.testing.assert_array_equal(
                got, accumulate_signed_masks_reference(base, terms, modulus)
            )
            assert got.min() >= 0 and int(got.max()) < modulus

    @pytest.mark.parametrize(
        "modulus, n_seeds, deferred",
        [
            (1 << 20, 6, True),
            (1 << 62, 1, True),  # 2·(2⁶² − 1) < 2⁶³: the last ring with headroom
            (1 << 62, 2, False),  # 3·(2⁶² − 1) ≥ 2⁶³: per-term reduction
            (1 << 62, 6, False),
            ((1 << 20) + 17, 6, True),  # not a power of two: 64-bit word draws
        ],
    )
    def test_seed_folding_matches_reference_on_both_sides_of_the_guard(
        self, modulus, n_seeds, deferred
    ):
        # fold_seed adds the expansion in place under the guard and
        # expands-then-reduces without it: the same left fold either way.
        rng = random.Random(41)
        dim = 300  # crosses a 256-element block group
        base = self._masks(rng, 1, dim, modulus)[0]
        seeds = [(rng.randbytes(32), rng.choice([1, -1])) for _ in range(n_seeds)]
        acc = MaskAccumulator(base, modulus, n_terms=1 + n_seeds)
        assert acc._deferred is deferred
        for seed, sign in seeds:
            acc.fold_seed(seed, sign)
        terms = [
            (PRGReference(seed).uniform_vector(dim, modulus), sign)
            for seed, sign in seeds
        ]
        got = acc.finish()
        np.testing.assert_array_equal(
            got, accumulate_signed_masks_reference(base, terms, modulus)
        )
        assert got.min() >= 0 and int(got.max()) < modulus

    def test_seed_folding_mixes_with_vector_terms_and_counts_as_one(self):
        modulus = 1 << 20
        rng = random.Random(43)
        base, vector = self._masks(rng, 2, 40, modulus)
        acc = MaskAccumulator(base, modulus, n_terms=3)
        acc.fold_seed(b"s" * 32, -1)
        acc.sub(vector)
        with pytest.raises(ValueError, match="more masks"):
            acc.fold_seed(b"t" * 32, 1)
        np.testing.assert_array_equal(
            acc.finish(),
            accumulate_signed_masks_reference(
                base,
                [(PRGReference(b"s" * 32).uniform_vector(40, modulus), -1), (vector, -1)],
                modulus,
            ),
        )

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, None])
    @pytest.mark.parametrize("n_seeds", [0, 1, 7])  # 7: no worker count divides it
    @pytest.mark.parametrize(
        "modulus, deferred", [(1 << 20, True), (1 << 62, False)]
    )
    def test_fold_seeds_matches_reference_at_every_worker_count(
        self, modulus, deferred, n_seeds, workers
    ):
        # The fan-out (slabs of terms into per-worker partials, summed)
        # under the guard, the fold_seed loop without it: one left fold,
        # in the middle of add / fold_seed / sub terms.
        rng = random.Random(47)
        dim = 300
        base, added, subbed = self._masks(rng, 3, dim, modulus)
        seeds = [(rng.randbytes(32), rng.choice([1, -1])) for _ in range(n_seeds)]
        acc = MaskAccumulator(base, modulus, n_terms=4 + n_seeds)
        assert acc._deferred is deferred
        acc.add(added)
        acc.fold_seed(b"s" * 32, -1)
        acc.fold_seeds(seeds, workers)
        acc.sub(subbed)
        with pytest.raises(ValueError, match="more masks"):
            acc.add(added)  # every folded seed was counted against n_terms

        def mask(seed):
            return PRGReference(seed).uniform_vector(dim, modulus)

        terms = (
            [(added, 1), (mask(b"s" * 32), -1)]
            + [(mask(seed), sign) for seed, sign in seeds]
            + [(subbed, -1)]
        )
        np.testing.assert_array_equal(
            acc.finish(), accumulate_signed_masks_reference(base, terms, modulus)
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_over_declared_fold_seeds_refused_with_nothing_folded(self, workers):
        modulus = 1 << 20
        base = np.arange(8, dtype=np.int64)
        seeds = [(bytes([i]) * 32, -1) for i in range(3)]
        acc = MaskAccumulator(base, modulus, n_terms=3)
        with pytest.raises(ValueError, match="more masks"):
            acc.fold_seeds(seeds, workers)
        # Nothing was folded and nothing was counted: two seeds still fit.
        acc.fold_seeds(seeds[:2], workers)
        terms = [
            (PRGReference(seed).uniform_vector(8, modulus), sign)
            for seed, sign in seeds[:2]
        ]
        np.testing.assert_array_equal(
            acc.finish(), accumulate_signed_masks_reference(base, terms, modulus)
        )

    def test_an_error_in_a_fold_seeds_worker_raises_in_the_caller(self):
        acc = MaskAccumulator(np.zeros(8, dtype=np.int64), 1 << 20, n_terms=5)
        seeds = [(b"a" * 32, 1), (b"b" * 32, 1), (b"c" * 32, 1), ("not bytes", 1)]
        with pytest.raises(TypeError, match="seed must be bytes"):
            acc.fold_seeds(seeds, 2)

    @pytest.mark.timeout(60)
    def test_fold_seeds_fan_out_on_the_numpy_twin_under_thread_stress(self):
        # More workers than cores, a 1 µs switch interval, every worker
        # on the numpy twin over the Python stream.  A lost or doubled
        # update anywhere changes the sum.
        import sys
        from unittest import mock

        modulus, dim = 1 << 20, 40_000  # past two of the twin's 2**14 slabs
        rng = random.Random(53)
        base = np.arange(dim, dtype=np.int64)
        seeds = [(rng.randbytes(32), rng.choice([1, -1])) for _ in range(24)]
        serial = MaskAccumulator(base, modulus, n_terms=25)
        serial.fold_seeds(seeds, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with (
                mock.patch.object(native, "mask_fold", return_value=False),
                mock.patch.object(native, "counter_stream", return_value=None),
            ):
                fanned = MaskAccumulator(base, modulus, n_terms=25)
                fanned.fold_seeds(seeds, 8)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(fanned.finish(), serial.finish())

    def test_base_is_never_mutated(self):
        base = np.arange(8, dtype=np.int64)
        keep = base.copy()
        acc = MaskAccumulator(base, 1 << 20, n_terms=3)
        acc.add(np.ones(8, dtype=np.int64))
        acc.fold_seed(b"b" * 32, 1)
        acc.finish()
        np.testing.assert_array_equal(base, keep)

    def test_over_declared_adds_rejected(self):
        acc = MaskAccumulator(np.zeros(4, dtype=np.int64), 1 << 20, n_terms=2)
        acc.add(np.ones(4, dtype=np.int64))
        with pytest.raises(ValueError):
            acc.add(np.ones(4, dtype=np.int64))
        acc = MaskAccumulator(np.zeros(4, dtype=np.int64), 1 << 20, n_terms=2)
        acc.sub(np.ones(4, dtype=np.int64))
        with pytest.raises(ValueError):
            acc.sub(np.ones(4, dtype=np.int64))

    def test_n_terms_must_count_base(self):
        with pytest.raises(ValueError):
            MaskAccumulator(np.zeros(2, dtype=np.int64), 8, n_terms=0)

    @pytest.mark.parametrize(
        "modulus, n_terms, deferred",
        [(1 << 20, 6, True), (1 << 62, 2, True), (1 << 62, 6, False), ((1 << 20) + 17, 6, True)],
    )
    def test_an_owned_base_is_folded_into_in_place_and_equals_a_copied_one(
        self, modulus, n_terms, deferred
    ):
        # ``owned=True``: the caller's buffer *is* the sum (XNoise's
        # perturbed signal) — same left fold, no copy, any base.
        rng = random.Random(53)
        dim = 40
        ring = self._masks(rng, 1, dim, modulus)[0]
        terms = [
            (m, sign)
            for m, sign in zip(
                self._masks(rng, n_terms - 1, dim, modulus), [1, -1] * n_terms
            )
        ]
        for base in (ring, ring - modulus, np.where(np.arange(dim) % 2, ring, -ring - 1)):
            mine = base.copy()
            acc = MaskAccumulator(mine, modulus, n_terms=n_terms, owned=True)
            assert acc._deferred is deferred
            for m, sign in terms:
                (acc.add if sign > 0 else acc.sub)(m)
            got = acc.finish()
            assert got is mine
            np.testing.assert_array_equal(
                got, accumulate_signed_masks_reference(base, terms, modulus)
            )

    def test_an_owned_base_must_be_an_int64_array(self):
        for base in ([1, 2, 3], np.zeros(3, dtype=np.int32), np.zeros(3)):
            with pytest.raises(ValueError, match="owned base"):
                MaskAccumulator(base, 1 << 20, n_terms=2, owned=True)

    @pytest.mark.parametrize("bits, n_terms, deferred", [(20, 5, True), (62, 5, False)])
    def test_the_packed_door_and_exit_match_the_vector_ones(self, bits, n_terms, deferred):
        # add_packed ≡ add(unpack_bits(...)); finish_packed ≡ the strict
        # pack of finish(); zeros() ≡ a zero base — on both sides of the
        # guard.
        from repro.wire.bitpack import pack_bits_into

        modulus = 1 << bits
        rng = random.Random(59)
        dim = 77
        vectors = self._masks(rng, n_terms - 1, dim, modulus)
        streams = []
        for v in vectors:
            out = bytearray()
            pack_bits_into(v, bits, out)
            streams.append(bytes(out))
        by_vector = MaskAccumulator(np.zeros(dim, dtype=np.int64), modulus, n_terms)
        by_stream = MaskAccumulator.zeros(dim, modulus, n_terms)
        assert by_vector._deferred is by_stream._deferred is deferred
        for v, stream in zip(vectors, streams):
            by_vector.add(v)
            by_stream.add_packed(stream)
        with pytest.raises(ValueError, match="more masks added"):
            by_stream.add_packed(streams[0])
        np.testing.assert_array_equal(by_stream._acc, by_vector._acc)
        packed = by_stream.finish_packed()
        want = bytearray()
        pack_bits_into(by_vector.finish(), bits, want)
        assert packed == want
        np.testing.assert_array_equal(
            by_vector.finish(), accumulate_masks_reference(vectors[0], vectors[1:], modulus)
        )

    @pytest.mark.parametrize("bits", [20, 62])
    def test_a_malformed_stream_changes_neither_the_sum_nor_the_term_count(self, bits):
        from repro.wire.bitpack import pack_bits_into

        dim = 7  # 7·20 and 7·62 bits both leave pad bits
        good = bytearray()
        pack_bits_into(np.arange(dim, dtype=np.int64), bits, good)
        acc = MaskAccumulator.zeros(dim, 1 << bits, n_terms=3)
        acc.add_packed(good)
        before = (acc._acc.copy(), acc._remaining)
        for bad in (good[:-1], good + b"\x00", good[:-1] + bytes([good[-1] | 0x80]), None):
            with pytest.raises(ValueError):
                acc.add_packed(bad)
            np.testing.assert_array_equal(acc._acc, before[0])
            assert acc._remaining == before[1]
        acc.add_packed(good)  # the budget the refusals did not spend
        np.testing.assert_array_equal(acc.finish(), 2 * np.arange(dim))

    def test_a_general_modulus_has_no_packed_form(self):
        acc = MaskAccumulator(np.zeros(4, dtype=np.int64), 997, n_terms=2)
        with pytest.raises(ValueError, match="power-of-two"):
            acc.add_packed(bytes(5))
        with pytest.raises(ValueError, match="power-of-two"):
            acc.finish_packed()
