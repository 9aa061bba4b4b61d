"""The reference PRG: determinism, stream disjointness, and vector expansion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.prg import PRGReference


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = PRGReference(b"seed-1" * 4).read(1000)
        b = PRGReference(b"seed-1" * 4).read(1000)
        assert a == b

    def test_different_seeds_differ(self):
        a = PRGReference(b"seed-a").read(64)
        b = PRGReference(b"seed-b").read(64)
        assert a != b

    def test_sequential_reads_are_disjoint_continuation(self):
        prg = PRGReference(b"stream")
        first = prg.read(40)
        second = prg.read(40)
        combined = PRGReference(b"stream").read(96)
        # 40 bytes consumes two blocks (64 bytes of block material), so the
        # second read starts at block 2 of the keystream.
        assert first == combined[:40]
        assert first != second

    @given(n=st.integers(min_value=0, max_value=300))
    @settings(max_examples=30)
    def test_read_length_exact(self, n):
        assert len(PRGReference(b"x").read(n)) == n

    def test_negative_read_rejected(self):
        with pytest.raises(ValueError):
            PRGReference(b"x").read(-1)

    def test_non_bytes_seed_rejected(self):
        with pytest.raises(TypeError):
            PRGReference("string-seed")  # type: ignore[arg-type]


class TestUniformVector:
    def test_shape_dtype_and_range(self):
        vec = PRGReference(b"v").uniform_vector(1000, 1 << 20)
        assert vec.shape == (1000,)
        assert vec.dtype == np.int64
        assert vec.min() >= 0
        assert vec.max() < 1 << 20

    def test_deterministic(self):
        a = PRGReference(b"v").uniform_vector(128, 1 << 10)
        b = PRGReference(b"v").uniform_vector(128, 1 << 10)
        np.testing.assert_array_equal(a, b)

    def test_roughly_uniform(self):
        # Mean of U[0, R) is R/2; 20k samples keep the error tiny.
        modulus = 1 << 16
        vec = PRGReference(b"u").uniform_vector(20_000, modulus)
        assert abs(vec.mean() - modulus / 2) < modulus * 0.02

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            PRGReference(b"x").uniform_vector(4, 0)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            PRGReference(b"x").uniform_vector(-1, 16)
