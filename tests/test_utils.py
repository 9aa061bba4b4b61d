"""Utility module tests: byte codecs, derived RNGs, Zipf profiles."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils import (
    bytes_to_int,
    chunk_bytes,
    derive_rng,
    derive_seed,
    int_to_bytes,
    zipf_between,
    zipf_weights,
)


class TestByteCodecs:
    @given(value=st.integers(min_value=0, max_value=2**256))
    def test_int_roundtrip(self, value):
        assert bytes_to_int(int_to_bytes(value)) == value

    def test_zero_encodes_one_byte(self):
        assert int_to_bytes(0) == b"\x00"

    def test_fixed_length_padding(self):
        assert int_to_bytes(1, 4) == b"\x00\x00\x00\x01"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            int_to_bytes(-1)

    @given(data=st.binary(max_size=200), size=st.integers(min_value=1, max_value=40))
    def test_chunk_pack_roundtrip(self, data, size):
        chunks = chunk_bytes(data, size)
        assert b"".join(chunks) == data
        assert all(len(c) <= size for c in chunks)

    def test_chunk_zero_size_rejected(self):
        with pytest.raises(ValueError):
            chunk_bytes(b"abc", 0)


class TestDerivedRng:
    def test_same_context_same_stream(self):
        a = derive_rng("exp", 1, b"x").normal(size=8)
        b = derive_rng("exp", 1, b"x").normal(size=8)
        np.testing.assert_array_equal(a, b)

    def test_different_context_different_stream(self):
        a = derive_rng("exp", 1).normal(size=8)
        b = derive_rng("exp", 2).normal(size=8)
        assert not np.allclose(a, b)

    def test_seed_is_32_bytes(self):
        assert len(derive_seed("label", 3)) == 32

    def test_part_boundaries_matter(self):
        # ("ab", "c") and ("a", "bc") must not collide.
        assert derive_seed("ab", "c") != derive_seed("a", "bc")


class TestZipf:
    def test_weights_descend(self):
        w = zipf_weights(10)
        assert all(w[i] >= w[i + 1] for i in range(9))

    def test_weights_power_law(self):
        w = zipf_weights(5, a=1.2)
        assert w[0] == pytest.approx(1.0)
        assert w[4] == pytest.approx(5**-1.2)

    def test_between_endpoints(self):
        vals = zipf_between(8, 21.0, 210.0)
        assert vals.max() == pytest.approx(210.0)
        assert vals.min() == pytest.approx(21.0)

    def test_between_single_client(self):
        assert zipf_between(1, 21.0, 210.0)[0] == pytest.approx(210.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_between(3, 10.0, 5.0)

    def test_skew_parameter_controls_tail(self):
        flat = zipf_between(10, 1.0, 2.0, a=0.4)
        steep = zipf_between(10, 1.0, 2.0, a=3.0)
        # Steeper exponent concentrates mass near the minimum.
        assert steep[1:].mean() < flat[1:].mean()
