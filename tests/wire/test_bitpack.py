"""Ring-width bit packing: the layout, strictness, and native ≡ numpy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.wire.bitpack import (
    _pack_numpy,
    bit_fields,
    pack_bits_into,
    packed_nbytes,
    unpack_bits,
)

#: Lengths on and off every grid that matters: the byte, the 64-bit
#: window, and the numpy fallback's period (up to 64 elements).
LENGTHS = [0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000]


def _oracle(values, bits) -> bytes:
    """Element i in bits [i·b, (i+1)·b), by Python big-int arithmetic."""
    stream = 0
    for i, value in enumerate(values):
        stream |= int(value) << (i * bits)
    return stream.to_bytes(packed_nbytes(len(values), bits), "little")


def _random_vector(bits, n, seed=0):
    return np.random.default_rng([seed, bits, n]).integers(
        0, 1 << bits, size=n, dtype=np.int64
    )


class TestLayout:
    @pytest.mark.parametrize("bits", range(1, 63))
    def test_active_path_matches_the_big_int_oracle(self, bits):
        for n in LENGTHS:
            values = _random_vector(bits, n)
            out = bytearray(b"head")
            pack_bits_into(values, bits, out)
            assert out[:4] == b"head"
            assert bytes(out[4:]) == _oracle(values, bits), (bits, n)
            back = unpack_bits(memoryview(out)[4:], n, bits)
            assert back.dtype == np.int64
            np.testing.assert_array_equal(back, values)

    def test_extreme_elements_survive_every_width(self):
        for bits in range(1, 63):
            top = (1 << bits) - 1
            values = np.array([top, 0, top, top, 0, 1, top], dtype=np.int64)
            out = bytearray()
            pack_bits_into(values, bits, out)
            np.testing.assert_array_equal(unpack_bits(out, 7, bits), values)

    @given(
        bits=st.integers(1, 62),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_property(self, bits, data):
        values = data.draw(
            st.lists(st.integers(0, (1 << bits) - 1), min_size=0, max_size=150)
        )
        vector = np.array(values, dtype=np.int64)
        out = bytearray()
        pack_bits_into(vector, bits, out)
        assert bytes(out) == _oracle(values, bits)
        np.testing.assert_array_equal(unpack_bits(bytes(out), len(values), bits), vector)

    def test_non_contiguous_input_packs_like_its_copy(self):
        values = _random_vector(20, 64)[::2]
        a, b = bytearray(), bytearray()
        pack_bits_into(values, 20, a)
        pack_bits_into(values.copy(), 20, b)
        assert a == b == _oracle(values, 20)


class TestNativeNumpyParity:
    """The C loops and the numpy fallback emit the same bytes."""

    @pytest.fixture(autouse=True)
    def _need_native(self):
        if native.load() is None:
            pytest.skip("native kernel unavailable on this host")

    @pytest.mark.parametrize("bits", range(1, 63))
    def test_pack_and_unpack_bit_identical(self, bits):
        for n in LENGTHS:
            values = _random_vector(bits, n, seed=1)
            out = bytearray()
            pack_bits_into(values, bits, out)  # native
            assert bytes(_pack_numpy(values, bits)) == bytes(out), (bits, n)
            stream = np.frombuffer(bytes(out), dtype=np.uint8)
            np.testing.assert_array_equal(
                bit_fields(stream, n, bits), unpack_bits(out, n, bits)
            )

    def test_fallback_reads_an_unaligned_frame_slice(self):
        values = _random_vector(20, 48)  # 120 bytes: whole fallback rows
        frame = bytearray(b"xyz")  # odd offset: the stream is unaligned
        pack_bits_into(values, 20, frame)
        stream = np.frombuffer(frame, dtype=np.uint8, offset=3)
        np.testing.assert_array_equal(bit_fields(stream, 48, 20), values)


class TestStrictness:
    @pytest.mark.parametrize("bits", [0, -1, 63, 64])
    def test_width_outside_range_refused_both_ways(self, bits):
        with pytest.raises(ValueError, match="element width"):
            pack_bits_into(np.zeros(3, dtype=np.int64), bits, bytearray())
        with pytest.raises(ValueError, match="element width"):
            unpack_bits(b"\x00", 1, bits)

    @pytest.mark.parametrize("bad", [-1, 1 << 20, (1 << 62) + 5])
    def test_out_of_ring_element_refused_and_buffer_restored(self, bad):
        out = bytearray(b"keep")
        with pytest.raises(ValueError, match="outside the ring"):
            pack_bits_into(np.array([5, bad, 7], dtype=np.int64), 20, out)
        assert out == b"keep"
        out += b"!"  # the buffer export was released: still resizable

    def test_two_dimensional_input_refused(self):
        with pytest.raises(ValueError, match="1-D"):
            pack_bits_into(np.zeros((2, 2), dtype=np.int64), 20, bytearray())

    def test_wrong_length_refused(self):
        out = bytearray()
        pack_bits_into(_random_vector(20, 11), 20, out)
        for data in (bytes(out[:-1]), bytes(out) + b"\x00", b""):
            with pytest.raises(ValueError, match="does not hold"):
                unpack_bits(data, 11, 20)

    def test_every_pad_bit_is_checked(self):
        out = bytearray()
        pack_bits_into(np.array([1, 2, 3], dtype=np.int64), 20, out)  # 4 pad bits
        for bit in range(4, 8):
            bad = bytearray(out)
            bad[-1] |= 1 << bit
            with pytest.raises(ValueError, match="pad bits"):
                unpack_bits(bytes(bad), 3, 20)

    def test_every_unpacked_element_is_in_ring(self):
        rng = np.random.default_rng(5)
        for bits in (1, 7, 20, 33, 62):
            n = 64  # n·bits is a multiple of 8: any byte string is a valid stream
            stream = rng.bytes(packed_nbytes(n, bits))
            values = unpack_bits(stream, n, bits)
            assert values.min() >= 0 and int(values.max()) < 1 << bits
