"""Ring-width bit packing: the layout, strictness and the fused pair's contract.

The C loops against the numpy twin, at every width and every lane, load
and slab edge, on every object, are ``tests/test_native_matrix.py``'s.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.wire.bitpack import (
    _SLAB,
    bit_fields,
    pack_bits_into,
    pack_low_bits_into,
    packed_nbytes,
    packed_stream,
    unpack_add,
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

    def test_fallback_reads_an_unaligned_frame_slice(self):
        values = _random_vector(20, 48)  # 120 bytes: whole fallback rows
        frame = bytearray(b"xyz")  # odd offset: the stream is unaligned
        pack_bits_into(values, 20, frame)
        stream = np.frombuffer(frame, dtype=np.uint8, offset=3)
        np.testing.assert_array_equal(bit_fields(stream, 48, 20), values)

    def test_non_contiguous_input_packs_like_its_copy(self):
        values = _random_vector(20, 64)[::2]
        a, b = bytearray(), bytearray()
        pack_bits_into(values, 20, a)
        pack_bits_into(values.copy(), 20, b)
        assert a == b == _oracle(values, 20)


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


def _deferred_sum(bits, n, seed=2):
    """What a ``MaskAccumulator`` holds before it reduces: signed, wide."""
    return np.random.default_rng([seed, bits, n]).integers(
        -(1 << 62), 1 << 62, size=n, dtype=np.int64
    )


class TestFusedPair:
    """``pack_low_bits_into`` ≡ ``% 2**b`` + ``pack_bits_into`` and
    ``unpack_add`` ≡ ``unpack_bits`` + ``+=``, and what either refuses.
    Both kernels at every width, on every object, against the bit-stream
    oracle, are ``tests/test_native_matrix.py``'s."""

    def test_the_twins_work_slab_by_slab_across_slab_boundaries(self):
        # 2 slabs and a ragged end, at a width whose slabs end off the
        # byte grid of nothing (a slab is a multiple of 64 elements).
        n = 2 * _SLAB + 77
        for bits in (20, 33):
            sums = _deferred_sum(bits, n)
            plain = bytearray()
            pack_bits_into(sums & ((1 << bits) - 1), bits, plain)
            with native.twins_only():
                out = bytearray()
                pack_low_bits_into(sums, bits, out)
                total = unpack_add(bytes(plain), bits, np.ones(n, dtype=np.int64))
            assert out == plain
            np.testing.assert_array_equal(total, 1 + unpack_bits(plain, n, bits))

    @given(bits=st.integers(1, 62), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_masking_equals_modulo_for_every_signed_sum(self, bits, data):
        # The satellite's claim, pinned: & (2**b − 1) is % 2**b on int64,
        # negative sums included — in numpy and in the packer.
        values = data.draw(
            st.lists(st.integers(-(2**63), 2**63 - 1), min_size=0, max_size=40)
        )
        vector = np.array(values, dtype=np.int64)
        reduced = vector % (1 << bits)
        np.testing.assert_array_equal(vector & ((1 << bits) - 1), reduced)
        assert [int(v) for v in reduced] == [v % (1 << bits) for v in values]
        out = bytearray()
        pack_low_bits_into(vector, bits, out)
        assert bytes(out) == _oracle(reduced, bits)

    @pytest.mark.parametrize("twin", [False, True])
    def test_a_refused_stream_leaves_the_sum_untouched(self, twin):
        stream = bytearray()
        pack_bits_into(_random_vector(20, 11), 20, stream)  # 220 bits: 4 pad bits
        start = np.arange(11, dtype=np.int64)
        total = start.copy()
        with native.twins_only() if twin else contextlib.nullcontext():
            for bad in (bytes(stream[:-1]), bytes(stream) + b"\x00", b""):
                with pytest.raises(ValueError, match="does not hold"):
                    unpack_add(bad, 20, total)
            with pytest.raises(ValueError, match="pad bits"):
                unpack_add(bytes(stream[:-1]) + bytes([stream[-1] | 0x40]), 20, total)
            with pytest.raises(ValueError, match="element width"):
                unpack_add(bytes(stream), 63, total)
            with pytest.raises(ValueError, match="byte buffer"):
                unpack_add([0] * len(stream), 20, total)
        np.testing.assert_array_equal(total, start)

    @pytest.mark.parametrize(
        "out",
        [
            np.zeros(4, dtype=np.int32),
            np.zeros((2, 2), dtype=np.int64),
            np.zeros(8, dtype=np.int64)[::2],
            [0, 0, 0, 0],
        ],
    )
    def test_unpack_add_refuses_anything_but_a_plain_int64_vector(self, out):
        with pytest.raises(ValueError, match="int64 vector"):
            unpack_add(bytes(10), 20, out)

    def test_packed_stream_is_a_view_not_a_copy(self):
        frame = bytearray(b"xyz")
        pack_bits_into(_random_vector(20, 8), 20, frame)
        stream = packed_stream(memoryview(frame)[3:], 8, 20)
        assert stream.base is not None and not stream.flags.owndata
        frame[3] ^= 0xFF
        assert stream[0] == frame[3]


#: SHA-256 of the RESPONSE frame the *parent* tree (584bc45: int64
#: accumulator → ``finish()`` → ``%=`` → strict pack) emitted for a
#: client that folded ``terms`` fixed seeds into a fixed signed base:
#: ``(bits, dimension, terms) → digest``.  Never regenerate from the
#: tree under test — the frame only moves if the wire format does.
PARENT_FRAMES = {
    (20, 4099, 5): "7d66203b5814c4948daf4070aec44bd8c2ddc6b45b99daf6b366256e1c752ce1",
    (1, 65, 3): "4ab7255a08e0d5e476cdb24d68ee0470a4765657a03b660e1d6750bacd71509e",
    (13, 64, 4): "5ae2589ecdc8ddcf45137c25aa8c0aa2bf25761f8260322513d17618bc3e805f",
    (33, 1031, 6): "86a3387de4224382d2cde5bc49f9bec51edcb6562f8fe47ae1a8de6f6d3612ee",
    (57, 9, 2): "a0a85f70455f15ff883708b5293d217a4e697fe2781d44014911a78112ce7d65",
    (58, 63, 7): "a01b3b1a0bb472eaf6be6f34f685db5b84b022aa4ac907b9869f31ecc730e354",
    (62, 7, 3): "a825b18cb9705f1c999ac058943a35397b78cdb60e1a6cd037f28dfc90890d1a",
}


class TestTheFrameAClientEmitsIsTheParents:
    @pytest.mark.parametrize("twin", [False, True])
    @pytest.mark.parametrize("shape", sorted(PARENT_FRAMES))
    def test_golden_frames(self, shape, twin):
        import hashlib

        from repro.secagg.masking import MaskAccumulator
        from repro.secagg.types import MaskedInputMsg
        from repro.wire import KIND_RESPONSE, decode_payload
        from repro.wire.codecs import encode_payload_frame

        bits, dim, terms = shape
        rng = np.random.default_rng([24, bits, dim])
        base = rng.integers(-(1 << 40), 1 << 40, size=dim, dtype=np.int64)
        with native.twins_only() if twin else contextlib.nullcontext():
            acc = MaskAccumulator(base, 1 << bits, n_terms=1 + terms)
            for k in range(terms):
                acc.fold_seed(bytes([k + 1]) * 32, 1 if k % 2 else -1)
            msg = MaskedInputMsg(sender=7, bits=bits, count=dim, packed=acc.finish_packed())
            frame = encode_payload_frame(KIND_RESPONSE, msg)
        assert hashlib.sha256(frame).hexdigest() == PARENT_FRAMES[shape]
        # … and the coordinator's fold of that frame is the vector it carried.
        received = decode_payload(bytes(frame[8:]))
        total = MaskAccumulator.zeros(dim, 1 << bits, n_terms=2)
        total.add_packed(received.packed)
        np.testing.assert_array_equal(total.finish(), msg.masked_vector)
