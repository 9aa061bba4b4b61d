"""Wire-format round-trips and malformed-input rejection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.shamir import ShamirSecretSharing
from repro.crypto.signature import SchnorrSigner, generate_signing_keypair
from repro.crypto.dh import TOY_GROUP
from repro.secagg.codec import (
    decode_advertise,
    decode_masked_input,
    decode_unmasking,
    encode_advertise,
    encode_masked_input,
    encode_unmasking,
    masked_input_nbytes,
    message_bytes,
)
from repro.secagg.types import (
    AdvertiseKeysMsg,
    MaskedInputMsg,
    SecAggConfig,
    UnmaskingMsg,
)
from repro.wire import KIND_RESPONSE, CodecError, decode_payload, encode_payload
from repro.wire.codecs import encode_payload_frame

#: ``sender u64 ∥ bits u8 ∥ count u32`` in front of the packed vector.
HEADER = 13


def _masked(values, bits, sender=3):
    return MaskedInputMsg(
        sender=sender, masked_vector=np.array(values, dtype=np.int64), bits=bits
    )


@st.composite
def ring_vectors(draw):
    """``(bits, values)`` over every width and lengths off the byte grid."""
    bits = draw(st.integers(min_value=1, max_value=62))
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << bits) - 1),
            min_size=0,
            max_size=70,
        )
    )
    return bits, values


class TestAdvertiseCodec:
    def test_roundtrip_semi_honest(self):
        msg = AdvertiseKeysMsg(sender=7, c_public=12345, s_public=67890)
        assert decode_advertise(encode_advertise(msg)) == msg

    def test_roundtrip_with_signature(self):
        sk, _ = generate_signing_keypair(TOY_GROUP)
        sig = SchnorrSigner(sk, TOY_GROUP).sign(b"keys")
        msg = AdvertiseKeysMsg(sender=7, c_public=1, s_public=2, signature=sig)
        decoded = decode_advertise(encode_advertise(msg))
        assert decoded.signature == sig

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            decode_advertise(b"\x00\x01garbage")


class TestVectorCodec:
    """The vector inside a masked input: bit-packed at the ring width."""

    @given(case=ring_vectors(), sender=st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, case, sender):
        bits, values = case
        msg = _masked(values, bits, sender)
        body = encode_masked_input(msg)
        assert len(body) == HEADER + (len(values) * bits + 7) // 8
        assert len(body) == masked_input_nbytes(len(values), bits)
        decoded = decode_masked_input(memoryview(bytes(body)))
        assert (decoded.sender, decoded.bits) == (sender, bits)
        assert decoded.masked_vector.dtype == np.int64
        np.testing.assert_array_equal(decoded.masked_vector, msg.masked_vector)

    def test_element_i_occupies_bits_i_b(self):
        # The layout itself, against Python big-int arithmetic.
        values = [0xABCDE, 0x12345, 0xFFFFF, 0x00001, 0x80000]
        body = bytes(encode_masked_input(_masked(values, 20)))
        stream = int.from_bytes(body[HEADER:], "little")
        for i, value in enumerate(values):
            assert (stream >> (20 * i)) & 0xFFFFF == value
        assert stream >> (20 * len(values)) == 0  # pad bits

    def test_truncated_rejected(self):
        body = bytes(encode_masked_input(_masked(range(11), 20)))
        for cut in range(len(body)):
            with pytest.raises(CodecError):
                decode_masked_input(body[:cut])

    def test_overlong_rejected(self):
        body = bytes(encode_masked_input(_masked(range(11), 20)))
        with pytest.raises(CodecError):
            decode_masked_input(body + b"\x00")

    def test_nonzero_pad_bits_rejected(self):
        # 3 × 20 bits = 60: the top nibble of the last byte is padding.
        body = bytearray(encode_masked_input(_masked([1, 2, 3], 20)))
        assert body[-1] >> 4 == 0
        for bit in range(4, 8):
            bad = bytearray(body)
            bad[-1] |= 1 << bit
            with pytest.raises(CodecError, match="pad bits"):
                decode_masked_input(bytes(bad))

    @pytest.mark.parametrize("bits", [0, 63, 64, 255])
    def test_width_outside_range_rejected(self, bits):
        body = bytearray(encode_masked_input(_masked([1, 2, 3], 20)))
        body[8] = bits
        with pytest.raises(CodecError, match="element width"):
            decode_masked_input(bytes(body))

    @pytest.mark.parametrize("delta", [-2, -1, 1, 2, 2**31])
    def test_count_length_mismatch_rejected(self, delta):
        body = bytearray(encode_masked_input(_masked(range(16), 20)))
        body[9:13] = (16 + delta).to_bytes(4, "big")
        with pytest.raises(CodecError):
            decode_masked_input(bytes(body))

    @pytest.mark.parametrize("bad", [-1, 1 << 20, 1 << 40])
    def test_out_of_ring_element_refused_by_the_encoder(self, bad):
        # Packing would silently truncate it; the buffer is left as found.
        out = bytearray(b"frame")
        with pytest.raises(CodecError, match="outside the ring"):
            encode_masked_input(_masked([1, bad, 3], 20), out)
        assert out == b"frame"

    def test_malformed_body_inside_a_payload_never_partially_parses(self):
        payload = bytearray(encode_payload(_masked([1, 2, 3], 20)))
        payload[-1] |= 0x80
        with pytest.raises(CodecError, match="MaskedInput"):
            decode_payload(bytes(payload))


class TestMaskedInputCodec:
    def test_roundtrip(self):
        msg = MaskedInputMsg(
            sender=3, masked_vector=np.arange(16, dtype=np.int64), bits=20
        )
        decoded = decode_masked_input(encode_masked_input(msg))
        assert decoded.sender == 3 and decoded.bits == 20
        np.testing.assert_array_equal(decoded.masked_vector, msg.masked_vector)

    def test_size_scales_with_dimension(self):
        small = MaskedInputMsg(1, np.zeros(16, dtype=np.int64), 20)
        large = MaskedInputMsg(1, np.zeros(1024, dtype=np.int64), 20)
        assert message_bytes(large) > message_bytes(small) * 30

    def test_body_is_header_plus_config_vector_bytes(self):
        # One definition of a vector's wire size: SecAggConfig.vector_bytes.
        for dimension, bits in [(16, 20), (7, 20), (1, 1), (1000, 13), (5, 62)]:
            config = SecAggConfig(threshold=2, bits=bits, dimension=dimension)
            msg = MaskedInputMsg(1, np.zeros(dimension, dtype=np.int64), bits)
            assert config.vector_bytes == -(-dimension * bits // 8)
            assert message_bytes(msg) == HEADER + config.vector_bytes
            assert len(encode_masked_input(msg)) == HEADER + config.vector_bytes

    def test_golden_frame(self):
        # The whole RESPONSE frame of a tiny masked input, byte for byte:
        # magic "DW", wire version 2, kind 0x11, body length 27;
        # payload version 2, tag 0x23, codec body length 21;
        # sender 7, bits 20, count 3; 0xABCDE ∥ 0x12345 ∥ 0xFFFFF packed
        # little-endian, top nibble of the last byte zero padding.
        frame = encode_payload_frame(
            KIND_RESPONSE, _masked([0xABCDE, 0x12345, 0xFFFFF], 20, sender=7)
        )
        assert bytes(frame).hex() == (
            "44570211" "0000001b"
            "02" "23" "00000015"
            "0000000000000007" "14" "00000003"
            "debc5a3412ffff0f"
        )

    def test_encodes_into_the_callers_buffer(self):
        out = bytearray(b"head")
        assert encode_masked_input(_masked([1, 2, 3], 20), out) is out
        assert out[:4] == b"head" and len(out) == 4 + HEADER + 8


class TestUnmaskingCodec:
    def _message(self):
        ss = ShamirSecretSharing(threshold=2)
        s_shares = ss.share(b"\x01" * 64, [1, 2, 3])
        b_shares = ss.share(b"\x02" * 32, [1, 2, 3])
        return UnmaskingMsg(
            sender=2,
            s_sk_shares={5: s_shares[2]},
            b_shares={6: b_shares[2], 7: b_shares[3]},
            revealed_seeds={1: b"\xaa" * 32, 3: b"\xbb" * 32},
        )

    def test_roundtrip(self):
        msg = self._message()
        decoded = decode_unmasking(encode_unmasking(msg))
        assert decoded.sender == msg.sender
        assert decoded.s_sk_shares == msg.s_sk_shares
        assert decoded.b_shares == msg.b_shares
        assert decoded.revealed_seeds == msg.revealed_seeds

    def test_malformed_rejected(self):
        blob = encode_unmasking(self._message())
        with pytest.raises(ValueError):
            decode_unmasking(blob[:-4])

    def test_message_bytes_dispatch(self):
        assert message_bytes(self._message()) == len(
            encode_unmasking(self._message())
        )
        with pytest.raises(TypeError):
            message_bytes(object())
