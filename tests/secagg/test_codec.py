"""Wire-format round-trips and malformed-input rejection."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.shamir import ShamirSecretSharing, Share
from repro.crypto.signature import SchnorrSigner, generate_signing_keypair
from repro.crypto.dh import TOY_GROUP
from repro.secagg.codec import decode_masked_input, encode_masked_input
from repro.secagg import types as secagg_types
from repro.secagg.types import (
    AdvertiseKeysMsg,
    MaskedInputMsg,
    SecAggConfig,
    SharePayload,
    UnmaskingMsg,
)
from repro.wire import (
    KIND_RESPONSE,
    CodecError,
    decode_payload,
    encode_payload,
    encode_value,
)
from repro.wire.codecs import encode_payload_frame
from repro.wire.frame import FRAME_OVERHEAD
from tests.oracles.complexity import vector_bytes

#: ``sender u64 ∥ bits u8 ∥ count u32`` in front of the packed vector.
HEADER = 13


def _masked(values, bits, sender=3):
    return MaskedInputMsg.from_vector(sender, np.array(values, dtype=np.int64), bits)


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
        msg = AdvertiseKeysMsg(sender=7, c_public=b"\x30\x39", s_public=b"\x01\x09\x32")
        assert AdvertiseKeysMsg.from_bytes(msg.to_bytes()) == msg

    def test_roundtrip_with_signature(self):
        sk, _ = generate_signing_keypair(TOY_GROUP)
        sig = SchnorrSigner(sk, TOY_GROUP).sign(b"keys")
        msg = AdvertiseKeysMsg(sender=7, c_public=b"\x01", s_public=b"\x02", signature=sig)
        assert AdvertiseKeysMsg.from_bytes(msg.to_bytes()).signature == sig

    def test_malformed_rejected(self):
        with pytest.raises(CodecError):
            AdvertiseKeysMsg.from_bytes(b"\x00\x01garbage")

    def test_empty_fields_do_not_decode_as_zeros(self):
        # The field-list decoder read four empty fields as sender 0 with
        # public keys 0.
        with pytest.raises(CodecError, match="sender b'' is not an id"):
            AdvertiseKeysMsg.from_bytes(encode_value((b"", b"", b"", b"")))
        with pytest.raises(CodecError, match="non-empty bytes"):
            AdvertiseKeysMsg.from_bytes(encode_value((0, b"", b"", None)))

    @pytest.mark.parametrize(
        "fields",
        [
            (-7, b"\x01", b"\x02", None),
            (True, b"\x01", b"\x02", None),
            (7, 1, b"\x02", None),
            (7, b"\x01", "\x02", None),
            (7, b"\x01", b"\x02", b"signature"),
            (7, b"\x01", b"\x02"),
            [7, b"\x01", b"\x02", None],
        ],
    )
    def test_wrong_shape_type_or_range_rejected(self, fields):
        with pytest.raises(CodecError):
            AdvertiseKeysMsg.from_bytes(encode_value(fields))

    def test_negative_sender_refused_by_the_encoder(self):
        # int.to_bytes used to leak an OverflowError from here.
        bad = AdvertiseKeysMsg(sender=-1, c_public=b"\x01", s_public=b"\x02")
        with pytest.raises(CodecError, match="sender -1 is not an id"):
            encode_payload(bad)

    def test_public_key_of_any_width_encodes(self):
        # A key ≥ 2**2048 overflowed the 256-byte field; the key travels
        # at whatever width its group has.
        for width in (1, 64, 256, 257, 1024):
            msg = AdvertiseKeysMsg(sender=1, c_public=b"\xff" * width, s_public=b"\x01")
            assert decode_payload(encode_payload(msg)) == msg

    def test_golden_frame(self):
        # magic "DW", wire version 6, kind 0x11, body length 32;
        # payload version 9, tag 0x22, codec body length 26; a 4-tuple
        # of int 7, bytes 12 34, bytes 00 ff, None.
        frame = encode_payload_frame(
            KIND_RESPONSE,
            AdvertiseKeysMsg(sender=7, c_public=b"\x12\x34", s_public=b"\x00\xff"),
        )
        assert bytes(frame).hex() == (
            "44570611" "00000020"
            "09" "22" "0000001a"
            "08" "00000004"
            "03" "00000001" "07"
            "06" "00000002" "1234"
            "06" "00000002" "00ff"
            "00"
        )


class TestOnlyTheRosterRecordIsMemoized:
    """An ``AdvertiseKeysMsg`` keeps its body after the first encode (the
    roster crosses to every client); nothing else does, and nothing can
    go stale."""

    @pytest.fixture
    def encodes(self, monkeypatch):
        calls = []
        real = secagg_types.encode_value
        monkeypatch.setattr(
            secagg_types, "encode_value", lambda v: calls.append(v) or real(v)
        )
        return calls

    def test_a_roster_sent_to_every_client_encodes_each_record_once(self, encodes):
        ids = range(1, 9)
        roster = {u: AdvertiseKeysMsg(u, bytes([u]) * 64, bytes([u + 1]) * 64) for u in ids}
        requests = [("share_keys", roster) for _ in ids]
        frames = [bytes(encode_payload_frame(KIND_RESPONSE, r)) for r in requests]
        assert len(encodes) == len(roster)
        for request, frame in zip(requests, frames):
            assert decode_payload(frame[FRAME_OVERHEAD:]) == request

    def test_a_replaced_record_encodes_fresh_bytes(self):
        msg = AdvertiseKeysMsg(sender=7, c_public=b"\x01", s_public=b"\x02")
        assert msg.to_bytes() is msg.to_bytes()
        sk, _ = generate_signing_keypair(TOY_GROUP)
        sig = SchnorrSigner(sk, TOY_GROUP).sign(b"keys")
        for changed in (
            dataclasses.replace(msg, signature=sig),
            dataclasses.replace(msg, sender=8),
            dataclasses.replace(msg, c_public=b"\x03"),
        ):
            assert changed.to_bytes() != msg.to_bytes()
            assert AdvertiseKeysMsg.from_bytes(changed.to_bytes()) == changed

    def test_records_with_a_dict_re_encode_a_mutation(self, encodes):
        share = Share(x=2, ys=(0xAB,), secret_len=1)
        payload = SharePayload(1, 2, share, share)
        unmasking = UnmaskingMsg(sender=1, s_sk_shares={}, b_shares={3: share})
        for message, mapping, key, parse in (
            (
                payload, payload.extra_shares, "g:1",
                lambda body: SharePayload.from_bytes(body, payload.shape, 1, 2),
            ),
            (unmasking, unmasking.b_shares, 9, UnmaskingMsg.from_bytes),
        ):
            before = message.to_bytes()
            mapping[key] = share
            after = message.to_bytes()
            assert after != before
            assert parse(after) == message
        # The ShareKeys plaintext is a leaf format, not a value encoding.
        assert len(encodes) == 2


class TestVectorCodec:
    """The vector inside a masked input: bit-packed at the ring width."""

    @given(case=ring_vectors(), sender=st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, case, sender):
        bits, values = case
        msg = _masked(values, bits, sender)
        body = encode_masked_input(msg)
        assert len(body) == HEADER + (len(values) * bits + 7) // 8
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
    def test_out_of_ring_element_cannot_be_written_down(self, bad):
        # Packing would silently truncate it, so no message carries it.
        with pytest.raises(ValueError, match="outside the ring"):
            _masked([1, bad, 3], 20)

    @pytest.mark.parametrize(
        "bits, count, packed, why",
        [
            (20, 3, bytes(7), "does not hold"),
            (20, 3, bytes(9), "does not hold"),
            (20, 4, bytes(8), "does not hold"),
            (20, 3, bytes(7) + b"\x10", "pad bits"),
            (0, 3, b"", "element width"),
            (63, 1, bytes(8), "element width"),
            (20, 3, [0] * 8, "byte buffer"),
        ],
    )
    def test_a_stream_that_would_not_decode_is_refused_by_the_encoder(
        self, bits, count, packed, why
    ):
        # What is sent is what would be accepted; the buffer is left as found.
        out = bytearray(b"frame")
        msg = MaskedInputMsg(sender=3, bits=bits, count=count, packed=packed)
        with pytest.raises(CodecError, match=why):
            encode_masked_input(msg, out)
        assert out == b"frame"

    def test_decoding_keeps_a_view_of_the_frame_not_a_copy(self):
        body = bytes(encode_masked_input(_masked(range(11), 20)))
        decoded = decode_masked_input(memoryview(body))
        assert isinstance(decoded.packed, memoryview) and decoded.packed.obj is body
        assert decoded.count == 11 and decoded.packed.nbytes == len(body) - HEADER

    def test_malformed_body_inside_a_payload_never_partially_parses(self):
        payload = bytearray(encode_payload(_masked([1, 2, 3], 20)))
        payload[-1] |= 0x80
        with pytest.raises(CodecError, match="MaskedInput"):
            decode_payload(bytes(payload))


class TestMaskedInputCodec:
    def test_roundtrip(self):
        msg = _masked(np.arange(16), 20)
        decoded = decode_masked_input(encode_masked_input(msg))
        assert decoded.sender == 3 and decoded.bits == 20
        np.testing.assert_array_equal(decoded.masked_vector, msg.masked_vector)

    def test_size_scales_with_dimension(self):
        small = _masked(np.zeros(16), 20)
        large = _masked(np.zeros(1024), 20)
        assert len(encode_value(large)) > len(encode_value(small)) * 30

    def test_body_is_header_plus_config_vector_bytes(self):
        # One definition of a vector's wire size, the complexity oracle's.
        for dimension, bits in [(16, 20), (7, 20), (1, 1), (1000, 13), (5, 62)]:
            config = SecAggConfig(threshold=2, bits=bits, dimension=dimension)
            msg = _masked(np.zeros(dimension), bits)
            assert vector_bytes(config) == -(-dimension * bits // 8)
            assert len(encode_masked_input(msg)) == HEADER + vector_bytes(config)

    def test_golden_frame(self):
        # The whole RESPONSE frame of a tiny masked input, byte for byte:
        # magic "DW", wire version 6, kind 0x11, body length 27;
        # payload version 9, tag 0x23, codec body length 21;
        # sender 7, bits 20, count 3; 0xABCDE ∥ 0x12345 ∥ 0xFFFFF packed
        # little-endian, top nibble of the last byte zero padding.
        frame = encode_payload_frame(
            KIND_RESPONSE, _masked([0xABCDE, 0x12345, 0xFFFFF], 20, sender=7)
        )
        assert bytes(frame).hex() == (
            "44570611" "0000001b"
            "09" "23" "00000015"
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
        s_shares, b_shares = ss.share([b"\x01" * 64, b"\x02" * 32], [1, 2, 3])
        return UnmaskingMsg(
            sender=2,
            s_sk_shares={5: s_shares[2]},
            b_shares={6: b_shares[2], 7: b_shares[3]},
            revealed_seeds={1: b"\xaa" * 32, 3: b"\xbb" * 32},
        )

    def test_roundtrip(self):
        msg = self._message()
        assert UnmaskingMsg.from_bytes(msg.to_bytes()) == msg

    def test_malformed_rejected(self):
        blob = self._message().to_bytes()
        with pytest.raises(CodecError):
            UnmaskingMsg.from_bytes(blob[:-4])

    def test_message_bytes_dispatch(self):
        # Every message type is its tag, length and codec body; a
        # stranger has no encoding.
        for msg in (
            self._message(),
            AdvertiseKeysMsg(sender=1, c_public=b"\x01" * 64, s_public=b"\x02" * 64),
        ):
            assert encode_value(msg)[5:] == msg.to_bytes()
        masked = _masked(range(9), 20)
        assert encode_value(masked)[5:] == encode_masked_input(masked)
        with pytest.raises(CodecError, match="no codec registered"):
            encode_value(object())

    def test_peer_named_twice_rejected(self):
        # The field-list decoder kept the second share ("last entry
        # wins"); the dict decoder refuses the body.
        share = self._message().s_sk_shares[5]
        entry = encode_value(7) + encode_value(share)
        forged = (
            encode_value((2,))[:1] + (4).to_bytes(4, "big") + encode_value(2)
            + encode_value({})[:1] + (2).to_bytes(4, "big") + entry + entry
            + encode_value({}) + encode_value({})
        )
        with pytest.raises(CodecError, match="duplicate keys"):
            UnmaskingMsg.from_bytes(forged)

    @pytest.mark.parametrize(
        "fields",
        [
            (b"\x00" * 21, {}, {}, {}),
            (-2, {}, {}, {}),
            (2, {5: b"not a share"}, {}, {}),
            (2, {}, {"5": Share(1, (2,), 3)}, {}),
            (2, {}, {-5: Share(1, (2,), 3)}, {}),
            (2, {}, {}, {1: "seed"}),
            (2, {}, {}, [(1, b"seed")]),
            (2, {}, {}),
        ],
    )
    def test_wrong_shape_type_or_range_rejected(self, fields):
        with pytest.raises(CodecError):
            UnmaskingMsg.from_bytes(encode_value(fields))

    def test_golden_frame(self):
        # Body length 86; payload version 9, tag 0x24, codec body length
        # 80; a 4-tuple of int 2, {5: Share} (tag 0x20, 30 bytes: x 2,
        # secret_len 1, one 16-byte evaluation 0xab), an empty dict,
        # {1: bytes aa bb}.
        msg = UnmaskingMsg(
            sender=2,
            s_sk_shares={5: Share(x=2, ys=(0xAB,), secret_len=1)},
            b_shares={},
            revealed_seeds={1: b"\xaa\xbb"},
        )
        assert bytes(encode_payload_frame(KIND_RESPONSE, msg)).hex() == (
            "44570611" "00000056"
            "09" "24" "00000050"
            "08" "00000004"
            "03" "00000001" "02"
            "0b" "00000001"
            "03" "00000001" "05"
            "20" "0000001e"
            "0000000000000002" "00000001" "0001"
            "000000000000000000000000000000ab"
            "0b" "00000000"
            "0b" "00000001"
            "03" "00000001" "01"
            "06" "00000002" "aabb"
        )
