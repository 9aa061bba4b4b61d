"""Hardened encode/decode paths of the small wire bodies.

``Share`` keeps a fixed-width leaf format: an out-of-range field must
raise a descriptive ``ValueError`` naming the field — never a raw
``OverflowError`` out of ``int.to_bytes``.  The ShareKeys plaintext
(:class:`SharePayload`) is a fixed-width leaf format too, parsed against
the recipient's :class:`DealingShape`: every length but the shape's, a
wrong route and a y outside GF(p) are refused by name, for the plain
payload and the one carrying XNoise's six extras.  One client's
ShareKeys outbox (``recipient id → ciphertext``) rides the value
encoding: its decoder rejects duplicates and truncation.
"""

import dataclasses
import struct

import pytest

from repro.crypto.field import FIELD
from repro.crypto.shamir import ShamirSecretSharing, Share
from repro.secagg.types import DealingShape, SharePayload
from repro.wire import CodecError, decode_payload, encode_payload, encode_value

P = FIELD.p


def _share(**overrides) -> Share:
    base = dict(x=1, ys=(42, 7), secret_len=24)
    base.update(overrides)
    return Share(**base)


class TestEncodeShareValidation:
    def test_valid_share_roundtrips(self):
        share = _share()
        assert Share.from_bytes(share.to_bytes()) == share

    def test_oversized_y_named_in_error(self):
        share = _share(ys=(42, 1 << 128))
        with pytest.raises(ValueError, match=r"ys\[1\]"):
            share.to_bytes()

    def test_negative_y_rejected(self):
        with pytest.raises(ValueError, match=r"ys\[0\]"):
            _share(ys=(-1,)).to_bytes()

    def test_oversized_x_named_in_error(self):
        with pytest.raises(ValueError, match="'x'"):
            _share(x=1 << 64).to_bytes()

    def test_oversized_secret_len_named_in_error(self):
        with pytest.raises(ValueError, match="'secret_len'"):
            _share(secret_len=1 << 32).to_bytes()

    def test_never_a_raw_overflowerror(self):
        for bad in (
            _share(ys=(1 << 200,)),
            _share(x=1 << 70),
            _share(secret_len=1 << 40),
        ):
            try:
                bad.to_bytes()
            except ValueError:
                continue
            pytest.fail("out-of-range share field did not raise ValueError")


def _dealt(extras: int) -> SharePayload:
    """Client 1's ShareKeys plaintext for client 2 as a round deals it:
    s^SK at modp512's 64-byte secret width, the 32-byte seed b, and
    ``extras`` XNoise seed shares ``g:1 …``."""
    secrets = [bytes([7]) * 64, bytes([8]) * 32, *(bytes([k]) * 32 for k in range(extras))]
    s_sk, b, *g = ShamirSecretSharing(3).share(secrets, [1, 2, 3, 4])
    labels = [f"g:{k}" for k in range(1, extras + 1)]
    return SharePayload(1, 2, s_sk[2], b[2], {lbl: g[k][2] for k, lbl in enumerate(labels)})


def _shape(extras: int) -> DealingShape:
    return DealingShape((64, 32, *[32] * extras), tuple(f"g:{k}" for k in range(1, extras + 1)))


#: The plain payload and the one with XNoise's six extras.
DEALINGS = pytest.mark.parametrize("extras", [0, 6], ids=["plain", "x6"])


class TestSharePayloadLayout:
    @DEALINGS
    def test_is_the_route_then_every_y_at_16_bytes(self, extras):
        payload = _dealt(extras)
        ys = [y for share in payload._shares() for y in share.ys]
        assert payload.to_bytes() == struct.pack(">QQ", 1, 2) + b"".join(
            y.to_bytes(16, "big") for y in ys
        )
        assert len(ys) == 5 + 3 + 3 * extras
        assert payload.shape == _shape(extras)
        assert SharePayload.from_bytes(payload.to_bytes(), _shape(extras), 1, 2) == payload

    def test_sizes_on_many_clients(self):
        # 188 B as a value-encoded record; the 44 B it sheds are tags,
        # length prefixes, and each share's x, secret_len and chunk count.
        assert len(_dealt(0).to_bytes()) == _shape(0).nbytes == 144
        assert len(_dealt(6).to_bytes()) == _shape(6).nbytes == 432


class TestSharePayloadValidation:
    def test_out_of_range_sender_rejected(self):
        for sender in (-1, True, "1", None, 1 << 64):
            with pytest.raises(CodecError, match="not a pair of ids"):
                dataclasses.replace(_dealt(0), sender=sender).to_bytes()

    def test_out_of_range_recipient_rejected(self):
        for recipient in (-3, 1 << 64):
            with pytest.raises(CodecError, match="not a pair of ids"):
                dataclasses.replace(_dealt(0), recipient=recipient).to_bytes()

    def test_a_share_at_another_x_is_not_sent(self):
        # x is not on the wire: the recipient reads every share at its id.
        with pytest.raises(CodecError, match="carries a share at x = 3"):
            dataclasses.replace(_dealt(0), b_share=_share(x=3, ys=(1, 2), secret_len=24)).to_bytes()

    def test_a_y_outside_the_field_is_not_sent(self):
        for y in (P, 1 << 128, -1):
            bad = dataclasses.replace(_dealt(6), b_share=_share(x=2, ys=(1, y), secret_len=24))
            with pytest.raises(CodecError, match=r"y-value 6 = .* not in \[0, p\)"):
                bad.to_bytes()

    def test_a_chunk_count_its_length_does_not_need_is_not_sent(self):
        bad = dataclasses.replace(_dealt(0), b_share=_share(x=2, ys=(1,), secret_len=24))
        with pytest.raises(CodecError, match="24-byte secret has 1 chunks"):
            bad.to_bytes()

    def test_extras_need_str_labels(self):
        bad = SharePayload(1, 2, _share(x=2), _share(x=2), {7: _share(x=2)})
        with pytest.raises(CodecError, match="str labels"):
            bad.to_bytes()

    def test_duplicate_extra_label_rejected_on_decode(self):
        # Labels are not on the wire: the shape a recipient parses
        # against names each one once, and a width per label.
        with pytest.raises(ValueError, match="repeat a label"):
            DealingShape((64, 32, 32, 32), ("g:1", "g:1"))
        with pytest.raises(ValueError, match="one width per label"):
            DealingShape((64, 32, 32), ())

    @pytest.mark.parametrize(
        "fields",
        [
            ((64, 32), (64, 32, 32)),  # the recipient expects an extra
            ((64, 32, 32), (64, 32)),  # the dealer dealt one
            ((256, 32), (64, 32)),  # s^SK at another group's width
            ((64, 16), (64, 32)),  # a short seed b
            ((64, 32, 32, 32), (64, 32, 32)),  # one extra too many
        ],
    )
    def test_wrong_shape_rejected_on_decode(self, fields):
        dealt, expected = fields
        secrets = [bytes([k + 1]) * width for k, width in enumerate(dealt)]
        s_sk, b, *g = ShamirSecretSharing(2).share(secrets, [1, 2])
        labels = [f"g:{k}" for k in range(1, len(g) + 1)]
        data = SharePayload(1, 2, s_sk[2], b[2], {lbl: x[2] for lbl, x in zip(labels, g)}).to_bytes()
        shape = DealingShape(expected, tuple(f"g:{k}" for k in range(1, len(expected) - 1)))
        with pytest.raises(
            CodecError, match=f"SharePayload of {len(data)} bytes; the dealing shape"
        ):
            SharePayload.from_bytes(data, shape, 1, 2)

    @DEALINGS
    def test_every_truncation_refused_by_name(self, extras):
        data = _dealt(extras).to_bytes()
        for cut in range(len(data)):
            with pytest.raises(CodecError, match=f"of {cut} bytes; the dealing shape"):
                SharePayload.from_bytes(data[:cut], _shape(extras), 1, 2)

    @DEALINGS
    def test_every_extension_refused_by_name(self, extras):
        # One byte past the shape up to one whole extra secret past it.
        data = _dealt(extras).to_bytes()
        for more in range(1, 3 * 16 + 1):
            with pytest.raises(CodecError, match="the dealing shape"):
                SharePayload.from_bytes(data + bytes([0xA5]) * more, _shape(extras), 1, 2)

    @DEALINGS
    def test_y_equal_to_p_refused_by_name_at_every_position(self, extras):
        data = _dealt(extras).to_bytes()
        for i in range((len(data) - 16) // 16):
            at = 16 + 16 * i
            forged = data[:at] + P.to_bytes(16, "big") + data[at + 16 :]
            with pytest.raises(CodecError, match=f"y-value {i} = {P} is not in"):
                SharePayload.from_bytes(forged, _shape(extras), 1, 2)

    @DEALINGS
    def test_a_wrong_route_refused_by_name(self, extras):
        data = _dealt(extras).to_bytes()
        for sender, recipient in ((1, 3), (3, 2), (2, 1)):
            with pytest.raises(
                CodecError, match=f"routed 1 -> 2, expected {sender} -> {recipient}"
            ):
                SharePayload.from_bytes(data, _shape(extras), sender, recipient)

    @DEALINGS
    def test_an_extra_count_off_by_one_refused_by_name(self, extras):
        data = _dealt(extras).to_bytes()
        for other in (extras - 1, extras + 1):
            if other < 0:
                continue
            # The recipient expects one extra fewer or more than dealt …
            with pytest.raises(CodecError, match="the dealing shape"):
                SharePayload.from_bytes(data, _shape(other), 1, 2)
            # … or the dealer dealt one fewer or more than expected.
            with pytest.raises(CodecError, match="the dealing shape"):
                SharePayload.from_bytes(_dealt(other).to_bytes(), _shape(extras), 1, 2)


class TestShareBundles:
    """One client's ShareKeys outbox as the wire carries it: a plain
    ``recipient id → ciphertext`` dict under the value encoding."""

    def test_roundtrip(self):
        bundle = {3: b"ct-three", 1: b"ct-one", 2: b""}
        assert decode_payload(encode_payload(bundle)) == bundle

    def test_encoding_is_canonical(self):
        a = encode_payload({1: b"x", 2: b"y"})
        b = encode_payload({2: b"y", 1: b"x"})
        assert a == b

    def test_duplicate_recipient_rejected_on_decode(self):
        entry_a = encode_value(5) + encode_value(b"ct-a")
        entry_b = encode_value(5) + encode_value(b"ct-b")
        forged = encode_payload({})[:-4] + (2).to_bytes(4, "big") + entry_a + entry_b
        with pytest.raises(CodecError, match="duplicate keys"):
            decode_payload(forged)

    def test_odd_field_count_rejected(self):
        # A recipient id with no ciphertext after it.
        forged = encode_payload({})[:-4] + (1).to_bytes(4, "big") + encode_value(5)
        with pytest.raises(CodecError, match="truncated"):
            decode_payload(forged)
