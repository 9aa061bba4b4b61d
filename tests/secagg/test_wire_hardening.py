"""Hardened encode/decode paths of the small wire bodies.

``Share`` keeps a fixed-width leaf format: an out-of-range field must
raise a descriptive ``ValueError`` naming the field — never a raw
``OverflowError`` out of ``int.to_bytes``.  The ShareKeys plaintext
(:class:`SharePayload`) and one client's ShareKeys outbox (``recipient
id → ciphertext``) ride the value encoding: its decoder rejects
duplicates and truncation, the record check adds types and ranges.
"""

import pytest

from repro.crypto.shamir import Share
from repro.secagg.types import SharePayload
from repro.wire import CodecError, decode_payload, encode_payload, encode_value


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


class TestSharePayloadValidation:
    def test_out_of_range_sender_rejected(self):
        for sender in (-1, True, "1", None):
            with pytest.raises(CodecError, match="not a pair of ids"):
                SharePayload(sender, 2, _share(), _share()).to_bytes()

    def test_out_of_range_recipient_rejected(self):
        with pytest.raises(CodecError, match="not a pair of ids"):
            SharePayload(1, -3, _share(), _share()).to_bytes()

    def test_duplicate_extra_label_rejected_on_decode(self):
        good = SharePayload(1, 2, _share(), _share(), {"g:1": _share()}).to_bytes()
        entry = encode_value("g:1") + encode_value(_share())
        assert good.endswith((1).to_bytes(4, "big") + entry)
        forged = good[: -len(entry) - 4] + (2).to_bytes(4, "big") + entry + entry
        with pytest.raises(CodecError, match="duplicate keys"):
            SharePayload.from_bytes(forged)

    @pytest.mark.parametrize(
        "fields",
        [
            (1, 2, _share(), b"not a share", {}),
            (1, 2, _share(), _share(), {7: _share()}),
            (1, 2, _share(), _share(), {"g:1": b"not a share"}),
            (1, 2, _share(), _share(), [("g:1", _share())]),
            (1, 2, _share(), _share()),
        ],
    )
    def test_wrong_shape_rejected_on_decode(self, fields):
        with pytest.raises(CodecError):
            SharePayload.from_bytes(encode_value(fields))


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
