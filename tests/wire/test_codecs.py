"""Codec layer: round-trip properties for every registered codec plus
adversarial decoding (truncation, garbage, versions, duplicates)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.dh import TOY_GROUP
from repro.crypto.shamir import ShamirSecretSharing, Share
from repro.crypto.signature import (
    SchnorrSignature,
    SchnorrSigner,
    generate_signing_keypair,
)
from repro.secagg.types import AdvertiseKeysMsg, MaskedInputMsg, UnmaskingMsg
from repro.wire import (
    CodecError,
    PAYLOAD_VERSION,
    decode_error,
    decode_payload,
    encode_error,
    encode_payload,
    encode_value,
    registered_codecs,
)
from repro.wire.codecs import decode_whole_value

# ---------------------------------------------------------------------------
# Structural value round-trips (property-based)
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.floats(allow_nan=False),
    st.text(max_size=24),
    st.binary(max_size=48),
)
_hashables = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.text(max_size=12),
    st.binary(max_size=12),
)
_payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.sets(_hashables, max_size=5),
        st.sets(_hashables, max_size=5).map(frozenset),
        st.dictionaries(_hashables, children, max_size=5),
    ),
    max_leaves=20,
)


class TestStructuralRoundTrip:
    @given(payload=_payloads)
    @settings(max_examples=150)
    def test_roundtrip(self, payload):
        assert decode_payload(encode_payload(payload)) == payload

    @given(payload=_payloads)
    @settings(max_examples=50)
    def test_encoding_is_canonical(self, payload):
        """Equal payloads encode identically (containers are sorted)."""
        once = encode_payload(payload)
        again = encode_payload(decode_payload(once))
        assert once == again

    def test_dict_order_does_not_matter(self):
        a = encode_payload({1: "a", 2: "b", 3: "c"})
        b = encode_payload({3: "c", 1: "a", 2: "b"})
        assert a == b

    @given(
        arr=st.lists(
            st.integers(min_value=-(2**62), max_value=2**62), max_size=32
        )
    )
    @settings(max_examples=50)
    def test_ndarray_int64_roundtrip(self, arr):
        v = np.array(arr, dtype=np.int64)
        out = decode_payload(encode_payload(v))
        assert out.dtype == v.dtype
        np.testing.assert_array_equal(out, v)

    @given(
        arr=st.lists(st.floats(allow_nan=False), min_size=1, max_size=16),
        shape2=st.booleans(),
    )
    @settings(max_examples=50)
    def test_ndarray_float_and_2d_roundtrip(self, arr, shape2):
        v = np.array(arr, dtype=np.float64)
        if shape2:
            v = v.reshape(1, -1)
        out = decode_payload(encode_payload(v))
        assert out.shape == v.shape and out.dtype == v.dtype
        np.testing.assert_array_equal(out, v)

    def test_numpy_scalars_canonicalize(self):
        assert decode_payload(encode_payload(np.int64(-7))) == -7
        assert decode_payload(encode_payload(np.float64(0.5))) == 0.5
        assert decode_payload(encode_payload(np.bool_(True))) is True

    def test_big_int_dh_key_sized(self):
        key = (1 << 2047) + 12345
        assert decode_payload(encode_payload(key)) == key

    def test_object_dtype_refused(self):
        with pytest.raises(CodecError):
            encode_payload(np.array([object()]))

    def test_unregistered_type_refused(self):
        class Mystery:
            pass

        with pytest.raises(CodecError, match="no codec registered"):
            encode_payload(Mystery())


# ---------------------------------------------------------------------------
# Registered (typed) codec round-trips — one case per registry entry
# ---------------------------------------------------------------------------


def _random_share(rng) -> Share:
    ss = ShamirSecretSharing(2)
    shares = ss.share([rng.bytes(24)], [1, 2, 3])[0]
    return shares[int(rng.integers(1, 4))]


def _random_signature(rng) -> SchnorrSignature:
    sk, _ = generate_signing_keypair(TOY_GROUP)
    return SchnorrSigner(sk, TOY_GROUP).sign(rng.bytes(8))


def _sample_payloads(seed: int) -> dict[type, object]:
    """One random instance per registered codec type."""
    rng = np.random.default_rng(seed)
    share = _random_share(rng)
    sig = _random_signature(rng)
    return {
        Share: share,
        SchnorrSignature: sig,
        AdvertiseKeysMsg: AdvertiseKeysMsg(
            sender=int(rng.integers(1, 99)),
            c_public=rng.bytes(64),
            s_public=rng.bytes(64),
            signature=sig if seed % 2 else None,
        ),
        MaskedInputMsg: MaskedInputMsg.from_vector(
            int(rng.integers(1, 99)),
            rng.integers(0, 2**16, size=8).astype(np.int64),
            16,
        ),
        UnmaskingMsg: UnmaskingMsg(
            sender=int(rng.integers(1, 99)),
            s_sk_shares={2: share},
            b_shares={3: _random_share(rng)},
            revealed_seeds={1: rng.bytes(32)},
        ),
    }


def _equal(a, b) -> bool:
    if isinstance(a, MaskedInputMsg):
        return (a.sender, a.bits) == (b.sender, b.bits) and np.array_equal(
            a.masked_vector, b.masked_vector
        )
    return a == b


class TestRegisteredCodecs:
    def test_registry_covers_the_protocol_payload_types(self):
        tags = registered_codecs()
        names = {cls.__name__ for cls in tags}
        assert {
            "Share",
            "SchnorrSignature",
            "AdvertiseKeysMsg",
            "MaskedInputMsg",
            "UnmaskingMsg",
        } <= names
        assert len(set(tags.values())) == len(tags)  # tags are unique

    @pytest.mark.parametrize("seed", range(5))
    def test_every_registered_codec_roundtrips(self, seed):
        samples = _sample_payloads(seed)
        assert set(samples) >= set(registered_codecs())
        for cls, payload in samples.items():
            decoded = decode_payload(encode_payload(payload))
            assert type(decoded) is cls
            assert _equal(payload, decoded), cls.__name__

    @pytest.mark.parametrize("seed", range(3))
    def test_truncation_rejected_for_every_codec(self, seed):
        for cls, payload in _sample_payloads(seed).items():
            encoded = encode_payload(payload)
            for cut in range(1, len(encoded)):
                with pytest.raises(ValueError):
                    decode_payload(encoded[:cut])

    def test_trailing_garbage_rejected_for_every_codec(self):
        for cls, payload in _sample_payloads(0).items():
            with pytest.raises(CodecError, match="trailing garbage"):
                decode_payload(encode_payload(payload) + b"\x00")


_ids = st.integers(min_value=0, max_value=2**64)
_shares = st.builds(
    Share,
    x=st.integers(0, 2**64 - 1),
    ys=st.lists(st.integers(0, 2**128 - 1), max_size=4).map(tuple),
    secret_len=st.integers(0, 2**32 - 1),
)
_signatures = st.builds(
    SchnorrSignature, e=st.integers(0, 2**256 - 1), s=st.integers(0, 2**2048 - 1)
)
#: One strategy per small registered codec (the masked input, the one
#: bulk codec, has its own suite in tests/secagg/test_codec.py).
_small_messages = {
    Share: _shares,
    SchnorrSignature: _signatures,
    AdvertiseKeysMsg: st.builds(
        AdvertiseKeysMsg,
        sender=_ids,
        c_public=st.binary(min_size=1, max_size=70),
        s_public=st.binary(min_size=1, max_size=70),
        signature=st.none() | _signatures,
    ),
    UnmaskingMsg: st.builds(
        UnmaskingMsg,
        sender=_ids,
        s_sk_shares=st.dictionaries(_ids, _shares, max_size=3),
        b_shares=st.dictionaries(_ids, _shares, max_size=3),
        revealed_seeds=st.dictionaries(_ids, st.binary(max_size=32), max_size=3),
    ),
}


class TestSmallCodecsProperty:
    def test_every_small_registered_codec_has_a_strategy(self):
        assert set(_small_messages) == set(registered_codecs()) - {MaskedInputMsg}

    @given(message=st.one_of(*_small_messages.values()))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_and_every_strict_prefix_fails(self, message):
        encoded = encode_value(message)
        assert _equal(message, decode_whole_value(encoded))
        for cut in range(len(encoded)):
            with pytest.raises(CodecError):
                decode_whole_value(encoded[:cut])


# ---------------------------------------------------------------------------
# Envelope strictness
# ---------------------------------------------------------------------------


class TestEnvelope:
    def test_empty_payload_rejected(self):
        with pytest.raises(CodecError, match="empty payload"):
            decode_payload(b"")

    def test_wrong_version_byte_rejected(self):
        good = encode_payload([1, 2, 3])
        bad = bytes([PAYLOAD_VERSION + 1]) + good[1:]
        with pytest.raises(CodecError, match="unsupported payload version"):
            decode_payload(bad)

    def test_version_1_payload_refused_by_name(self):
        # A version-1 masked input (length-prefixed fields, int64
        # big-endian elements) exactly as the previous tree wrote it.
        assert PAYLOAD_VERSION == 8
        v1_body = (
            (8).to_bytes(4, "big") + (3).to_bytes(8, "big")
            + (16).to_bytes(4, "big") + (5).to_bytes(8, "big") + (6).to_bytes(8, "big")
        )
        v1 = bytes([1, 0x23]) + len(v1_body).to_bytes(4, "big") + v1_body
        with pytest.raises(
            CodecError, match=r"unsupported payload version 1 \(speaking 8\)"
        ):
            decode_payload(v1)
        # Even relabelled as this version it does not parse as a packed body.
        with pytest.raises(CodecError, match="MaskedInput"):
            decode_payload(bytes([PAYLOAD_VERSION]) + v1[1:])

    def test_version_2_payload_refused_by_name(self):
        # A version-2 AdvertiseKeys (length-prefixed fields, keys zero-
        # padded to 256 bytes) exactly as the previous tree wrote it.
        v2_body = b"".join(
            len(field).to_bytes(4, "big") + field
            for field in (
                (7).to_bytes(8, "big"),
                (12345).to_bytes(256, "big"),
                (67890).to_bytes(256, "big"),
                b"",
            )
        )
        v2 = bytes([2, 0x22]) + len(v2_body).to_bytes(4, "big") + v2_body
        with pytest.raises(
            CodecError, match=r"unsupported payload version 2 \(speaking 8\)"
        ):
            decode_payload(v2)
        # Even relabelled as this version it is refused, never mis-parsed.
        with pytest.raises(CodecError, match="AdvertiseKeysMsg"):
            decode_payload(bytes([PAYLOAD_VERSION]) + v2[1:])

    def test_version_3_payload_refused_by_name(self):
        # Byte for byte what this tree writes, but for the version: the
        # layout did not change, what a revealed seed expands to did.
        v3 = bytes([3]) + encode_payload({1: b"seed"})[1:]
        with pytest.raises(
            CodecError, match=r"unsupported payload version 3 \(speaking 8\)"
        ):
            decode_payload(v3)

    def test_version_4_payload_refused_by_name(self):
        # Same bytes but for the version, again: version 5 changed what
        # a mask seed (a reconstructed b_u, an agreed s_{u,v}) expands to.
        v4 = bytes([4]) + encode_payload({1: b"seed"})[1:]
        with pytest.raises(
            CodecError, match=r"unsupported payload version 4 \(speaking 8\)"
        ):
            decode_payload(v4)

    def test_version_5_payload_refused_by_name(self):
        # A version-5 ShareKeys request, byte for byte but for the
        # version: ``(roster, whole graph)``.  Version 6 sends the
        # recipient's own neighbour ids in that slot — and no
        # ``consistency_check`` in a semi-honest round.
        v5 = bytes([5]) + encode_payload(({}, {1: {2, 3}, 2: {1, 3}, 3: {1, 2}}))[1:]
        with pytest.raises(
            CodecError, match=r"unsupported payload version 5 \(speaking 8\)"
        ):
            decode_payload(v5)

    def test_version_6_payload_refused_by_name(self):
        # A version-6 ShareKeys response, byte for byte but for the
        # version: each ciphertext sealed the value encoding of a
        # SharePayload record.  Version 7 seals its fixed-width leaf
        # format, parsed against the recipient's own dealing shape.
        v6 = bytes([6]) + encode_payload({2: bytes(236), 3: bytes(236)})[1:]
        with pytest.raises(
            CodecError, match=r"unsupported payload version 6 \(speaking 8\)"
        ):
            decode_payload(v6)

    def test_version_7_payload_refused_by_name(self):
        # A version-7 masked upload, byte for byte but for the version:
        # its mask came from the SHA-256 counter stream.  Version 8 masks
        # with AES-256-CTR, so a version-7 vector would never unmask.
        vector = np.arange(9, dtype=np.int64)
        v7 = bytes([7]) + encode_payload(MaskedInputMsg.from_vector(3, vector, 20))[1:]
        with pytest.raises(
            CodecError, match=r"unsupported payload version 7 \(speaking 8\)"
        ):
            decode_payload(v7)

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError, match="unknown value tag"):
            decode_payload(bytes([PAYLOAD_VERSION, 0x1F]))

    def test_tag_0x25_is_unknown(self):
        # 0x25 carried the engine's Targeted wrapper, which the engine
        # unpacks into per-client requests before anything is sent; no
        # codec claims the tag, so a payload carrying it is refused.
        body = encode_value({1: b"payload"})
        with pytest.raises(CodecError, match="unknown value tag 0x25"):
            decode_payload(bytes([PAYLOAD_VERSION, 0x25]) + body)
        with pytest.raises(CodecError, match="unknown value tag 0x25"):
            decode_payload(bytes([PAYLOAD_VERSION, 0x07, 0, 0, 0, 1, 0x25]) + body)

    def test_every_unclaimed_tag_is_unknown(self):
        # Tags 0x00..0x0C are the structural values; the registry holds
        # the rest that decode.  Every other byte is refused by name.
        claimed = set(range(0x0D)) | set(registered_codecs().values())
        for tag in sorted(set(range(256)) - claimed):
            with pytest.raises(CodecError, match=f"unknown value tag {tag:#x}$"):
                decode_payload(bytes([PAYLOAD_VERSION, tag]))

    def test_duplicate_dict_keys_rejected(self):
        single = encode_payload({7: 1})
        # Splice the one (key, value) pair in twice and bump the count.
        pair = single[6:]  # version(1) + tag(1) + count(4)
        forged = single[:2] + (2).to_bytes(4, "big") + pair + pair
        with pytest.raises(CodecError, match="duplicate keys"):
            decode_payload(forged)

    def test_duplicate_set_elements_rejected(self):
        single = encode_payload({7})
        element = single[6:]
        forged = single[:2] + (2).to_bytes(4, "big") + element + element
        with pytest.raises(CodecError, match="duplicate elements"):
            decode_payload(forged)

    def test_ndarray_shape_buffer_mismatch_rejected(self):
        encoded = bytearray(encode_payload(np.arange(4, dtype=np.int64)))
        # Shrink the trailing buffer: shape says 4 × 8 bytes.
        del encoded[-8:]
        fixed = bytes(encoded)
        with pytest.raises(ValueError):
            decode_payload(fixed)

    def test_hostile_deep_nesting_rejected(self):
        """KBs of nested list headers must raise CodecError, not blow
        the interpreter stack."""
        one_element_list = b"\x07" + (1).to_bytes(4, "big")
        bomb = bytes([PAYLOAD_VERSION]) + one_element_list * 10_000 + b"\x00"
        with pytest.raises(CodecError, match="nesting exceeds"):
            decode_payload(bomb)

    def test_unhashable_dict_key_rejected(self):
        from repro.wire import encode_value

        forged = (
            bytes([PAYLOAD_VERSION, 0x0B])
            + (1).to_bytes(4, "big")
            + encode_value([1, 2])  # a list is not a valid dict key
            + encode_value(3)
        )
        with pytest.raises(CodecError, match="unhashable dict key"):
            decode_payload(forged)

    def test_unhashable_set_element_rejected(self):
        from repro.wire import encode_value

        forged = (
            bytes([PAYLOAD_VERSION, 0x09])
            + (1).to_bytes(4, "big")
            + encode_value([1, 2])
        )
        with pytest.raises(CodecError, match="unhashable set element"):
            decode_payload(forged)

    @given(data=st.binary(max_size=96))
    @settings(max_examples=150)
    def test_fuzz_decode_is_total(self, data):
        """Arbitrary bytes decode or raise ValueError — nothing else."""
        try:
            decode_payload(data)
        except ValueError:
            pass


# ---------------------------------------------------------------------------
# Error (abort-notice) payloads and measured sizes
# ---------------------------------------------------------------------------


class TestErrorPayloads:
    def test_protocol_abort_roundtrips(self):
        from repro.secagg.types import ProtocolAbort

        exc = decode_error(encode_error(ProtocolAbort("below threshold")))
        assert isinstance(exc, ProtocolAbort)
        assert str(exc) == "below threshold"

    def test_unknown_exception_degrades_to_runtimeerror(self):
        class Exotic(Exception):
            pass

        exc = decode_error(encode_error(Exotic("boom")))
        assert isinstance(exc, RuntimeError)
        assert "Exotic" in str(exc) and "boom" in str(exc)

    def test_malformed_error_payload_rejected(self):
        with pytest.raises(CodecError):
            decode_error(encode_payload([1, 2, 3]))


class TestRegistryBindsLazily:
    def test_importing_the_packages_encodes_nothing(self):
        """The registry binds each message codec's functions at the
        first encode or decode.  Importing the packages must not get
        there, or a tracer that wraps ``encode_masked_input`` /
        ``decode_masked_input`` by name would time unwrapped copies."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        probe = (
            "import repro.core, repro.engine, repro.secagg, repro.xnoise, repro.cli\n"
            "from repro.wire import codecs\n"
            "print(codecs._defaults_loaded)\n"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert out.stdout.strip() == "False"
