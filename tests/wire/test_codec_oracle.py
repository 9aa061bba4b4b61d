"""The value codec against its oracle: byte parity and decoder totality.

``tests/oracles/wire_codec.py`` keeps the encoder and decoder the
dispatch tables replaced.  Here the live codec must write the same bytes
for every value the format covers — nested containers, numpy scalars,
subclasses, ``memoryview``s, every registered type — and, on every
mutant of a real protocol payload (each truncation, each tag byte
rewritten, each length prefix set to 2³² − 1, one byte appended),
return what the oracle returns or raise a ``CodecError`` where it does.
Anything else escaping either decoder is a failure.  The XNoise
``SharePayload`` — the ShareKeys plaintext, a fixed-width leaf format —
is held to the layout written out below the same way: its bytes, and
its parser's verdict on every mutant.  Example counts follow the hypothesis profile: CI's fast
step selects ``HYPOTHESIS_PROFILE=ci`` (see ``conftest.py``).
"""

from __future__ import annotations

import enum
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.field import FIELD
from repro.crypto.shamir import ShamirSecretSharing, Share
from repro.engine import Targeted
from repro.secagg.types import AdvertiseKeysMsg, DealingShape, MaskedInputMsg, SharePayload
from repro.wire.codecs import (
    PAYLOAD_VERSION,
    CodecError,
    decode_payload,
    decode_whole_value,
    encode_payload,
    encode_payload_frame,
    encode_value,
    register_codec,
    registered_codecs,
)
from repro.wire.frame import FRAME_OVERHEAD, KIND_REQUEST, encode_frame
from tests.oracles.wire_codec import (
    decode_payload_reference,
    encode_payload_reference,
    encode_value_reference,
)
from tests.wire.test_codecs import _sample_payloads, _small_messages


class Color(enum.IntEnum):
    RED = 1
    BLUE = 300


class Named(tuple):
    """A tuple subclass: encoded as a tuple, through the fallback."""


_masked_inputs = st.integers(1, 62).flatmap(
    lambda bits: st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=9).map(
        lambda v: MaskedInputMsg.from_vector(3, np.array(v, dtype=np.int64), bits)
    )
)
def _chunks(secret_len: int) -> int:
    """Field elements a ``secret_len``-byte secret is shared in."""
    return max(1, -(-secret_len // FIELD.capacity_bytes))


def _dealt_shares(recipient: int):
    """A share as a dealer hands it to ``recipient``: at x = recipient,
    one field element per chunk of its secret."""
    return st.integers(0, 80).flatmap(
        lambda n: st.lists(
            st.integers(0, FIELD.p - 1), min_size=_chunks(n), max_size=_chunks(n)
        ).map(lambda ys: Share(x=recipient, ys=tuple(ys), secret_len=n))
    )


@st.composite
def _share_payloads(draw) -> SharePayload:
    recipient = draw(st.integers(0, 2**64 - 1), label="recipient")
    labels = draw(
        st.lists(st.sampled_from([f"g:{k}" for k in range(1, 7)]), unique=True, max_size=6),
        label="labels",
    )
    shares = [draw(_dealt_shares(recipient)) for _ in range(2 + len(labels))]
    return SharePayload(
        draw(st.integers(0, 2**64 - 1), label="sender"),
        recipient,
        shares[0],
        shares[1],
        dict(zip(labels, shares[2:])),
    )


def _leaf_reference(payload: SharePayload) -> bytes:
    """The ShareKeys plaintext written out: ``u`` and ``v`` as u64, then
    every y-value as u128 — s^SK's, b's, each extra's — big-endian."""
    shares = [payload.s_sk_share, payload.b_share, *payload.extra_shares.values()]
    return (
        payload.sender.to_bytes(8, "big")
        + payload.recipient.to_bytes(8, "big")
        + b"".join(y.to_bytes(16, "big") for share in shares for y in share.ys)
    )


def _parse_reference(data: bytes, shape: DealingShape, sender: int, recipient: int):
    """The payload the layout reads from ``data``, or ``None`` where it
    refuses: any length but the shape's, another route, a y ≥ p."""
    counts = [_chunks(width) for width in shape.widths]
    if len(data) != 16 + 16 * sum(counts):
        return None
    if data[:16] != sender.to_bytes(8, "big") + recipient.to_bytes(8, "big"):
        return None
    ys = [int.from_bytes(data[i : i + 16], "big") for i in range(16, len(data), 16)]
    if any(y >= FIELD.p for y in ys):
        return None
    shares = []
    for width, count in zip(shape.widths, counts):
        shares.append(Share(x=recipient, ys=tuple(ys[:count]), secret_len=width))
        ys = ys[count:]
    return SharePayload(sender, recipient, shares[0], shares[1], dict(zip(shape.labels, shares[2:])))


#: What a refused ShareKeys plaintext is refused as.
_PAYLOAD_REFUSALS = r"dealing shape|routed \d+ -> \d+, expected|y-value \d+ = \d+ is not in"
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**300), 2**300),
    st.floats(),
    st.text(max_size=12),
    st.binary(max_size=24),
    st.binary(max_size=12).map(bytearray),
    st.binary(max_size=12).map(memoryview),
    st.binary(max_size=12).map(lambda b: memoryview(b * 2)[::2]),  # not contiguous
    st.binary(max_size=3).map(lambda b: memoryview(b * 8).cast("Q")),  # nbytes ≠ len
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.floats().map(np.float64),
    st.sampled_from(list(Color)),
    st.lists(st.integers(-(2**40), 2**40), max_size=6).map(
        lambda v: np.array(v, dtype=np.int64)
    ),
    _masked_inputs,
    *_small_messages.values(),
)
_hashables = st.one_of(
    st.booleans(),
    st.integers(-(2**64), 2**64),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.integers(0, 2**40).map(np.int64),
)
_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(Named),
        st.sets(_hashables, max_size=4),
        st.frozensets(_hashables, max_size=4),
        st.dictionaries(_hashables, children, max_size=4),
    ),
    max_leaves=12,
)


class TestEncodeParity:
    @given(value=_values)
    @settings(deadline=None)
    def test_every_value_encodes_to_the_oracles_bytes(self, value):
        expected = encode_value_reference(value)
        assert encode_value(value) == expected
        assert encode_payload(value) == encode_payload_reference(value)
        assert bytes(encode_payload_frame(KIND_REQUEST, value)) == encode_frame(
            KIND_REQUEST, encode_payload_reference(value)
        )

    @given(payload=_share_payloads())
    @settings(deadline=None)
    def test_share_payload_with_g_extras_is_its_leaf_layout(self, payload):
        data = payload.to_bytes()
        assert data == _leaf_reference(payload)
        route = (payload.sender, payload.recipient)
        assert SharePayload.from_bytes(data, payload.shape, *route) == payload
        assert _parse_reference(data, payload.shape, *route) == payload

    @pytest.mark.parametrize(
        "value",
        [np.int64(-7), np.int64(2**62), np.bool_(True), np.bool_(False),
         np.float64(0.5), np.float64(-0.0), Color.RED, Color.BLUE,
         [np.int64(3), Color.BLUE, np.bool_(False)]],
        ids=repr,
    )
    def test_numpy_scalars_and_int_subclasses_take_the_fallback(self, value):
        assert encode_value(value) == encode_value_reference(value)

    def test_bools_and_ints_keep_distinct_tags(self):
        assert encode_value(True) != encode_value(1)
        assert encode_value(False) != encode_value(0)
        assert encode_value([True, 1, False, 0]) == encode_value_reference([True, 1, False, 0])
        # Equal as dict keys, so one survives — but under its own tag.
        assert decode_whole_value(encode_value({True: "t"})) == {True: "t"}
        assert type(next(iter(decode_whole_value(encode_value({1: "i"}))))) is int

    def test_a_container_subclass_is_encoded_as_its_base(self):
        assert encode_value(Named((1, 2))) == encode_value((1, 2))

    @pytest.mark.parametrize("cls", [Named, Color, np.int64, bytes])
    def test_no_codec_for_a_type_the_value_encoding_covers(self, cls):
        # Its values would encode as the base while the tag decoded
        # through the codec; the registry refuses it untouched.
        before = registered_codecs()
        with pytest.raises(ValueError, match="encoded as a value"):
            register_codec(cls, 0xFE, bytes, bytes)
        assert registered_codecs() == before
        assert _outcome(decode_payload, bytes((PAYLOAD_VERSION, 0xFE)) + bytes(4)) is CodecError


# ---------------------------------------------------------------------------
# Decoder parity on mutants of real payloads
# ---------------------------------------------------------------------------

#: Registered tags whose body is itself a value encoding (the mutants
#: reach inside them): AdvertiseKeysMsg, UnmaskingMsg, Targeted.
_VALUE_BODIES = {0x22, 0x24, 0x25}
#: Every structural tag, every registered one, and unknown tags around them.
_TAG_CHOICES = sorted(set(range(0x0E)) | {0x1F} | set(range(0x20, 0x27)) | {0xFF})
_SATURATED = b"\xff\xff\xff\xff"


def _u32(data: bytes, at: int) -> int:
    return int.from_bytes(data[at : at + 4], "big")


def _walk(data: bytes, at: int, tags: list[int], prefixes: list[int]) -> int:
    """Record where every tag byte and length/count prefix of the value
    at ``at`` sits; returns the offset after it."""
    tag = data[at]
    tags.append(at)
    at += 1
    if tag <= 0x02:
        return at
    if tag == 0x04:
        return at + 8
    if tag == 0x0C:  # ndarray: dtype, rank and dims, raw buffer
        prefixes.append(at)
        at += 4 + _u32(data, at)
        prefixes.append(at)
        at += 4 + 4 * _u32(data, at)
        prefixes.append(at)
        return at + 4 + _u32(data, at)
    prefixes.append(at)
    n = _u32(data, at)
    at += 4
    if 0x07 <= tag <= 0x0B:
        for _ in range(2 * n if tag == 0x0B else n):
            at = _walk(data, at, tags, prefixes)
        return at
    if tag in _VALUE_BODIES:
        _walk(data, at, tags, prefixes)
    return at + n


def _mutants(encoded: bytes):
    tags: list[int] = []
    prefixes: list[int] = []
    assert _walk(encoded, 1, tags, prefixes) == len(encoded)
    for cut in range(len(encoded)):
        yield encoded[:cut]
    for at in tags:
        for tag in _TAG_CHOICES:
            if tag != encoded[at]:
                yield encoded[:at] + bytes((tag,)) + encoded[at + 1 :]
    for at in prefixes:
        yield encoded[:at] + _SATURATED + encoded[at + 4 :]
    yield encoded + b"\x00"


def _outcome(decode, data: bytes):
    """What ``decode`` makes of ``data``: the type and canonical bytes of
    the value, or ``CodecError`` — any other exception propagates."""
    try:
        value = decode(data)
    except CodecError:
        return CodecError
    return type(value), encode_value_reference(value)


def _assert_decoders_agree(data: bytes) -> None:
    assert _outcome(decode_payload, data) == _outcome(decode_payload_reference, data), data


def _protocol_payloads(seed: int) -> list:
    ids = [1, 2, 3, 4]
    scheme = ShamirSecretSharing(2)
    s_shares, b_shares, g1 = scheme.share([b"k" * 64, b"b" * 32, b"g" * 32], ids)
    roster = {u: AdvertiseKeysMsg(u, bytes([u]) * 64, bytes([u + 1]) * 64) for u in ids}
    plaintext = SharePayload(1, 2, s_shares[2], b_shares[2], {"g:1": g1[2]})
    return [
        *_sample_payloads(seed).values(),
        ("share_keys", (roster, ids[1:])),
        ("share_keys_response", {u: plaintext.to_bytes() for u in ids[1:]}),
        Targeted({u: ("unmask", [1, 2], None, {3}, [1.5, -0.0]) for u in ids}),
        {"vector": np.arange(5, dtype=np.int64), "u": frozenset(ids)},
    ]


def _dealt_plaintext(extras: int) -> tuple[SharePayload, DealingShape]:
    """Client 1's plaintext for client 2 at ``many_clients``' widths."""
    labels = tuple(f"g:{k}" for k in range(1, extras + 1))
    secrets = [b"k" * 64, b"b" * 32, *(bytes([k]) * 32 for k in range(extras))]
    s_sk, b, *g = ShamirSecretSharing(2).share(secrets, [1, 2, 3])
    payload = SharePayload(1, 2, s_sk[2], b[2], {lbl: g[k][2] for k, lbl in enumerate(labels)})
    return payload, DealingShape((64, 32, *[32] * extras), labels)


def _assert_parsers_agree(data: bytes, shape: DealingShape, sender=1, recipient=2) -> None:
    try:
        live = SharePayload.from_bytes(data, shape, sender, recipient)
    except CodecError as exc:
        assert re.search(_PAYLOAD_REFUSALS, str(exc)), exc
        live = None
    assert live == _parse_reference(data, shape, sender, recipient), data


class TestSharePayloadMutants:
    """The ShareKeys plaintext's parser against the layout: the same
    verdict on every mutant, a refusal always by name."""

    @pytest.mark.parametrize("extras", [0, 6], ids=["plain", "x6"])
    def test_every_mutant_of_a_dealt_plaintext(self, extras):
        payload, shape = _dealt_plaintext(extras)
        data = payload.to_bytes()
        mutants = [data[:cut] for cut in range(len(data))]
        mutants += [data + bytes(more) for more in range(1, 49)]
        for at in range(len(data)):
            for byte in (0x00, 0x7F, 0xFF, data[at] ^ 0x01):
                mutants.append(data[:at] + bytes((byte,)) + data[at + 1 :])
        for mutant in mutants:
            _assert_parsers_agree(mutant, shape)
        for other in (extras - 1, extras + 1):
            if other >= 0:
                _assert_parsers_agree(data, _dealt_plaintext(other)[1])
        for route in ((1, 3), (2, 1), (1 << 63, 2)):
            _assert_parsers_agree(data, shape, *route)

    @given(payload=_share_payloads(), data=st.data())
    @settings(deadline=None)
    def test_a_bit_flip_is_refused_by_name_or_re_encodes(self, payload, data):
        encoded = payload.to_bytes()
        bit = data.draw(st.integers(0, 8 * len(encoded) - 1), label="bit")
        mutant = bytearray(encoded)
        mutant[bit // 8] ^= 0x80 >> (bit % 8)
        mutant = bytes(mutant)
        route = (payload.sender, payload.recipient)
        try:
            parsed = SharePayload.from_bytes(mutant, payload.shape, *route)
        except CodecError as exc:
            assert re.search(_PAYLOAD_REFUSALS, str(exc)), exc
            if bit >= 128:  # not the route: the flip took a y out of the field
                at = bit // 128 * 16
                assert int.from_bytes(mutant[at : at + 16], "big") >= FIELD.p
            return
        assert parsed.to_bytes() == mutant
        assert (parsed.sender, parsed.recipient) == route


class TestDecoderParity:
    @pytest.mark.parametrize("seed", range(2))
    def test_every_mutant_of_a_protocol_payload(self, seed):
        for payload in _protocol_payloads(seed):
            for mutant in _mutants(encode_payload(payload)):
                _assert_decoders_agree(mutant)

    @given(value=_values, data=st.data())
    @settings(deadline=None)
    def test_random_mutants_of_random_values(self, value, data):
        encoded = encode_payload(value)
        _assert_decoders_agree(encoded)
        mutants = list(_mutants(encoded))
        for mutant in data.draw(
            st.lists(st.sampled_from(mutants), max_size=24), label="mutants"
        ):
            _assert_decoders_agree(mutant)

    @given(body=st.binary(max_size=64))
    @settings(deadline=None)
    def test_arbitrary_bytes(self, body):
        _assert_decoders_agree(bytes((PAYLOAD_VERSION,)) + body)
        _assert_decoders_agree(body)

    def test_bytes_stay_slices_of_the_input(self):
        data = encode_payload([b"abc", {1: b"de"}])
        value = decode_payload(data)
        assert value == decode_payload_reference(data)
        assert type(value[0]) is bytes and type(value[1][1]) is bytes
        view = memoryview(data)
        assert type(decode_whole_value(view, 1)[0]) is memoryview

    @pytest.mark.parametrize("dim", [0, 3, 5])
    def test_an_ndarray_buffer_must_fill_its_shape_exactly(self, dim):
        data = bytearray(encode_payload(np.arange(4, dtype=np.int64)))
        at = data.index(b"<i8") + 3 + 4  # past the dtype and the rank
        data[at : at + 4] = dim.to_bytes(4, "big")
        with pytest.raises(CodecError, match="does not match"):
            decode_payload(bytes(data))
        _assert_decoders_agree(bytes(data))

    @pytest.mark.parametrize("depth", [63, 64, 65])
    def test_nesting_limit_matches_the_oracle(self, depth):
        nested = bytes((PAYLOAD_VERSION,)) + b"\x07\x00\x00\x00\x01" * depth + b"\x00"
        _assert_decoders_agree(nested)
        empty = bytes((PAYLOAD_VERSION,)) + b"\x07\x00\x00\x00\x01" * depth + b"\x07" + bytes(4)
        _assert_decoders_agree(empty)

    def test_frame_bodies_decode_alike(self):
        for payload in _protocol_payloads(0):
            frame = bytes(encode_payload_frame(KIND_REQUEST, payload))
            _assert_decoders_agree(frame[FRAME_OVERHEAD:])
