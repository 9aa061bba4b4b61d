"""Parity pins for the zero-copy wire write paths.

The single-buffer encoders (``encode_value_into`` /
``encode_payload_frame``) must be byte-identical to the concatenating
encoder of ``tests/oracles/wire_codec.py`` and the two-step frame
writer on every payload shape the protocol ships — nested containers,
ndarrays, Shares, registered message types.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.crypto.shamir import ShamirSecretSharing
from repro.secagg.types import MaskedInputMsg
from repro.wire import codecs as wire_codecs
from repro.wire.frame import (
    FRAME_OVERHEAD,
    KIND_REQUEST,
    KIND_RESPONSE,
    MAX_BODY,
    decode_frame,
    encode_frame,
    fill_frame_header,
)
from tests.oracles.wire_codec import encode_payload_reference, encode_value_reference


def _random_value(rng: random.Random, depth: int = 0):
    """A random payload value drawing from every encodable shape."""
    leaf_makers = [
        lambda: None,
        lambda: rng.random() < 0.5,
        lambda: rng.randint(-(1 << 80), 1 << 80),
        lambda: rng.random() * 1e6 - 5e5,
        lambda: "str-" + "".join(rng.choices("abcxyzé∅", k=rng.randint(0, 8))),
        lambda: rng.randbytes(rng.randint(0, 40)),
        lambda: bytearray(rng.randbytes(rng.randint(0, 16))),
        lambda: np.asarray(
            [rng.randint(0, 1 << 40) for _ in range(rng.randint(0, 12))],
            dtype=np.int64,
        ),
        lambda: np.asarray(
            [[rng.random() for _ in range(3)] for _ in range(2)]
        ),
    ]
    if depth < 3 and rng.random() < 0.6:
        kind = rng.choice(["list", "tuple", "set", "dict"])
        n = rng.randint(0, 4)
        if kind == "list":
            return [_random_value(rng, depth + 1) for _ in range(n)]
        if kind == "tuple":
            return tuple(_random_value(rng, depth + 1) for _ in range(n))
        if kind == "set":
            return {rng.randint(0, 1 << 32) for _ in range(n)}
        return {
            rng.randint(0, 1 << 16): _random_value(rng, depth + 1)
            for _ in range(n)
        }
    return rng.choice(leaf_makers)()


def _protocol_payloads():
    scheme = ShamirSecretSharing(2)
    shares = scheme.share([b"a seed worth sharing"], [1, 2, 3])[0]
    vector = np.arange(64, dtype=np.int64) % (1 << 20)
    return [
        shares[1],
        {u: s for u, s in shares.items()},
        MaskedInputMsg.from_vector(3, vector, 20),
        ("masked_input", MaskedInputMsg.from_vector(1, vector, 20)),
        {"roster": {1: b"pk1", 2: b"pk2"}, "u2": {1, 2}, "round": 0},
    ]


class TestCodecEncodeParity:
    def test_fuzz_encode_payload_matches_reference(self):
        rng = random.Random(0xFEED)
        for trial in range(150):
            value = _random_value(rng)
            assert wire_codecs.encode_payload(
                value
            ) == encode_payload_reference(value), trial

    @pytest.mark.parametrize("payload", _protocol_payloads())
    def test_protocol_payloads_match_reference(self, payload):
        fast = wire_codecs.encode_payload(payload)
        ref = encode_payload_reference(payload)
        assert fast == ref
        # The fast bytes stay decodable.
        wire_codecs.decode_payload(fast)

    def test_noncontiguous_memoryview_and_ndarray(self):
        arr = np.arange(32, dtype=np.int64)[::2]
        view = memoryview(bytes(range(32)))[::2]
        for obj in ([arr, view], {"a": view}, (arr,)):
            assert wire_codecs.encode_payload(
                obj
            ) == encode_payload_reference(obj)

    def test_encode_value_matches_reference(self):
        # The bare (tag-less) value encoder and its concatenating spec
        # twin, pinned on fuzzed shapes and the protocol payloads.
        rng = random.Random(0xBEEF)
        values = [_random_value(rng) for _ in range(60)]
        values.extend(_protocol_payloads())
        for value in values:
            assert wire_codecs.encode_value(
                value
            ) == encode_value_reference(value)

    def test_unencodable_type_raises_on_both_paths(self):
        class Opaque:
            pass

        with pytest.raises(wire_codecs.CodecError):
            wire_codecs.encode_payload(Opaque())
        with pytest.raises(wire_codecs.CodecError):
            encode_payload_reference(Opaque())


class TestPayloadFrameParity:
    @pytest.mark.parametrize("payload", _protocol_payloads())
    def test_single_buffer_frame_matches_two_step(self, payload):
        for kind in (KIND_REQUEST, KIND_RESPONSE):
            framed = wire_codecs.encode_payload_frame(kind, payload)
            assert bytes(framed) == encode_frame(
                kind, encode_payload_reference(payload)
            )
            got_kind, body = decode_frame(bytes(framed))
            assert got_kind == kind
            assert wire_codecs.decode_payload(body) is not None

    def test_fill_frame_header_validates(self):
        with pytest.raises(ValueError):
            fill_frame_header(bytearray(FRAME_OVERHEAD), 0x7F)
        with pytest.raises(ValueError):
            fill_frame_header(bytearray(3), KIND_REQUEST)

    def test_fill_frame_header_rejects_oversized_body(self):
        class _Huge(bytearray):
            def __len__(self):
                return MAX_BODY + FRAME_OVERHEAD + 1

        with pytest.raises(ValueError):
            fill_frame_header(_Huge(), KIND_REQUEST)

