"""Size accounting: one sizer, pinned value by value.

A simulated link prices every exchange with
:func:`repro.wire.encoded_nbytes` — the framed size a socket would
carry, computed without serializing.  Its outputs are pinned here so a
drive-by change to the value encoding cannot silently shift simulated
latencies, and each equals the length of the real frame.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.engine import RoundEngine, SimulatedNetworkTransport
from repro.secagg.types import AdvertiseKeysMsg
from repro.wire import KIND_RESPONSE, CodecError, encoded_nbytes
from repro.wire.codecs import encode_payload_frame
from tests.engine.test_round_engine import SumClient, SumServer

#: Frame header (8) + payload version (1) + value tag (1).
ENVELOPE = 10


@dataclass
class _Point:
    x: np.ndarray
    tag: bytes
    note: str


def _sized(payload, expected: int) -> None:
    assert encoded_nbytes(payload) == expected
    assert len(encode_payload_frame(KIND_RESPONSE, payload)) == expected


class TestPayloadNbytesPinned:
    """What each kind of payload costs on a link."""

    def test_ndarray(self):
        # dtype string (4 + 3), rank + dims (4 + 4·ndim), buffer (4 + n).
        _sized(np.zeros(8, dtype=np.int64), ENVELOPE + 7 + 8 + 4 + 64)
        _sized(np.zeros((4, 4), dtype=np.float32), ENVELOPE + 7 + 12 + 4 + 64)
        _sized(np.zeros(0, dtype=np.int64), ENVELOPE + 7 + 8 + 4)

    def test_bytes(self):
        _sized(b"", ENVELOPE + 4)
        _sized(b"abcde", ENVELOPE + 4 + 5)
        _sized(bytearray(17), ENVELOPE + 4 + 17)

    def test_dataclass(self):
        # A registered message is its tag + length + codec body; a
        # dataclass nobody registered has no size at all.
        msg = AdvertiseKeysMsg(sender=7, c_public=b"\x12\x34", s_public=b"\xff")
        _sized(msg, ENVELOPE + 4 + len(msg.to_bytes()))
        point = _Point(x=np.zeros(4, dtype=np.int64), tag=b"abc", note="hi")
        with pytest.raises(CodecError, match="no codec registered"):
            encoded_nbytes(point)

    def test_str_counts_utf8_content(self):
        _sized("", ENVELOPE + 4)
        _sized("abcde", ENVELOPE + 4 + 5)
        # Non-ASCII costs its encoded length.
        _sized("é", ENVELOPE + 4 + 2)
        assert encoded_nbytes("x" * 1024) == encoded_nbytes(b"x" * 1024)

    def test_containers_and_scalars(self):
        _sized(None, ENVELOPE)
        _sized(7, ENVELOPE + 4 + 1)
        _sized(1 << 64, ENVELOPE + 4 + 9)
        _sized([b"ab", b"cd"], ENVELOPE + 4 + 2 * (1 + 4 + 2))
        _sized({1: b"abc"}, ENVELOPE + 4 + (1 + 4 + 1) + (1 + 4 + 3))
        _sized({"op": b"abc"}, ENVELOPE + 4 + (1 + 4 + 2) + (1 + 4 + 3))


class TestMeasuredNbytes:
    def test_registered_payloads_use_the_codec(self):
        payload = {1: np.arange(8, dtype=np.int64)}
        assert encoded_nbytes(payload) == len(
            encode_payload_frame(KIND_RESPONSE, payload)
        )

    def test_unregistered_payloads_raise_on_a_simulated_link(self):
        """No guess for a payload no codec covers: the simulated link
        fails the way a socket would."""

        class Opaque:
            pass

        class OpaqueClient(SumClient):
            def _encode(self, _payload):
                return Opaque()

        engine = RoundEngine(transport=SimulatedNetworkTransport())
        with pytest.raises(CodecError, match="no codec registered"):
            engine.run_round_sync(SumServer(), [OpaqueClient(0, np.ones(2))])
