"""Size accounting: bytes come from the encoder.

A priced in-process round (:class:`SerializingTransport`) reports the
length of the frames :func:`repro.wire.codecs.encode_payload_frame`
emitted — the frames a socket would carry.
What each kind of payload costs is pinned here, so a drive-by change to
the value encoding cannot silently shift traced traffic or priced
latencies.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.engine import RoundEngine, SerializingTransport
from repro.engine.transport import answer_request, delivery_from_reply
from repro.secagg.types import AdvertiseKeysMsg, ProtocolAbort
from repro.wire import KIND_ERROR, KIND_REQUEST, KIND_RESPONSE, CodecError, decode_frame
from repro.wire.codecs import encode_payload_frame
from tests.engine.test_round_engine import SumClient, SumServer

#: Frame header (8) + payload version (1) + value tag (1).
ENVELOPE = 10


@dataclass
class _Point:
    x: np.ndarray
    tag: bytes
    note: str


def _framed(payload) -> int:
    return len(encode_payload_frame(KIND_RESPONSE, payload))


class TestFramedSizesPinned:
    """What each kind of payload costs on a link."""

    def test_ndarray(self):
        # dtype string (4 + 3), rank + dims (4 + 4·ndim), buffer (4 + n).
        assert _framed(np.zeros(8, dtype=np.int64)) == ENVELOPE + 7 + 8 + 4 + 64
        assert _framed(np.zeros((4, 4), dtype=np.float32)) == ENVELOPE + 7 + 12 + 4 + 64
        assert _framed(np.zeros(0, dtype=np.int64)) == ENVELOPE + 7 + 8 + 4

    def test_bytes(self):
        assert _framed(b"") == ENVELOPE + 4
        assert _framed(b"abcde") == ENVELOPE + 4 + 5
        assert _framed(bytearray(17)) == ENVELOPE + 4 + 17

    def test_dataclass(self):
        # A registered message is its tag + length + codec body; a
        # dataclass nobody registered has no encoding at all.
        msg = AdvertiseKeysMsg(sender=7, c_public=b"\x12\x34", s_public=b"\xff")
        assert _framed(msg) == ENVELOPE + 4 + len(msg.to_bytes())
        point = _Point(x=np.zeros(4, dtype=np.int64), tag=b"abc", note="hi")
        with pytest.raises(CodecError, match="no codec registered"):
            _framed(point)

    def test_str_counts_utf8_content(self):
        assert _framed("") == ENVELOPE + 4
        assert _framed("abcde") == ENVELOPE + 4 + 5
        # Non-ASCII costs its encoded length.
        assert _framed("é") == ENVELOPE + 4 + 2
        assert _framed("x" * 1024) == _framed(b"x" * 1024)

    def test_containers_and_scalars(self):
        assert _framed(None) == ENVELOPE
        assert _framed(7) == ENVELOPE + 4 + 1
        assert _framed(1 << 64) == ENVELOPE + 4 + 9
        assert _framed([b"ab", b"cd"]) == ENVELOPE + 4 + 2 * (1 + 4 + 2)
        assert _framed({1: b"abc"}) == ENVELOPE + 4 + (1 + 4 + 1) + (1 + 4 + 3)
        assert _framed({"op": b"abc"}) == ENVELOPE + 4 + (1 + 4 + 2) + (1 + 4 + 3)


class TestDeliveriesReportTheFrames:
    def test_span_bytes_are_frame_lengths(self):
        """The boundary reports the frames' lengths, nothing added."""
        vectors = {u: np.arange(5, dtype=float) * u for u in (1, 2)}
        engine = RoundEngine(transport=SerializingTransport())
        engine.run_round_sync(SumServer(), [SumClient(u, v) for u, v in vectors.items()])
        request = len(encode_payload_frame(KIND_REQUEST, ("encode", None)))
        response = _framed(vectors[1])
        (encode_span,) = [s for s in engine.trace.round_spans(0) if s.label == "encode"]
        assert encode_span.down_bytes == 2 * request
        assert encode_span.up_bytes == 2 * response

    def test_unregistered_payloads_raise_on_a_priced_in_process_link(self):
        """No guess for a payload no codec covers: the in-process link
        fails the way a socket would."""

        class Opaque:
            pass

        class OpaqueClient(SumClient):
            def _encode(self, _payload):
                return Opaque()

        engine = RoundEngine(transport=SerializingTransport())
        with pytest.raises(CodecError, match="no codec registered"):
            engine.run_round_sync(SumServer(), [OpaqueClient(0, np.ones(2))])


class TestWireEdges:
    """The two edges every wire transport shares: ``answer_request`` on
    the client side, ``delivery_from_reply`` on the coordinator's."""

    @staticmethod
    def _request_body(op, payload):
        return decode_frame(bytes(encode_payload_frame(KIND_REQUEST, (op, payload))))[1]

    def test_answer_then_delivery_round_trips_the_response(self):
        reply = answer_request(SumClient(4, np.arange(3.0)), self._request_body("encode", None))
        kind, body = decode_frame(bytes(reply))
        delivery = delivery_from_reply(4, "encode", kind, body, 0.5, 10, len(reply))
        np.testing.assert_array_equal(delivery.response, np.arange(3.0))
        assert (delivery.latency, delivery.request_nbytes) == (0.5, 10)
        assert delivery.response_nbytes == len(reply)

    def test_client_exception_crosses_as_itself(self):
        class Refusing(SumClient):
            def _encode(self, _payload):
                raise ProtocolAbort("client 4 refuses")

        reply = answer_request(Refusing(4, np.ones(2)), self._request_body("encode", None))
        kind, body = decode_frame(bytes(reply))
        assert kind == KIND_ERROR
        with pytest.raises(ProtocolAbort, match="client 4 refuses"):
            delivery_from_reply(4, "encode", kind, body, 0.0, 0, len(reply))

    def test_stray_reply_kind_refused(self):
        body = self._request_body("encode", None)
        with pytest.raises(ValueError, match="unexpected frame kind"):
            delivery_from_reply(4, "encode", KIND_REQUEST, body, 0.0, 0, 0)

    def test_undecodable_request_raises_before_the_client_runs(self):
        class Untouchable(SumClient):
            def _encode(self, _payload):
                raise AssertionError("must not run")

        body = self._request_body("encode", None)
        with pytest.raises(CodecError):
            answer_request(Untouchable(4, np.ones(2)), body[:-1])
