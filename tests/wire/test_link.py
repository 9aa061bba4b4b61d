"""The link seam: one surface over both carriers, driven without sockets.

A link is constructible from a fed ``asyncio.StreamReader`` and any
object with ``write``/``drain``, so everything a peer can put on the
stream is exercised here byte by byte: a peer that dies (clean EOF,
close handshake, a stream cut off mid-frame) surfaces as
:class:`LinkClosed`; bytes that are *wrong* stay a loud ``ValueError``;
and the websocket link's message layer (reassembly, interleaved control
frames, the assembled-size bound) validates what ``read_ws_frame``
alone cannot see.
"""

import asyncio
import functools

import pytest

from repro.wire import frame as f
from repro.wire import ws

FRAME = f.encode_frame(f.KIND_RESPONSE, b"payload-bytes")
MASK = b"wxyz"


def in_loop(test):
    """Run an ``async def`` test body under its own event loop (stream
    readers must be built inside one)."""

    @functools.wraps(test)
    def wrapper(*args, **kwargs):
        return asyncio.run(test(*args, **kwargs))

    return wrapper


class Sink:
    """The writer half of a stream, captured."""

    def __init__(self):
        self.data = bytearray()

    def write(self, blob):
        self.data += blob

    async def drain(self):
        pass


def fed(*blobs, eof=True):
    reader = asyncio.StreamReader()
    for blob in blobs:
        reader.feed_data(blob)
    if eof:
        reader.feed_eof()
    return reader


def tcp_link(*blobs):
    return f.TCPLink(fed(*blobs), Sink())


def ws_link(*blobs):
    """The accepting end of a websocket link reading ``blobs`` — what
    it reads must carry the client mask."""
    sink = Sink()
    return ws.WSLink(fed(*blobs), sink, masked=False), sink


def client_frame(opcode, payload, fin=True):
    return ws.encode_ws_frame(opcode, payload, fin=fin, mask=MASK)


class TestPeerGoneIsLinkClosed:
    """Clean EOF, a stream cut mid-frame, a peer CLOSE: all one signal."""

    @pytest.mark.parametrize("cut", [0, 3, f.FRAME_OVERHEAD, len(FRAME) - 1])
    @in_loop
    async def test_tcp_eof_and_truncation(self, cut):
        with pytest.raises(f.LinkClosed):
            await tcp_link(FRAME[:cut]).recv()

    @pytest.mark.parametrize("cut", [0, 1, 4, 9, -1])
    @in_loop
    async def test_ws_eof_and_truncation(self, cut):
        link, _ = ws_link(client_frame(ws.OP_BINARY, FRAME)[:cut])
        with pytest.raises(f.LinkClosed):
            await link.recv()

    @in_loop
    async def test_ws_death_inside_the_second_fragment(self):
        first = client_frame(ws.OP_BINARY, FRAME[:10], fin=False)
        second = client_frame(ws.OP_CONT, FRAME[10:])
        link, _ = ws_link(first, second[: len(second) // 2])
        with pytest.raises(f.LinkClosed):
            await link.recv()

    @in_loop
    async def test_ws_peer_close_is_echoed_then_link_closed(self):
        status = (1000).to_bytes(2, "big")
        close = client_frame(ws.OP_CLOSE, status)
        link, sink = ws_link(close)
        with pytest.raises(f.LinkClosed):
            await link.recv()
        echo = ws.encode_ws_frame(ws.OP_CLOSE, status)
        assert bytes(sink.data) == echo
        assert link.control_received == len(close)
        assert link.control_sent == len(echo)

    @in_loop
    async def test_the_stream_readers_name_the_truncation(self):
        assert issubclass(f.FrameTruncated, ValueError)
        with pytest.raises(f.FrameTruncated):
            await f.read_frame(fed(FRAME[:-1]))
        with pytest.raises(f.FrameTruncated):
            await ws.read_ws_frame(
                fed(client_frame(ws.OP_BINARY, FRAME)[:-1]), require_mask=True
            )
        with pytest.raises(f.FrameTruncated):
            await ws.read_handshake(fed(b"GET / HTTP/1.1\r\nHost: h\r\n"))


class TestMalformedStaysLoud:
    """Wrong bytes are a protocol violation, never a quiet dropout."""

    @pytest.mark.parametrize(
        "blob,match",
        [
            (b"XX" + FRAME[2:], "bad frame magic"),
            (FRAME[:3] + b"\x7f" + FRAME[4:], "unknown frame kind"),
            (FRAME[:4] + b"\xff\xff\xff\xff", "oversized frame"),
        ],
    )
    @in_loop
    async def test_tcp(self, blob, match):
        with pytest.raises(ValueError, match=match) as excinfo:
            await tcp_link(blob).recv()
        assert not isinstance(excinfo.value, f.FrameTruncated)

    @in_loop
    async def test_ws_text_frame(self):
        link, _ = ws_link(client_frame(ws.OP_TEXT, b"hello"))
        with pytest.raises(ValueError, match="binary"):
            await link.recv()

    @in_loop
    async def test_ws_unmasked_client_frame(self):
        link, _ = ws_link(ws.encode_ws_frame(ws.OP_BINARY, FRAME))
        with pytest.raises(ValueError, match="unmasked client frame"):
            await link.recv()

    @in_loop
    async def test_ws_message_that_is_not_a_wire_frame(self):
        link, _ = ws_link(client_frame(ws.OP_BINARY, b"XX" + FRAME[2:]))
        with pytest.raises(ValueError, match="bad frame magic"):
            await link.recv()


class TestWSMessageLayer:
    """What only the message layer can validate: fragment sequencing,
    interleaved control frames, the assembled-size bound."""

    @in_loop
    async def test_hand_fragmented_message_reassembles_with_framed_count(self):
        pieces = [FRAME[:5], FRAME[5:11], FRAME[11:]]
        frames = [
            client_frame(ws.OP_BINARY, pieces[0], fin=False),
            client_frame(ws.OP_CONT, pieces[1], fin=False),
            client_frame(ws.OP_CONT, pieces[2]),
        ]
        link, sink = ws_link(*frames)
        kind, body, nbytes = await link.recv()
        assert (kind, body) == (f.KIND_RESPONSE, b"payload-bytes")
        # The framed count is every fragment's header + mask + payload.
        assert nbytes == sum(len(fr) for fr in frames)
        assert nbytes == len(FRAME) + sum(
            ws.ws_frame_overhead(len(p), masked=True) for p in pieces
        )
        assert not sink.data and link.control_received == 0

    @in_loop
    async def test_continuation_with_nothing_to_continue(self):
        link, _ = ws_link(client_frame(ws.OP_CONT, FRAME))
        with pytest.raises(ValueError, match="without a message to continue"):
            await link.recv()

    @in_loop
    async def test_data_frame_interleaved_into_a_fragmented_message(self):
        link, _ = ws_link(
            client_frame(ws.OP_BINARY, FRAME[:5], fin=False),
            client_frame(ws.OP_BINARY, FRAME[5:]),
        )
        with pytest.raises(ValueError, match="interleaved"):
            await link.recv()

    @in_loop
    async def test_assembled_message_over_max_message(self, monkeypatch):
        monkeypatch.setattr(ws, "MAX_MESSAGE", 24)
        # Each fragment is within the bound; their sum is not.
        link, _ = ws_link(
            client_frame(ws.OP_BINARY, b"a" * 20, fin=False),
            client_frame(ws.OP_CONT, b"b" * 20),
        )
        with pytest.raises(ValueError, match="exceeds MAX_MESSAGE=24"):
            await link.recv()

    @in_loop
    async def test_ping_answered_mid_message(self):
        ping = client_frame(ws.OP_PING, b"hb")
        first = client_frame(ws.OP_BINARY, FRAME[:7], fin=False)
        last = client_frame(ws.OP_CONT, FRAME[7:])
        link, sink = ws_link(first, ping, last)
        kind, body, nbytes = await link.recv()
        assert (kind, body) == (f.KIND_RESPONSE, b"payload-bytes")
        pong = ws.encode_ws_frame(ws.OP_PONG, b"hb")
        assert bytes(sink.data) == pong
        # The ping and its pong are connection overhead, not message bytes.
        assert nbytes == len(first) + len(last)
        assert link.control_received == len(ping)
        assert link.control_sent == len(pong)


class TestSendAndOracle:
    """What a link measures on send is what ``framed_size`` and the
    ``envelope_overhead`` oracle predict."""

    @pytest.mark.parametrize("size", [0, 125, 126, 70000])
    @in_loop
    async def test_send_counts_before_flush_and_matches_the_oracle(self, size):
        frame = f.encode_frame(f.KIND_REQUEST, b"x" * size)
        cases = [
            (lambda s: f.TCPLink(fed(), s), "sockets", "up"),
            (lambda s: ws.WSLink(fed(), s, masked=True), "websocket", "up"),
            (lambda s: ws.WSLink(fed(), s, masked=False), "websocket", "down"),
        ]
        for make, carrier, direction in cases:
            sink, counted = Sink(), []
            link = make(sink)
            n = await link.send(frame, count=counted.append)
            assert counted == [n] and n == len(sink.data)
            assert n == link.framed_size(len(frame))
            assert n == len(frame) + ws.envelope_overhead(
                carrier, direction, len(frame)
            )

    def test_envelope_overhead(self):
        assert ws.envelope_overhead("sockets", "down", 10_000) == 0
        # Requests ride unmasked, responses carry the client mask.
        assert ws.envelope_overhead("websocket", "down", 10) == 2
        assert ws.envelope_overhead("websocket", "up", 10) == 6
        with pytest.raises(ValueError, match="direction"):
            ws.envelope_overhead("websocket", "sideways", 10)
        with pytest.raises(ValueError, match="carrier"):
            ws.envelope_overhead("pigeon", "up", 10)

    @in_loop
    async def test_start_close_sends_one_close(self):
        sink = Sink()
        link = ws.WSLink(fed(eof=False), sink, masked=True)
        await link.start_close()
        await link.start_close()
        fin, opcode, payload = ws.decode_ws_frame(
            bytes(sink.data), require_mask=True
        )
        assert (fin, opcode, payload) == (True, ws.OP_CLOSE, b"\x03\xe8")
        assert link.control_sent == len(sink.data)


class TestOpenLink:
    """Each role's half of the carrier setup, bytes counted."""

    async def _open(self, carrier, role, reader):
        sink, sent, received = Sink(), [], []
        link = await ws.open_link(
            carrier, role, reader, sink,
            sent=sent.append, received=received.append, host="h", port=7,
        )
        return link, sink, sent, received

    @pytest.mark.parametrize("role", ["accept", "dial"])
    @in_loop
    async def test_framed_tcp_needs_no_setup(self, role):
        link, sink, sent, received = await self._open("sockets", role, fed())
        assert isinstance(link, f.TCPLink)
        assert not sink.data and not sent and not received

    @in_loop
    async def test_accept_answers_the_upgrade(self):
        key = ws.websocket_key(entropy=bytes(16))
        request = ws.handshake_request("h", 7, key)
        link, sink, sent, received = await self._open(
            "websocket", "accept", fed(request, eof=False)
        )
        assert isinstance(link, ws.WSLink) and not link.masked
        assert bytes(sink.data) == ws.handshake_response(key)
        assert (sent, received) == ([len(sink.data)], [len(request)])

    @in_loop
    async def test_dial_validates_the_accept_header(self, monkeypatch):
        key = ws.websocket_key(entropy=bytes(16))
        other = ws.websocket_key(entropy=bytes(range(16)))
        monkeypatch.setattr(ws, "websocket_key", lambda: key)
        response = ws.handshake_response(key)
        link, sink, sent, received = await self._open(
            "websocket", "dial", fed(response, eof=False)
        )
        assert isinstance(link, ws.WSLink) and link.masked
        assert bytes(sink.data) == ws.handshake_request("h", 7, key)
        assert (sent, received) == ([len(sink.data)], [len(response)])
        wrong = ws.handshake_response(other)
        with pytest.raises(ValueError, match="bad Sec-WebSocket-Accept"):
            await self._open("websocket", "dial", fed(wrong, eof=False))

    @in_loop
    async def test_unknown_carrier_and_role_rejected(self):
        with pytest.raises(ValueError, match="carrier"):
            await self._open("pigeon", "dial", fed())
        with pytest.raises(ValueError, match="role"):
            await self._open("websocket", "listen", fed())
