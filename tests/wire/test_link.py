"""The link, driven without sockets.

A :class:`FrameProtocol` is driven here through the two calls a socket
transport makes — ``get_buffer`` and ``buffer_updated`` — by a fake
transport that delivers what a peer sent in pieces of a chosen size and
honours ``pause_reading``/``resume_reading`` as the kernel buffer would.
So everything a peer can put on the stream is exercised byte by byte: a
peer that dies (clean EOF, a stream cut off mid-frame) surfaces as
:class:`LinkClosed`, and bytes that are *wrong* stay a loud
``ValueError``.
"""

import asyncio
import functools

import numpy as np
import pytest

from repro.wire import frame as f

FRAME = f.encode_frame(f.KIND_RESPONSE, b"payload-bytes")


def in_loop(test):
    """Run an ``async def`` test body under its own event loop."""

    @functools.wraps(test)
    def wrapper(*args, **kwargs):
        return asyncio.run(test(*args, **kwargs))

    return wrapper


class FakeTransport:
    """The socket end of a :class:`FrameProtocol`, without a socket.

    ``feed`` queues what the peer sent; while reading is not paused the
    queued bytes are delivered through ``get_buffer``/``buffer_updated``
    in reads of at most ``piece`` bytes (and never more than the buffer
    handed out), as ``recv_into`` would.  Writes are captured in
    ``data``.
    """

    def __init__(self, piece=1 << 20):
        self.piece = piece
        self.pending = bytearray()
        self.eof = False
        self.paused = False
        self.pauses = 0
        self.reads = 0
        self.closed = False
        self.data = bytearray()
        self.protocol = f.FrameProtocol()
        self.protocol.connection_made(self)

    def feed(self, *blobs, eof=False):
        for blob in blobs:
            self.pending += blob
        self.eof = self.eof or eof
        self._pump()
        return self

    def _pump(self):
        while self.pending and not self.paused:
            buf = self.protocol.get_buffer(-1)
            n = min(len(buf), self.piece, len(self.pending))
            buf[:n] = self.pending[:n]
            del self.pending[:n]
            self.reads += 1
            self.protocol.buffer_updated(n)
        if self.eof and not self.pending and not self.paused:
            self.eof = False
            self.protocol.eof_received()

    # -- the transport surface the protocol and the link use ---------------

    def pause_reading(self):
        self.paused = True
        self.pauses += 1

    def resume_reading(self):
        self.paused = False
        self._pump()

    def write(self, blob):
        self.data += blob

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True


def tcp_link(*blobs):
    return f.TCPLink(FakeTransport().feed(*blobs, eof=True).protocol)


async def read_all(protocol):
    """Every frame until the stream ends, and how it ended."""
    frames = []
    while True:
        try:
            frames.append(await protocol.read())
        except (f.FrameEOF, ValueError) as exc:
            return frames, exc


class TestPeerGoneIsLinkClosed:
    """Clean EOF and a stream cut mid-frame: one signal, wherever the
    cut falls — before the first byte, inside the header, at its end or
    anywhere in the body."""

    @pytest.mark.parametrize("cut", range(len(FRAME)))
    @in_loop
    async def test_tcp_eof_and_truncation(self, cut):
        with pytest.raises(f.LinkClosed) as excinfo:
            await tcp_link(FRAME[:cut]).recv()
        # What arrived of the cut frame is reported, for the books.
        assert excinfo.value.received == cut

    @in_loop
    async def test_the_stream_reader_names_the_truncation(self):
        assert issubclass(f.FrameTruncated, ValueError)
        with pytest.raises(f.FrameTruncated) as excinfo:
            await FakeTransport().feed(FRAME[:-1], eof=True).protocol.read()
        assert excinfo.value.received == len(FRAME) - 1


class TestMalformedStaysLoud:
    """Wrong bytes are a protocol violation, never a quiet dropout."""

    @pytest.mark.parametrize(
        "blob,match",
        [
            (b"XX" + FRAME[2:], "bad frame magic"),
            (FRAME[:2] + b"\x05" + FRAME[3:], "unsupported frame version 5"),
            (FRAME[:2] + b"\x07" + FRAME[3:], "unsupported frame version 7"),
            (FRAME[:3] + b"\x7f" + FRAME[4:], "unknown frame kind"),
            (FRAME[:4] + b"\xff\xff\xff\xff", "oversized frame"),
            (FRAME[:4] + (f.MAX_BODY + 1).to_bytes(4, "big"), "oversized frame"),
        ],
    )
    @in_loop
    async def test_tcp(self, blob, match):
        with pytest.raises(ValueError, match=match) as excinfo:
            await tcp_link(blob).recv()
        assert not isinstance(excinfo.value, f.FrameTruncated)


class TestSend:
    """What a link measures on send is the frame's length."""

    @pytest.mark.parametrize("size", [0, 125, 126, 70000])
    @in_loop
    async def test_send_counts_before_flush(self, size):
        frame = f.encode_frame(f.KIND_REQUEST, b"x" * size)
        sink, counted = FakeTransport(), []
        n = await f.TCPLink(sink.protocol).send(frame, count=counted.append)
        assert counted == [n] and n == len(sink.data) == len(frame)
        assert sink.data == frame


#: One conversation's worth of frames: a HELLO, a REQUEST and a RESPONSE.
CONVERSATION = [
    f.encode_frame(f.KIND_HELLO, f.encode_hello(f.Hello(7, auth_token=b"tok"))),
    f.encode_frame(f.KIND_REQUEST, bytes(range(200))),
    f.encode_frame(f.KIND_RESPONSE, b"r" * 300),
]
STREAM = b"".join(CONVERSATION)

#: A masked-input-sized body (the ``wide_model`` upload is 2,622,586 B).
BIG = np.random.default_rng(0).integers(0, 256, 2_622_578, dtype=np.uint8).tobytes()
BIG_FRAME = f.encode_frame(f.KIND_RESPONSE, BIG)


def _expected(frames):
    return [f.decode_frame(frame) + (len(frame),) for frame in frames]


class TestParser:
    """The byte-level parser: every split of a stream parses to the same
    frames, and every refusal and cut is exact."""

    @pytest.mark.parametrize("cut", range(len(STREAM) + 1))
    @in_loop
    async def test_conversation_split_at_every_byte(self, cut):
        fake = FakeTransport().feed(STREAM[:cut]).feed(STREAM[cut:], eof=True)
        frames, end = await read_all(fake.protocol)
        assert [(k, bytes(b), n) for k, b, n in frames] == _expected(CONVERSATION)
        assert type(end) is f.FrameEOF

    @in_loop
    async def test_three_small_frames_in_one_update(self):
        fake = FakeTransport().feed(STREAM, eof=True)
        assert fake.reads == 1  # one recv_into landed all three
        frames, end = await read_all(fake.protocol)
        assert frames == _expected(CONVERSATION)
        assert all(type(body) is bytes for _k, body, _n in frames)
        assert type(end) is f.FrameEOF

    @pytest.mark.parametrize("piece", [1, 7, 1 << 16])
    @in_loop
    async def test_big_body_lands_in_its_own_buffer(self, piece):
        fake = FakeTransport(piece)
        fake.feed(BIG_FRAME[: f.STAGING_SIZE])
        # Past the staged bytes, the kernel is handed exactly the rest
        # of the body, nothing of the staging buffer.
        rest = len(BIG_FRAME) - f.STAGING_SIZE
        assert len(fake.protocol.get_buffer(-1)) == rest
        fake.feed(BIG_FRAME[f.STAGING_SIZE :], eof=True)
        kind, body, n = await fake.protocol.read()
        assert (kind, n) == (f.KIND_RESPONSE, len(BIG_FRAME))
        assert isinstance(body, memoryview) and body.readonly
        assert body == BIG
        with pytest.raises(f.FrameEOF):
            await fake.protocol.read()

    @pytest.mark.parametrize(
        "header,match",
        [
            (b"XX" + FRAME[2:8], "bad frame magic"),
            (FRAME[:2] + b"\x05" + FRAME[3:8], "unsupported frame version"),
            (FRAME[:3] + b"\x7f" + FRAME[4:8], "unknown frame kind"),
            (FRAME[:4] + (f.MAX_BODY + 1).to_bytes(4, "big"), "oversized frame"),
        ],
    )
    @in_loop
    async def test_header_refused_after_its_eight_bytes(self, header, match):
        """Seven bytes are not yet a verdict; the eighth is, with no
        EOF and no body needed — and a frame before it is read first."""
        fake = FakeTransport().feed(FRAME, header[:7])
        assert await fake.protocol.read() == _expected([FRAME])[0]
        waiting = asyncio.ensure_future(fake.protocol.read())
        await asyncio.sleep(0)
        assert not waiting.done()
        fake.feed(header[7:])
        with pytest.raises(ValueError, match=match):
            await asyncio.wait_for(waiting, 1)

    @pytest.mark.parametrize("frame", [FRAME, CONVERSATION[1]], ids=["small", "request"])
    @in_loop
    async def test_eof_at_every_byte(self, frame):
        for cut in range(len(frame) + 1):
            fake = FakeTransport().feed(FRAME, frame[:cut], eof=True)
            frames, end = await read_all(fake.protocol)
            assert frames == _expected([FRAME] + ([frame] if cut == len(frame) else []))
            if cut in (0, len(frame)):
                assert type(end) is f.FrameEOF
            else:
                assert type(end) is f.FrameTruncated and end.received == cut

    @in_loop
    async def test_one_complete_frame_waits_and_reading_resumes_on_read(self):
        fake = FakeTransport(piece=1 << 16).feed(*[BIG_FRAME] * 3)
        protocol = fake.protocol
        # One frame complete, the next not begun: paused, the rest of
        # what the peer sent still in the kernel's hands.
        assert fake.paused and protocol._body is None
        assert len(fake.pending) == 2 * len(BIG_FRAME)
        for left in (1, 0, None):
            kind, body, n = await protocol.read()
            assert body == BIG
            if left is not None:
                assert fake.paused and len(fake.pending) == left * len(BIG_FRAME)
        assert not fake.paused


def _address(body):
    return np.frombuffer(body, np.uint8).ctypes.data


class TestAWaitingReaderReadsOn:
    """A frame a reader already waits for is handed over without
    pausing the transport; a second one arriving before the reader ran
    pauses it."""

    @in_loop
    async def test_request_response_never_pauses(self):
        fake = FakeTransport()
        for _ in range(3):
            waiting = asyncio.ensure_future(fake.protocol.read())
            await asyncio.sleep(0)
            fake.feed(FRAME)
            assert await waiting == _expected([FRAME])[0]
        assert fake.pauses == 0 and not fake.paused

    @in_loop
    async def test_a_second_frame_before_the_reader_ran_pauses(self):
        fake = FakeTransport(piece=len(FRAME))
        waiting = asyncio.ensure_future(fake.protocol.read())
        await asyncio.sleep(0)
        fake.feed(FRAME, FRAME, FRAME)
        # One read woke the reader, the next was staged and paused.
        assert fake.reads == 2 and fake.paused
        assert await waiting == _expected([FRAME])[0]
        assert await fake.protocol.read() == _expected([FRAME])[0]
        assert await fake.protocol.read() == _expected([FRAME])[0]
        assert not fake.paused and not fake.pending


class TestBodyBuffersComeBack:
    """A large body buffer is landed in again only once its body, and
    every view of it, is gone — and only if a whole body filled it."""

    @in_loop
    async def test_reused_only_after_the_last_view_dies(self):
        payload = [bytes((i,)) * (3 * f.STAGING_SIZE + 11) for i in range(3)]
        frames = [f.encode_frame(f.KIND_RESPONSE, p) for p in payload]

        async def land(frame):
            _kind, body, _n = await FakeTransport().feed(frame, eof=True).protocol.read()
            return body

        first = await land(frames[0])
        held = np.frombuffer(first, np.uint8)[5:9]  # a view outlives the body
        first_at = _address(first)
        del first
        second = await land(frames[1])
        assert _address(second) != first_at
        assert held.tobytes() == payload[0][5:9]
        second_at = _address(second)
        del held, second
        # Two arrays of the same size would take both buffers, were they
        # back with the allocator.
        decoys = [np.empty(len(payload[0]), np.uint8) for _ in range(2)]
        third = await land(frames[2])
        assert _address(third) in (first_at, second_at)
        assert third == payload[2]
        assert all(d.ctypes.data not in (first_at, second_at) for d in decoys)

    @in_loop
    async def test_a_body_cut_off_is_not_kept(self):
        length = 3 * f.STAGING_SIZE + 13
        frame = f.encode_frame(f.KIND_RESPONSE, b"c" * length)
        fake = FakeTransport().feed(frame[: len(frame) // 2], eof=True)
        with pytest.raises(f.FrameTruncated):
            await fake.protocol.read()
        del fake
        assert not f._BODIES._free.get(length)
