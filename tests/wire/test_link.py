"""The link, driven without sockets.

A :class:`TCPLink` is constructible from a fed ``asyncio.StreamReader``
and any object with ``write``/``drain``, so everything a peer can put on
the stream is exercised here byte by byte: a peer that dies (clean EOF,
a stream cut off mid-frame) surfaces as :class:`LinkClosed`, and bytes
that are *wrong* stay a loud ``ValueError``.
"""

import asyncio
import functools

import pytest

from repro.wire import frame as f

FRAME = f.encode_frame(f.KIND_RESPONSE, b"payload-bytes")


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
            await f.read_frame(fed(FRAME[:-1]))
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
        sink, counted = Sink(), []
        n = await f.TCPLink(fed(), sink).send(frame, count=counted.append)
        assert counted == [n] and n == len(sink.data) == len(frame)
