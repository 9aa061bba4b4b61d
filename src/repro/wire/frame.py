"""Length-prefixed binary frames for wire-native transports.

Every message a Dordis transport puts on a real link is one *frame*:

``MAGIC(2) ∥ VERSION(1) ∥ KIND(1) ∥ LENGTH(4, big-endian) ∥ BODY``

The fixed 8-byte header makes framing self-delimiting over a byte
stream, the magic/version bytes make cross-protocol or cross-version
traffic fail to parse instead of misparse, and the bounded length
prefix means a malicious or corrupted header can never make a reader
allocate unbounded memory or wait for data that will never come.

Frame *kinds* partition the conversation: a connection opens with a
``HELLO``/``WELCOME`` handshake (protocol version + client id), then
carries ``REQUEST``/``RESPONSE`` pairs; a client-side exception crosses
back as an ``ERROR`` frame (see :func:`repro.wire.codecs.encode_error`).

The ``HELLO`` body has an explicit fixed schema (:class:`Hello`,
:func:`encode_hello`/:func:`decode_hello`) rather than riding the
generic codecs: the listener must be able to parse *and reject* a
handshake from a client speaking a different wire version, so the
handshake layout can never itself be version-dependent.

All decode paths raise :class:`ValueError` on malformed input — never
a partial parse, never a hang.

On a socket, both ends run one :class:`FrameProtocol` (an
``asyncio.BufferedProtocol``) under a :class:`TCPLink`:

* **Staging buffer.** The kernel writes into a 64 KiB staging buffer;
  every frame whose body is already staged is parsed out of it, so
  several small frames still arrive in one ``recv_into``.  A link holds
  its staging buffer only while it holds bytes, so a thousand idle
  connections hold none.
* **Body buffers.** A header that passes its check and announces a body
  larger than what is staged gets a buffer of exactly that length; the
  staged bytes are copied in and the kernel writes the rest straight
  into it.  The body is handed on as a read-only ``memoryview`` of that
  buffer — a model-sized masked input lands once.  A new buffer is
  allocated uninitialised, so a hostile length prefix costs address
  space, not resident memory, until its bytes really arrive; a large
  buffer whose body is gone is kept (32 MiB of them at most) for the
  next body of its length, because landing a body in fresh pages costs
  more than the copy it saves.
* **Flow control.** Reading pauses while one complete frame waits
  unread and resumes when it is read, so a link holds at most that
  frame plus the one in progress; ``send`` waits out
  ``pause_writing``/``resume_writing``.
"""

from __future__ import annotations

import asyncio
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

MAGIC = b"DW"
WIRE_VERSION = 6

#: Fixed header size: magic(2) + version(1) + kind(1) + length(4).
FRAME_OVERHEAD = 8

#: Upper bound on one frame body (256 MiB).  A length prefix above this
#: is rejected outright — the defense against hostile 4 GiB prefixes.
MAX_BODY = 1 << 28

KIND_HELLO = 0x01
KIND_WELCOME = 0x02
KIND_REQUEST = 0x10
KIND_RESPONSE = 0x11
KIND_ERROR = 0x12

_KNOWN_KINDS = frozenset(
    {KIND_HELLO, KIND_WELCOME, KIND_REQUEST, KIND_RESPONSE, KIND_ERROR}
)


class FrameEOF(Exception):
    """The peer closed the stream cleanly between frames (not an error)."""


class FrameTruncated(ValueError):
    """The stream ended inside a frame: the peer died mid-send.

    A ``ValueError`` like every other decode failure, but named, so a
    :class:`Link` can tell a dead peer (a dropout) from malformed bytes
    (a protocol violation that must stay loud).  ``received`` is how
    many bytes of the frame were read before the cut.
    """

    def __init__(self, message: str, received: int):
        super().__init__(message)
        self.received = received


class LinkClosed(Exception):
    """The peer is gone: clean EOF, a close handshake, or a stream cut
    off mid-frame.  ``received`` is the bytes of the cut frame read off
    the socket (0 on a clean EOF), so a caller can book them."""

    def __init__(self, received: int = 0):
        super().__init__()
        self.received = received


def encode_frame(kind: int, body: bytes) -> bytes:
    """One wire frame; ``len()`` of the result is the framed byte count."""
    if kind not in _KNOWN_KINDS:
        raise ValueError(f"unknown frame kind {kind:#x}")
    if len(body) > MAX_BODY:
        raise ValueError(
            f"frame body of {len(body)} bytes exceeds MAX_BODY={MAX_BODY}"
        )
    return (
        MAGIC
        + bytes((WIRE_VERSION, kind))
        + len(body).to_bytes(4, "big")
        + body
    )


def fill_frame_header(buf: bytearray, kind: int) -> None:
    """Stamp the 8-byte header into a preallocated single-buffer frame.

    ``buf`` must start with :data:`FRAME_OVERHEAD` reserved bytes
    followed by the already-written body — the zero-copy counterpart of
    :func:`encode_frame` (see
    :func:`repro.wire.codecs.encode_payload_frame`), validating the
    same kind/size invariants.
    """
    if kind not in _KNOWN_KINDS:
        raise ValueError(f"unknown frame kind {kind:#x}")
    length = len(buf) - FRAME_OVERHEAD
    if length < 0:
        raise ValueError("buffer smaller than the frame header")
    if length > MAX_BODY:
        raise ValueError(
            f"frame body of {length} bytes exceeds MAX_BODY={MAX_BODY}"
        )
    buf[:2] = MAGIC
    buf[2] = WIRE_VERSION
    buf[3] = kind
    buf[4:8] = length.to_bytes(4, "big")


def _check_header(header: bytes) -> tuple[int, int]:
    """Validate an 8-byte frame header; returns (kind, body length)."""
    if header[:2] != MAGIC:
        raise ValueError(f"bad frame magic {header[:2]!r} (expected {MAGIC!r})")
    if header[2] != WIRE_VERSION:
        raise ValueError(
            f"unsupported frame version {header[2]} (speaking {WIRE_VERSION})"
        )
    kind = header[3]
    if kind not in _KNOWN_KINDS:
        raise ValueError(f"unknown frame kind {kind:#x}")
    length = int.from_bytes(header[4:8], "big")
    if length > MAX_BODY:
        raise ValueError(
            f"oversized frame: length prefix {length} exceeds MAX_BODY={MAX_BODY}"
        )
    return kind, length


def decode_frame(data: bytes) -> tuple[int, bytes]:
    """Parse exactly one frame; raises ``ValueError`` on any deviation.

    Strict: truncated headers, truncated bodies, and trailing garbage
    all fail — a buffer either is one whole frame or it does not parse.
    """
    if len(data) < FRAME_OVERHEAD:
        raise ValueError("truncated frame header")
    kind, length = _check_header(data[:FRAME_OVERHEAD])
    body = data[FRAME_OVERHEAD:]
    if len(body) < length:
        raise ValueError("truncated frame body")
    if len(body) > length:
        raise ValueError("trailing garbage after frame")
    return kind, bytes(body)


#: Staging buffer of every link: small frames are parsed out of it, so
#: one ``recv_into`` can land several of them at once.
STAGING_SIZE = 1 << 16


class _BodyPool:
    """Body buffers of finished frames, kept for the next body of their
    length.

    The kernel lands a body in fresh memory one page fault per page, and
    on a 2.6 MB masked input that costs more than the copy the body
    buffer saves; successive rounds of one shape send bodies of one
    length.  So a buffer a body was handed on in comes back here once
    that body and every view of it are gone, and the next body of
    exactly its length lands in it.  Only buffers larger than the
    staging buffer come back, only whole ones (a body cut off is
    dropped), and at most ``limit`` bytes of them wait.  The pool is
    process-wide, like an allocator's free list; a body can die on any
    thread, or in a collection the pool's own allocation set off, hence
    the re-entrant lock.
    """

    def __init__(self, limit: int):
        self._limit = limit
        self._held = 0
        self._free: dict[int, list[np.ndarray]] = {}
        self._lock = threading.RLock()

    def take(self, n: int) -> np.ndarray:
        """A buffer of ``n`` bytes, uninitialised unless it was used before."""
        with self._lock:
            free = self._free.get(n)
            if free:
                self._held -= n
                return free.pop()
        return np.empty(n, np.uint8)

    def hand_off(self, buf: np.ndarray) -> memoryview:
        """``buf``, filled, as a read-only body; it comes back with the
        last view of it."""
        view = buf[:]  # an ndarray view can carry a finalizer; a memoryview cannot
        if buf.size > STAGING_SIZE:
            weakref.finalize(view, self._give_back, buf).atexit = False
        return memoryview(view).toreadonly()

    def _give_back(self, buf: np.ndarray) -> None:
        with self._lock:
            if self._held + buf.size <= self._limit:
                self._held += buf.size
                self._free.setdefault(buf.size, []).append(buf)


_BODIES = _BodyPool(32 << 20)


class FrameProtocol(asyncio.BufferedProtocol):
    """The receive side of a link: socket bytes in, whole frames out.

    Bytes land in a :data:`STAGING_SIZE` staging buffer (taken when
    bytes arrive, let go once none are left), and frames whose body is
    already there are copied out of it as ``bytes``.  A header
    announcing a body larger than what is staged gets a body buffer of
    exactly that length — one a finished body of that length left
    behind, or else a new one, allocated uninitialised (a length
    announced but never sent costs address space, not resident
    memory); the staged part is copied in and ``get_buffer`` hands the
    kernel the rest, so the body lands once.  That body is passed on as
    a read-only ``memoryview`` of its buffer.

    At most one complete frame waits unread: the protocol pauses the
    transport once one does and resumes when :meth:`read` takes it, so
    a peer writing faster than its frames are read holds one complete
    frame plus the one in progress.  A frame a reader is already
    waiting for is not left waiting, so a request/response exchange
    reads on without pausing.  Writes follow
    ``pause_writing``/``resume_writing`` through :meth:`drain`.

    ``on_link`` (optional) receives a :class:`TCPLink` over the
    protocol once the connection is made.
    """

    def __init__(self, on_link: Optional[Callable[["TCPLink"], None]] = None):
        self._on_link = on_link
        self.transport: Optional[asyncio.Transport] = None
        self._stage: Optional[memoryview] = None  # held while it holds bytes
        self._start = 0  # first staged byte not yet parsed
        self._end = 0  # one past the last staged byte
        self._body: Optional[np.ndarray] = None  # a body landing in place
        self._view: Optional[memoryview] = None  # ... and its writable view
        self._kind = 0
        self._filled = 0
        self._ready: Optional[tuple[int, bytes | memoryview, int]] = None
        self._failed: Optional[BaseException] = None
        self._eof = False
        self._lost = False
        self._reading_paused = False
        self._writing_paused = False
        self._read_waiter: Optional[asyncio.Future] = None
        self._waiters: list[asyncio.Future] = []

    # -- asyncio.BufferedProtocol ----------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        if self._on_link is not None:
            self._on_link(TCPLink(self))

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._body is not None:
            return self._view[self._filled :]
        if self._stage is None:
            self._stage = memoryview(np.empty(STAGING_SIZE, np.uint8))
        return self._stage[self._end :]

    def buffer_updated(self, nbytes: int) -> None:
        if self._body is None:
            self._end += nbytes
            self._parse()
        else:
            self._filled += nbytes
            if self._filled == self._body.size:
                body, self._body, self._view = self._body, None, None
                self._ready = (
                    self._kind, _BODIES.hand_off(body), FRAME_OVERHEAD + body.size
                )
        if self._ready is not None or self._failed is not None:
            # A reader already waiting takes the frame on the loop's next
            # turn: one more read may land in the staging buffer
            # meanwhile, and the read after that pauses (the waiter is
            # done by then).  Nobody waiting, a refused header or a full
            # staging buffer: stop reading now.
            woke = self._wake_reader()
            if not woke or self._failed is not None or self._end == STAGING_SIZE:
                self._pause_reading()

    def eof_received(self) -> bool:
        self._end_of_stream(None)
        return True  # the link's owner closes the transport

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._lost = True
        self._end_of_stream(exc)
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    # -- frames ----------------------------------------------------------

    def _end_of_stream(self, exc: Optional[Exception]) -> None:
        """No byte arrives after this: settle a body cut off and let its
        buffer go — a closed link can wait long for the cycle collector."""
        if self._failed is None:
            if exc is not None:
                self._failed = exc
            elif self._body is not None:
                self._failed = FrameTruncated(
                    "connection closed inside a frame body",
                    FRAME_OVERHEAD + self._filled,
                )
        self._eof = True
        self._body = self._view = None
        self._wake_reader()

    def _parse(self) -> None:
        """Parse staged bytes until one frame is ready, a header is
        refused, or what is staged runs out (a body that does not fit
        moves to a buffer of its own)."""
        stage, start, end = self._stage, self._start, self._end
        while self._ready is None and end - start >= FRAME_OVERHEAD:
            header_end = start + FRAME_OVERHEAD
            try:
                kind, length = _check_header(bytes(stage[start:header_end]))
            except ValueError as exc:
                self._failed = exc
                start = header_end
                break
            stop = header_end + length
            if stop <= end:
                self._ready = (kind, bytes(stage[header_end:stop]), FRAME_OVERHEAD + length)
                start = stop
                continue
            self._body = _BODIES.take(length)
            self._view = memoryview(self._body)
            staged = end - header_end
            self._view[:staged] = stage[header_end:end]
            self._kind, self._filled = kind, staged
            start = end
        if start == end:
            # Nothing staged: an idle link holds no staging buffer.
            self._stage, start, end = None, 0, 0
        elif start and end - start < FRAME_OVERHEAD:
            # At most a partial header is left: move it to the front, so
            # the staging buffer always has room for the next read.
            stage[: end - start] = bytes(stage[start:end])
            start, end = 0, end - start
        self._start, self._end = start, end

    def _take(self) -> Optional[tuple[int, bytes | memoryview, int]]:
        """The next frame, or ``None`` while it is still arriving;
        raises once the stream has ended or failed."""
        frame = self._ready
        if frame is not None:
            self._ready = None
            if self._failed is None:
                self._parse()
            if self._ready is None and self._failed is None and not self._eof:
                self._resume_reading()
            return frame
        if self._failed is not None:
            raise self._failed
        if self._eof:
            if self._end > self._start:
                raise FrameTruncated(
                    "connection closed inside a frame header",
                    self._end - self._start,
                )
            raise FrameEOF
        return None

    async def read(self) -> tuple[int, bytes | memoryview, int]:
        """One frame: ``(kind, body, framed byte count)``.

        Raises :class:`FrameEOF` on a clean close *between* frames,
        :class:`FrameTruncated` on a close mid-frame (the peer died
        mid-send) carrying the bytes of the frame received before the
        cut, a plain ``ValueError`` once a header is refused (after its
        :data:`FRAME_OVERHEAD` bytes), and the transport's error if the
        connection failed.  Frames received before any of these are
        read first.
        """
        while True:
            frame = self._take()
            if frame is not None:
                return frame
            self._read_waiter = asyncio.get_running_loop().create_future()
            try:
                await self._read_waiter
            finally:
                self._read_waiter = None

    async def drain(self) -> None:
        """Wait until the transport takes writes again; raises
        ``ConnectionResetError`` once the connection is gone."""
        if self.transport.is_closing():
            await asyncio.sleep(0)  # let connection_lost run
        if self._lost:
            raise ConnectionResetError("Connection lost")
        if self._writing_paused:
            await self._wait()

    async def wait_closed(self) -> None:
        """Return once the connection is lost."""
        while not self._lost:
            await self._wait()

    async def _wait(self) -> None:
        """Until writing resumes or the connection is lost."""
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        await waiter

    def _wake_reader(self) -> bool:
        """Wake a reader waiting for a frame; whether one was."""
        waiter = self._read_waiter
        if waiter is None or waiter.done():
            return False
        waiter.set_result(None)
        return True

    def _pause_reading(self) -> None:
        if not self._reading_paused:
            self._reading_paused = True
            self.transport.pause_reading()

    def _resume_reading(self) -> None:
        if self._reading_paused:
            self._reading_paused = False
            self.transport.resume_reading()


class TCPLink:
    """Framed TCP: one connected socket carrying whole wire frames.

    ``recv`` returns ``(kind, body, wire bytes)`` and raises
    :class:`LinkClosed` once the peer is gone (clean EOF or a stream cut
    off mid-frame); a header that fails its check raises
    ``ValueError`` after its :data:`FRAME_OVERHEAD` bytes were consumed.
    ``send`` reports its byte count to ``count`` *before* the flush, so
    a cancellation landing in the drain can never lose already-written
    bytes from the books; it hands the transport a ``memoryview``, so
    what the socket does not take at once is buffered without first
    being sliced off as a copy.
    """

    def __init__(self, protocol: FrameProtocol):
        self.protocol = protocol
        self.transport = protocol.transport

    async def recv(self) -> tuple[int, bytes | memoryview, int]:
        try:
            return await self.protocol.read()
        except FrameEOF as exc:
            raise LinkClosed from exc
        except FrameTruncated as exc:
            raise LinkClosed(exc.received) from exc

    async def send(
        self,
        frame: bytes | bytearray,
        count: Optional[Callable[[int], None]] = None,
    ) -> int:
        n = len(frame)
        if count is not None:
            count(n)
        self.transport.write(memoryview(frame))
        await self.protocol.drain()
        return n

    async def start_close(self) -> None:
        """Begin a graceful goodbye: close the socket (the peer reads a
        clean EOF between frames)."""
        self.transport.close()

    async def aclose(self) -> None:
        """Close the socket and wait until it is gone."""
        self.transport.close()
        await self.protocol.wait_closed()


async def open_link(host: str, port: int) -> TCPLink:
    """Dial ``host:port``; the connected socket as a :class:`TCPLink`."""
    _transport, protocol = await asyncio.get_running_loop().create_connection(
        FrameProtocol, host, port
    )
    return TCPLink(protocol)


async def serve_links(
    on_link: Callable[[TCPLink], None], host: str, port: int, **kwargs
) -> asyncio.AbstractServer:
    """Listen on ``host:port``, handing each accepted socket to
    ``on_link`` as a :class:`TCPLink` (keyword arguments go to
    ``loop.create_server``)."""
    return await asyncio.get_running_loop().create_server(
        lambda: FrameProtocol(on_link), host, port, **kwargs
    )


#: Upper bound on a HELLO auth token (fits the 2-byte length field).
MAX_AUTH_TOKEN = (1 << 16) - 1

#: Fixed part of the HELLO body: version(1) + client id(8) + token len(2).
HELLO_OVERHEAD = 11


@dataclass(frozen=True)
class Hello:
    """What a dialing client announces before any protocol bytes flow.

    ``wire_version`` is carried explicitly (not just in the frame
    header) so the listener can *name* a version skew in its rejection;
    ``auth_token`` is an optional shared secret the listener may demand
    of dialing clients (empty means unauthenticated).
    """

    client_id: int
    wire_version: int = WIRE_VERSION
    auth_token: bytes = b""


def encode_hello(hello: Hello) -> bytes:
    """Fixed-layout HELLO body:
    ``version(1) ∥ client id(8, big-endian) ∥ token len(2) ∥ token``."""
    if not 0 <= hello.wire_version <= 0xFF:
        raise ValueError(f"wire version {hello.wire_version} must fit one byte")
    if not 0 <= hello.client_id < 1 << 64:
        raise ValueError(f"client id {hello.client_id} must fit eight bytes")
    if len(hello.auth_token) > MAX_AUTH_TOKEN:
        raise ValueError(
            f"auth token of {len(hello.auth_token)} bytes exceeds "
            f"MAX_AUTH_TOKEN={MAX_AUTH_TOKEN}"
        )
    return (
        bytes((hello.wire_version,))
        + hello.client_id.to_bytes(8, "big")
        + len(hello.auth_token).to_bytes(2, "big")
        + bytes(hello.auth_token)
    )


def decode_hello(body: bytes) -> Hello:
    """Strict inverse of :func:`encode_hello`.

    Truncation, token-length mismatch, and trailing garbage all raise
    ``ValueError``.  A *foreign* ``wire_version`` parses fine — version
    acceptance is the listener's decision, not the codec's, so the
    rejection can carry both version numbers.
    """
    if len(body) < HELLO_OVERHEAD:
        raise ValueError("truncated HELLO body")
    token_len = int.from_bytes(body[9:11], "big")
    token = body[HELLO_OVERHEAD:]
    if len(token) < token_len:
        raise ValueError("truncated HELLO auth token")
    if len(token) > token_len:
        raise ValueError("trailing garbage after HELLO body")
    return Hello(
        client_id=int.from_bytes(body[1:9], "big"),
        wire_version=body[0],
        auth_token=bytes(token),
    )
