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
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Optional

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


async def read_frame(reader: asyncio.StreamReader) -> tuple[int, bytes, int]:
    """Read one frame from a stream: ``(kind, body, framed byte count)``.

    Raises :class:`FrameEOF` on a clean close *between* frames and
    :class:`FrameTruncated` on a close mid-frame (the peer died
    mid-send), carrying the bytes of the frame read before the cut.
    """
    try:
        header = await reader.readexactly(FRAME_OVERHEAD)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise FrameEOF from exc
        raise FrameTruncated(
            "connection closed inside a frame header", len(exc.partial)
        ) from exc
    kind, length = _check_header(header)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameTruncated(
            "connection closed inside a frame body", FRAME_OVERHEAD + len(exc.partial)
        ) from exc
    return kind, body, FRAME_OVERHEAD + length


class TCPLink:
    """Framed TCP: one connected stream carrying whole wire frames.

    ``recv`` returns ``(kind, body, wire bytes)`` and raises
    :class:`LinkClosed` once the peer is gone (clean EOF or a stream cut
    off mid-frame); a header that fails its check raises
    ``ValueError`` after its :data:`FRAME_OVERHEAD` bytes were consumed.
    ``send`` reports its byte count to ``count`` *before* the flush, so
    a cancellation landing in the drain can never lose already-written
    bytes from the books.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    async def recv(self) -> tuple[int, bytes, int]:
        try:
            return await read_frame(self._reader)
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
        self._writer.write(frame)
        await self._writer.drain()
        return n

    async def start_close(self) -> None:
        """Begin a graceful goodbye: close the socket (the peer reads a
        clean EOF between frames)."""
        self._writer.close()


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
