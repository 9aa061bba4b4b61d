"""RFC 6455 WebSocket wire layer — pure stdlib, no third-party deps.

The transport stack's second socket carrier speaks standards WebSocket
so the same :mod:`repro.wire` frames that ride raw framed TCP can
traverse HTTP-aware infrastructure (proxies, load balancers) the way
the original system's Socket.IO substrate does.  This module is the
protocol layer only — it is handed streams, it opens no sockets:

- **Handshake**: the HTTP/1.1 Upgrade exchange (RFC 6455 §4).
  :func:`handshake_request` / :func:`handshake_response` build the two
  messages; :func:`parse_handshake_request` /
  :func:`parse_handshake_response` validate them strictly, including
  the ``Sec-WebSocket-Key`` → ``Sec-WebSocket-Accept`` SHA-1
  derivation (:func:`accept_for`).
- **Frames** (§5): :func:`encode_ws_frame` / :func:`decode_ws_frame` /
  :func:`read_ws_frame` speak the binary framing — FIN/opcode byte,
  7/16/64-bit payload lengths, 4-byte client masking key, control
  frames (close/ping/pong), continuation fragments.  Length encodings
  must be minimal and are bounded by :data:`MAX_MESSAGE`, so a hostile
  64-bit prefix can never force an allocation or an eternal read.
- **Masking discipline** (§5.1): a reader declares which side it is —
  frames from the WebSocket *client* must be masked, frames from the
  *server* must not be — and any frame violating that fails to parse.
- **The link** (:class:`WSLink`): wire frames as binary messages over
  one upgraded stream — inbound reassembly, ping/pong, the close
  handshake — with the surface of :class:`repro.wire.frame.TCPLink`.
- **The carrier seam**: :func:`open_link` is the one place a carrier
  name picks a link (and performs that side's half of the upgrade);
  :func:`envelope_overhead` is the matching byte oracle.

All decode paths raise :class:`ValueError` on malformed input — never
a partial parse, never a hang — mirroring :mod:`repro.wire.frame`.  A
stream cut off *inside* a frame raises the named
:class:`~repro.wire.frame.FrameTruncated` subclass: a dead peer, not a
protocol violation.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import hashlib
import os
from typing import Callable, Optional

from repro.wire.frame import FrameTruncated, LinkClosed, TCPLink, decode_frame

#: GUID every handshake appends to the client key before SHA-1 (§1.3).
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: The only WebSocket protocol version this layer speaks.
WS_VERSION = "13"

# Frame opcodes (§5.2).
OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

_KNOWN_OPCODES = frozenset(
    {OP_CONT, OP_TEXT, OP_BINARY, OP_CLOSE, OP_PING, OP_PONG}
)
CONTROL_OPCODES = frozenset({OP_CLOSE, OP_PING, OP_PONG})

#: Upper bound on one message body (single frame or assembled
#: fragments) — mirrors :data:`repro.wire.frame.MAX_BODY`.
MAX_MESSAGE = 1 << 28

#: Upper bound on an HTTP upgrade request/response, headers included.
MAX_HANDSHAKE = 8192

#: Largest payload expressible with a 7-bit length.
_LEN_7BIT_MAX = 125
#: Largest payload expressible with the 16-bit extended length.
_LEN_16BIT_MAX = 0xFFFF


class WSEOF(Exception):
    """The peer closed the TCP stream cleanly between frames."""


# ---------------------------------------------------------------------------
# Handshake (§4)
# ---------------------------------------------------------------------------


def websocket_key(entropy: bytes | None = None) -> str:
    """A ``Sec-WebSocket-Key``: base64 of 16 random bytes (§4.1).

    The key is a handshake nonce, not a secret; its byte length (24
    base64 chars) is fixed, so handshake accounting is deterministic
    regardless of the entropy drawn.
    """
    raw = os.urandom(16) if entropy is None else entropy
    if len(raw) != 16:
        raise ValueError("a websocket key encodes exactly 16 bytes")
    return base64.b64encode(raw).decode("ascii")


def accept_for(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` proving the server read the key:
    base64 of SHA-1 over ``key ∥ GUID`` (§4.2.2)."""
    digest = hashlib.sha1((key + WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def handshake_request(
    host: str, port: int, key: str, path: str = "/"
) -> bytes:
    """The client's HTTP/1.1 Upgrade request opening a connection."""
    return (
        f"GET {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Key: {key}\r\n"
        f"Sec-WebSocket-Version: {WS_VERSION}\r\n"
        "\r\n"
    ).encode("ascii")


def handshake_response(key: str) -> bytes:
    """The server's ``101 Switching Protocols`` answer to ``key``."""
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {accept_for(key)}\r\n"
        "\r\n"
    ).encode("ascii")


def _split_http(raw: bytes) -> tuple[str, dict[str, str]]:
    """(start line, lowercased-name header map); strict CRLF framing."""
    if len(raw) > MAX_HANDSHAKE:
        raise ValueError(
            f"handshake of {len(raw)} bytes exceeds MAX_HANDSHAKE={MAX_HANDSHAKE}"
        )
    if not raw.endswith(b"\r\n\r\n"):
        raise ValueError("handshake does not end with an empty CRLF line")
    try:
        text = raw[:-4].decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError("handshake is not ASCII") from exc
    lines = text.split("\r\n")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return lines[0], headers


def _check_upgrade_headers(headers: dict[str, str]) -> None:
    upgrade = headers.get("upgrade")
    if upgrade is None:
        raise ValueError("missing Upgrade header")
    if upgrade.lower() != "websocket":
        raise ValueError(f"Upgrade header is {upgrade!r}, not websocket")
    connection = headers.get("connection")
    if connection is None:
        raise ValueError("missing Connection header")
    tokens = {t.strip().lower() for t in connection.split(",")}
    if "upgrade" not in tokens:
        raise ValueError(f"Connection header {connection!r} lacks Upgrade")


def parse_handshake_request(raw: bytes) -> str:
    """Validate a client upgrade request; returns its ``Sec-WebSocket-Key``.

    Raises :class:`ValueError` on anything short of a well-formed
    RFC 6455 §4.2.1 opening handshake: wrong method or HTTP version,
    missing/incorrect ``Upgrade``/``Connection`` headers, an
    unsupported ``Sec-WebSocket-Version``, or a key that is not the
    base64 of exactly 16 bytes.
    """
    start, headers = _split_http(raw)
    parts = start.split(" ")
    if len(parts) != 3 or parts[0] != "GET" or parts[2] != "HTTP/1.1":
        raise ValueError(f"bad request line {start!r}")
    _check_upgrade_headers(headers)
    if "host" not in headers:
        raise ValueError("missing Host header")
    version = headers.get("sec-websocket-version")
    if version != WS_VERSION:
        raise ValueError(
            f"unsupported Sec-WebSocket-Version {version!r} "
            f"(speaking {WS_VERSION})"
        )
    key = headers.get("sec-websocket-key")
    if key is None:
        raise ValueError("missing Sec-WebSocket-Key header")
    try:
        decoded = base64.b64decode(key.encode("ascii"), validate=True)
    except Exception as exc:
        raise ValueError(f"Sec-WebSocket-Key {key!r} is not base64") from exc
    if len(decoded) != 16:
        raise ValueError("Sec-WebSocket-Key does not encode 16 bytes")
    return key


def parse_handshake_response(raw: bytes, key: str) -> None:
    """Validate a server's 101 answer against the key the client sent.

    The ``Sec-WebSocket-Accept`` check is what makes a misdialed or
    non-WebSocket peer fail the handshake instead of silently carrying
    frames.
    """
    start, headers = _split_http(raw)
    parts = start.split(" ", 2)
    if len(parts) < 2 or parts[0] != "HTTP/1.1":
        raise ValueError(f"bad status line {start!r}")
    if parts[1] != "101":
        raise ValueError(f"handshake refused: status {start!r}")
    _check_upgrade_headers(headers)
    accept = headers.get("sec-websocket-accept")
    if accept is None:
        raise ValueError("missing Sec-WebSocket-Accept header")
    if accept != accept_for(key):
        raise ValueError(
            f"bad Sec-WebSocket-Accept {accept!r} for key {key!r}"
        )


async def read_handshake(reader: asyncio.StreamReader) -> bytes:
    """Read one HTTP message head (through the blank line), bounded.

    Returns the raw bytes (for accounting); raises
    :class:`~repro.wire.frame.FrameTruncated` if the peer closes
    mid-handshake and plain :class:`ValueError` if the head exceeds
    :data:`MAX_HANDSHAKE`.
    """
    try:
        raw = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        raise FrameTruncated("connection closed inside the handshake") from exc
    except asyncio.LimitOverrunError as exc:
        raise ValueError("handshake exceeds the stream buffer limit") from exc
    if len(raw) > MAX_HANDSHAKE:
        raise ValueError(
            f"handshake of {len(raw)} bytes exceeds MAX_HANDSHAKE={MAX_HANDSHAKE}"
        )
    return raw


# ---------------------------------------------------------------------------
# Frames (§5)
# ---------------------------------------------------------------------------


def ws_frame_overhead(body_nbytes: int, *, masked: bool) -> int:
    """Framing bytes RFC 6455 adds around a ``body_nbytes`` payload.

    2 header bytes, plus the extended length (0, 2, or 8 bytes for
    7/16/64-bit encodings), plus the 4-byte masking key on frames sent
    by the WebSocket client.  This is the documented per-message
    overhead the websocket transport's traffic accounting adds on top
    of the :mod:`repro.wire` envelope — deterministic in the body size,
    so traced byte counts stay reproducible.
    """
    if body_nbytes <= _LEN_7BIT_MAX:
        ext = 0
    elif body_nbytes <= _LEN_16BIT_MAX:
        ext = 2
    else:
        ext = 8
    return 2 + ext + (4 if masked else 0)


def _apply_mask(data: bytes, mask: bytes) -> bytes:
    """XOR ``data`` with the 4-byte mask, repeated (§5.3)."""
    if not data:
        return b""
    key = (mask * (len(data) // 4 + 1))[: len(data)]
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(key, "little")
    ).to_bytes(len(data), "little")


def encode_ws_frame_parts(
    opcode: int,
    payload: bytes | bytearray | memoryview,
    *,
    fin: bool = True,
    mask: bytes | None = None,
) -> tuple[bytes, bytes | bytearray | memoryview]:
    """One WebSocket frame as ``(head, wire payload)``.

    The zero-copy writer path: a sender can put the two parts on the
    socket back to back without concatenating them first, and an
    *unmasked* payload (a server→client response carrying a model-sized
    vector) is returned as the very buffer that came in — no copy at
    all (masking inherently copies: the XOR produces new bytes).
    ``head + bytes(payload part)`` equals :func:`encode_ws_frame` byte
    for byte (pinned by test).
    """
    if opcode not in _KNOWN_OPCODES:
        raise ValueError(f"unknown websocket opcode {opcode:#x}")
    if opcode in CONTROL_OPCODES:
        if not fin:
            raise ValueError("control frames must not be fragmented")
        if len(payload) > _LEN_7BIT_MAX:
            raise ValueError("control frame payload exceeds 125 bytes")
    if len(payload) > MAX_MESSAGE:
        raise ValueError(
            f"payload of {len(payload)} bytes exceeds MAX_MESSAGE={MAX_MESSAGE}"
        )
    head = bytearray()
    head.append((0x80 if fin else 0x00) | opcode)
    mask_bit = 0x80 if mask is not None else 0x00
    n = len(payload)
    if n <= _LEN_7BIT_MAX:
        head.append(mask_bit | n)
    elif n <= _LEN_16BIT_MAX:
        head.append(mask_bit | 126)
        head += n.to_bytes(2, "big")
    else:
        head.append(mask_bit | 127)
        head += n.to_bytes(8, "big")
    if mask is not None:
        if len(mask) != 4:
            raise ValueError("a masking key is exactly 4 bytes")
        head += mask
        wire_payload: bytes | bytearray | memoryview = _apply_mask(
            bytes(payload), mask
        )
    else:
        wire_payload = payload
    return bytes(head), wire_payload


def encode_ws_frame(
    opcode: int,
    payload: bytes,
    *,
    fin: bool = True,
    mask: bytes | None = None,
) -> bytes:
    """One WebSocket frame; ``len()`` of the result is the wire size.

    ``mask`` of 4 bytes marks (and masks) a client→server frame;
    ``None`` builds an unmasked server→client frame.
    """
    head, wire_payload = encode_ws_frame_parts(
        opcode, payload, fin=fin, mask=mask
    )
    return head + bytes(wire_payload)


def _check_first_two(b0: int, b1: int, *, require_mask: bool) -> tuple[bool, int, bool, int]:
    """Validate the fixed 2-byte frame prefix.

    Returns ``(fin, opcode, masked, base length)``; every RFC "MUST"
    this layer depends on is enforced here — reserved bits, opcode,
    masking direction, control-frame shape.
    """
    if b0 & 0x70:
        raise ValueError("reserved frame bits set (no extension negotiated)")
    fin = bool(b0 & 0x80)
    opcode = b0 & 0x0F
    if opcode not in _KNOWN_OPCODES:
        raise ValueError(f"unknown websocket opcode {opcode:#x}")
    masked = bool(b1 & 0x80)
    if require_mask and not masked:
        raise ValueError("unmasked client frame (client frames must be masked)")
    if not require_mask and masked:
        raise ValueError("masked server frame (server frames must not be masked)")
    length = b1 & 0x7F
    if opcode in CONTROL_OPCODES:
        if not fin:
            raise ValueError("fragmented control frame")
        if length > _LEN_7BIT_MAX:
            raise ValueError("control frame payload exceeds 125 bytes")
    return fin, opcode, masked, length


def _extended_length(length: int, ext: bytes) -> int:
    """Decode + validate an extended payload length (minimal, bounded)."""
    if length == 126:
        value = int.from_bytes(ext, "big")
        if value <= _LEN_7BIT_MAX:
            raise ValueError("non-minimal 16-bit length encoding")
    else:
        value = int.from_bytes(ext, "big")
        if value & (1 << 63):
            raise ValueError("64-bit length with the most significant bit set")
        if value <= _LEN_16BIT_MAX:
            raise ValueError("non-minimal 64-bit length encoding")
    if value > MAX_MESSAGE:
        raise ValueError(
            f"oversized frame: length prefix {value} exceeds "
            f"MAX_MESSAGE={MAX_MESSAGE}"
        )
    return value


def decode_ws_frame(
    data: bytes, *, require_mask: bool
) -> tuple[bool, int, bytes]:
    """Parse exactly one frame from a buffer: ``(fin, opcode, payload)``.

    Strict, like :func:`repro.wire.frame.decode_frame`: truncation at
    any cut, trailing garbage, reserved bits, masking-direction
    violations, non-minimal or oversized lengths all raise
    :class:`ValueError`.
    """
    if len(data) < 2:
        raise ValueError("truncated websocket frame header")
    fin, opcode, masked, length = _check_first_two(
        data[0], data[1], require_mask=require_mask
    )
    offset = 2
    if length in (126, 127):
        ext_size = 2 if length == 126 else 8
        ext = data[offset : offset + ext_size]
        if len(ext) < ext_size:
            raise ValueError("truncated extended payload length")
        length = _extended_length(126 if ext_size == 2 else 127, ext)
        offset += ext_size
    if masked:
        mask = data[offset : offset + 4]
        if len(mask) < 4:
            raise ValueError("truncated masking key")
        offset += 4
    body = data[offset:]
    if len(body) < length:
        raise ValueError("truncated websocket frame body")
    if len(body) > length:
        raise ValueError("trailing garbage after websocket frame")
    if masked:
        body = _apply_mask(bytes(body), mask)
    return fin, opcode, bytes(body)


async def read_ws_frame(
    reader: asyncio.StreamReader, *, require_mask: bool
) -> tuple[bool, int, bytes, int]:
    """Read one frame from a stream: ``(fin, opcode, payload, wire bytes)``.

    Raises :class:`WSEOF` on a clean close *between* frames,
    :class:`~repro.wire.frame.FrameTruncated` on a close mid-frame, and
    plain :class:`ValueError` on any framing violation.
    """
    try:
        head = await reader.readexactly(2)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise WSEOF from exc
        raise FrameTruncated("connection closed inside a frame header") from exc
    fin, opcode, masked, length = _check_first_two(
        head[0], head[1], require_mask=require_mask
    )
    nbytes = 2
    try:
        if length in (126, 127):
            ext_size = 2 if length == 126 else 8
            ext = await reader.readexactly(ext_size)
            nbytes += ext_size
            length = _extended_length(126 if ext_size == 2 else 127, ext)
        if masked:
            mask = await reader.readexactly(4)
            nbytes += 4
        body = await reader.readexactly(length)
        nbytes += length
    except asyncio.IncompleteReadError as exc:
        raise FrameTruncated("connection closed inside a frame") from exc
    if masked:
        body = _apply_mask(body, mask)
    return fin, opcode, body, nbytes


# ---------------------------------------------------------------------------
# The link: wire frames as binary messages
# ---------------------------------------------------------------------------


class WSLink:
    """One end of an upgraded connection, speaking wire frames.

    Each wire frame rides as one unfragmented binary message; inbound,
    fragmented messages are reassembled, pings answered, pongs
    absorbed and a peer CLOSE echoed.  Every frame byte is counted:
    data bytes are returned per call for stage attribution, control
    bytes accumulate in ``control_sent``/``control_received``
    (connection overhead).  Counters update *before* each flush, so a
    cancellation landing in a drain can never lose already-written
    bytes from the accounting.  ``masked`` is True on the dialing
    (WebSocket client) end.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        masked: bool,
    ):
        self._reader = reader
        self._writer = writer
        self.masked = masked
        self._close_sent = False
        self.control_sent = 0
        self.control_received = 0

    def _mask(self) -> Optional[bytes]:
        return os.urandom(4) if self.masked else None

    def framed_size(self, frame_nbytes: int) -> int:
        """Wire bytes :meth:`send` measures for a frame of that size."""
        return frame_nbytes + ws_frame_overhead(frame_nbytes, masked=self.masked)

    async def send(
        self,
        frame: bytes | bytearray,
        count: Optional[Callable[[int], None]] = None,
    ) -> int:
        """One wire frame as a binary message; returns its WS-framed
        byte count, which ``count`` (if given) observes first.  Head and
        payload go onto the writer back to back, so the payload buffer
        is never concatenated into a new blob."""
        head, body = encode_ws_frame_parts(OP_BINARY, frame, mask=self._mask())
        n = len(head) + len(body)
        if count is not None:
            count(n)
        self._writer.write(head)
        if len(body):
            self._writer.write(body)
        await self._writer.drain()
        return n

    async def _send_control(self, opcode: int, payload: bytes = b"") -> None:
        frame = encode_ws_frame(opcode, payload, mask=self._mask())
        self.control_sent += len(frame)
        self._writer.write(frame)
        await self._writer.drain()

    async def recv(self) -> tuple[int, bytes, int]:
        """One wire frame: ``(kind, body, WS-framed byte count)``.

        Interleaved control frames are handled inline and counted as
        connection overhead.  Raises :class:`LinkClosed` once the peer
        is gone — clean EOF, a CLOSE (echoed first), or a stream cut
        off mid-frame — and :class:`ValueError` on anything malformed.
        """
        assembled = bytearray()
        nbytes = 0
        expecting_cont = False
        while True:
            try:
                fin, opcode, body, n = await read_ws_frame(
                    self._reader, require_mask=not self.masked
                )
            except (WSEOF, FrameTruncated) as exc:
                raise LinkClosed from exc
            if opcode in CONTROL_OPCODES:
                self.control_received += n
                if opcode == OP_PING:
                    await self._send_control(OP_PONG, body)
                elif opcode == OP_CLOSE:
                    with contextlib.suppress(ConnectionError):
                        await self._send_close(body[:2])
                    raise LinkClosed
                continue  # pong: keepalive noise, nothing to do
            if expecting_cont != (opcode == OP_CONT):
                raise ValueError(
                    "continuation frame without a message to continue"
                    if opcode == OP_CONT
                    else "data frame interleaved into a fragmented message"
                )
            if not expecting_cont and opcode != OP_BINARY:
                raise ValueError("wire messages must be binary frames")
            assembled += body
            nbytes += n
            if len(assembled) > MAX_MESSAGE:
                raise ValueError(
                    f"assembled message exceeds MAX_MESSAGE={MAX_MESSAGE}"
                )
            if fin:
                kind, frame_body = decode_frame(bytes(assembled))
                return kind, frame_body, nbytes
            expecting_cont = True

    async def _send_close(self, status: bytes) -> None:
        if not self._close_sent:
            self._close_sent = True
            await self._send_control(OP_CLOSE, status)

    async def start_close(self) -> None:
        """Begin a graceful goodbye: send CLOSE (once); whoever reads
        this link consumes the peer's echo as :class:`LinkClosed`."""
        await self._send_close((1000).to_bytes(2, "big"))


# ---------------------------------------------------------------------------
# The carrier seam
# ---------------------------------------------------------------------------

#: Carrier name → framing bytes around one wire frame of that size.
_CARRIER_OVERHEAD: dict[str, Callable[..., int]] = {
    "sockets": lambda frame_nbytes, *, masked: 0,
    "websocket": ws_frame_overhead,
}

#: Carrier names the listener and dialers speak.
CARRIERS = tuple(_CARRIER_OVERHEAD)


def check_carrier(carrier: str) -> str:
    """``carrier`` if it names a known carrier, else ``ValueError``."""
    if carrier not in CARRIERS:
        raise ValueError(f"carrier must be one of {CARRIERS}, not {carrier!r}")
    return carrier


def envelope_overhead(carrier: str, direction: str, envelope_nbytes: int) -> int:
    """Carrier framing bytes around one wire envelope, per direction.

    The oracle term for socket traffic: a span's ``down_bytes`` /
    ``up_bytes`` over a carrier equal the lengths of the frames the
    encoder emitted (what :class:`repro.engine.SerializingTransport`
    reports) plus this overhead per message — nothing for framed TCP,
    the RFC 6455 header for websocket.  ``"up"`` messages (responses,
    device→coordinator) carry the client mask — the dialing device is
    the WebSocket client — ``"down"`` messages (requests) do not.
    """
    if direction not in ("down", "up"):
        raise ValueError(f"direction must be 'down' or 'up', not {direction!r}")
    overhead = _CARRIER_OVERHEAD[check_carrier(carrier)]
    return overhead(envelope_nbytes, masked=(direction == "up"))


async def open_link(
    carrier: str,
    role: str,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    *,
    sent: Callable[[int], None],
    received: Callable[[int], None],
    host: str = "",
    port: int = 0,
):
    """Carrier setup for one connected stream; returns its link.

    ``role`` is ``"accept"`` (the listening end) or ``"dial"`` (the
    device end, the WebSocket *client*, which masks).  Framed TCP needs
    no setup; the websocket carrier performs this role's half of the
    HTTP/1.1 Upgrade, reporting every handshake byte to ``sent`` /
    ``received`` (``sent`` before the flush).  ``host``/``port`` fill
    the dialing side's ``Host`` header.
    """
    if role not in ("accept", "dial"):
        raise ValueError(f"role must be 'accept' or 'dial', not {role!r}")
    if check_carrier(carrier) != "websocket":
        return TCPLink(reader, writer)
    if role == "dial":
        key = websocket_key()
        upgrade = handshake_request(host, port, key)
        sent(len(upgrade))
        writer.write(upgrade)
        await writer.drain()
        raw = await read_handshake(reader)
        received(len(raw))
        parse_handshake_response(raw, key)
    else:
        raw = await read_handshake(reader)
        received(len(raw))
        response = handshake_response(parse_handshake_request(raw))
        sent(len(response))
        writer.write(response)
        await writer.drain()
    return WSLink(reader, writer, masked=(role == "dial"))
