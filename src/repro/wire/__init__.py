"""The wire layer: typed payload codecs and framed binary messages.

Everything a Dordis transport puts on a real link goes through this
package: :mod:`repro.wire.codecs` gives every protocol payload one
canonical, versioned byte encoding with a strict total decoder, and
:mod:`repro.wire.frame` wraps encoded payloads in self-delimiting
length-prefixed frames with a handshake and error kind.  The codec
registry is the contract any transport backend plugs into — transports
move opaque frames; only the codec layer understands their contents.
On a socket, frames ride framed TCP as they are:
:class:`repro.wire.frame.TCPLink` is the one link.
"""

from repro.wire.codecs import (
    CodecError,
    PAYLOAD_VERSION,
    decode_error,
    decode_payload,
    decode_value,
    encode_error,
    encode_payload,
    encode_value,
    register_codec,
    registered_codecs,
)
from repro.wire.frame import (
    FRAME_OVERHEAD,
    KIND_ERROR,
    KIND_HELLO,
    KIND_REQUEST,
    KIND_RESPONSE,
    KIND_WELCOME,
    MAGIC,
    MAX_AUTH_TOKEN,
    MAX_BODY,
    WIRE_VERSION,
    FrameEOF,
    FrameProtocol,
    FrameTruncated,
    Hello,
    LinkClosed,
    TCPLink,
    decode_frame,
    decode_hello,
    encode_frame,
    encode_hello,
    open_link,
    serve_links,
)

__all__ = [
    "CodecError",
    "PAYLOAD_VERSION",
    "decode_error",
    "decode_payload",
    "decode_value",
    "encode_error",
    "encode_payload",
    "encode_value",
    "register_codec",
    "registered_codecs",
    "FRAME_OVERHEAD",
    "KIND_ERROR",
    "KIND_HELLO",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "KIND_WELCOME",
    "MAGIC",
    "MAX_AUTH_TOKEN",
    "MAX_BODY",
    "WIRE_VERSION",
    "FrameEOF",
    "FrameProtocol",
    "FrameTruncated",
    "Hello",
    "LinkClosed",
    "TCPLink",
    "decode_frame",
    "decode_hello",
    "encode_frame",
    "encode_hello",
    "open_link",
    "serve_links",
]
