"""Typed payload codecs: every protocol payload as canonical bytes.

One recursive *value encoding* plus a registry of typed codecs, so that
**any** payload a protocol operation sends — masked ``np.ndarray``
chunks, :class:`~repro.crypto.shamir.Share` maps, DH public keys (big
ints), signatures, seed commitments, roster dicts, abort notices — has
exactly one byte representation and a strict, total decoder.

Format
------
A payload is ``PAYLOAD_VERSION(1) ∥ value``, where a *value* is a tag
byte followed by a tag-specific body.  Containers are canonical (dict
and set entries sorted by their encoded key/element bytes) so equal
payloads encode to equal bytes.  All length/count prefixes are 4-byte
big-endian; ints are length-prefixed signed big-endian (arbitrary
precision — DH group elements fit); ndarrays carry dtype, shape, and
the raw C-order buffer.  Version 3 carried every small typed message
as the value encoding of its field tuple (version 2 had hand-laid,
zero-padded field lists); versions 4, 5 and 6 (this one) kept the
layout and changed a meaning — since 4 an XNoise seed expands to the
noise vector :mod:`repro.dp.sampler` specifies, not to a numpy
generator's; since 5 a mask seed expands to ring-width bit fields of
its stream (:mod:`repro.crypto.prg`), not to cut-down 32-bit words;
and since 6 a ``share_keys`` request is ``(roster, the recipient's own
neighbour ids)``, not ``(roster, the whole masking graph)``, and a
semi-honest round has no ``consistency_check`` request (its
``unmask`` request carries U3) — so an older payload is refused by
name.  Sharing the mask key s^SK at its group's secret width (64 bytes
on ``modp512``, where it was 256) did not take a version: a ``Share``
carries its own chunk count and secret length, and the coordinator
reads a reconstructed key with ``int.from_bytes``, so a 256-byte
sharing from an older dealer still unmasks to the same aggregate
(pinned by test) — nothing a peer decodes changed meaning.

Strictness: :func:`decode_payload` consumes the entire buffer or raises
:class:`CodecError` — truncation, trailing bytes, unknown tags, wrong
version bytes, duplicate dict keys/set elements all fail loudly.
Decoding never executes code (no pickle) and never blocks.

Registry
--------
:func:`register_codec` binds a Python type to a tag in ``0x20..0xFF``
with its own body encoder/decoder.  A codec registered ``in_place``
writes its body straight into the frame buffer and parses it from a
``memoryview`` of the frame — the masked input, the one model-sized
message, crosses with one copy out and none in.  Every other typed
body is the fixed-width leaf format of a crypto value (``Share``,
``SchnorrSignature``) or, for a message, the value encoding of its
fields (:class:`repro.secagg.types.WireRecord`).  The protocol message
types ship registered below; :class:`repro.engine.Targeted` registers
itself when the engine is imported (the engine depends on this module,
not the reverse).  Transports treat the registry as *the* wire contract — a
future websocket/gRPC backend reuses these codecs unchanged.
"""

from __future__ import annotations

import struct
from typing import Any, Callable

import numpy as np

from repro.wire.frame import FRAME_OVERHEAD, fill_frame_header

PAYLOAD_VERSION = 6

#: Maximum ndarray rank the decoder accepts (protocol vectors are 1-D;
#: a hostile 2**31-dimension header must not be believed).
_MAX_NDIM = 32

#: Maximum container nesting the decoder accepts.  Protocol payloads
#: nest a handful of levels; a hostile few-hundred-KB buffer of nested
#: list headers must raise :class:`CodecError`, not ``RecursionError``.
_MAX_DEPTH = 64


class CodecError(ValueError):
    """Unencodable payload or malformed encoding."""


_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_LIST = 0x07
_TAG_TUPLE = 0x08
_TAG_SET = 0x09
_TAG_FROZENSET = 0x0A
_TAG_DICT = 0x0B
_TAG_NDARRAY = 0x0C

#: First tag available to registered (typed) codecs.
REGISTERED_TAG_BASE = 0x20

_by_type: dict[type, tuple[int, Callable[[Any], bytes]]] = {}
_by_tag: dict[int, tuple[type, Callable[[bytes], Any]]] = {}
_size_by_type: dict[type, Callable[[Any], int]] = {}
_in_place: set[type] = set()


def register_codec(
    cls: type,
    tag: int,
    encode_body: Callable[..., bytes],
    decode_body: Callable[[bytes], Any],
    body_nbytes: Callable[[Any], int] | None = None,
    in_place: bool = False,
) -> None:
    """Bind ``cls`` to ``tag`` with a body encoder/decoder pair.

    Tags below :data:`REGISTERED_TAG_BASE` belong to the structural
    value encoding; duplicate tags or types are programming errors and
    refused.  ``body_nbytes`` optionally computes ``len(encode_body(x))``
    without materializing the bytes — worth providing for bulk-carrying
    types (the size-only path otherwise falls back to encoding).

    ``in_place`` marks a bulk codec that never stages its body:
    ``encode_body(obj, out)`` appends to the caller's buffer (and, with
    ``out`` omitted, returns a fresh one) and ``decode_body`` receives a
    ``memoryview`` of the enclosing buffer instead of a ``bytes`` slice.
    """
    if not REGISTERED_TAG_BASE <= tag <= 0xFF:
        raise ValueError(
            f"codec tag {tag:#x} outside the registered range "
            f"[{REGISTERED_TAG_BASE:#x}, 0xff]"
        )
    if tag in _by_tag:
        raise ValueError(
            f"tag {tag:#x} already registered for {_by_tag[tag][0].__name__}"
        )
    if cls in _by_type:
        raise ValueError(f"type {cls.__name__} already has a codec")
    _by_type[cls] = (tag, encode_body)
    _by_tag[tag] = (cls, decode_body)
    if body_nbytes is not None:
        _size_by_type[cls] = body_nbytes
    if in_place:
        _in_place.add(cls)


def registered_codecs() -> dict[type, int]:
    """``{type: tag}`` of every registered typed codec (for tests)."""
    _ensure_defaults()
    return {cls: tag for cls, (tag, _) in _by_type.items()}


_defaults_loaded = False


def _ensure_defaults() -> None:
    """Register the protocol message codecs on first use.

    Deferred because the message-type modules live under packages
    (``repro.secagg``) whose ``__init__`` imports the engine — which
    imports this module; a load-time import would cycle.
    """
    global _defaults_loaded
    if _defaults_loaded:
        return
    _defaults_loaded = True
    from repro.crypto.shamir import Share
    from repro.crypto.signature import SchnorrSignature
    from repro.secagg import codec as secagg_codec
    from repro.secagg.types import AdvertiseKeysMsg, MaskedInputMsg, UnmaskingMsg

    register_codec(Share, 0x20, Share.to_bytes, Share.from_bytes)
    register_codec(
        SchnorrSignature, 0x21, SchnorrSignature.to_bytes, SchnorrSignature.from_bytes
    )
    register_codec(
        AdvertiseKeysMsg, 0x22, AdvertiseKeysMsg.to_bytes, AdvertiseKeysMsg.from_bytes
    )
    register_codec(
        MaskedInputMsg,
        0x23,
        secagg_codec.encode_masked_input,
        secagg_codec.decode_masked_input,
        body_nbytes=lambda m: secagg_codec.masked_input_nbytes(m.count, m.bits),
        in_place=True,
    )
    register_codec(UnmaskingMsg, 0x24, UnmaskingMsg.to_bytes, UnmaskingMsg.from_bytes)


# ---------------------------------------------------------------------------
# Value encoding
# ---------------------------------------------------------------------------


def _lp(body: bytes) -> bytes:
    """4-byte big-endian length prefix."""
    return len(body).to_bytes(4, "big") + body


def _encode_int(value: int) -> bytes:
    n = max(1, (value.bit_length() + 8) // 8)
    return value.to_bytes(n, "big", signed=True)


def encode_value(obj: Any) -> bytes:
    """Tagged canonical encoding of one payload value.

    Byte-identical to :func:`encode_value_reference` (pinned by test);
    built through the single-buffer :func:`encode_value_into` path.
    """
    out = bytearray()
    encode_value_into(obj, out)
    return bytes(out)


def encode_value_into(obj: Any, out: bytearray) -> None:
    """Append the tagged canonical encoding of ``obj`` to ``out``.

    The zero-copy write path: one buffer grows in place, and a
    contiguous ndarray's data lands in it through a single
    ``memoryview`` copy — never a ``tobytes()`` round trip, never a
    per-node chain of intermediate ``bytes`` concatenations.  Container
    canonicalization (sets/dicts sort by encoded bytes) still encodes
    each element separately, as the format requires.
    """
    _ensure_defaults()
    if obj is None:
        out.append(_TAG_NONE)
        return
    if isinstance(obj, (bool, np.bool_)):
        out.append(_TAG_TRUE if obj else _TAG_FALSE)
        return
    if isinstance(obj, (int, np.integer)):
        body = _encode_int(int(obj))
        out.append(_TAG_INT)
        out += len(body).to_bytes(4, "big")
        out += body
        return
    if isinstance(obj, (float, np.floating)):
        out.append(_TAG_FLOAT)
        out += struct.pack(">d", float(obj))
        return
    if isinstance(obj, str):
        body = obj.encode("utf-8")
        out.append(_TAG_STR)
        out += len(body).to_bytes(4, "big")
        out += body
        return
    if isinstance(obj, (bytes, bytearray, memoryview)):
        if isinstance(obj, memoryview) and not obj.c_contiguous:
            obj = bytes(obj)
        out.append(_TAG_BYTES)
        out += len(obj).to_bytes(4, "big")
        out += obj
        return
    if isinstance(obj, np.ndarray):
        out.append(_TAG_NDARRAY)
        _encode_ndarray_into(obj, out)
        return
    if isinstance(obj, (list, tuple)):
        out.append(_TAG_LIST if isinstance(obj, list) else _TAG_TUPLE)
        out += len(obj).to_bytes(4, "big")
        for item in obj:
            encode_value_into(item, out)
        return
    if isinstance(obj, (set, frozenset)):
        encoded = sorted(encode_value(item) for item in obj)
        out.append(_TAG_SET if isinstance(obj, set) else _TAG_FROZENSET)
        out += len(encoded).to_bytes(4, "big")
        for item in encoded:
            out += item
        return
    if isinstance(obj, dict):
        pairs = sorted(
            (encode_value(k), encode_value(v)) for k, v in obj.items()
        )
        out.append(_TAG_DICT)
        out += len(pairs).to_bytes(4, "big")
        for k, v in pairs:
            out += k
            out += v
        return
    for cls in type(obj).__mro__:
        entry = _by_type.get(cls)
        if entry is not None:
            tag, encode_body = entry
            if cls in _in_place:
                # Reserve the length prefix, let the codec write its
                # body into this buffer, then fill the prefix in.
                out.append(tag)
                at = len(out)
                out += b"\x00\x00\x00\x00"
                encode_body(obj, out)
                out[at : at + 4] = (len(out) - at - 4).to_bytes(4, "big")
                return
            body = encode_body(obj)
            out.append(tag)
            out += len(body).to_bytes(4, "big")
            out += body
            return
    raise CodecError(
        f"no codec registered for payload type {type(obj).__name__}"
    )


def encode_value_reference(obj: Any) -> bytes:
    """Retained concatenating encoder: the executable byte-format spec.

    Every fast path (:func:`encode_value_into`, :func:`encode_payload`,
    :func:`encode_payload_frame`) is parity-pinned against this
    implementation byte for byte.
    """
    _ensure_defaults()
    if obj is None:
        return bytes((_TAG_NONE,))
    if isinstance(obj, (bool, np.bool_)):
        return bytes((_TAG_TRUE,)) if obj else bytes((_TAG_FALSE,))
    if isinstance(obj, (int, np.integer)):
        return bytes((_TAG_INT,)) + _lp(_encode_int(int(obj)))
    if isinstance(obj, (float, np.floating)):
        return bytes((_TAG_FLOAT,)) + struct.pack(">d", float(obj))
    if isinstance(obj, str):
        return bytes((_TAG_STR,)) + _lp(obj.encode("utf-8"))
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return bytes((_TAG_BYTES,)) + _lp(bytes(obj))
    if isinstance(obj, np.ndarray):
        return bytes((_TAG_NDARRAY,)) + _encode_ndarray(obj)
    if isinstance(obj, (list, tuple)):
        tag = _TAG_LIST if isinstance(obj, list) else _TAG_TUPLE
        out = bytearray((tag,))
        out += len(obj).to_bytes(4, "big")
        for item in obj:
            out += encode_value_reference(item)
        return bytes(out)
    if isinstance(obj, (set, frozenset)):
        tag = _TAG_SET if isinstance(obj, set) else _TAG_FROZENSET
        encoded = sorted(encode_value_reference(item) for item in obj)
        out = bytearray((tag,))
        out += len(encoded).to_bytes(4, "big")
        for item in encoded:
            out += item
        return bytes(out)
    if isinstance(obj, dict):
        pairs = sorted(
            (encode_value_reference(k), encode_value_reference(v))
            for k, v in obj.items()
        )
        out = bytearray((_TAG_DICT,))
        out += len(pairs).to_bytes(4, "big")
        for k, v in pairs:
            out += k
            out += v
        return bytes(out)
    for cls in type(obj).__mro__:
        entry = _by_type.get(cls)
        if entry is not None:
            tag, encode_body = entry
            return bytes((tag,)) + _lp(encode_body(obj))
    raise CodecError(
        f"no codec registered for payload type {type(obj).__name__}"
    )


def _encode_ndarray_into(arr: np.ndarray, out: bytearray) -> None:
    """Append an ndarray body: dtype, shape, then the raw buffer via a
    single ``memoryview`` copy into ``out`` (no ``tobytes()`` copy)."""
    if arr.dtype.hasobject:
        raise CodecError("object-dtype ndarrays have no wire encoding")
    a = np.ascontiguousarray(arr)
    dtype_str = a.dtype.str.encode("ascii")
    out += len(dtype_str).to_bytes(4, "big")
    out += dtype_str
    out += len(a.shape).to_bytes(4, "big")
    for dim in a.shape:
        out += int(dim).to_bytes(4, "big")
    out += a.nbytes.to_bytes(4, "big")
    out += a.data


def _encode_ndarray(arr: np.ndarray) -> bytes:
    out = bytearray()
    _encode_ndarray_into(arr, out)
    return bytes(out)


def _read(data: bytes, offset: int, n: int) -> tuple[bytes, int]:
    end = offset + n
    if end > len(data):
        raise CodecError("truncated value")
    return data[offset:end], end


def _read_lp(data: bytes, offset: int) -> tuple[bytes, int]:
    raw, offset = _read(data, offset, 4)
    n = int.from_bytes(raw, "big")
    return _read(data, offset, n)


def _read_count(data: bytes, offset: int) -> tuple[int, int]:
    raw, offset = _read(data, offset, 4)
    return int.from_bytes(raw, "big"), offset


def decode_value(
    data: bytes, offset: int = 0, _depth: int = 0
) -> tuple[Any, int]:
    """Inverse of :func:`encode_value`; returns (value, next offset)."""
    _ensure_defaults()
    if _depth > _MAX_DEPTH:
        raise CodecError(f"payload nesting exceeds {_MAX_DEPTH} levels")
    tag_raw, offset = _read(data, offset, 1)
    tag = tag_raw[0]
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_INT:
        body, offset = _read_lp(data, offset)
        if not body:
            raise CodecError("empty int body")
        return int.from_bytes(body, "big", signed=True), offset
    if tag == _TAG_FLOAT:
        body, offset = _read(data, offset, 8)
        return struct.unpack(">d", body)[0], offset
    if tag == _TAG_STR:
        body, offset = _read_lp(data, offset)
        try:
            return body.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8 in str value: {exc}") from exc
    if tag == _TAG_BYTES:
        body, offset = _read_lp(data, offset)
        return body, offset
    if tag == _TAG_NDARRAY:
        return _decode_ndarray(data, offset)
    if tag in (_TAG_LIST, _TAG_TUPLE):
        count, offset = _read_count(data, offset)
        items = []
        for _ in range(count):
            item, offset = decode_value(data, offset, _depth + 1)
            items.append(item)
        return (items if tag == _TAG_LIST else tuple(items)), offset
    if tag in (_TAG_SET, _TAG_FROZENSET):
        count, offset = _read_count(data, offset)
        items = []
        for _ in range(count):
            item, offset = decode_value(data, offset, _depth + 1)
            items.append(item)
        try:
            out = set(items)
        except TypeError as exc:
            raise CodecError(f"unhashable set element: {exc}") from exc
        if len(out) != count:
            raise CodecError("duplicate elements in set encoding")
        return (out if tag == _TAG_SET else frozenset(out)), offset
    if tag == _TAG_DICT:
        count, offset = _read_count(data, offset)
        out_dict: dict = {}
        for _ in range(count):
            key, offset = decode_value(data, offset, _depth + 1)
            value, offset = decode_value(data, offset, _depth + 1)
            try:
                out_dict[key] = value
            except TypeError as exc:
                raise CodecError(f"unhashable dict key: {exc}") from exc
        if len(out_dict) != count:
            raise CodecError("duplicate keys in dict encoding")
        return out_dict, offset
    entry = _by_tag.get(tag)
    if entry is not None:
        cls, decode_body = entry
        if cls in _in_place:
            n, offset = _read_count(data, offset)
            if offset + n > len(data):
                raise CodecError("truncated value")
            body = memoryview(data)[offset : offset + n]
            offset += n
        else:
            body, offset = _read_lp(data, offset)
        try:
            return decode_body(body), offset
        except CodecError:
            raise
        except ValueError as exc:
            raise CodecError(f"malformed {cls.__name__} body: {exc}") from exc
    raise CodecError(f"unknown value tag {tag:#x}")


def decode_whole_value(data: bytes, offset: int = 0) -> Any:
    """The one value ``data[offset:]`` holds; anything after it is an error."""
    value, end = decode_value(data, offset)
    if end != len(data):
        raise CodecError(f"trailing garbage: {len(data) - end} bytes after value")
    return value


def _decode_ndarray(data: bytes, offset: int) -> tuple[np.ndarray, int]:
    dtype_raw, offset = _read_lp(data, offset)
    try:
        dtype = np.dtype(dtype_raw.decode("ascii"))
    except (UnicodeDecodeError, TypeError, ValueError) as exc:
        raise CodecError(f"invalid ndarray dtype {dtype_raw!r}") from exc
    if dtype.hasobject:
        raise CodecError("object-dtype ndarrays have no wire encoding")
    ndim, offset = _read_count(data, offset)
    if ndim > _MAX_NDIM:
        raise CodecError(f"ndarray rank {ndim} exceeds {_MAX_NDIM}")
    shape = []
    for _ in range(ndim):
        dim, offset = _read_count(data, offset)
        shape.append(dim)
    raw, offset = _read_lp(data, offset)
    count = 1
    for dim in shape:
        count *= dim
    expected = count * dtype.itemsize
    if len(raw) != expected:
        raise CodecError(
            f"ndarray buffer of {len(raw)} bytes does not match "
            f"shape {tuple(shape)} dtype {dtype.str}"
        )
    arr = np.frombuffer(raw, dtype=dtype)
    return arr.reshape(shape).copy(), offset


# ---------------------------------------------------------------------------
# Payload envelope
# ---------------------------------------------------------------------------


def encode_payload(obj: Any) -> bytes:
    """Versioned canonical bytes for one payload value."""
    out = bytearray((PAYLOAD_VERSION,))
    encode_value_into(obj, out)
    return bytes(out)


def encode_payload_reference(obj: Any) -> bytes:
    """Retained concatenating twin of :func:`encode_payload`."""
    return bytes((PAYLOAD_VERSION,)) + encode_value_reference(obj)


def encode_payload_frame(kind: int, obj: Any) -> bytearray:
    """One complete wire frame carrying ``encode_payload(obj)``.

    The transports' zero-copy write path: header, payload version, and
    the value encoding are emitted into a single buffer (header filled
    in after the body length is known), so framing a payload never
    re-copies its body.  Byte-identical to
    ``encode_frame(kind, encode_payload(obj))`` — pinned by test — and
    suitable for ``StreamWriter.write`` as-is.
    """
    buf = bytearray(FRAME_OVERHEAD)
    buf.append(PAYLOAD_VERSION)
    encode_value_into(obj, buf)
    fill_frame_header(buf, kind)
    return buf


def decode_payload(data: bytes) -> Any:
    """Strict inverse of :func:`encode_payload` (whole-buffer parse)."""
    if not data:
        raise CodecError("empty payload")
    if data[0] != PAYLOAD_VERSION:
        raise CodecError(
            f"unsupported payload version {data[0]} (speaking {PAYLOAD_VERSION})"
        )
    return decode_whole_value(data, 1)


def encoded_value_nbytes(obj: Any) -> int:
    """``len(encode_value(obj))`` computed arithmetically.

    Mirrors :func:`encode_value` case for case without materializing
    the bytes — an ndarray contributes ``arr.nbytes`` in O(1) instead
    of a full buffer copy, so sizing a simulated exchange never scales
    with model size.  A property test pins the equality with the real
    encoder.
    """
    _ensure_defaults()
    if obj is None or isinstance(obj, (bool, np.bool_)):
        return 1
    if isinstance(obj, (int, np.integer)):
        value = int(obj)
        return 1 + 4 + max(1, (value.bit_length() + 8) // 8)
    if isinstance(obj, (float, np.floating)):
        return 1 + 8
    if isinstance(obj, str):
        return 1 + 4 + len(obj.encode("utf-8"))
    if isinstance(obj, memoryview):
        return 1 + 4 + obj.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return 1 + 4 + len(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            raise CodecError("object-dtype ndarrays have no wire encoding")
        return (
            1
            + 4 + len(obj.dtype.str)
            + 4 + 4 * obj.ndim
            + 4 + obj.nbytes
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 1 + 4 + sum(encoded_value_nbytes(item) for item in obj)
    if isinstance(obj, dict):
        return 1 + 4 + sum(
            encoded_value_nbytes(k) + encoded_value_nbytes(v)
            for k, v in obj.items()
        )
    for cls in type(obj).__mro__:
        entry = _by_type.get(cls)
        if entry is not None:
            body_nbytes = _size_by_type.get(cls)
            body = body_nbytes(obj) if body_nbytes else len(entry[1](obj))
            return 1 + 4 + body
    raise CodecError(
        f"no codec registered for payload type {type(obj).__name__}"
    )


def encoded_nbytes(payload: Any) -> int:
    """Framed wire size of ``payload``: header + version + encoded body.

    This is the *measured* size transports and the latency model use —
    computed without serializing (see :func:`encoded_value_nbytes`).
    It is the only sizer: a payload no codec covers raises
    :class:`CodecError` on a simulated link exactly as it would on a
    socket.
    """
    return FRAME_OVERHEAD + 1 + encoded_value_nbytes(payload)


# ---------------------------------------------------------------------------
# Error (abort-notice) payloads
# ---------------------------------------------------------------------------

_exception_types: dict[str, type] = {}


def _exception_registry() -> dict[str, type]:
    """Exception types an ERROR frame reconstructs exactly.

    Anything else becomes a RuntimeError carrying the original type
    name — a remote peer must not be able to summon arbitrary exception
    classes.  Built lazily: importing ``repro.api`` at module load
    would cycle back through the engine.
    """
    if not _exception_types:
        from repro.api.protocol import WorkflowError
        from repro.secagg.types import ProtocolAbort

        for cls in (
            ProtocolAbort,
            WorkflowError,
            ValueError,
            TypeError,
            KeyError,
            RuntimeError,
        ):
            _exception_types[cls.__name__] = cls
    return _exception_types


def encode_error(exc: BaseException) -> bytes:
    """The body of an ERROR frame: ``(type name, message)``."""
    return encode_payload((type(exc).__name__, str(exc)))


def decode_error(body: bytes) -> BaseException:
    """Rebuild the client-side exception an ERROR frame reports."""
    decoded = decode_payload(body)
    if (
        not isinstance(decoded, tuple)
        or len(decoded) != 2
        or not all(isinstance(part, str) for part in decoded)
    ):
        raise CodecError("malformed error payload")
    name, message = decoded
    cls = _exception_registry().get(name)
    if cls is None:
        return RuntimeError(f"{name}: {message}")
    return cls(message)


#: Tag reserved for :class:`repro.engine.Targeted`, registered by
#: :mod:`repro.engine.core` at import (avoids a wire → engine import).
TARGETED_TAG = 0x25


def register_targeted(cls: type) -> None:
    """Register the engine's ``Targeted`` wrapper (called by the engine)."""

    def _encode(t) -> bytes:
        return encode_value(dict(t.payloads))

    def _decode(body: bytes):
        payloads = decode_whole_value(body)
        if not isinstance(payloads, dict):
            raise CodecError("malformed Targeted body")
        return cls(payloads)

    register_codec(cls, TARGETED_TAG, _encode, _decode)
