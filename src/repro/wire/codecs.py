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
zero-padded field lists); versions 4, 5 and 6 kept the layout and
changed a meaning — since 4 an XNoise seed expands to the noise vector
:mod:`repro.dp.sampler` specifies, not to a numpy generator's; since 5
a mask seed expands to ring-width bit fields of its stream
(:mod:`repro.crypto.prg`), not to cut-down 32-bit words; and since 6 a
``share_keys`` request was ``(roster, the recipient's own neighbour
ids)``, not ``(roster, the whole masking graph)``, and a semi-honest
round has no ``consistency_check`` request (its ``unmask`` request
carries U3).  Version 7 changed what a ShareKeys ciphertext
seals: the plaintext is the fixed-width leaf format of
:class:`~repro.secagg.types.SharePayload` (route, then y-values only),
parsed against the recipient's own dealing shape, no longer the value
encoding of a record — so every client of a round must deal the same
labels at the same widths, and a mask key shared at 256 bytes beside
keys at 64 now aborts the round by name.  Version 8 changed
the stream every seed expands to (:mod:`repro.crypto.prg`): AES-256-CTR
under ``K = SHA-256(seed)``, no longer ``SHA256(seed ∥ be64(i))`` — so
every mask, every noise vector and every AE keystream differs, and a
version-7 peer's masks would not cancel.  Version 9 (this one) sends a
``share_keys`` request as the roster alone: each client derives its
neighbourhood with :func:`repro.secagg.graph.masking_graph`, as the
coordinator does, and a SecAgg+ graph is a Harary graph over a seeded
order of the roster, no longer a third-party library's random draw — so
a version-8 peer would send or expect the other request.  The payload envelope and
every frame are unchanged, but an older payload is refused by name.

A payload's wire size is the length of the frame
:func:`encode_payload_frame` emits for it; nothing here computes a size
any other way, so traced traffic cannot drift from the bytes sent.

Strictness: :func:`decode_payload` consumes the entire buffer or raises
:class:`CodecError` — truncation, trailing bytes, unknown tags, wrong
version bytes, duplicate dict keys/set elements all fail loudly.
Decoding never executes code (no pickle) and never blocks.

Dispatch
--------
The encoder finds a value's writer by its exact type in one table (the
builtins the protocol ships and every registered codec that stages its
body); a miss — a numpy scalar, a subclass, a ``memoryview``, a set, an
ndarray, an ``in_place`` codec — takes the ``isinstance`` ladder and
then the registry along the type's MRO, to the same bytes.  The
decoder indexes a table by the tag byte and reads each count and body
in place.  Only :class:`~repro.secagg.types.AdvertiseKeysMsg` keeps its
encoding: the ShareKeys request repeats the roster to every client, and
the record is frozen with immutable fields (``UnmaskingMsg`` holds
dicts and is sent once).  The pre-dispatch codec
is the test oracle ``tests/oracles/wire_codec.py``.

Registry
--------
:func:`register_codec` binds a Python type to a tag in ``0x20..0xFF``
with its own body encoder/decoder.  A codec registered ``in_place``
writes its body straight into the frame buffer and parses it from a
``memoryview`` of the frame — the masked input, the one model-sized
message, crosses with one copy out and none in.  Every other typed
body is the fixed-width leaf format of a crypto value (``Share``,
``SchnorrSignature``) or, for a message, the value encoding of its
fields (:class:`repro.secagg.types.WireRecord`).  The ShareKeys
plaintext never meets the registry: it is a leaf format of its own,
sealed by AE before it becomes one ``bytes`` value of a frame.  The protocol message
types ship registered below.  :class:`repro.engine.Targeted` has no tag:
the engine unpacks it into one request per client before anything is
sent.  Transports treat the registry as *the* wire contract:
the in-process serialization boundary and the socket carry the same
frames.
"""

from __future__ import annotations

import struct
from typing import Any, Callable

import numpy as np

from repro.wire.frame import FRAME_OVERHEAD, fill_frame_header

PAYLOAD_VERSION = 9

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
_in_place: set[type] = set()


def register_codec(
    cls: type,
    tag: int,
    encode_body: Callable[..., bytes],
    decode_body: Callable[[bytes], Any],
    in_place: bool = False,
) -> None:
    """Bind ``cls`` to ``tag`` with a body encoder/decoder pair.

    Tags below :data:`REGISTERED_TAG_BASE` belong to the structural
    value encoding; duplicate tags or types, and a type the value
    encoding already covers (an ``int`` or ``tuple`` subclass, say), are
    programming errors and refused.

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
    if issubclass(cls, _STRUCTURAL):
        raise ValueError(f"type {cls.__name__} is encoded as a value, not by a codec")
    _by_type[cls] = (tag, encode_body)
    _by_tag[tag] = (cls, decode_body)
    _DECODERS[tag] = _record_decoder(cls, decode_body, in_place)
    if in_place:
        _in_place.add(cls)
    else:
        _ENCODERS[cls] = _record_encoder(tag, encode_body)


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
        in_place=True,
    )
    register_codec(UnmaskingMsg, 0x24, UnmaskingMsg.to_bytes, UnmaskingMsg.from_bytes)


# ---------------------------------------------------------------------------
# Value encoding
# ---------------------------------------------------------------------------

_U32 = struct.Struct(">I")
#: A tag byte and the 4-byte length or count that follows it.
_TAG_U32 = struct.Struct(">BI")
_TAG_F64 = struct.Struct(">Bd")
_F64 = struct.Struct(">d")


def encode_value(obj: Any) -> bytes:
    """Tagged canonical encoding of one payload value."""
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
    _ENCODERS.get(type(obj), _encode_other)(obj, out)


def _encoded(obj: Any) -> bytearray:
    """One value's encoding on its own (a container element to sort)."""
    out = bytearray()
    _ENCODERS.get(type(obj), _encode_other)(obj, out)
    return out


def _encode_constant(obj: bool | None, out: bytearray) -> None:
    out.append(_TAG_NONE if obj is None else _TAG_TRUE if obj else _TAG_FALSE)


def _encode_int(obj: int, out: bytearray) -> None:
    n = (obj.bit_length() + 8) >> 3
    out += _TAG_U32.pack(_TAG_INT, n)
    out += obj.to_bytes(n, "big", signed=True)


def _encode_float(obj: float, out: bytearray) -> None:
    out += _TAG_F64.pack(_TAG_FLOAT, obj)


def _encode_str(obj: str, out: bytearray) -> None:
    body = obj.encode("utf-8")
    out += _TAG_U32.pack(_TAG_STR, len(body))
    out += body


def _encode_bytes(obj: bytes | bytearray, out: bytearray) -> None:
    out += _TAG_U32.pack(_TAG_BYTES, len(obj))
    out += obj


def _encode_sequence(obj: list | tuple, out: bytearray) -> None:
    out += _TAG_U32.pack(_TAG_LIST if isinstance(obj, list) else _TAG_TUPLE, len(obj))
    for item in obj:
        _ENCODERS.get(type(item), _encode_other)(item, out)


def _encode_dict(obj: dict, out: bytearray) -> None:
    pairs = sorted((_encoded(k), _encoded(v)) for k, v in obj.items())
    out += _TAG_U32.pack(_TAG_DICT, len(pairs))
    for k, v in pairs:
        out += k
        out += v


def _record_encoder(tag: int, encode_body: Callable[[Any], bytes]):
    """The dispatch entry of a registered codec that stages its body."""

    def encode(obj: Any, out: bytearray) -> None:
        body = encode_body(obj)
        out += _TAG_U32.pack(tag, len(body))
        out += body

    return encode


#: The encoder of each exact type the protocol ships; registered codecs
#: that stage their body join it (:func:`register_codec`).
_ENCODERS: dict[type, Callable[[Any, bytearray], None]] = {
    type(None): _encode_constant,
    bool: _encode_constant,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    bytearray: _encode_bytes,
    list: _encode_sequence,
    tuple: _encode_sequence,
    dict: _encode_dict,
}

#: What the value encoding claims by ``isinstance``: no codec may be
#: registered for these or their subclasses.
_STRUCTURAL = (
    bool, np.bool_, int, np.integer, float, np.floating, str,
    bytes, bytearray, memoryview, np.ndarray, list, tuple, set, frozenset, dict,
)


def _encode_other(obj: Any, out: bytearray) -> None:
    """A type the table misses: numpy scalars, subclasses, memoryviews,
    sets, ndarrays, in-place codecs — matched by ``isinstance``, then by
    the registry along the type's MRO."""
    if isinstance(obj, (bool, np.bool_)):
        _encode_constant(obj, out)
    elif isinstance(obj, (int, np.integer)):
        _encode_int(int(obj), out)
    elif isinstance(obj, (float, np.floating)):
        _encode_float(float(obj), out)
    elif isinstance(obj, str):
        _encode_str(obj, out)
    elif isinstance(obj, memoryview):
        view = obj if obj.c_contiguous else memoryview(bytes(obj))
        out += _TAG_U32.pack(_TAG_BYTES, view.nbytes)
        out += view
    elif isinstance(obj, (bytes, bytearray)):
        _encode_bytes(obj, out)
    elif isinstance(obj, np.ndarray):
        out.append(_TAG_NDARRAY)
        _encode_ndarray_into(obj, out)
    elif isinstance(obj, (list, tuple)):
        _encode_sequence(obj, out)
    elif isinstance(obj, (set, frozenset)):
        encoded = sorted(_encoded(item) for item in obj)
        out += _TAG_U32.pack(
            _TAG_SET if isinstance(obj, set) else _TAG_FROZENSET, len(encoded)
        )
        for item in encoded:
            out += item
    elif isinstance(obj, dict):
        _encode_dict(obj, out)
    else:
        for cls in type(obj).__mro__:
            entry = _by_type.get(cls)
            if entry is None:
                continue
            tag, encode_body = entry
            if cls not in _in_place:
                _record_encoder(tag, encode_body)(obj, out)
                return
            # Reserve the length prefix, let the codec write its body
            # into this buffer, then fill the prefix in.
            out.append(tag)
            at = len(out)
            out += b"\x00\x00\x00\x00"
            encode_body(obj, out)
            out[at : at + 4] = _U32.pack(len(out) - at - 4)
            return
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


# ---------------------------------------------------------------------------
# Value decoding
# ---------------------------------------------------------------------------
#
# ``_DECODERS[tag](data, offset, end, depth)`` reads the value whose tag
# byte sits just before ``offset`` and returns ``(value, next offset)``;
# ``end`` is ``len(data)``, taken once per top-level call; every read is
# checked against it.  ``data`` is ``bytes`` or a ``memoryview`` (a body
# a socket landed in a buffer of its own); the values decoded are the
# same either way — ``bytes``, never a view — but for an ``in_place``
# codec's body.


def _truncated() -> CodecError:
    return CodecError("truncated value")


def decode_value(
    data: bytes, offset: int = 0, _depth: int = 0
) -> tuple[Any, int]:
    """Inverse of :func:`encode_value`; returns (value, next offset)."""
    _ensure_defaults()
    if _depth > _MAX_DEPTH:
        raise CodecError(f"payload nesting exceeds {_MAX_DEPTH} levels")
    end = len(data)
    if offset >= end:
        raise _truncated()
    return _DECODERS[data[offset]](data, offset + 1, end, _depth)


def decode_whole_value(data: bytes, offset: int = 0) -> Any:
    """The one value ``data[offset:]`` holds; anything after it is an error."""
    value, stop = decode_value(data, offset)
    if stop != len(data):
        raise CodecError(f"trailing garbage: {len(data) - stop} bytes after value")
    return value


def _span(data: bytes, offset: int, end: int) -> tuple[int, int]:
    """``(start, stop)`` of the length-prefixed body at ``offset``."""
    start = offset + 4
    if start > end:
        raise _truncated()
    stop = start + _U32.unpack_from(data, offset)[0]
    if stop > end:
        raise _truncated()
    return start, stop


def _items(
    data: bytes, offset: int, end: int, depth: int, per: int = 1
) -> tuple[list, int]:
    """The ``per × count`` values of a container, one level down."""
    if offset + 4 > end:
        raise _truncated()
    n = per * _U32.unpack_from(data, offset)[0]
    offset += 4
    if n and depth >= _MAX_DEPTH:
        raise CodecError(f"payload nesting exceeds {_MAX_DEPTH} levels")
    depth += 1
    items = []
    for _ in range(n):
        if offset >= end:
            raise _truncated()
        item, offset = _DECODERS[data[offset]](data, offset + 1, end, depth)
        items.append(item)
    return items, offset


def _decode_int(data, offset, end, depth):
    start, stop = _span(data, offset, end)
    if start == stop:
        raise CodecError("empty int body")
    return int.from_bytes(data[start:stop], "big", signed=True), stop


def _decode_float(data, offset, end, depth):
    if offset + 8 > end:
        raise _truncated()
    return _F64.unpack_from(data, offset)[0], offset + 8


def _decode_str(data, offset, end, depth):
    start, stop = _span(data, offset, end)
    try:
        return str(data[start:stop], "utf-8"), stop
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid utf-8 in str value: {exc}") from exc


def _decode_bytes(data, offset, end, depth):
    start, stop = _span(data, offset, end)
    return bytes(data[start:stop]), stop


def _decode_tuple(data, offset, end, depth):
    items, offset = _items(data, offset, end, depth)
    return tuple(items), offset


def _decode_set(data, offset, end, depth):
    items, stop = _items(data, offset, end, depth)
    try:
        unique = set(items)
    except TypeError as exc:
        raise CodecError(f"unhashable set element: {exc}") from exc
    if len(unique) != len(items):
        raise CodecError("duplicate elements in set encoding")
    return (unique if data[offset - 1] == _TAG_SET else frozenset(unique)), stop


def _decode_dict(data, offset, end, depth):
    flat, stop = _items(data, offset, end, depth, per=2)
    try:
        out = dict(zip(flat[::2], flat[1::2]))
    except TypeError as exc:
        raise CodecError(f"unhashable dict key: {exc}") from exc
    if 2 * len(out) != len(flat):
        raise CodecError("duplicate keys in dict encoding")
    return out, stop


def _decode_ndarray(data, offset, end, depth):
    start, offset = _span(data, offset, end)
    dtype_raw = bytes(data[start:offset])
    try:
        dtype = np.dtype(dtype_raw.decode("ascii"))
    except (UnicodeDecodeError, TypeError, ValueError) as exc:
        raise CodecError(f"invalid ndarray dtype {dtype_raw!r}") from exc
    if dtype.hasobject:
        raise CodecError("object-dtype ndarrays have no wire encoding")
    if offset + 4 > end:
        raise _truncated()
    ndim = _U32.unpack_from(data, offset)[0]
    if ndim > _MAX_NDIM:
        raise CodecError(f"ndarray rank {ndim} exceeds {_MAX_NDIM}")
    if offset + 4 + 4 * ndim > end:
        raise _truncated()
    shape = struct.unpack_from(f">{ndim}I", data, offset + 4)
    start, stop = _span(data, offset + 4 + 4 * ndim, end)
    count = 1
    for dim in shape:
        count *= dim
    if stop - start != count * dtype.itemsize:
        raise CodecError(
            f"ndarray buffer of {stop - start} bytes does not match "
            f"shape {shape} dtype {dtype.str}"
        )
    arr = np.frombuffer(data[start:stop], dtype=dtype)
    return arr.reshape(shape).copy(), stop


def _record_decoder(cls: type, decode_body: Callable[[Any], Any], in_place: bool):
    """The tag's entry for a registered codec: its body, checked and
    handed over — a ``memoryview`` of the buffer if ``in_place``."""

    def decode(data, offset, end, depth):
        start, stop = _span(data, offset, end)
        body = memoryview(data)[start:stop] if in_place else bytes(data[start:stop])
        try:
            return decode_body(body), stop
        except CodecError:
            raise
        except ValueError as exc:
            raise CodecError(f"malformed {cls.__name__} body: {exc}") from exc

    return decode


def _unknown_tag(data, offset, end, depth):
    raise CodecError(f"unknown value tag {data[offset - 1]:#x}")


#: One decoder per tag byte; registration fills in its tag.
_DECODERS: list[Callable[[Any, int, int, int], tuple[Any, int]]] = [_unknown_tag] * 256
_DECODERS[_TAG_NONE] = lambda data, offset, end, depth: (None, offset)
_DECODERS[_TAG_FALSE] = lambda data, offset, end, depth: (False, offset)
_DECODERS[_TAG_TRUE] = lambda data, offset, end, depth: (True, offset)
_DECODERS[_TAG_INT] = _decode_int
_DECODERS[_TAG_FLOAT] = _decode_float
_DECODERS[_TAG_STR] = _decode_str
_DECODERS[_TAG_BYTES] = _decode_bytes
_DECODERS[_TAG_LIST] = _items
_DECODERS[_TAG_TUPLE] = _decode_tuple
_DECODERS[_TAG_SET] = _DECODERS[_TAG_FROZENSET] = _decode_set
_DECODERS[_TAG_DICT] = _decode_dict
_DECODERS[_TAG_NDARRAY] = _decode_ndarray


# ---------------------------------------------------------------------------
# Payload envelope
# ---------------------------------------------------------------------------


def encode_payload(obj: Any) -> bytes:
    """Versioned canonical bytes for one payload value."""
    out = bytearray((PAYLOAD_VERSION,))
    encode_value_into(obj, out)
    return bytes(out)


def encode_payload_frame(kind: int, obj: Any) -> bytearray:
    """One complete wire frame carrying ``encode_payload(obj)``.

    The transports' zero-copy write path: header, payload version, and
    the value encoding are emitted into a single buffer (header filled
    in after the body length is known), so framing a payload never
    re-copies its body.  Byte-identical to
    ``encode_frame(kind, encode_payload(obj))`` — pinned by test — and
    suitable for ``TCPLink.send`` as-is.
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
