"""The value codec as it was before dispatch tables: the byte-format spec.

:func:`encode_value_reference` is the concatenating encoder (an
``isinstance`` ladder, one ``bytes`` per node) and
:func:`decode_value_reference` the tuple-and-slice decoder, both kept
verbatim from the tree that shipped them, with the names suffixed.  They
read the live codec registry — a registered type's body codec is the
one production binds — so what they pin is the structural encoding
around it: every tag, length prefix, canonical order and refusal.
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

from repro.wire.codecs import (
    _MAX_DEPTH,
    _MAX_NDIM,
    _TAG_BYTES,
    _TAG_DICT,
    _TAG_FALSE,
    _TAG_FLOAT,
    _TAG_FROZENSET,
    _TAG_INT,
    _TAG_LIST,
    _TAG_NDARRAY,
    _TAG_NONE,
    _TAG_SET,
    _TAG_STR,
    _TAG_TRUE,
    _TAG_TUPLE,
    PAYLOAD_VERSION,
    CodecError,
    _by_tag,
    _by_type,
    _ensure_defaults,
    _in_place,
)


def _lp(body: bytes) -> bytes:
    """4-byte big-endian length prefix."""
    return len(body).to_bytes(4, "big") + body


def _encode_int(value: int) -> bytes:
    n = max(1, (value.bit_length() + 8) // 8)
    return value.to_bytes(n, "big", signed=True)


def encode_value_reference(obj: Any) -> bytes:
    """Retained concatenating encoder: the executable byte-format spec."""
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


def encode_payload_reference(obj: Any) -> bytes:
    """Retained concatenating twin of ``encode_payload``."""
    return bytes((PAYLOAD_VERSION,)) + encode_value_reference(obj)


def _encode_ndarray(arr: np.ndarray) -> bytes:
    if arr.dtype.hasobject:
        raise CodecError("object-dtype ndarrays have no wire encoding")
    a = np.ascontiguousarray(arr)
    dtype_str = a.dtype.str.encode("ascii")
    out = bytearray()
    out += len(dtype_str).to_bytes(4, "big")
    out += dtype_str
    out += len(a.shape).to_bytes(4, "big")
    for dim in a.shape:
        out += int(dim).to_bytes(4, "big")
    out += a.nbytes.to_bytes(4, "big")
    out += a.data
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


def decode_value_reference(
    data: bytes, offset: int = 0, _depth: int = 0
) -> tuple[Any, int]:
    """Inverse of :func:`encode_value_reference`; returns (value, next offset)."""
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
            item, offset = decode_value_reference(data, offset, _depth + 1)
            items.append(item)
        return (items if tag == _TAG_LIST else tuple(items)), offset
    if tag in (_TAG_SET, _TAG_FROZENSET):
        count, offset = _read_count(data, offset)
        items = []
        for _ in range(count):
            item, offset = decode_value_reference(data, offset, _depth + 1)
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
            key, offset = decode_value_reference(data, offset, _depth + 1)
            value, offset = decode_value_reference(data, offset, _depth + 1)
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


def decode_whole_value_reference(data: bytes, offset: int = 0) -> Any:
    """The one value ``data[offset:]`` holds; anything after it is an error."""
    value, end = decode_value_reference(data, offset)
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


def decode_payload_reference(data: bytes) -> Any:
    """Strict inverse of ``encode_payload`` (whole-buffer parse)."""
    if not data:
        raise CodecError("empty payload")
    if data[0] != PAYLOAD_VERSION:
        raise CodecError(
            f"unsupported payload version {data[0]} (speaking {PAYLOAD_VERSION})"
        )
    return decode_whole_value_reference(data, 1)
