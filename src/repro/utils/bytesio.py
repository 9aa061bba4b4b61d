"""Byte-level codecs used throughout the protocol implementations.

The secure-aggregation and XNoise protocols move secrets around as byte
strings (seeds, keys, shares).  These helpers keep the conversions in one
audited place instead of scattering ad-hoc ``int.from_bytes`` calls.
"""

from __future__ import annotations


def int_to_bytes(value: int, length: int | None = None) -> bytes:
    """Encode a non-negative integer big-endian.

    If ``length`` is omitted the minimal length is used (at least one byte,
    so that zero round-trips).
    """
    if value < 0:
        raise ValueError(f"cannot encode negative integer {value}")
    if length is None:
        length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Decode a big-endian unsigned integer."""
    return int.from_bytes(data, "big")


def chunk_bytes(data: bytes, chunk_size: int) -> list[bytes]:
    """Split ``data`` into chunks of at most ``chunk_size`` bytes.

    The final chunk may be shorter.  Used by Shamir sharing of byte-string
    secrets, where each chunk must fit into one field element.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    return [data[i : i + chunk_size] for i in range(0, len(data), chunk_size)]
