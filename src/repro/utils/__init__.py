"""Shared utilities: byte/int codecs, deterministic RNG derivation, Zipf draws."""

from repro.utils.bytesio import int_to_bytes, bytes_to_int, chunk_bytes
from repro.utils.rng import derive_rng, derive_seed
from repro.utils.zipf import zipf_weights, zipf_between

__all__ = [
    "int_to_bytes",
    "bytes_to_int",
    "chunk_bytes",
    "derive_rng",
    "derive_seed",
    "zipf_weights",
    "zipf_between",
]
