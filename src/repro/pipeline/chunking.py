"""Chunk partitioning of aggregation tasks (§4.1).

Dordis exploits the coordinate-wise nature of aggregation: splitting
every client's update into m chunks turns one aggregation task into m
*independent* chunk-aggregation sub-tasks whose results concatenate back
— ``Σᵢ Δᵢ = (Σᵢ Δᵢ,1) ∥ … ∥ (Σᵢ Δᵢ,m)``.  The timing side of pipelining
lives in :mod:`repro.pipeline.scheduler`; this module is the *functional*
side: the split/concat operators
:meth:`repro.engine.RoundEngine.run_chunked_round` runs its m protocol
sub-rounds between.
"""

from __future__ import annotations

import numpy as np


def chunk_boundaries(dimension: int, n_chunks: int) -> list[tuple[int, int]]:
    """Even [start, end) slices; earlier chunks absorb the remainder.

    The paper's reduced design space (§4.1) considers only even
    partitions, which collapses the search to the single parameter m.
    """
    if dimension < 1:
        raise ValueError("dimension must be positive")
    if not 1 <= n_chunks <= dimension:
        raise ValueError("need 1 <= n_chunks <= dimension")
    base, extra = divmod(dimension, n_chunks)
    bounds = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def split_vector(vector: np.ndarray, n_chunks: int) -> list[np.ndarray]:
    """Split one update into m chunk views (copies)."""
    return [
        vector[a:b].copy()
        for a, b in chunk_boundaries(vector.shape[0], n_chunks)
    ]


def concat_chunks(chunks: list[np.ndarray]) -> np.ndarray:
    """The ∥ operator."""
    if not chunks:
        raise ValueError("no chunks to concatenate")
    return np.concatenate(chunks)
