"""The masking graph: who key-agrees, masks and secret-shares with whom.

SecAgg masks every pair of clients — a complete graph, O(|U|²) pairwise
work.  SecAgg+ (Bell et al., CCS'20) cuts this to (poly)logarithmic cost
by masking only along the edges of a k-regular graph with k = O(log n),
a Harary graph over a random order of the clients, at a slight cost in
dropout/collusion robustness (§2.3.2).

:func:`masking_graph` is the one construction, a pure function of the
roster, ``graph_degree`` and ``graph_seed`` — so the coordinator and
every client compute the same graph, and no part of it is sent (a
client computes only its own row, :func:`masking_row`):

- degree ``None`` or ≥ n − 1: the complete graph;
- otherwise the Harary/circulant graph H(k, n) over an order of the
  sorted roster.  The order is a Fisher–Yates shuffle: for
  i = n − 1, …, 1, swap position i with position j, where j is the first
  32-bit big-endian word w of the PRG stream (:mod:`repro.crypto.prg`)
  under the seed ``b"masking-graph:" ∥ decimal(graph_seed)`` with
  w < 2³² − (2³² mod (i + 1)), taken mod i + 1 (unbiased rejection; a
  rejected word is skipped).  The node at position p is joined to
  positions p ± 1, …, p ± ⌊k/2⌋ (mod n), and, for odd k, position
  p < ⌊n/2⌋ to p + ⌊n/2⌋.  Every node then has k neighbours, except the
  one at position n − 1 when k·n is odd (k − 1); for k ≥ 2 the ring
  p ± 1 makes the graph connected.
"""

from __future__ import annotations

import math
import struct
from typing import Iterable, Iterator, Optional

from repro.crypto.prg import counter_stream
from repro.secagg.types import SecAggConfig

#: Stream blocks (eight words each) fetched at a time for the shuffle.
_BLOCKS = 16


def _words(seed: bytes) -> Iterator[int]:
    """The 32-bit big-endian words of ``seed``'s PRG stream, in order."""
    ctr = 0
    while True:
        yield from struct.unpack(f">{8 * _BLOCKS}I", counter_stream(seed, _BLOCKS, ctr))
        ctr += _BLOCKS


def _shuffled(ordered: list[int], graph_seed: int) -> list[int]:
    """Fisher–Yates over ``ordered``, drawn from the graph seed's stream."""
    order = list(ordered)
    words = _words(b"masking-graph:%d" % graph_seed)
    for i in range(len(order) - 1, 0, -1):
        bound = i + 1
        limit = (1 << 32) - (1 << 32) % bound
        w = next(words)
        while w >= limit:
            w = next(words)
        j = w % bound
        order[i], order[j] = order[j], order[i]
    return order


def _complete(degree: Optional[int], n: int) -> bool:
    """Whether ``degree`` asks for the complete graph on ``n`` nodes."""
    if degree is not None and degree < 1:
        raise ValueError("degree must be >= 1")
    return degree is None or degree >= n - 1


def masking_graph(
    roster: Iterable[int], degree: Optional[int] = None, graph_seed: int = 0
) -> dict[int, set[int]]:
    """Every roster id's neighbour set in the round's masking graph."""
    ordered = sorted(roster)
    n = len(ordered)
    if _complete(degree, n):
        members = set(ordered)
        return {u: members - {u} for u in ordered}
    order = _shuffled(ordered, graph_seed)
    graph: dict[int, set[int]] = {u: set() for u in ordered}

    def join(p: int, q: int) -> None:
        graph[order[p]].add(order[q % n])
        graph[order[q % n]].add(order[p])

    for p in range(n):
        for d in range(1, degree // 2 + 1):
            join(p, p + d)
    if degree % 2:
        for p in range(n // 2):
            join(p, p + n // 2)
    return graph


def masking_row(
    roster: Iterable[int], member: int, degree: Optional[int] = None, graph_seed: int = 0
) -> set[int]:
    """``masking_graph(roster, degree, graph_seed)[member]`` alone: one
    pass over the roster (and its shuffle), not every node's set.
    ``KeyError`` when ``member`` is not on the roster."""
    ordered = sorted(roster)
    n = len(ordered)
    complete = _complete(degree, n)
    members = set(ordered)
    if member not in members:
        raise KeyError(member)
    if complete:
        return members - {member}
    order = _shuffled(ordered, graph_seed)
    p = order.index(member)
    row = {order[(p + d) % n] for d in range(1, degree // 2 + 1)}
    row |= {order[(p - d) % n] for d in range(1, degree // 2 + 1)}
    half = n // 2
    if degree % 2 and p < 2 * half:  # the chord p <-> p + n/2 from the first half
        row.add(order[p + half] if p < half else order[p - half])
    return row


def recommended_degree(n: int, base: float = 3.0) -> int:
    """SecAgg+'s k = O(log n) neighbor count.

    ``base`` multiplies log₂(n); 3·log₂(n) gives the correctness and
    security margins of the Bell et al. parameterization for the failure
    probabilities used in practice.  Clamped to [2, n−1].
    """
    if n <= 2:
        return max(n - 1, 1)
    k = int(math.ceil(base * math.log2(n)))
    return max(2, min(k, n - 1))


def secagg_plus_config(
    n_clients: int,
    bits: int = 20,
    dimension: int = 16,
    malicious: bool = False,
    degree: int | None = None,
    threshold_fraction: float = 0.55,
    graph_seed: int = 0,
    dh_group: str = "modp2048",
) -> SecAggConfig:
    """A :class:`SecAggConfig` parameterized the SecAgg+ way.

    The protocol is SecAgg's; only the graph and the threshold differ.
    The Shamir threshold applies within each k-neighborhood, so it is a
    fraction of the degree rather than of n.  ``threshold_fraction``
    defaults just above 1/2, the regime Bell et al. analyze.
    """
    if n_clients < 2:
        raise ValueError("SecAgg+ needs at least 2 clients")
    k = degree if degree is not None else recommended_degree(n_clients)
    k = min(k, n_clients - 1)
    threshold = min(k, max(2, int(math.ceil(threshold_fraction * k))))
    return SecAggConfig(
        threshold=threshold,
        bits=bits,
        dimension=dimension,
        malicious=malicious,
        graph_degree=k,
        graph_seed=graph_seed,
        dh_group=dh_group,
    )
