"""Communication graphs for secure aggregation.

SecAgg masks every pair of clients — a complete graph, O(|U|²) pairwise
work.  SecAgg+ (Bell et al., CCS'20) cuts this to (poly)logarithmic cost
by masking only along the edges of a random k-regular graph with
k = O(log n), at a slight cost in dropout/collusion robustness (§2.3.2).

Both cases expose the same interface: given the stage-0 roster, return
each client's neighbor set.  The server builds the graph once a round
and sends each client its own neighbor ids: the construction is
deterministic in the roster and a public seed, but what ``networkx``
draws from that seed is no specification two parties could be held to.
"""

from __future__ import annotations

import math

import networkx as nx


class CompleteGraph:
    """All-pairs masking — the original SecAgg topology."""

    def build(self, roster: list[int]) -> dict[int, set[int]]:
        members = set(roster)
        return {u: members - {u} for u in roster}

    def describe(self) -> str:
        return "complete"


class KRegularGraph:
    """Random k-regular masking graph — the SecAgg+ topology.

    The construction is deterministic in ``(roster, seed)``: node ids are
    sorted and mapped onto a ``networkx`` random regular graph.  If k·n is
    odd or k ≥ n (no such regular graph), the degree is adjusted downward
    to the nearest feasible value.
    """

    def __init__(self, degree: int, seed: int = 0):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.seed = seed

    def _feasible_degree(self, n: int) -> int:
        k = min(self.degree, n - 1)
        if k * n % 2 == 1:
            k -= 1
        return max(k, 1 if n > 1 else 0)

    def build(self, roster: list[int]) -> dict[int, set[int]]:
        ordered = sorted(roster)
        n = len(ordered)
        if n <= 1:
            return {u: set() for u in ordered}
        k = self._feasible_degree(n)
        if k >= n - 1:
            return CompleteGraph().build(roster)
        g = nx.random_regular_graph(k, n, seed=self.seed)
        return {
            ordered[node]: {ordered[nbr] for nbr in g.neighbors(node)}
            for node in g.nodes
        }

    def describe(self) -> str:
        return f"{self.degree}-regular"


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


def build_graph(config, roster: list[int]) -> dict[int, set[int]]:
    """Construct the public masking graph over the stage-0 roster."""
    if config.graph_degree is None:
        return CompleteGraph().build(roster)
    return KRegularGraph(config.graph_degree, config.graph_seed).build(roster)
