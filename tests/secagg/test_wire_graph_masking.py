"""Wire codecs, masking algebra, and the masking graph."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.prg import PRGReference
from repro.crypto.shamir import Share, ShamirSecretSharing
from repro.secagg.graph import masking_graph, masking_row, recommended_degree
from repro.secagg.masking import MaskAccumulator
from repro.secagg.types import DealingShape, SharePayload
from repro.utils.rng import derive_seed
from repro.wire import CodecError, encode_value


def _share_payload() -> SharePayload:
    ss = ShamirSecretSharing(threshold=2)
    return SharePayload(
        sender=5,
        recipient=1,
        s_sk_share=ss.share([b"\x01" * 32], [1, 2])[0][1],
        b_share=ss.share([b"\x02" * 32], [1, 2])[0][1],
        extra_shares={"g:0": ss.share([b"\x03" * 32], [1, 2])[0][1]},
    )


#: The shape client 1 parses client 5's plaintext against.
_SHAPE = DealingShape((32, 32, 32), ("g:0",))


class TestWire:
    def test_truncated_fields_rejected(self):
        blob = _share_payload().to_bytes()
        for cut in range(len(blob)):
            with pytest.raises(CodecError, match="dealing shape"):
                SharePayload.from_bytes(blob[:cut], _SHAPE, 5, 1)

    def test_share_roundtrip(self):
        share = Share(x=7, ys=(123456789, 42), secret_len=20)
        assert Share.from_bytes(share.to_bytes()) == share

    def test_share_payload_roundtrip_with_extras(self):
        payload = _share_payload()
        assert payload.shape == _SHAPE
        assert SharePayload.from_bytes(payload.to_bytes(), _SHAPE, 5, 1) == payload

    def test_malformed_payload_rejected(self):
        with pytest.raises(CodecError, match="dealing shape"):
            SharePayload.from_bytes(encode_value((b"1", b"2", b"3")), _SHAPE, 5, 1)
        with pytest.raises(CodecError, match="dealing shape"):
            SharePayload.from_bytes(_share_payload().to_bytes() + b"\x00", _SHAPE, 5, 1)
        with pytest.raises(CodecError, match="expected 5 -> 2"):
            SharePayload.from_bytes(_share_payload().to_bytes(), _SHAPE, 5, 2)

    def test_garbage_share_rejected(self):
        with pytest.raises(ValueError):
            Share.from_bytes(b"\x00" * 5)


def _folded(terms, dimension, modulus) -> np.ndarray:
    """``Σ sign·PRG(seed) mod R`` as the protocol computes it: every seed
    folded into one accumulator, no mask vector in between."""
    acc = MaskAccumulator(
        np.zeros(dimension, dtype=np.int64), modulus, n_terms=1 + len(terms)
    )
    for seed, sign in terms:
        acc.fold_seed(seed, sign)
    return acc.finish()


def _pairwise_oracle(seed, u, v, dimension, modulus) -> np.ndarray:
    """p_{u,v} = γ·PRG(s_{u,v}) as Fig. 5 writes it, on the reference PRG."""
    base = PRGReference(seed).uniform_vector(dimension, modulus)
    return base if u > v else (-base) % modulus


class TestMasking:
    def test_pairwise_masks_cancel(self):
        seed = derive_seed("pair", 1, 2)
        modulus = 1 << 20
        a = _folded([(seed, 1)], 64, modulus)  # as client 2 sees it
        b = _folded([(seed, -1)], 64, modulus)  # as client 1 sees it
        np.testing.assert_array_equal(a, _pairwise_oracle(seed, 2, 1, 64, modulus))
        np.testing.assert_array_equal(b, _pairwise_oracle(seed, 1, 2, 64, modulus))
        np.testing.assert_array_equal((a + b) % modulus, np.zeros(64, dtype=np.int64))

    def test_self_mask_deterministic(self):
        want = PRGReference(b"b-seed").uniform_vector(32, 1 << 20)
        for _ in range(2):
            np.testing.assert_array_equal(
                _folded([(b"b-seed", 1)], 32, 1 << 20), want
            )

    def test_masks_cover_full_range(self):
        m = _folded([(b"range", 1)], 5000, 1 << 16)
        assert m.min() >= 0 and m.max() < (1 << 16)
        assert m.max() > (1 << 15)  # uses the upper half too

    def test_complete_cancellation_over_survivor_set(self):
        """Sum of all pairwise masks over a complete survivor set is 0 —
        the identity the masked sum relies on."""
        modulus = 1 << 20
        ids = [3, 7, 11, 19]
        total = np.zeros(16, dtype=np.int64)
        for u in ids:
            peers = [v for v in ids if v != u]
            seeds = {v: derive_seed("pair", min(u, v), max(u, v)) for v in peers}
            mine = _folded(
                [(seeds[v], 1 if u > v else -1) for v in peers], 16, modulus
            )
            oracle = sum(
                _pairwise_oracle(seeds[v], u, v, 16, modulus) for v in peers
            ) % modulus
            np.testing.assert_array_equal(mine, oracle)
            total = (total + mine) % modulus
        np.testing.assert_array_equal(total, np.zeros(16, dtype=np.int64))


def _order_oracle(roster: list[int], graph_seed: int) -> list[int]:
    """The construction's Fisher–Yates order, read word by word from
    the specification stream (:class:`PRGReference`)."""
    prg = PRGReference(b"masking-graph:%d" % graph_seed)
    words: list[int] = []
    order = sorted(roster)
    for i in range(len(order) - 1, 0, -1):
        while True:
            if not words:
                words = list(struct.unpack(">8I", prg.read(32)))
            w = words.pop(0)
            if w < (1 << 32) - (1 << 32) % (i + 1):
                break
        j = w % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def _connected(graph: dict[int, set[int]]) -> bool:
    """Breadth-first search from the smallest id reaches every node."""
    start = min(graph)
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [v for u in frontier for v in graph[u] if v not in seen]
        seen.update(frontier)
    return seen == set(graph)


@st.composite
def _graph_cases(draw):
    roster = sorted(draw(st.sets(st.integers(0, 10**6), min_size=2, max_size=130)))
    degree = draw(st.integers(1, len(roster) - 1))
    return roster, degree, draw(st.integers(0, 2**40))


#: masking_graph(GOLDEN_ROSTER, 3, 2024): the order of the roster, and the
#: graph it induces — position 10 (id 11) is the one node of degree
#: k − 1, since k·n = 33 is odd.
GOLDEN_ROSTER = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
GOLDEN_ORDER = [29, 23, 13, 3, 2, 19, 7, 31, 5, 17, 11]
GOLDEN_GRAPH = {
    2: {3, 17, 19}, 3: {2, 5, 13}, 5: {3, 17, 31}, 7: {19, 23, 31},
    11: {17, 29}, 13: {3, 23, 31}, 17: {2, 5, 11}, 19: {2, 7, 29},
    23: {7, 13, 29}, 29: {11, 19, 23}, 31: {5, 7, 13},
}


class TestGraphs:
    @given(case=_graph_cases())
    @settings(max_examples=200, deadline=None)
    def test_construction(self, case):
        roster, k, graph_seed = case
        graph = masking_graph(roster, k, graph_seed)
        n = len(roster)
        assert sorted(graph) == roster
        for u, nbrs in graph.items():
            assert u not in nbrs
            assert all(u in graph[v] for v in nbrs)
        short = [u for u, nbrs in graph.items() if len(nbrs) == k - 1]
        assert len(short) == (k * n) % 2
        assert all(len(nbrs) == k for u, nbrs in graph.items() if u not in short)
        if k >= 2:
            assert _connected(graph)
        assert masking_graph(list(reversed(roster)), k, graph_seed) == graph

    def test_golden(self):
        assert _order_oracle(GOLDEN_ROSTER, 2024) == GOLDEN_ORDER
        assert masking_graph(GOLDEN_ROSTER, 3, 2024) == GOLDEN_GRAPH

    @pytest.mark.parametrize("n,graph_seed", [(23, 0), (64, 7), (129, 2**33)])
    def test_order_is_the_specification_streams(self, n, graph_seed):
        roster = list(range(100, 100 + n))
        order = _order_oracle(roster, graph_seed)
        graph = masking_graph(roster, 2, graph_seed)
        for p, u in enumerate(order):
            assert graph[u] == {order[p - 1], order[(p + 1) % n]}

    def test_the_seed_moves_the_graph(self):
        roster = list(range(40))
        assert masking_graph(roster, 4, 1) != masking_graph(roster, 4, 2)

    @pytest.mark.parametrize("degree", [None, 11, 12, 50])
    def test_complete_graph(self, degree):
        roster = list(range(3, 15))
        members = set(roster)
        assert masking_graph(roster, degree, 9) == {u: members - {u} for u in roster}

    @pytest.mark.parametrize("n,k", [
        (2, 1), (3, 1), (5, 2), (6, 3), (7, 3), (11, 3), (12, 4), (13, 5), (16, 8),
        (17, 15), (23, 4), (31, 7), (64, 17), (101, 20), (130, 7),
    ])
    @pytest.mark.parametrize("graph_seed", [0, 2024])
    def test_a_row_is_the_graphs_row(self, n, k, graph_seed):
        """Every id's row alone, on H(k, n) — odd and even k and n, k
        past n/2 — and on the complete graph the same roster asks for
        with no degree or one of n − 1 or more."""
        roster = [3 * i + 1 for i in range(n)]
        for degree in (k, None, n - 1, n + 5):
            graph = masking_graph(roster, degree, graph_seed)
            for u in roster:
                assert masking_row(roster, u, degree, graph_seed) == graph[u], (degree, u)

    def test_a_row_of_no_member_is_refused(self):
        with pytest.raises(KeyError):
            masking_row(range(10), 10, 3)
        with pytest.raises(ValueError, match="degree must be >= 1"):
            masking_row(range(10), 3, 0)
        assert masking_row(GOLDEN_ROSTER, 11, 3, 2024) == GOLDEN_GRAPH[11]

    def test_single_node_graph(self):
        assert masking_graph([42], 3) == {42: set()}
        assert masking_graph([42]) == {42: set()}

    def test_invalid_degree(self):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            masking_graph(range(10), 0)

    @pytest.mark.parametrize("n", [64, 128])
    def test_recommended_degree_is_connected(self, n):
        k = recommended_degree(n)
        assert k < n - 1
        graph = masking_graph(range(n), k, 0)
        assert _connected(graph)
        assert {len(nbrs) for nbrs in graph.values()} <= {k - 1, k}

    def test_recommended_degree_logarithmic(self):
        assert recommended_degree(100) == pytest.approx(3 * np.log2(100), abs=1)
        assert recommended_degree(100) < 99
        assert recommended_degree(2) == 1
        # Must grow slowly.
        assert recommended_degree(10_000) < 50

    @pytest.mark.timeout(120)
    def test_socket_round_each_client_derives_the_servers_neighbourhood(self):
        """SecAgg+ over real sockets, k = 6, two clients dropped before
        upload: every client's own neighbourhood is the coordinator's,
        and the aggregate is the survivors' sum."""
        from repro.engine import RoundEngine, SocketTransport, run_sync
        from repro.secagg import DropoutSchedule, secagg_plus_config, with_dropout
        from repro.secagg.driver import secagg_round_components

        n, bits, dim = 12, 16, 32
        config = secagg_plus_config(
            n, bits=bits, dimension=dim, degree=6, graph_seed=5, dh_group="modp512"
        )
        rng = np.random.default_rng(11)
        inputs = {u: rng.integers(0, 1 << 12, size=dim) for u in range(1, n + 1)}
        server, clients = secagg_round_components(config, inputs)
        engine = RoundEngine(transport=SocketTransport())
        dropout = DropoutSchedule.before_upload({3, 9})
        result = run_sync(
            engine.run_round(server, clients, transport=with_dropout(engine.transport, dropout))
        )
        graph = server.inner.graph
        assert {len(nbrs) for nbrs in graph.values()} == {6}
        for client in clients:
            assert client.inner._neighbors == graph[client.id]
        survivors = sorted(set(inputs) - {3, 9})
        assert result.u3 == survivors
        expected = sum(inputs[u] for u in survivors) % config.modulus
        np.testing.assert_array_equal(result.aggregate, expected)
