"""Wire codecs, masking algebra, and communication graphs."""

import numpy as np
import pytest

from repro.crypto.prg import PRGReference
from repro.crypto.shamir import Share, ShamirSecretSharing
from repro.secagg.graph import CompleteGraph, KRegularGraph, recommended_degree
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


class TestGraphs:
    def test_complete_graph(self):
        g = CompleteGraph().build([1, 2, 3])
        assert g == {1: {2, 3}, 2: {1, 3}, 3: {1, 2}}

    def test_k_regular_degree(self):
        g = KRegularGraph(4, seed=1).build(list(range(10, 30)))
        assert all(len(nbrs) == 4 for nbrs in g.values())

    def test_k_regular_symmetric(self):
        g = KRegularGraph(4, seed=1).build(list(range(12)))
        for u, nbrs in g.items():
            for v in nbrs:
                assert u in g[v]

    def test_k_regular_deterministic(self):
        a = KRegularGraph(4, seed=7).build(list(range(16)))
        b = KRegularGraph(4, seed=7).build(list(range(16)))
        assert a == b

    def test_k_regular_infeasible_degree_falls_back(self):
        # k = 3, n = 3 -> complete graph of degree 2.
        g = KRegularGraph(3, seed=0).build([1, 2, 3])
        assert all(len(nbrs) == 2 for nbrs in g.values())

    def test_odd_product_degree_adjusted(self):
        # k = 3, n = 5: k*n odd, no 3-regular graph on 5 nodes; adjust to 2.
        g = KRegularGraph(3, seed=0).build([1, 2, 3, 4, 5])
        assert all(len(nbrs) == 2 for nbrs in g.values())

    def test_single_node_graph(self):
        assert KRegularGraph(3).build([42]) == {42: set()}

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            KRegularGraph(0)

    def test_recommended_degree_logarithmic(self):
        assert recommended_degree(100) == pytest.approx(3 * np.log2(100), abs=1)
        assert recommended_degree(100) < 99
        assert recommended_degree(2) == 1
        # Must grow slowly.
        assert recommended_degree(10_000) < 50
