"""Functional chunking: the §4.1 split/concat operators.  The identity
through executed rounds (plain sums and real SecAgg sub-rounds) is
``tests/engine/test_round_engine.py::TestChunkPipelining``."""

import numpy as np
import pytest

from repro.pipeline.chunking import (
    chunk_boundaries,
    concat_chunks,
    split_vector,
)
from repro.utils.rng import derive_rng


class TestBoundaries:
    def test_cover_exactly_once(self):
        bounds = chunk_boundaries(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_single_chunk(self):
        assert chunk_boundaries(7, 1) == [(0, 7)]

    def test_chunks_equal_dimension(self):
        assert chunk_boundaries(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    @pytest.mark.parametrize("dim,m", [(0, 1), (4, 0), (4, 5)])
    def test_invalid(self, dim, m):
        with pytest.raises(ValueError):
            chunk_boundaries(dim, m)


class TestSplitConcat:
    def test_roundtrip(self):
        v = derive_rng("chunk").normal(size=23)
        for m in (1, 2, 5, 23):
            np.testing.assert_array_equal(concat_chunks(split_vector(v, m)), v)

    def test_empty_concat_rejected(self):
        with pytest.raises(ValueError):
            concat_chunks([])
