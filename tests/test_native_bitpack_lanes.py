"""The mask fold's C loops against their numpy twin, at every width.

The mask fold (``expand_uniform(…, out=, sign=±1)``) runs eight elements
per AVX-512 register where the host has the stream lanes: whole groups
of eight — ``bits`` bytes a group, one 64-byte load each — and the
ragged rest left to the scalar loop.  So the shapes here are every width
1…62 at counts either side of a group (0, 1, 7, 8, 9), of a 256-element
run (255–257), of one mask slab of stream (⌊16384/b⌋ and one more: 819 /
820 at b = 20), and the counts whose last whole group's 64-byte load
ends exactly at the stream's last byte, one byte short of it and one
byte past it.  The other two lane entry points, the arrival fold
(``unpack_add``) and the reducing pack (``pack_low_bits_into``), run the
same counts in ``tests/wire/test_bitpack.py::TestFusedPair``.

Two kernels run the same shapes: the object this host loads (the lanes
on an AVX-512 host) and the same source built with ``-DREPRO_NO_X16``
under its own object name — the scalar loops alone, which that host
would never pick (``tests/native_objects.py``).  A host without a C
compiler skips both by name.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import native
from repro.crypto.prg import expand_uniform
from tests.native_objects import bind, edge_counts

WIDTHS = range(1, 63)
SEED = bytes(range(7, 39))


def _counts(bits: int) -> list[int]:
    slab = 16384 // bits
    return sorted(
        {0, 1, 7, 8, 9, 255, 256, 257, slab, slab + 1, *edge_counts(bits).values()}
    )


def test_every_load_edge_is_reached():
    """The edge counts cover all three cases, each at many widths (a
    width whose groups step over a case leaves it out: at 20 bits no
    load ends exactly on the last byte)."""
    reached = {d: [b for b in WIDTHS if d in edge_counts(b)] for d in (-1, 0, 1)}
    assert all(len(widths) >= 20 for widths in reached.values()), reached
    assert 20 in reached[-1] and 20 in reached[1]


@pytest.fixture(params=["loaded", "scalar"])
def kernel(request, monkeypatch):
    """Runs the test with ``native.load()`` answering the named object."""
    return bind(request.param, monkeypatch)


def _start(bits: int, n: int) -> np.ndarray:
    rng = np.random.default_rng([bits, n, 1])
    return rng.integers(-(1 << 40), 1 << 40, size=n, dtype=np.int64)


@pytest.mark.parametrize("bits", WIDTHS)
def test_mask_fold_matches_the_twin(kernel, bits):
    for n in _counts(bits):
        for sign in (1, -1):
            start = _start(bits, n)
            got = expand_uniform(SEED, n, 1 << bits, out=start.copy(), sign=sign)
            with native.twins_only():
                want = expand_uniform(SEED, n, 1 << bits, out=start.copy(), sign=sign)
            np.testing.assert_array_equal(got, want, err_msg=f"n={n} sign={sign}")

