"""The bit-pack plane's C loops against their numpy twins, at every width.

Three entry points run eight elements per AVX-512 register where the
host has the stream lanes: the mask fold (``expand_uniform(…, out=,
sign=±1)``), the coordinator's arrival fold (``unpack_add``) and the
client's reducing pack (``pack_low_bits_into``).  Each takes whole groups
of eight — ``bits`` bytes a group, one 64-byte load each — and leaves
the ragged rest, and in a received stream every group whose load would
pass the end of the buffer, to the scalar loops.  So the shapes here are
every width 1…62 at counts either side of a group (0, 1, 7, 8, 9), of
a 256-element run (255–257), of one mask slab of stream (⌊16384/b⌋ and
one more: 819 / 820 at b = 20), and the counts whose last whole group's
64-byte load ends exactly at the stream's last byte, one byte short of
it and one byte past it.

Two kernels run the same shapes: the object this host loads (the lanes
on an AVX-512 host) and the same source built with ``-DREPRO_NO_X16``
under its own object name — the scalar loops alone, which that host
would never pick.  A host without a C compiler skips both by name.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro import native
from repro.crypto.prg import expand_uniform
from repro.wire.bitpack import pack_low_bits_into, packed_nbytes, unpack_add

SCALAR_FLAGS = native._CFLAGS + ("-DREPRO_NO_X16",)
WIDTHS = range(1, 63)
SEED = bytes(range(7, 39))
GUARD = bytes(range(0xA0, 0xE0))


def _edge_counts(bits: int) -> dict[int, int]:
    """``{d: n}``: the least count one of whose whole groups has its
    64-byte load end ``d`` bytes past the stream's last byte, for d in
    −1, 0, +1 (where some count reaches it at this width).  At 0 and −1
    that group is the last the lanes take; at +1 it is the first they
    leave to the scalar loop."""
    edges: dict[int, int] = {}
    for n in range(8, 8 * 72):
        for group in range(n // 8):
            past = group * bits + 64 - packed_nbytes(n, bits)
            if past in (-1, 0, 1):
                edges.setdefault(past, n)
    return edges


def _counts(bits: int) -> list[int]:
    slab = 16384 // bits
    return sorted(
        {0, 1, 7, 8, 9, 255, 256, 257, slab, slab + 1, *_edge_counts(bits).values()}
    )


def test_every_load_edge_is_reached():
    """The edge counts above cover all three cases, each at many widths
    (a width whose groups step over a case leaves it out: at 20 bits no
    load ends exactly on the last byte)."""
    reached = {d: [b for b in WIDTHS if d in _edge_counts(b)] for d in (-1, 0, 1)}
    assert all(len(widths) >= 20 for widths in reached.values()), reached
    assert 20 in reached[-1] and 20 in reached[1]


@pytest.fixture(scope="module")
def scalar_object():
    """The kernel built without its AVX-512 section, under its own name
    (never one the loader looks for), typed and probed as a loaded one —
    a build without lanes that fails the probe fails here, not skips."""
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        pytest.skip("REPRO_NATIVE=0")
    tag = hashlib.sha256(
        native._SRC.read_bytes() + " ".join(SCALAR_FLAGS).encode()
    ).hexdigest()[:16]
    sofile = native._BUILD_DIR / f"sha256ctr-scalar-{tag}.so"
    if not sofile.exists():
        try:
            native._compile(SCALAR_FLAGS, sofile)
        except native._Unavailable as exc:
            pytest.skip(f"cannot build with -DREPRO_NO_X16: {exc}")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "_shared_object", lambda: sofile)
        lib = native._build()
    native._probe(lib)
    assert lib.repro_sha256_ctr_lanes() == 1
    return lib


@pytest.fixture(params=["loaded", "scalar"])
def kernel(request, monkeypatch):
    """Runs the test with ``native.load()`` answering the named object."""
    if request.param == "loaded":
        lib = native.load()
        if lib is None:
            pytest.skip("native kernel unavailable on this host")
    else:
        lib = request.getfixturevalue("scalar_object")
    monkeypatch.setattr(native, "_lib", lib)
    monkeypatch.setattr(native, "_loaded", True)
    return lib


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


@pytest.mark.parametrize("bits", WIDTHS)
def test_unpack_add_matches_the_twin(kernel, bits):
    for n in _counts(bits):
        rng = np.random.default_rng([bits, n, 2])
        stream = bytearray()
        with native.twins_only():
            pack_low_bits_into(rng.integers(0, 1 << bits, size=n, dtype=np.int64), bits, stream)
        data = bytes(stream)  # exactly packed_nbytes(n, bits) long
        start = _start(bits, n)
        got = unpack_add(data, bits, start.copy())
        with native.twins_only():
            want = unpack_add(data, bits, start.copy())
        np.testing.assert_array_equal(got, want, err_msg=f"n={n}")


@pytest.mark.parametrize("bits", WIDTHS)
def test_pack_low_bits_matches_the_twin(kernel, bits):
    for n in _counts(bits):
        rng = np.random.default_rng([bits, n, 3])
        sums = rng.integers(-(1 << 63), (1 << 63) - 1, size=n, dtype=np.int64)
        got, want = bytearray(b"head"), bytearray(b"head")
        pack_low_bits_into(sums, bits, got)
        with native.twins_only():
            pack_low_bits_into(sums, bits, want)
        assert got == want, f"n={n}"
        # the lanes' masked store writes `bits` bytes a group, never the
        # guard after the stream
        nbytes = packed_nbytes(n, bits)
        dst = np.frombuffer(bytes(nbytes) + GUARD, dtype=np.uint8).copy()
        assert kernel.repro_pack_low_bits(sums.ctypes.data, n, bits, dst.ctypes.data) == 0
        assert dst.tobytes() == bytes(want[4:]) + GUARD, f"n={n}"
