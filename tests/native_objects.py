"""The objects a kernel parity test runs on, and the bit-pack lanes' edges.

``bind(name, monkeypatch)`` makes ``native.load()`` answer one object for
the rest of a test:

- ``"loaded"``: the object this host loads (the lanes on an AVX-512
  host);
- ``"scalar"``: the same source built with ``-DREPRO_NO_X16`` under its
  own object name — the scalar loops alone, which that host would never
  pick;
- ``"twin"``: no object at all, so every caller runs its numpy twin.

A host without a C compiler, or a run under ``REPRO_NATIVE=0``, skips the
first two by name.
"""

from __future__ import annotations

import functools
import hashlib
import os

import pytest

from repro import native
from repro.wire.bitpack import packed_nbytes

SCALAR_FLAGS = native._CFLAGS + ("-DREPRO_NO_X16",)


def edge_counts(bits: int) -> dict[int, int]:
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


@functools.cache
def _scalar_object():
    """The kernel built without its AVX-512 section, typed and probed as
    a loaded one — a build without lanes that fails the probe fails
    here, not skips (a skip is not cached: the next test retries)."""
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


def bind(name: str, monkeypatch: pytest.MonkeyPatch):
    """Make ``native.load()`` answer the named object; returns it
    (``None`` for the twins)."""
    if name == "loaded":
        lib = native.load()
        if lib is None:
            pytest.skip("native kernel unavailable on this host")
    elif name == "scalar":
        lib = _scalar_object()
    elif name == "twin":
        lib = None
    else:
        raise ValueError(f"unknown object {name!r}")
    monkeypatch.setattr(native, "_lib", lib)
    monkeypatch.setattr(native, "_loaded", True)
    return lib
