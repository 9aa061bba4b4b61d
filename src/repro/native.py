"""Optional native accelerator for the counter-mode PRG and the bit packer.

The unmask plane's dominant cost is SHA-256 compressions: d = 2^20
elements is 2^18 blocks per mask and ~1,000 masks per round.  The pure
Python loop in :mod:`repro.crypto.prg` bottoms out around half a
microsecond per block — almost all of it per-block Python/hashlib
bookkeeping, not hashing.  This module removes that floor when (and only
when) the host can support it, by lazily compiling the self-contained C
kernel in ``_native/sha256ctr.c`` with the system C compiler and loading
it through :mod:`ctypes`.  The same shared object carries the two
ring-width bit-packing loops of the masked-vector wire codec
(:mod:`repro.wire.bitpack`), so one build serves the whole data plane.

Design constraints, in order:

- **No new dependencies.**  The kernel is first-party C with no
  includes beyond the C standard library; it is built with whatever
  ``cc``/``gcc``/``clang`` the host already has.  No compiler, no
  kernel — nothing is downloaded or installed.
- **Graceful, announced fallback.**  Any failure — no compiler, compile
  error, load error, a wrong probe digest, ``REPRO_NATIVE=0`` in the
  environment — makes :func:`load` return ``None`` (memoized) and emit
  one ``RuntimeWarning`` per process naming the reason; callers keep
  the pure-Python/numpy path.  The two paths are bit-identical by
  construction (same ``SHA256(seed ∥ ctr)`` stream, same bit stream)
  and parity-pinned by test whenever the kernel is available.
- **Self-invalidating cache.**  The shared object lands in a
  gitignored ``_native/_build/`` directory next to the source, named by
  a hash of the source text, so editing the C file rebuilds and stale
  artifacts are never picked up.

The kernel itself dispatches at runtime between a portable scalar
SHA-256 and an SHA-NI path on x86-64 CPUs that have it (~10× again over
scalar C).  ``ctypes`` releases the GIL around the foreign call, so
:class:`repro.parallel.WorkerPool` fan-out scales the native path across
cores too.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sysconfig
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Optional

_SRC = Path(__file__).resolve().parent / "_native" / "sha256ctr.c"
_BUILD_DIR = _SRC.parent / "_build"

# Messages are seed ∥ be64(counter); the kernel requires them to fit a
# single padded SHA-256 block (seedlen + 8 ≤ 55).  Protocol seeds are
# 32 bytes (DH agreement digests / random_seed(32)).
MAX_SEED_LEN = 47

_lock = threading.Lock()
_loaded = False
_lib: Optional[ctypes.CDLL] = None


def _compilers() -> list[str]:
    """Candidate C compilers, most specific first."""
    cands = []
    cc = sysconfig.get_config_var("CC")
    if cc:
        cands.append(cc.split()[0])
    cands.extend(["cc", "gcc", "clang"])
    seen: set[str] = set()
    return [c for c in cands if not (c in seen or seen.add(c))]


class _Unavailable(Exception):
    """Why the kernel cannot be used (the text of the fallback warning)."""


def _compile(sofile: Path) -> None:
    _BUILD_DIR.mkdir(parents=True, exist_ok=True)
    failure = "no C compiler found"
    for cc in _compilers():
        # Compile to a temp name and rename into place so a
        # concurrent builder can never load a half-written object.
        fd, tmp = tempfile.mkstemp(suffix=".so", prefix="sha256ctr-", dir=_BUILD_DIR)
        os.close(fd)
        try:
            subprocess.run(
                [cc, "-O3", "-fPIC", "-shared", str(_SRC), "-o", tmp],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp, sofile)
            return
        except (OSError, subprocess.SubprocessError) as exc:
            if not isinstance(exc, FileNotFoundError):
                failure = f"build error ({cc}: {type(exc).__name__})"
            try:
                os.unlink(tmp)
            except OSError:
                pass
    raise _Unavailable(failure)


def _build() -> ctypes.CDLL:
    src = _SRC.read_text()
    tag = hashlib.sha256(src.encode()).hexdigest()[:16]
    sofile = _BUILD_DIR / f"sha256ctr-{tag}.so"
    if not sofile.exists():
        _compile(sofile)
    lib = ctypes.CDLL(str(sofile))
    lib.repro_sha256_ctr.argtypes = [
        ctypes.c_char_p,
        ctypes.c_size_t,
        ctypes.c_uint64,
        ctypes.c_uint64,
        ctypes.c_char_p,
    ]
    lib.repro_sha256_ctr.restype = ctypes.c_int
    lib.repro_sha256_ctr_backend.argtypes = []
    lib.repro_sha256_ctr_backend.restype = ctypes.c_int
    lib.repro_pack_bits.argtypes = [
        ctypes.c_void_p,
        ctypes.c_size_t,
        ctypes.c_uint,
        ctypes.c_void_p,
    ]
    lib.repro_pack_bits.restype = ctypes.c_int
    lib.repro_unpack_bits.argtypes = [
        ctypes.c_void_p,
        ctypes.c_size_t,
        ctypes.c_size_t,
        ctypes.c_uint,
        ctypes.c_void_p,
    ]
    lib.repro_unpack_bits.restype = ctypes.c_int
    return lib


def _probe(lib: ctypes.CDLL) -> None:
    """One sanity answer per kernel before trusting the object: block 0
    of an all-zero seed must match hashlib, and three 20-bit elements
    must pack to the documented little-endian bit stream and back."""
    digest = ctypes.create_string_buffer(32)
    seed = b"\x00" * 32
    rc = lib.repro_sha256_ctr(seed, len(seed), 0, 1, digest)
    want = hashlib.sha256(seed + (0).to_bytes(8, "big")).digest()
    if rc != 0 or digest.raw != want:
        raise _Unavailable("probe mismatch (SHA-256 counter block)")
    values = (ctypes.c_int64 * 3)(0xABCDE, 0x12345, 0xFFFFF)
    packed = ctypes.create_string_buffer(8)
    unpacked = (ctypes.c_int64 * 3)()
    if (
        lib.repro_pack_bits(values, 3, 20, packed) != 0
        or packed.raw != bytes.fromhex("debc5a3412ffff0f")
        or lib.repro_unpack_bits(packed, 8, 3, 20, unpacked) != 0
        or list(unpacked) != list(values)
    ):
        raise _Unavailable("probe mismatch (bit packer)")


def load() -> Optional[ctypes.CDLL]:
    """The loaded kernel, building it on first call; ``None`` on failure.

    The outcome is memoized either way; a failure is announced once per
    process as a ``RuntimeWarning`` naming the reason.
    """
    global _loaded, _lib
    if _loaded:
        return _lib
    with _lock:
        if _loaded:
            return _lib
        lib = None
        try:
            if os.environ.get("REPRO_NATIVE", "1") == "0":
                raise _Unavailable("REPRO_NATIVE=0")
            try:
                lib = _build()
            except OSError as exc:
                raise _Unavailable(f"load error ({exc})") from exc
            _probe(lib)
        except _Unavailable as exc:
            lib = None
            warnings.warn(
                "repro.native: kernel unavailable, PRG expansion and "
                f"masked-vector packing run in pure Python/numpy: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
        _lib = lib
        _loaded = True
    return _lib


def backend_name() -> str:
    """Which expansion backend is active (for bench metadata)."""
    lib = load()
    if lib is None:
        return "python"
    return {1: "c-scalar", 2: "c-sha-ni"}.get(
        lib.repro_sha256_ctr_backend(), "c-unknown"
    )


def sha256_ctr_stream(seed: bytes, nblocks: int, ctr0: int = 0) -> Optional[bytearray]:
    """``nblocks`` · 32 bytes of ``SHA256(seed ∥ be64(ctr))`` stream.

    Returns ``None`` when the kernel is unavailable or the seed is too
    long for the single-block message layout — callers fall back to the
    pure-Python loop, which produces the identical stream.
    """
    if len(seed) > MAX_SEED_LEN:
        return None
    lib = load()
    if lib is None:
        return None
    out = bytearray(32 * nblocks)
    if nblocks:
        buf = (ctypes.c_char * len(out)).from_buffer(out)
        rc = lib.repro_sha256_ctr(seed, len(seed), ctr0, nblocks, buf)
        if rc != 0:
            return None
    return out
