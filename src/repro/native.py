"""Optional native accelerator: counter-mode PRG, bit packer, noise loop, modexp, transform.

The unmask plane's dominant cost is SHA-256 compressions: d = 2^20
elements is 2^18 blocks per mask and ~1,000 masks per round.  The pure
Python loop in :mod:`repro.crypto.prg` bottoms out around half a
microsecond per block — almost all of it per-block Python/hashlib
bookkeeping, not hashing.  This module removes that floor when (and only
when) the host can support it, by lazily compiling the self-contained C
kernel in ``_native/sha256ctr.c`` with the system C compiler and loading
it through :mod:`ctypes`.  The same shared object carries the
ring-width bit-packing loops of the masked-vector wire codec
(:mod:`repro.wire.bitpack`: pack and unpack, and the fused pair a round
runs — the reducing pack a client finishes its masked input with and
the unpack-add the coordinator folds it by), the mask fold that
unpack-adds a seed's stream straight into an accumulator
(:func:`repro.crypto.prg.expand_uniform` specifies the draw and holds
the numpy twin), the Skellam noise loop every XNoise
component is drawn by (:mod:`repro.dp.sampler` holds its specification,
its tables and its numpy twin) and the fixed-width modular exponentiation
behind :meth:`repro.crypto.dh.DHGroup.powers` (every DH key generation and
agreement, Schnorr signature and VRF evaluation — one CPython ``pow()``
each otherwise: 0.7 ms at 512 bits, 28 ms at 2048; a neighbourhood's
agreements share one secret exponent and go eight bases a pass on
AVX-512 IFMA — :func:`modexp_lanes`) and the DSkellam
transform's butterfly and rounder (:mod:`repro.dp.rotation` and
:mod:`repro.dp.quantize` hold their numpy twins), so one build serves
the data plane, the control plane and the device-side DP encode.

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
  construction (same ``SHA256(seed ∥ ctr)`` stream, same bit stream,
  the same IEEE operations in the same order for the noise weights and
  the butterfly, and a modular power is an integer: ``pow()`` *is* the
  fallback) and parity-pinned by test whenever the kernel is available.
- **Self-invalidating cache.**  The shared object lands in a
  gitignored ``_native/_build/`` directory next to the source, named by
  a hash of the source text and the compiler flags, so editing the C
  file rebuilds and an object built any other way is never picked up.

The kernel itself dispatches at runtime between a portable scalar
SHA-256 and an SHA-NI path on x86-64 CPUs that have it (~7× again over
scalar C) — :func:`backend_name` — and, where the CPU has AVX-512,
hashes every run of sixteen consecutive counters side by side, at half
SHA-NI's time per block — :func:`stream_lanes`.  On the same CPUs the
bit-pack plane runs eight elements per ``zmm`` register — a group of
eight ``b``-bit elements is exactly ``b`` bytes, one 64-byte load or one
masked store — in the mask fold, the coordinator's unpack-add and the
client's reducing pack, with the scalar loops for ragged tails and for
the last groups of a received stream whose load would pass its end.  A
compiler that refuses that AVX-512 section (both lane sets, and the
modexp lanes) still builds everything else (``-DREPRO_NO_X16``).  Every
path yields the same bytes: the probe checks the one block and the wide
run it will use and packs and folds a stream long enough for the
bit-pack lanes, ``repro_sha256_ctr_path`` lets the tests force each
compression path the host has, and the bit-pack parity tests build the
object without lanes under a name of its own to pin the scalar loops.
``ctypes`` releases the GIL around the foreign call, which is what lets
the coordinator's one thread fan-out
(:meth:`repro.secagg.masking.MaskAccumulator.fold_seeds`) fold masks on
several cores at once.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import struct
import subprocess
import sysconfig
import tempfile
import threading
import warnings
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

_SRC = Path(__file__).resolve().parent / "_native" / "sha256ctr.c"
_BUILD_DIR = _SRC.parent / "_build"

# Messages are seed ∥ be64(counter); the kernel requires them to fit a
# single padded SHA-256 block (seedlen + 8 ≤ 55).  Protocol seeds are
# 32 bytes (DH agreement digests / random_seed(32)).
MAX_SEED_LEN = 47

#: Widest modulus the modexp kernel takes (64 limbs of 64 bits).
MODEXP_MAX_BITS = 4096
#: Radix of the modexp lanes' digits (AVX-512 IFMA multiplies 52 bits).
MODEXP_LANE_DIGIT_BITS = 52
#: ``repro_modexp``'s answer when it was compiled without ``__int128``.
_MODEXP_NOT_BUILT = -3
#: ``(k, z, g(k))`` as :mod:`repro.dp.sampler` evaluates the weight, and
#: what the probe's four draws must leave behind (both pinned equal to
#: the Python evaluation by ``tests/dp/test_sampler.py``).
_SKELLAM_PROBE_WEIGHTS = (
    (0.0, float(1 << 20), "0x1.0000020000120p+0"),
    (1024.0, float(1 << 20), "0x1.368b2e28ea599p-1"),
    (200000.0, 2.28e8, "0x1.5d2d19166f4c8p-127"),
    (799999.0, 2.5e9, "0x1.43062b04af994p-185"),
    (-3.0e8, float(1 << 49), "0x1.99320102c051ap-116"),
)
_SKELLAM_PROBE_DRAWS = [15, 16, 30, 37]
#: The modexp probe's two-limb modulus and, for the lanes, nine bases
#: under one exponent — a full group of eight and a tail — with the edges
#: a digit carry or the final subtraction would get wrong: 0, 1, 2, p − 1,
#: p − 2, the top bit alone, two all-ones 52-bit digits, two that are neither.
_MODEXP_PROBE_MODULUS = (1 << 128) - 159
_MODEXP_PROBE_BASES = (
    0, 1, 2, _MODEXP_PROBE_MODULUS - 1, _MODEXP_PROBE_MODULUS - 2, 1 << 127,
    (1 << 104) - 1, 0x0123456789ABCDEF_FEDCBA9876543210, _MODEXP_PROBE_MODULUS // 3,
)
#: ``(x, u, limit, rounded)`` for the rounder — ``u`` equal to the fraction
#: stays down — with ``None`` where it must refuse.
_ROUND_PROBE = (
    (2.75, 0.5, 8, 3), (2.75, 0.75, 8, 2), (-2.75, 0.0, 8, -2), (-2.75, 0.25, 8, -3),
    (-0.0, 0.0, 8, 0), (7.0, 0.0, 8, 7), (-5e-324, 0.999, 8, 0), (-5e-324, 1.0, 8, -1),
    (2.0**51 + 0.5, 0.25, 1 << 62, 2**51 + 1), (-(2.0**61), 0.5, 1 << 62, -(2**61)),
    (float("nan"), 0.5, 8, None), (float("-inf"), 0.5, 8, None),
    (2.0**62, 0.5, 1 << 62, None), (7.5, 0.25, 8, None), (-8.5, 0.75, 8, None),
)

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


#: -ffp-contract=off: the noise kernel's floating point must round after
#: every operation (no fused multiply-add) to match its numpy twin bit
#: for bit.
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
#: Flag sets in order of preference: the whole object, then the object
#: without the AVX-512 lanes for a compiler that refuses that section.
_BUILDS = (_CFLAGS, _CFLAGS + ("-DREPRO_NO_X16",))


def _compile(flags: tuple[str, ...], sofile: Path) -> None:
    _BUILD_DIR.mkdir(parents=True, exist_ok=True)
    failure = "no C compiler found"
    for cc in _compilers():
        # Compile to a temp name and rename into place so a
        # concurrent builder can never load a half-written object.
        fd, tmp = tempfile.mkstemp(suffix=".so", prefix="sha256ctr-", dir=_BUILD_DIR)
        os.close(fd)
        try:
            subprocess.run(
                [cc, *flags, str(_SRC), "-o", tmp],
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


def _shared_object() -> Path:
    """The cached object for this source, built if none is there yet.

    Its name hashes the source *and* the flags, so an object built any
    other way (another flag set, a sanitizer) is never picked up.
    """
    src = _SRC.read_bytes()
    tags = [hashlib.sha256(src + " ".join(flags).encode()).hexdigest() for flags in _BUILDS]
    objects = [_BUILD_DIR / f"sha256ctr-{tag[:16]}.so" for tag in tags]
    found = next((sofile for sofile in objects if sofile.exists()), None)
    if found is None:
        for flags, found in zip(_BUILDS, objects):
            try:
                _compile(flags, found)
                break
            except _Unavailable as exc:
                failure = exc
        else:
            raise failure
    if found != objects[0]:
        warnings.warn(
            "repro.native: the C compiler refused the kernel's AVX-512 section, "
            "the counter stream runs one block at a time and modular powers "
            "one base at a time (a build without lanes)",
            RuntimeWarning,
            stacklevel=4,
        )
    return found


def _build() -> ctypes.CDLL:
    lib = ctypes.CDLL(str(_shared_object()))
    lib.repro_sha256_ctr.argtypes = [
        ctypes.c_char_p,
        ctypes.c_size_t,
        ctypes.c_uint64,
        ctypes.c_uint64,
        ctypes.c_char_p,
    ]
    lib.repro_sha256_ctr.restype = ctypes.c_int
    lib.repro_sha256_ctr_path.argtypes = [ctypes.c_int, *lib.repro_sha256_ctr.argtypes]
    lib.repro_sha256_ctr_path.restype = ctypes.c_int
    lib.repro_sha256_ctr_backend.argtypes = []
    lib.repro_sha256_ctr_backend.restype = ctypes.c_int
    lib.repro_sha256_ctr_lanes.argtypes = []
    lib.repro_sha256_ctr_lanes.restype = ctypes.c_int
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
    lib.repro_pack_low_bits.argtypes = lib.repro_pack_bits.argtypes
    lib.repro_pack_low_bits.restype = ctypes.c_int
    lib.repro_unpack_add.argtypes = lib.repro_unpack_bits.argtypes
    lib.repro_unpack_add.restype = ctypes.c_int
    lib.repro_modexp.argtypes = [
        ctypes.c_char_p,
        ctypes.c_char_p,
        ctypes.c_char_p,
        ctypes.c_size_t,
        ctypes.c_char_p,
        ctypes.c_size_t,
        ctypes.c_char_p,
        ctypes.c_size_t,
        ctypes.c_char_p,
    ]
    lib.repro_modexp.restype = ctypes.c_int
    lib.repro_modexp_path.argtypes = [ctypes.c_int, *lib.repro_modexp.argtypes]
    lib.repro_modexp_path.restype = ctypes.c_int
    lib.repro_modexp_lanes.argtypes = []
    lib.repro_modexp_lanes.restype = ctypes.c_int
    lib.repro_skellam_fill.argtypes = [
        ctypes.c_char_p,
        ctypes.c_size_t,
        ctypes.c_void_p,
        ctypes.c_size_t,
        ctypes.c_double,
        ctypes.c_int64,
        ctypes.c_void_p,
        ctypes.c_size_t,
    ]
    lib.repro_skellam_fill.restype = ctypes.c_int
    lib.repro_skellam_weight.argtypes = [ctypes.c_double, ctypes.c_double]
    lib.repro_skellam_weight.restype = ctypes.c_double
    lib.repro_mask_fold.argtypes = [
        ctypes.c_char_p,
        ctypes.c_size_t,
        ctypes.c_uint,
        ctypes.c_int64,
        ctypes.c_void_p,
        ctypes.c_size_t,
    ]
    lib.repro_mask_fold.restype = ctypes.c_int
    lib.repro_fwht.argtypes = [ctypes.c_void_p, ctypes.c_size_t]
    lib.repro_fwht.restype = ctypes.c_int
    lib.repro_stochastic_round.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int64, ctypes.c_void_p,
    ]
    lib.repro_stochastic_round.restype = ctypes.c_int
    return lib


def _probe(lib: ctypes.CDLL) -> None:
    """One sanity answer per kernel before trusting the object: block 0
    of an all-zero seed must match hashlib and so must a run long enough
    for the sixteen lanes, three 20-bit elements must
    pack to the documented little-endian bit stream and back (reduced
    on the way in, added on the way out, by the fused pair), and so
    must 131 elements at three widths (sixteen groups for the eight
    bit-pack lanes and a ragged tail) against Python integers, a
    two-limb modular power must match ``pow`` and so must nine edge
    bases under one exponent (a full group of lanes and a tail), five hand-made noise
    trials must land where the sampler's specification puts them,
    two folded masks must be the bit fields of their hashlib stream, and
    the butterfly and the rounder must reproduce hand-made vectors."""
    digest = ctypes.create_string_buffer(32)
    seed = b"\x00" * 32
    rc = lib.repro_sha256_ctr(seed, len(seed), 0, 1, digest)
    want = hashlib.sha256(seed + (0).to_bytes(8, "big")).digest()
    if rc != 0 or digest.raw != want:
        raise _Unavailable("probe mismatch (SHA-256 counter block)")
    # Two runs of sixteen and a tail, from a counter whose low word
    # carries inside the first run, lane by lane.
    ctr0, nblocks = (1 << 32) - 8, 33
    run = ctypes.create_string_buffer(32 * nblocks)
    rc = lib.repro_sha256_ctr(seed, len(seed), ctr0, nblocks, run)
    want = b"".join(
        hashlib.sha256(seed + ctr.to_bytes(8, "big")).digest()
        for ctr in range(ctr0, ctr0 + nblocks)
    )
    if rc != 0 or run.raw != want:
        raise _Unavailable("probe mismatch (SHA-256 counter lanes)")
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
    # The fused pair: the same three elements, each off by a multiple of
    # 2**20 (two of them negative), reduce-pack to the same stream, and
    # that stream adds into a non-zero vector — after a stream one byte
    # short and one with a pad bit set were refused with it untouched.
    shifted = (ctypes.c_int64 * 3)(0xABCDE - (1 << 40), 0x12345 + (1 << 20), -1)
    reduced = ctypes.create_string_buffer(8)
    start = [5, -7, 1 << 40]
    folded = (ctypes.c_int64 * 3)(*start)
    if (
        lib.repro_pack_low_bits(shifted, 3, 20, reduced) != 0
        or reduced.raw != packed.raw
        or lib.repro_unpack_add(packed, 7, 3, 20, folded) != -1
        or lib.repro_unpack_add(packed.raw[:7] + b"\x1f", 8, 3, 20, folded) != -2
        or list(folded) != start
        or lib.repro_unpack_add(packed, 8, 3, 20, folded) != 0
        or list(folded) != [a + b for a, b in zip(start, values)]
    ):
        raise _Unavailable("probe mismatch (fused bit packer)")
    # And long enough for the eight lanes, against Python integers: 131
    # elements are sixteen groups of eight, each one 64-byte load, and a
    # ragged tail of three; at 20 bits the last two groups' loads would
    # pass the end of the stream and run on the scalar loop.  Five bits
    # put eight lanes into one output word, 59 cross the 57-bit window.
    count = 131
    sums = [(i * 0x9E3779B97F4A7C15 + 0x7F4A) % (1 << 64) - (1 << 63) for i in range(count)]
    start = [3 * i - 200 for i in range(count)]
    for bits in (5, 20, 59):
        ring = [v % (1 << bits) for v in sums]
        want = sum(v << (i * bits) for i, v in enumerate(ring))
        want = want.to_bytes(-(-count * bits // 8), "little")
        stream = ctypes.create_string_buffer(len(want))
        folded = (ctypes.c_int64 * count)(*start)
        if (
            lib.repro_pack_low_bits((ctypes.c_int64 * count)(*sums), count, bits, stream) != 0
            or stream.raw != want
            or lib.repro_unpack_add(want, len(want), count, bits, folded) != 0
            or list(folded) != [a + b for a, b in zip(start, ring)]
        ):
            raise _Unavailable("probe mismatch (bit packer lanes)")
    modulus = _MODEXP_PROBE_MODULUS
    ctx = montgomery_context(modulus)
    exp = (modulus - 2).to_bytes(16, "big")
    for bases, what in (
        ([0xFEDCBA9876543210_0123456789ABCDEF], "modular exponentiation"),
        (_MODEXP_PROBE_BASES, "modular exponentiation lanes"),
    ):
        out = ctypes.create_string_buffer(16 * len(bases))
        rc = lib.repro_modexp(
            ctx.modulus, ctx.rr, ctx.rr52, ctx.limbs,
            b"".join(b.to_bytes(16, "big") for b in bases), len(bases), exp, 16, out,
        )
        if rc == _MODEXP_NOT_BUILT:
            warnings.warn(
                "repro.native: the C compiler has no 128-bit integer, key "
                "agreement and signatures run on Python's pow()",
                RuntimeWarning,
                stacklevel=3,
            )
            break
        want = b"".join(pow(b, modulus - 2, modulus).to_bytes(16, "big") for b in bases)
        if rc != 0 or out.raw != want:
            raise _Unavailable(f"probe mismatch ({what})")
    # The noise kernel: its weight function to the last bit, then four
    # draws from a hand-made two-strip table (−5 … 4, every other trial
    # past the squeeze) folded with sign −1 into a non-zero vector.
    for k, z, weight in _SKELLAM_PROBE_WEIGHTS:
        if lib.repro_skellam_weight(k, z) != float.fromhex(weight):
            raise _Unavailable("probe mismatch (Skellam weight function)")
    strips = struct.pack("=qqQdqqQd", 0, 5, 1 << 63, 1.0, -1, -5, 1 << 63, 1.0)
    noise = (ctypes.c_int64 * 4)(10, 20, 30, 40)
    rc = lib.repro_skellam_fill(seed, len(seed), strips, 2, float(1 << 20), -1, noise, 4)
    if rc != 0 or list(noise) != _SKELLAM_PROBE_DRAWS:
        raise _Unavailable("probe mismatch (Skellam noise expansion)")
    # The mask fold, against Python integers over hashlib's stream: the
    # protocol's 20 bits added, a width past the 57-bit window
    # subtracted, each into a non-zero vector a few elements longer than
    # one kernel slab (816 and 272 elements) and no multiple of eight.
    for bits, count, sign in ((20, 819, 1), (59, 275, -1)):
        blocks = -(-count * bits // 256)
        stream = int.from_bytes(
            b"".join(
                hashlib.sha256(seed + ctr.to_bytes(8, "big")).digest()
                for ctr in range(blocks)
            ),
            "little",
        )
        want = [
            3 * i + sign * ((stream >> (i * bits)) & ((1 << bits) - 1))
            for i in range(count)
        ]
        folded = (ctypes.c_int64 * count)(*range(0, 3 * count, 3))
        rc = lib.repro_mask_fold(seed, len(seed), bits, sign, folded, count)
        if rc != 0 or list(folded) != want:
            raise _Unavailable("probe mismatch (mask folding)")
    # The butterfly of the Kronecker product of (1, c), c = 2 … 9, is the
    # product of the factors' (1 + c, 1 − c): exact integers, every stage
    # with its own factor, so a skipped, doubled or mirrored one shows.
    vector, want = [1.0], [1.0]
    for c in range(2, 10):
        vector = vector + [x * c for x in vector]
        want = [x * (1 + c) for x in want] + [x * (1 - c) for x in want]
    rotated = (ctypes.c_double * len(vector))(*vector)
    if lib.repro_fwht(rotated, len(vector)) != 0 or list(rotated) != want:
        raise _Unavailable("probe mismatch (Walsh-Hadamard butterfly)")
    one, rounded = ctypes.c_double * 1, (ctypes.c_int64 * 1)()
    for x, u, limit, want in _ROUND_PROBE:
        rc = lib.repro_stochastic_round(one(x), one(u), 1, limit, rounded)
        if (rc, rounded[0]) != (0, want) if want is not None else rc != -2:
            raise _Unavailable("probe mismatch (stochastic rounding)")


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
                "repro.native: kernel unavailable, PRG expansion, mask "
                "folding, masked-vector packing and folding, noise expansion, "
                "the DSkellam transform and key agreement (modular exponentiation) run in "
                f"pure Python/numpy: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
        _lib = lib
        _loaded = True
    return _lib


@contextlib.contextmanager
def twins_only():
    """Answer "no kernel" inside the block, so every caller runs its twin
    (bench reference rows, parity tests).  Process-wide, not thread-safe."""
    global _lib
    saved, _lib = load(), None
    try:
        yield
    finally:
        _lib = saved


def backend_name() -> str:
    """Which single-block compression is active (for bench metadata):
    what short streams and ragged ends run on, with or without lanes."""
    lib = load()
    if lib is None:
        return "python"
    return {1: "c-scalar", 2: "c-sha-ni"}.get(
        lib.repro_sha256_ctr_backend(), "c-unknown"
    )


def stream_lanes() -> int:
    """Counters hashed per compression on runs of sixteen blocks or more:
    16 when the kernel has its AVX-512 lanes on this CPU, else 1."""
    lib = load()
    return 1 if lib is None else lib.repro_sha256_ctr_lanes()


def modexp_lanes() -> int:
    """Bases one modular-exponentiation pass raises to a shared exponent
    (moduli up to 2048 bits, groups of two or more): 8 when the kernel
    has its AVX-512 IFMA lanes on this CPU, else 1."""
    lib = load()
    return 1 if lib is None else lib.repro_modexp_lanes()


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


def mask_fold(seed: bytes, bits: int, out, sign: int) -> bool:
    """Run the mask kernel; ``False`` means "no kernel, use the twin".

    ``out`` is a writable contiguous ``int64`` vector (the caller has
    checked): ``sign`` times element *i* of ``seed``'s mask over the ring
    ``2**bits`` — bits ``[i·bits, (i+1)·bits)`` of its counter stream —
    is added into ``out[i]``.
    """
    lib = None if len(seed) > MAX_SEED_LEN else load()
    if lib is None:
        return False
    if lib.repro_mask_fold(seed, len(seed), bits, sign, out.ctypes.data, len(out)):
        raise ValueError("mask kernel rejected its arguments")  # bits outside [1, 62]
    return True


def skellam_fill(strips, z: float, seed: bytes, out, sign: int) -> bool:
    """Run the noise kernel; ``False`` means "no kernel, use the twin".

    ``strips`` is the sampler's row table (``repro.dp.sampler.STRIP_DTYPE``,
    contiguous) and ``out`` a contiguous ``int64`` vector: ``sign·k`` of
    the first ``len(out)`` accepted trials of ``seed``'s counter stream
    is added into it, in order.
    """
    lib = None if len(seed) > MAX_SEED_LEN else load()
    if lib is None:
        return False
    rc = lib.repro_skellam_fill(
        seed, len(seed), strips.ctypes.data, len(strips), z, sign,
        out.ctypes.data, len(out),
    )
    if rc != 0:  # unreachable for a table the sampler built
        raise ValueError("noise kernel rejected its arguments")
    return True


class MontgomeryContext(NamedTuple):
    """What the modexp kernel needs of a modulus, computed once per group."""

    modulus: bytes  # big-endian, 8·limbs wide
    rr: bytes  # R² mod p for R = 2^(64·limbs), same width (the scalar loop)
    rr52: bytes  # R² mod p for R = 2^(52·k), k = ⌈(bits + 2)/52⌉ (the lanes)
    limbs: int


def montgomery_context(modulus: int) -> Optional[MontgomeryContext]:
    """The kernel's view of ``modulus``, or ``None`` if it is not covered.

    Covered: an odd modulus whose bit length is a multiple of 64, up to
    :data:`MODEXP_MAX_BITS`.  Pure arithmetic — no kernel is loaded.
    """
    bits = modulus.bit_length()
    if modulus % 2 == 0 or bits % 64 or not 0 < bits <= MODEXP_MAX_BITS:
        return None
    width = bits // 8
    digits = -(-(bits + 2) // MODEXP_LANE_DIGIT_BITS)
    return MontgomeryContext(
        modulus=modulus.to_bytes(width, "big"),
        rr=((1 << (2 * bits)) % modulus).to_bytes(width, "big"),
        rr52=((1 << (2 * MODEXP_LANE_DIGIT_BITS * digits)) % modulus).to_bytes(width, "big"),
        limbs=bits // 64,
    )


def modexp(
    ctx: MontgomeryContext, bases: Sequence[int], exp: int, *, path: int = 0
) -> Optional[list[int]]:
    """``[b**exp mod p for b in bases]`` from the kernel, or ``None`` to
    mean "use pow".

    ``None`` when the kernel is unavailable, the exponent is negative or
    any base is outside ``[0, p)``.  The kernel raises the bases eight at
    a time where it has its lanes (:func:`modexp_lanes`) and one at a
    time otherwise — the same integers.  ``path`` 1 (the scalar loop) or
    2 (the lanes, a lone base too) forces one of them, for tests and the
    bench's reference rows; ``None`` then also means "not on this host"
    (or, for the lanes, a modulus over 2048 bits).  The exponent crosses
    at its length in whole 64-bit limbs, so the windows scanned are a
    function of that length alone — public for every exponent the
    protocol draws (a uniform secret below q is a limb short with
    probability < 2⁻⁶²) — and a short public exponent (a 256-bit
    Fiat–Shamir challenge, the squaring in hash-to-group) costs what it
    is, not the modulus width.
    """
    lib = load()
    if lib is None or exp < 0:
        return None
    width = 8 * ctx.limbs
    try:
        bases_be = b"".join(base.to_bytes(width, "big") for base in bases)
    except OverflowError:  # negative, or wider than the modulus
        return None
    exp_be = exp.to_bytes(8 * max(1, (exp.bit_length() + 63) // 64), "big")
    count = len(bases_be) // width
    out = ctypes.create_string_buffer(width * count)
    args = (ctx.modulus, ctx.rr, ctx.rr52, ctx.limbs, bases_be, count, exp_be, len(exp_be), out)
    if lib.repro_modexp_path(path, *args) if path else lib.repro_modexp(*args):
        return None  # a base >= p (or a compiler without __int128)
    raw = out.raw
    return [int.from_bytes(raw[i : i + width], "big") for i in range(0, len(raw), width)]
