"""Optional native accelerator: the C kernels in ``_native/`` and the table that binds them.

A round's per-element cost is in a handful of primitives — the SHA-256
counter stream under every mask and noise seed, the mask fold, the
masked-vector bit packer and its fused pair, the Skellam noise loop,
key agreement's modular powers and the DSkellam butterfly and rounder.
Each is a C kernel here and a bit-identical numpy (or ``pow``) twin next
to its Python entry point.  :data:`KERNELS` declares every exported
``repro_*`` symbol once — its ctypes signature, its kind and, for a
kernel, the load-time probe that must pass before the object is trusted
— and :func:`load` binds and probes the object from it; the entry
points call the bound attributes, so the table is read at load time only.

- **No new dependencies.**  First-party C, one file per plane behind
  ``kernels.h``, compiled into one shared object by whatever
  ``cc``/``gcc``/``clang`` the host already has.
- **Graceful, announced fallback.**  No compiler, a compile or load
  error, a failed probe or ``REPRO_NATIVE=0`` makes :func:`load` return
  ``None`` (memoized) and emit one ``RuntimeWarning`` per process naming
  the reason; every caller then runs its twin, which yields the same
  bytes (the same ``SHA256(seed ∥ ctr)`` stream, the same bit stream,
  the same IEEE operations in the same order, and a modular power is an
  integer).
- **Self-invalidating cache.**  The object lands in the gitignored
  ``_native/_build/``, named by a hash of every source file, the header
  and the flags, so an edit rebuilds and an object built any other way
  is never picked up.

At run time the stream picks its single-block compression — portable C
or SHA-NI, :func:`backend_name` — and, on AVX-512, hashes sixteen
counters at a time (:func:`stream_lanes`); on the same CPUs the bit-pack
plane moves eight elements a register and, with IFMA, the modexp plane
raises eight bases a pass (:func:`modexp_lanes`).  A compiler that
refuses the AVX-512 section still builds everything else
(``-DREPRO_NO_X16``).  ``ctypes`` releases the GIL around each call,
which is what lets the coordinator's one-thread fan-out
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
from ctypes import c_char_p, c_double, c_int, c_int64, c_size_t, c_uint, c_uint64, c_void_p
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

_NATIVE_DIR = Path(__file__).resolve().parent / "_native"
_BUILD_DIR = _NATIVE_DIR / "_build"
#: What one build compiles into one object: every plane.
_SOURCES = tuple(sorted(_NATIVE_DIR.glob("*.c")))
#: What the planes share; hashed into the object's name with them.
_HEADERS = tuple(sorted(_NATIVE_DIR.glob("*.h")))

# Messages are seed ∥ be64(counter); the kernel requires them to fit a
# single padded SHA-256 block (seedlen + 8 ≤ 55).  Protocol seeds are
# 32 bytes (DH agreement digests / random_seed(32)).
MAX_SEED_LEN = 47

#: Widest modulus the modexp kernel takes (64 limbs of 64 bits).
MODEXP_MAX_BITS = 4096
#: Radix of the modexp lanes' digits (AVX-512 IFMA multiplies 52 bits).
MODEXP_LANE_DIGIT_BITS = 52
#: The modexp kernel's answer when it was compiled without ``__int128``.
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
#: Three 20-bit elements and the documented little-endian stream they
#: pack to (and unpack from).
_PACK_PROBE = ((0xABCDE, 0x12345, 0xFFFFF), bytes.fromhex("debc5a3412ffff0f"))

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


def _compile(flags: Sequence[str], sofile: Path) -> None:
    _BUILD_DIR.mkdir(parents=True, exist_ok=True)
    failure = "no C compiler found"
    for cc in _compilers():
        # Compile to a temp name and rename into place so a
        # concurrent builder can never load a half-written object.
        fd, tmp = tempfile.mkstemp(suffix=".so", prefix="kernels-", dir=_BUILD_DIR)
        os.close(fd)
        try:
            subprocess.run(
                [cc, *flags, *map(str, _SOURCES), "-o", tmp],
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


def _object_path(flags: Sequence[str]) -> Path:
    """Where the object built from this source with ``flags`` is cached:
    its name hashes every source file, the header and the flags, so an
    object built any other way (another flag set, a sanitizer) is never
    picked up."""
    digest = hashlib.sha256()
    for path in (*_SOURCES, *_HEADERS):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    digest.update(" ".join(flags).encode())
    return _BUILD_DIR / f"kernels-{digest.hexdigest()[:16]}.so"


def _shared_object() -> Path:
    """The cached object for this source, built if none is there yet."""
    objects = [_object_path(flags) for flags in _BUILDS]
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


# -- load-time probes: one per kernel row, each given its bound function --


def _counter_blocks(seed: bytes, ctr0: int, nblocks: int) -> bytes:
    return b"".join(
        hashlib.sha256(seed + ctr.to_bytes(8, "big")).digest()
        for ctr in range(ctr0, ctr0 + nblocks)
    )


def _probe_stream(fn) -> bool:
    """Block 0 of an all-zero seed, then two runs of sixteen and a tail
    from a counter whose low word carries inside the first run, lane by
    lane — against hashlib."""
    seed = bytes(32)
    for ctr0, nblocks in ((0, 1), ((1 << 32) - 8, 33)):
        out = ctypes.create_string_buffer(32 * nblocks)
        rc = fn(seed, len(seed), ctr0, nblocks, out)
        if rc != 0 or out.raw != _counter_blocks(seed, ctr0, nblocks):
            return False
    return True


def _probe_pack(fn) -> bool:
    values, stream = _PACK_PROBE
    packed = ctypes.create_string_buffer(len(stream))
    return fn((c_int64 * 3)(*values), 3, 20, packed) == 0 and packed.raw == stream


def _probe_unpack(fn) -> bool:
    values, stream = _PACK_PROBE
    unpacked = (c_int64 * 3)()
    return fn(stream, len(stream), 3, 20, unpacked) == 0 and tuple(unpacked) == values


def _lane_streams():
    """``(sums, bits, ring, stream)``, long enough for the eight bit-pack
    lanes, against Python integers: 131 elements are sixteen groups of
    eight, each one 64-byte load, and a ragged tail of three; at 20 bits
    the last two groups' loads would pass the end of the stream and run
    on the scalar loop.  Five bits put eight lanes into one output word,
    59 cross the 57-bit window."""
    count = 131
    sums = [(i * 0x9E3779B97F4A7C15 + 0x7F4A) % (1 << 64) - (1 << 63) for i in range(count)]
    for bits in (5, 20, 59):
        ring = [v % (1 << bits) for v in sums]
        stream = sum(v << (i * bits) for i, v in enumerate(ring))
        yield sums, bits, ring, stream.to_bytes(-(-count * bits // 8), "little")


def _probe_pack_low(fn) -> bool:
    """The documented three elements, each off by a multiple of 2**20
    (two of them negative), reduce-pack to the same stream; then the
    lanes' run."""
    values, stream = _PACK_PROBE
    shifted = (c_int64 * 3)(values[0] - (1 << 40), values[1] + (1 << 20), -1)
    reduced = ctypes.create_string_buffer(len(stream))
    if fn(shifted, 3, 20, reduced) != 0 or reduced.raw != stream:
        return False
    for sums, bits, _, want in _lane_streams():
        out = ctypes.create_string_buffer(len(want))
        if fn((c_int64 * len(sums))(*sums), len(sums), bits, out) != 0 or out.raw != want:
            return False
    return True


def _probe_unpack_add(fn) -> bool:
    """The documented stream adds into a non-zero vector — after a stream
    one byte short and one with a pad bit set were refused with it
    untouched; then the lanes' run."""
    values, stream = _PACK_PROBE
    start = [5, -7, 1 << 40]
    folded = (c_int64 * 3)(*start)
    if (
        fn(stream, 7, 3, 20, folded) != -1
        or fn(stream[:7] + b"\x1f", 8, 3, 20, folded) != -2
        or list(folded) != start
        or fn(stream, 8, 3, 20, folded) != 0
        or list(folded) != [a + b for a, b in zip(start, values)]
    ):
        return False
    for sums, bits, ring, want in _lane_streams():
        start = [3 * i - 200 for i in range(len(sums))]
        folded = (c_int64 * len(sums))(*start)
        if (
            fn(want, len(want), len(sums), bits, folded) != 0
            or list(folded) != [a + b for a, b in zip(start, ring)]
        ):
            return False
    return True


def _probe_mask_fold(fn) -> bool:
    """Against Python integers over hashlib's stream: the protocol's 20
    bits added, a width past the 57-bit window subtracted, each into a
    non-zero vector a few elements longer than one kernel slab (816 and
    272 elements) and no multiple of eight."""
    seed = bytes(32)
    for bits, count, sign in ((20, 819, 1), (59, 275, -1)):
        stream = int.from_bytes(_counter_blocks(seed, 0, -(-count * bits // 256)), "little")
        want = [
            3 * i + sign * ((stream >> (i * bits)) & ((1 << bits) - 1))
            for i in range(count)
        ]
        folded = (c_int64 * count)(*range(0, 3 * count, 3))
        if fn(seed, len(seed), bits, sign, folded, count) != 0 or list(folded) != want:
            return False
    return True


def _probe_skellam_weight(fn) -> bool:
    """The weight function to the last bit."""
    return all(fn(k, z) == float.fromhex(g) for k, z, g in _SKELLAM_PROBE_WEIGHTS)


def _probe_skellam_fill(fn) -> bool:
    """Four draws from a hand-made two-strip table (−5 … 4, every other
    trial past the squeeze) folded with sign −1 into a non-zero vector."""
    seed = bytes(32)
    strips = struct.pack("=qqQdqqQd", 0, 5, 1 << 63, 1.0, -1, -5, 1 << 63, 1.0)
    noise = (c_int64 * 4)(10, 20, 30, 40)
    rc = fn(seed, len(seed), strips, 2, float(1 << 20), -1, noise, 4)
    return rc == 0 and list(noise) == _SKELLAM_PROBE_DRAWS


def _probe_modexp(fn) -> bool:
    """A two-limb modular power, then nine edge bases under one exponent
    (a full group of lanes and a tail), against ``pow``.  A compiler
    without a 128-bit integer leaves the kernel out: announced, and the
    rest of the object kept."""
    modulus = _MODEXP_PROBE_MODULUS
    ctx = montgomery_context(modulus)
    exp = (modulus - 2).to_bytes(16, "big")
    for bases in ([0xFEDCBA9876543210_0123456789ABCDEF], _MODEXP_PROBE_BASES):
        out = ctypes.create_string_buffer(16 * len(bases))
        rc = fn(
            ctx.modulus, ctx.rr, ctx.rr52, ctx.limbs,
            b"".join(b.to_bytes(16, "big") for b in bases), len(bases), exp, 16, out,
        )
        if rc == _MODEXP_NOT_BUILT:
            warnings.warn(
                "repro.native: the C compiler has no 128-bit integer, key "
                "agreement and signatures run on Python's pow()",
                RuntimeWarning,
                stacklevel=4,
            )
            return True
        want = b"".join(pow(b, modulus - 2, modulus).to_bytes(16, "big") for b in bases)
        if rc != 0 or out.raw != want:
            return False
    return True


def _probe_fwht(fn) -> bool:
    """The butterfly of the Kronecker product of (1, c), c = 2 … 9, is the
    product of the factors' (1 + c, 1 − c): exact integers, every stage
    with its own factor, so a skipped, doubled or mirrored one shows."""
    vector, want = [1.0], [1.0]
    for c in range(2, 10):
        vector = vector + [x * c for x in vector]
        want = [x * (1 + c) for x in want] + [x * (1 - c) for x in want]
    rotated = (c_double * len(vector))(*vector)
    return fn(rotated, len(vector)) == 0 and list(rotated) == want


def _probe_round(fn) -> bool:
    one, rounded = c_double * 1, (c_int64 * 1)()
    for x, u, limit, want in _ROUND_PROBE:
        rc = fn(one(x), one(u), 1, limit, rounded)
        if (rc, rounded[0]) != (0, want) if want is not None else rc != -2:
            return False
    return True


# -- the kernel table ------------------------------------------------------

#: A row's kind: a kernel (probed at load time), a lane or backend query,
#: or a selector that forces one path for tests and the bench's reference rows.
KERNEL, QUERY, PATH = "kernel", "query", "path"


class Row(NamedTuple):
    """One exported symbol of the shared object."""

    symbol: str
    restype: type
    argtypes: tuple
    kind: str
    #: Kernels only: the load-time check of the bound function, and the
    #: name a failure is announced under.
    probe: Optional[Callable[..., bool]] = None
    announce: str = ""


_STREAM = (c_char_p, c_size_t, c_uint64, c_uint64, c_char_p)
_PACK = (c_void_p, c_size_t, c_uint, c_void_p)
_UNPACK = (c_void_p, c_size_t, c_size_t, c_uint, c_void_p)
_MODEXP = (c_char_p, c_char_p, c_char_p, c_size_t, c_char_p, c_size_t, c_char_p, c_size_t, c_char_p)

#: Every ``repro_*`` symbol the object exports, in probe order.
KERNELS = (
    Row("repro_sha256_ctr", c_int, _STREAM, KERNEL, _probe_stream, "SHA-256 counter stream"),
    Row("repro_sha256_ctr_path", c_int, (c_int, *_STREAM), PATH),
    Row("repro_sha256_ctr_backend", c_int, (), QUERY),
    Row("repro_sha256_ctr_lanes", c_int, (), QUERY),
    Row("repro_pack_bits", c_int, _PACK, KERNEL, _probe_pack, "bit packer"),
    Row("repro_unpack_bits", c_int, _UNPACK, KERNEL, _probe_unpack, "bit unpacker"),
    Row("repro_pack_low_bits", c_int, _PACK, KERNEL, _probe_pack_low, "reducing bit packer"),
    Row("repro_unpack_add", c_int, _UNPACK, KERNEL, _probe_unpack_add, "unpack-add"),
    Row("repro_mask_fold", c_int, (c_char_p, c_size_t, c_uint, c_int64, c_void_p, c_size_t),
        KERNEL, _probe_mask_fold, "mask folding"),
    Row("repro_skellam_weight", c_double, (c_double, c_double),
        KERNEL, _probe_skellam_weight, "Skellam weight function"),
    Row("repro_skellam_fill", c_int,
        (c_char_p, c_size_t, c_void_p, c_size_t, c_double, c_int64, c_void_p, c_size_t),
        KERNEL, _probe_skellam_fill, "Skellam noise expansion"),
    Row("repro_modexp", c_int, _MODEXP, KERNEL, _probe_modexp, "modular exponentiation"),
    Row("repro_modexp_path", c_int, (c_int, *_MODEXP), PATH),
    Row("repro_modexp_lanes", c_int, (), QUERY),
    Row("repro_fwht", c_int, (c_void_p, c_size_t), KERNEL, _probe_fwht, "Walsh-Hadamard butterfly"),
    Row("repro_stochastic_round", c_int, (c_void_p, c_void_p, c_size_t, c_int64, c_void_p),
        KERNEL, _probe_round, "stochastic rounding"),
)


def _bind(sofile: Path) -> ctypes.CDLL:
    """The object at ``sofile`` with every row's signature set."""
    lib = ctypes.CDLL(str(sofile))
    for row in KERNELS:
        fn = getattr(lib, row.symbol)
        fn.argtypes, fn.restype = list(row.argtypes), row.restype
    return lib


def _build() -> ctypes.CDLL:
    return _bind(_shared_object())


def _probe(lib) -> None:
    """Every kernel row's probe, in table order, before the object is trusted."""
    for row in KERNELS:
        if row.probe is not None and not row.probe(getattr(lib, row.symbol)):
            raise _Unavailable(f"probe mismatch ({row.announce})")


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
