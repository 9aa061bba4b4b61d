"""The bit-pack, modexp, mask-fold and noise planes under AddressSanitizer + UBSan.

``repro_unpack_bits`` and ``repro_unpack_add`` read a *network-supplied*
buffer through raw pointers, ``repro_pack_bits`` / ``repro_pack_low_bits``
write the frame a socket sends, and ``repro_modexp`` reads a
neighbourhood of public keys into fixed stack tables on two loops (one
base at a time, or eight IFMA lanes).  This file builds the same
``sha256ctr.c`` with ``-fsanitize=address,undefined`` under its own
object name (the production cache is keyed by source *and* flags, so the
two can never be confused) and drives those loops in a fresh
interpreter with libasan preloaded — every buffer a ``malloc`` of
exactly the size the kernel is told, so one byte read or written past
either end is a report, and any report fails the test.  Bit-pack shapes:
every width, lengths on and off the group of eight / the 64-bit window /
the in-place–tail split, plus what a hostile frame can be — a byte
short, a byte long, a pad bit set — which must be refused with the
destination untouched; the results are compared with the numpy twins
(the subprocess runs with ``REPRO_NATIVE=0``), so this is also a third
parity leg.  Modexp shapes: every modulus width from 2 to 64 limbs
(2048 / 2112 bits, the lanes' last width and the first past it, with
every batch size), 1 to 17 bases, exponents of 1 to 8 limbs, on the
scalar loop, the lanes and the dispatcher, against ``pow`` — and a base
not below ``p`` in any position, refused with ``out`` untouched.
Stream shapes: ``repro_mask_fold`` at every ring width and
``repro_skellam_fill`` on a one-row and a 1,024-row strip table, over
counts of 0, 1 and 255–257 (the noise kernel's 256-word refill) and
each width's first slab edge, from seeds of 0 and 47 bytes, against the
numpy twins.  A 48-byte seed must be refused with ``out`` untouched —
the slice's one finding: at a count of 0 both kernels used to return 0
for it, unchecked, though their contract refuses it; they now check the
seed before anything else.

Skips by name when the toolchain cannot build or preload the sanitizer
runtime; every finding it ever makes is a fix with a regression vector
here, or a documented non-issue.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import native

SRC = Path(__file__).resolve().parents[1] / "src"

SANITIZER_FLAGS = (
    "-O1", "-g", "-fno-omit-frame-pointer", "-ffp-contract=off", "-fPIC", "-shared",
    "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
)

SCRIPT = r"""
import ctypes, sys
import numpy as np
from repro import native
from repro.wire.bitpack import pack_bits_into, pack_low_bits_into, packed_nbytes, unpack_add

assert native.load() is None  # REPRO_NATIVE=0: everything imported here is a twin
lib = ctypes.CDLL(sys.argv[1])
libc = ctypes.CDLL(None)
libc.malloc.restype = ctypes.c_void_p
libc.malloc.argtypes = [ctypes.c_size_t]
libc.free.argtypes = [ctypes.c_void_p]
P, Z, U = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_uint
for name, args in (
    ("repro_pack_bits", [P, Z, U, P]), ("repro_pack_low_bits", [P, Z, U, P]),
    ("repro_unpack_bits", [P, Z, Z, U, P]), ("repro_unpack_add", [P, Z, Z, U, P]),
):
    getattr(lib, name).argtypes = args
    getattr(lib, name).restype = ctypes.c_int


class Exact:
    # malloc(n) holding ``data``: ASan puts a redzone at byte n.
    def __init__(self, data: bytes):
        self.n = len(data)
        self.ptr = libc.malloc(max(self.n, 1))
        ctypes.memmove(self.ptr, data, self.n)
    def bytes(self) -> bytes:
        return ctypes.string_at(self.ptr, self.n)
    def free(self):
        libc.free(self.ptr)


def int64s(buf: Exact) -> np.ndarray:
    return np.frombuffer(buf.bytes(), dtype=np.int64)


shapes = 0
for bits in range(1, 63):
    for n in (0, 1, 7, 8, 9, 63, 64, 65, 4099):
        rng = np.random.default_rng([bits, n])
        sums = rng.integers(-(1 << 62), 1 << 62, size=n, dtype=np.int64)
        ring = sums & ((1 << bits) - 1)
        want = bytearray()
        pack_bits_into(ring, bits, want)
        nbytes = packed_nbytes(n, bits)

        # pack: strict on in-ring values, reducing on the raw sums
        for fn, values in ((lib.repro_pack_bits, ring), (lib.repro_pack_low_bits, sums)):
            src, dst = Exact(values.tobytes()), Exact(bytes(nbytes))
            assert fn(src.ptr, n, bits, dst.ptr) == 0, (fn, bits, n)
            assert dst.bytes() == bytes(want), (fn, bits, n)
            src.free(); dst.free()
        if n:  # the strict packer reports a sum it would truncate
            bad = ring.copy(); bad[n // 2] = -1
            src, dst = Exact(bad.tobytes()), Exact(bytes(nbytes))
            assert lib.repro_pack_bits(src.ptr, n, bits, dst.ptr) == -2
            src.free(); dst.free()

        # unpack / unpack-add from an exact-size received stream
        start = rng.integers(-(1 << 40), 1 << 40, size=n, dtype=np.int64)
        stream = Exact(bytes(want))
        out = Exact(bytes(8 * n))
        assert lib.repro_unpack_bits(stream.ptr, nbytes, n, bits, out.ptr) == 0
        assert np.array_equal(int64s(out), ring), (bits, n)
        out.free()
        total = Exact(start.tobytes())
        assert lib.repro_unpack_add(stream.ptr, nbytes, n, bits, total.ptr) == 0
        twin = unpack_add(bytes(want), bits, start.copy())
        assert np.array_equal(int64s(total), twin), (bits, n)
        stream.free()

        # hostile frames: refused, the sum as it was
        before = total.bytes()
        hostile = [(bytes(want) + b"\x00", -1)]
        if nbytes:
            hostile.append((bytes(want[:-1]), -1))
        pad = 8 * nbytes - n * bits
        if pad:
            hostile.append((bytes(want[:-1]) + bytes([want[-1] | 0x80]), -2))
        for data, code in hostile:
            frame = Exact(data)
            assert lib.repro_unpack_add(frame.ptr, frame.n, n, bits, total.ptr) == code, (bits, n, code)
            assert total.bytes() == before
            scratch = Exact(bytes(8 * n))
            assert lib.repro_unpack_bits(frame.ptr, frame.n, n, bits, scratch.ptr) == code, (bits, n, code)
            scratch.free(); frame.free()
        total.free()
        shapes += 1

# A count that claims more than any buffer holds must not walk off it
# (nor overflow on the way to finding that out).
tiny = Exact(bytes(3))
sink = Exact(bytes(64))
for count in (2**31, 2**61, 2**64 - 1):
    assert lib.repro_unpack_add(tiny.ptr, 3, count, 20, sink.ptr) == -1
    assert lib.repro_unpack_bits(tiny.ptr, 3, count, 20, sink.ptr) == -1
tiny.free(); sink.free()
print("sanitized shapes:", shapes)
"""

MODEXP_SCRIPT = r"""
import ctypes, random, sys
from repro import native

assert native.load() is None  # REPRO_NATIVE=0: montgomery_context is arithmetic only
lib = ctypes.CDLL(sys.argv[1])
libc = ctypes.CDLL(None)
libc.malloc.restype = ctypes.c_void_p
libc.malloc.argtypes = [ctypes.c_size_t]
libc.free.argtypes = [ctypes.c_void_p]
P, Z = ctypes.c_void_p, ctypes.c_size_t
lib.repro_modexp_path.argtypes = [ctypes.c_int, P, P, P, Z, P, Z, P, Z, P]
lib.repro_modexp_path.restype = ctypes.c_int
lib.repro_modexp.argtypes = [P, P, P, Z, P, Z, P, Z, P]
lib.repro_modexp.restype = ctypes.c_int
LANES_MAX_LIMBS = 32  # 40 digits of 52 bits


class Exact:
    # malloc(n) holding ``data``: ASan puts a redzone at byte n.
    def __init__(self, data: bytes):
        self.n = len(data)
        self.ptr = libc.malloc(max(self.n, 1))
        ctypes.memmove(self.ptr, data, self.n)
    def bytes(self) -> bytes:
        return ctypes.string_at(self.ptr, self.n)
    def free(self):
        libc.free(self.ptr)


def call(path, ctx, bases_be, count, exp_be, out):
    held = [Exact(ctx.modulus), Exact(ctx.rr), Exact(ctx.rr52), Exact(bases_be), Exact(exp_be)]
    mod, rr, rr52, bases, exp = (b.ptr for b in held)
    if path:
        rc = lib.repro_modexp_path(path, mod, rr, rr52, ctx.limbs, bases, count, exp, len(exp_be), out.ptr)
    else:
        rc = lib.repro_modexp(mod, rr, rr52, ctx.limbs, bases, count, exp, len(exp_be), out.ptr)
    for b in held:
        b.free()
    return rc


lanes = lib.repro_modexp_path(2, None, None, None, 1, None, 0, None, 0, None) not in (-2, -3)
rng = random.Random(2112)
shapes = []
for limbs in range(2, 65):
    shapes.append((limbs, 1 + (3 * limbs) % 17, 1 + limbs % 8))
for limbs in (2, 32, 33):
    shapes += [(limbs, count, 1 + count % 8) for count in range(1, 18)]

done = 0
for limbs, count, explen in shapes:
    width = 8 * limbs
    p = rng.getrandbits(64 * limbs) | (1 << (64 * limbs - 1)) | 1
    ctx = native.montgomery_context(p)
    bases = [rng.randrange(p) for _ in range(count)]
    for at, edge in zip(range(count), (p - 1, 0, 1, (1 << (64 * limbs - 1)))):
        bases[(3 * at) % count] = edge
    exp = rng.getrandbits(64 * explen) | (1 << (64 * explen - 1))
    exp_be = exp.to_bytes(8 * explen, "big")
    bases_be = b"".join(b.to_bytes(width, "big") for b in bases)
    want = b"".join(pow(b, exp, p).to_bytes(width, "big") for b in bases)
    paths = [0, 1] + ([2] if lanes and limbs <= LANES_MAX_LIMBS else [])
    for path in paths:
        out = Exact(bytes(width * count))
        assert call(path, ctx, bases_be, count, exp_be, out) == 0, (limbs, count, explen, path)
        assert out.bytes() == want, (limbs, count, explen, path)
        # A base not below p, in any lane: refused, out as it was.
        bad = bases_be[: width * (count - 1)] + ctx.modulus
        assert call(path, ctx, bad, count, exp_be, out) == -1, (limbs, count, path)
        assert out.bytes() == want
        out.free()
        done += 1
    if lanes and limbs > LANES_MAX_LIMBS:  # the lanes refuse a wider modulus
        out = Exact(bytes(width * count))
        assert call(2, ctx, bases_be, count, exp_be, out) == -1
        assert out.bytes() == bytes(width * count)
        out.free()
print("sanitized modexp calls:", done, "lanes" if lanes else "no lanes")
"""

STREAM_SCRIPT = r"""
import ctypes, sys
import numpy as np
from repro import native
from repro.crypto.prg import expand_uniform
from repro.dp import sampler

assert native.load() is None  # REPRO_NATIVE=0: both twins are numpy
lib = ctypes.CDLL(sys.argv[1])
libc = ctypes.CDLL(None)
libc.malloc.restype = ctypes.c_void_p
libc.malloc.argtypes = [ctypes.c_size_t]
libc.free.argtypes = [ctypes.c_void_p]
P, Z, I64 = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int64
lib.repro_mask_fold.argtypes = [P, Z, ctypes.c_uint, I64, P, Z]
lib.repro_mask_fold.restype = ctypes.c_int
lib.repro_skellam_fill.argtypes = [P, Z, P, Z, ctypes.c_double, I64, P, Z]
lib.repro_skellam_fill.restype = ctypes.c_int


class Exact:
    # malloc(n) holding ``data``: ASan puts a redzone at byte n.
    def __init__(self, data: bytes):
        self.n = len(data)
        self.ptr = libc.malloc(max(self.n, 1))
        ctypes.memmove(self.ptr, data, self.n)
    def bytes(self) -> bytes:
        return ctypes.string_at(self.ptr, self.n)
    def free(self):
        libc.free(self.ptr)


SEEDS = (b"", bytes(range(47)))
TOO_LONG = bytes(48)
# 255 / 256 / 257 straddle the noise kernel's 256-word refill.
COUNTS = (0, 1, 255, 256, 257)
calls = 0


def run(fn, seed, args, start):
    global calls
    held, out = Exact(seed), Exact(start.tobytes())
    rc = fn(held.ptr, len(seed), *args, out.ptr, len(start))
    got = np.frombuffer(out.bytes(), dtype=np.int64).copy()
    held.free(); out.free()
    calls += 1
    return rc, got


# The mask fold: every ring width, at the counts above and at the edges
# of its first 64-block slab (2048 // bits * 8 elements), both signs.
for bits in range(1, 63):
    slab = 2048 // bits * 8
    for n in sorted(set(COUNTS) | {slab - 1, slab, slab + 1}):
        rng = np.random.default_rng([bits, n])
        start = rng.integers(-(1 << 40), 1 << 40, size=n, dtype=np.int64)
        sign = 1 if n % 2 else -1
        for seed in SEEDS:
            rc, got = run(lib.repro_mask_fold, seed, (bits, sign), start)
            want = expand_uniform(seed, n, 1 << bits, out=start.copy(), sign=sign)
            assert rc == 0 and np.array_equal(got, want), (bits, n, len(seed))
        rc, got = run(lib.repro_mask_fold, TOO_LONG, (bits, sign), start)
        assert rc == -1 and np.array_equal(got, start), (bits, n)

# The noise fill: a one-row table (every word whose top ten bits are not
# zero is rejected, so refills run back to back) and a full 1,024-row one.
z = 228_000_000.0
full = sampler._strip_table(z)
one = sampler._StripTable(z, np.ascontiguousarray(full.strips[:1]), full.efficiency / 1024)
assert len(full.strips) == 1024
for table in (one, full):
    strips = Exact(table.strips.tobytes())
    for n in COUNTS:
        start = np.random.default_rng(n).integers(-(1 << 40), 1 << 40, size=n, dtype=np.int64)
        for sign in (1, -1):
            for seed in SEEDS:
                args = (strips.ptr, len(table.strips), z, sign)
                rc, got = run(lib.repro_skellam_fill, seed, args, start)
                want = start.copy()
                sampler._fill_numpy(table, seed, want, sign)
                assert rc == 0 and np.array_equal(got, want), (len(table.strips), n, len(seed))
            rc, got = run(lib.repro_skellam_fill, TOO_LONG, args, start)
            assert rc == -1 and np.array_equal(got, start), (len(table.strips), n)
    strips.free()
print("sanitized stream calls:", calls)
"""


def _runtime(name: str):
    cc = next((cc for cc in native._compilers() if shutil.which(cc)), None)
    if cc is None:
        pytest.skip("no C compiler on this host")
    found = subprocess.run(
        [cc, f"-print-file-name={name}"], capture_output=True, text=True
    ).stdout.strip()
    # An unresolved name comes back as given; a linker script is no preload.
    if not os.path.isabs(found) or not os.path.exists(found):
        pytest.skip(f"toolchain has no {name} (sanitizer runtime not installed)")
    return os.path.realpath(found)


@pytest.fixture(scope="module")
def sanitized_object():
    libasan = _runtime("libasan.so")
    tag = hashlib.sha256(
        native._SRC.read_bytes() + " ".join(SANITIZER_FLAGS).encode()
    ).hexdigest()[:16]
    sofile = native._BUILD_DIR / f"sha256ctr-asan-ubsan-{tag}.so"
    if not sofile.exists():
        try:
            native._compile(SANITIZER_FLAGS, sofile)
        except native._Unavailable as exc:
            pytest.skip(f"cannot build with -fsanitize=address,undefined: {exc}")
    # The runtime must actually preload into this interpreter and the
    # object load under it — a toolchain matter, not a kernel one.
    loaded = _sanitized_python("import ctypes, sys; ctypes.CDLL(sys.argv[1])", libasan, sofile)
    if loaded.returncode != 0:
        pytest.skip(f"cannot preload {libasan} into python: {loaded.stderr[-300:]!r}")
    return libasan, sofile


def _sanitized_python(script: str, libasan: str, sofile: Path) -> subprocess.CompletedProcess:
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        REPRO_NATIVE="0",
        LD_PRELOAD=libasan,
        PYTHONMALLOC="malloc",
        # CPython never frees everything; leaks are not what this hunts.
        ASAN_OPTIONS="detect_leaks=0:abort_on_error=0:exitcode=99",
        UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1",
    )
    return subprocess.run(
        [sys.executable, "-W", "ignore", "-c", script, str(sofile)],
        env=env, capture_output=True, text=True, timeout=280,
    )


@pytest.mark.timeout(300)
def test_bit_pack_plane_is_clean_under_asan_and_ubsan(sanitized_object):
    done = _sanitized_python(SCRIPT, *sanitized_object)
    report = done.stdout[-2000:] + done.stderr[-6000:]
    assert done.returncode == 0, report
    assert "sanitized shapes: 558" in done.stdout, report
    assert "AddressSanitizer" not in done.stderr and "runtime error" not in done.stderr, report


@pytest.mark.timeout(300)
def test_modexp_plane_is_clean_under_asan_and_ubsan(sanitized_object):
    done = _sanitized_python(MODEXP_SCRIPT, *sanitized_object)
    report = done.stdout[-2000:] + done.stderr[-6000:]
    assert done.returncode == 0, report
    # 114 shapes: three paths each up to 32 limbs (65 shapes), two past it (49).
    assert done.stdout.strip() in (
        "sanitized modexp calls: 293 lanes", "sanitized modexp calls: 228 no lanes",
    ), report
    assert "AddressSanitizer" not in done.stderr and "runtime error" not in done.stderr, report


@pytest.mark.timeout(300)
def test_mask_fold_and_noise_fill_are_clean_under_asan_and_ubsan(sanitized_object):
    done = _sanitized_python(STREAM_SCRIPT, *sanitized_object)
    report = done.stdout[-2000:] + done.stderr[-6000:]
    assert done.returncode == 0, report
    # Mask fold: 62 widths × 8 counts × 3 seeds; noise fill: 2 tables ×
    # 5 counts × 2 signs × 3 seeds.
    assert done.stdout.strip() == "sanitized stream calls: 1548", report
    assert "AddressSanitizer" not in done.stderr and "runtime error" not in done.stderr, report


def test_the_sanitized_object_is_never_the_production_one(sanitized_object):
    _, sofile = sanitized_object
    assert sofile != native._shared_object()
    assert "asan" in sofile.name
