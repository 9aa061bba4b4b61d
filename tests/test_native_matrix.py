"""The kernel matrix: every row of ``repro.native.KERNELS`` × every object × its edge shapes.

``test_cell`` runs one (row, object, shape group):

- **rows** — :data:`MATRIX`, one per exported ``repro_*`` symbol; its
  keys, the table's rows and the symbols the C planes define must be one
  set (``test_every_symbol_is_declared_and_tested``);
- **objects** — ``tests/native_objects.py``: the loaded object, its
  ``-DREPRO_NO_X16`` build, its ASan + UBSan build (in a child
  interpreter; any report fails), the twins (no object — what
  ``REPRO_NATIVE=0`` runs) and the "lanes built, lanes off" build (in a
  child interpreter, where entering a lane function traps);
- **shapes** — each row's groups (widths, seed lengths, limb counts,
  stage counts, …) and inside a group the counts at the lane, load and
  slab edges.

A kernel cell calls the symbol directly on exact-size numpy buffers (an
ASan redzone right after the last byte), with a guard after every
destination a kernel writes — the lanes' masked store is a target
builtin ASan does not instrument — and holds the answer to an oracle
written here: hashlib, Python integers, ``pow``, the butterfly's
definition, the sampler's algorithm one word at a time.  What a kernel
must refuse, it refuses with its output untouched.  A twin cell holds
the numpy twin, through its Python entry point, to the same oracle.  A
cell skips only for a named host reason (no compiler, no sanitizer
runtime, a CPU without a path), shown under ``-rs``.

``test_a_wrong_kernel_fails_its_probe`` then breaks each kernel row the
way a mis-shifted lane, a fused multiply-add or a missed refusal would,
and its load-time probe must turn the whole object away under the row's
name.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import math
import random
import re
import subprocess
import sys
import types
from pathlib import Path
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest

from repro import native
from repro.crypto.dh import MODP_512, MODP_2048, DHGroup
from repro.crypto.prg import counter_stream, expand_uniform, expand_uniform_numpy
from repro.dp import sampler
from repro.dp.quantize import _round_by_uniforms
from repro.dp.rotation import fwht
from repro.wire.bitpack import pack_bits_into, pack_low_bits_into, unpack_add, unpack_bits
from tests.native_objects import IN_SUBPROCESS, OBJECTS, bind, build, child_env

TOP = 1 << 64
#: What follows every destination a kernel writes: it must come back as it was.
GUARD = bytes(range(0xA0, 0xE0))


class Cell(NamedTuple):
    name: str  # which object (tests/native_objects.py)
    lib: object  # its bound functions; None for the twins


def exact(data: bytes = b"", dtype=np.uint8) -> np.ndarray:
    """A fresh numpy buffer of exactly ``data``."""
    return np.frombuffer(bytes(data), dtype=dtype).copy()


def chars(buf: np.ndarray):
    return buf.ctypes.data_as(ctypes.c_char_p)


# -- oracles ---------------------------------------------------------------


def blocks(seed: bytes, ctr0: int, nblocks: int) -> bytes:
    """``SHA256(seed ∥ be64(ctr))`` from ``ctr0``, the counter wrapping at 2**64."""
    return b"".join(
        hashlib.sha256(seed + ((ctr0 + i) % TOP).to_bytes(8, "big")).digest()
        for i in range(nblocks)
    )


def packed(values, bits: int) -> bytes:
    """Element i in bits [i·b, (i+1)·b) of a little-endian bit stream."""
    v = np.asarray(values, dtype=np.int64).view(np.uint64)
    rows = (v[:, None] >> np.arange(bits, dtype=np.uint64)) & np.uint64(1)
    return np.packbits(rows.astype(np.uint8).ravel(), bitorder="little").tobytes()


def fields(stream: bytes, n: int, bits: int) -> np.ndarray:
    """Elements 0 … n − 1 of a little-endian bit stream."""
    bit = np.unpackbits(np.frombuffer(stream, np.uint8), bitorder="little")[: n * bits]
    rows = bit.reshape(n, bits).astype(np.uint64) << np.arange(bits, dtype=np.uint64)
    return rows.sum(axis=1, dtype=np.uint64).view(np.int64)


def nbytes_of(n: int, bits: int) -> int:
    return (n * bits + 7) // 8


# -- shapes ----------------------------------------------------------------


def edge_counts(bits: int) -> dict[int, int]:
    """``{d: n}``: the least count one of whose whole groups of eight has
    its 64-byte load end ``d`` bytes past the stream's last byte, for d
    in −1, 0, +1 (where some count reaches it at this width).  At 0 and
    −1 that group is the last the lanes take; at +1 it is the first they
    leave to the scalar loop."""
    edges: dict[int, int] = {}
    for n in range(8, 8 * 72):
        for group in range(n // 8):
            past = group * bits + 64 - nbytes_of(n, bits)
            if past in (-1, 0, 1):
                edges.setdefault(past, n)
    return edges


def test_every_load_edge_is_reached():
    """The edge counts cover all three cases, each at many widths (a
    width whose groups step over a case leaves it out: at 20 bits no
    load ends exactly on the last byte)."""
    reached = {d: [b for b in WIDTHS.values() if d in edge_counts(b)] for d in (-1, 0, 1)}
    assert all(len(widths) >= 20 for widths in reached.values()), reached
    assert 20 in reached[-1] and 20 in reached[1]


@functools.cache
def counts(bits: int) -> tuple[int, ...]:
    """The counts a bit-pack row runs at one width: either side of the
    byte, of one and two groups of eight, of the 64-bit window, of the
    numpy fallback's period (up to 64 elements) and of a 256-element run;
    either side of the mask fold's 2 KiB slab of stream, in elements and
    in whole groups; the counts whose last whole group's 64-byte load
    ends one byte short of, on, and one byte past the stream's end; eight
    consecutive counts whose ``nbytes − 64`` meets every remainder mod
    the width the lanes' split can; and one past a page."""
    slab, grouped = 16384 // bits, 8 * (2048 // bits)
    groups = -(-(64 + bits) // bits) + 1
    return tuple(sorted({
        0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129,
        255, 256, 257, 1000, 4099,
        slab - 1, slab, slab + 1, grouped - 1, grouped, grouped + 1,
        *edge_counts(bits).values(), *(8 * groups + t for t in range(8)),
    }))


WIDTHS = {f"b{bits}": bits for bits in range(1, 63)}


def ring_values(bits: int, n: int) -> np.ndarray:
    return np.random.default_rng([bits, n]).integers(0, 1 << bits, size=n, dtype=np.int64)


def deferred_sums(bits: int, n: int) -> np.ndarray:
    """What a ``MaskAccumulator`` holds before it reduces: signed, wide."""
    return np.random.default_rng([bits, n, 2]).integers(
        -(1 << 62), 1 << 62, size=n, dtype=np.int64
    )


def starts(n: int, salt: int = 3) -> np.ndarray:
    return np.random.default_rng([n, salt]).integers(-(1 << 40), 1 << 40, size=n, dtype=np.int64)


def refused(call, *args, **kwargs) -> bool:
    try:
        call(*args, **kwargs)
    except ValueError:
        return True
    return False


# -- forced paths ----------------------------------------------------------

#: The path each selector can force that lives under the AVX-512 gate,
#: and what the objects without lanes answer for it: the build left it
#: out (-3), or the CPU check says no (-2).
LANE_PATH = {"repro_sha256_ctr_path": 3, "repro_modexp_path": 2}
NO_LANES = {"scalar": -3, "lanes_off": -2}
MISSING = {-2: "this CPU lacks the instructions", -3: "this build left it out"}
STREAM_PATHS = {1: "portable C", 2: "SHA-NI", 3: "sixteen AVX-512 lanes"}
MODEXP_PATHS = {1: "scalar loop", 2: "eight IFMA lanes"}


def stream_status(lib, path: int) -> int:
    """0 where ``path`` runs on this object (a NULL seed is then refused
    with −1), else −2 / −3 before the arguments are looked at."""
    rc = lib.repro_sha256_ctr_path(path, None, 0, 0, 0, None)
    return 0 if rc == -1 else rc


def modexp_status(lib, path: int) -> int:
    rc = lib.repro_modexp_path(path, None, None, None, 1, None, 0, None, 0, None)
    return 0 if rc == -1 else rc


def forced(cell: Cell, symbol: str, path: int, status: int, what: str) -> bool:
    """Whether ``path`` runs on this object: the lanes' answer on an
    object without them is asserted, a host without a path is a named
    skip."""
    if path == LANE_PATH[symbol] and cell.name in NO_LANES:
        assert status == NO_LANES[cell.name], (cell.name, symbol, status)
        return False
    if status in MISSING:
        pytest.skip(f"{symbol} path {path} ({what}): {MISSING[status]}")
    assert status == 0, status
    return True


# -- the stream plane ------------------------------------------------------

CTR0S = (0, 2**32 - 8, 2**32 - 1, TOP - 40)
#: Runs either side of one and two runs of sixteen lanes, into and past
#: the wrap at 2**64 from the last counter start.
RUNS = (0, 1, 15, 16, 17, 31, 32, 33, 40, 41, 57, 60, 64, 80, 100)


def run_stream(fn, seed: bytes, ctr0: int, nblocks: int, *path) -> tuple[int, bytes]:
    held, out = exact(seed), exact(bytes(32 * nblocks) + GUARD)
    rc = fn(*path, chars(held), len(seed), ctr0, nblocks, chars(out))
    assert out[32 * nblocks :].tobytes() == GUARD, (ctr0, nblocks)
    return rc, out[: 32 * nblocks].tobytes()


def stream_shapes(cell: Cell, fn, seedlen: int, *path) -> None:
    seed = bytes(range(7, 7 + seedlen))
    for ctr0 in CTR0S:
        want = blocks(seed, ctr0, max(RUNS))
        for n in RUNS:
            if fn is None:  # the hashlib loop, which refuses a counter past 2**64 − 1
                if ctr0 + n > TOP:
                    assert refused(counter_stream, seed, n, ctr0)
                    continue
                got = bytes(counter_stream(seed, n, ctr0))
            else:
                rc, got = run_stream(fn, seed, ctr0, n, *path)
                assert rc == 0, (seedlen, ctr0, n)
            assert got == want[: 32 * n], (seedlen, ctr0, n)
    if fn is not None:  # a seed that no longer fits one padded block
        assert run_stream(fn, bytes(48), 0, 2, *path) == (-1, bytes(64))
        assert fn(*path, None, 0, 0, 1, chars(exact(bytes(32)))) == -1


def check_stream(cell: Cell, seedlen: int) -> None:
    if cell.lib is None:
        assert native.sha256_ctr_stream(bytes(seedlen), 1) is None
    else:
        want = blocks(bytes(seedlen), 5, 40)
        assert bytes(native.sha256_ctr_stream(bytes(seedlen), 40, ctr0=5)) == want
        assert native.sha256_ctr_stream(bytes(48), 1) is None
    stream_shapes(cell, cell.lib and cell.lib.repro_sha256_ctr, seedlen)


def golden_masks_and_noise() -> int:
    """The golden mask and noise vectors through the twins, on whatever
    serves ``native.sha256_ctr_stream``; returns how many were checked."""
    from tests.crypto.test_mask_vectors import GOLDEN as masks, SEEDS
    from tests.xnoise.test_noise_vectors import GOLDEN as noise

    def digest(vector):
        return hashlib.sha256(vector.astype("<i8").tobytes()).hexdigest()

    for (seed, bits), (head, want) in masks.items():
        vector = expand_uniform_numpy(SEEDS[seed], 1000, 1 << bits)
        assert (vector[:3].tolist(), digest(vector)) == (head, want), (seed, bits)
    for (seed, variance, dimension), (head, want) in noise.items():
        vector = sampler.skellam_noise_from_seed_numpy(seed, variance, dimension)
        assert (vector[:7].tolist(), digest(vector)) == (head, want), (variance, dimension)
    return len(masks) + len(noise)


def check_stream_path(cell: Cell, path: int) -> None:
    if cell.lib is None:  # the twins' one stream is hashlib's
        assert golden_masks_and_noise() > 0
        return
    fn = cell.lib.repro_sha256_ctr_path
    status = stream_status(cell.lib, path)
    if not forced(cell, "repro_sha256_ctr_path", path, status, STREAM_PATHS[path]):
        assert run_stream(fn, b"", 0, 17, path) == (status, bytes(32 * 17))
        return
    for seedlen in range(native.MAX_SEED_LEN + 1):
        stream_shapes(cell, fn, seedlen, path)
    for bad in (0, len(STREAM_PATHS) + 1):
        assert run_stream(fn, b"", 0, 1, bad) == (-1, bytes(32))

    def on_this_path(seed, nblocks, ctr0=0):
        rc, got = run_stream(fn, seed, ctr0, nblocks, path)
        assert rc == 0
        return bytearray(got)

    with mock.patch.object(native, "sha256_ctr_stream", side_effect=on_this_path) as stream:
        assert golden_masks_and_noise() <= stream.call_count


def check_backend(cell: Cell, _) -> None:
    if cell.lib is None:
        assert native.backend_name() == "python"
        return
    backend = cell.lib.repro_sha256_ctr_backend()
    assert backend == (2 if stream_status(cell.lib, 2) == 0 else 1)
    assert native.backend_name() == {1: "c-scalar", 2: "c-sha-ni"}[backend]


def check_stream_lanes(cell: Cell, _) -> None:
    if cell.lib is None:
        assert native.stream_lanes() == 1
        return
    lanes = cell.lib.repro_sha256_ctr_lanes()
    # Lanes announced iff path 3 can run here.
    assert lanes == (16 if stream_status(cell.lib, 3) == 0 else 1)
    assert native.stream_lanes() == lanes
    if cell.name in NO_LANES:
        assert lanes == 1


# -- the bit-pack plane ----------------------------------------------------


def run_pack(fn, values: np.ndarray, bits: int) -> tuple[int, bytes]:
    n, size = len(values), nbytes_of(len(values), bits)
    src, dst = exact(values.tobytes(), np.int64), exact(bytes(size) + GUARD)
    rc = fn(src.ctypes.data, n, bits, dst.ctypes.data)
    assert dst[size:].tobytes() == GUARD, (bits, n)
    return rc, dst[:size].tobytes()


def hostile(stream: bytes, n: int, bits: int) -> list[tuple[bytes, int]]:
    """What a received frame can be instead: a byte long, a byte short,
    a pad bit set — and the code each is refused with."""
    frames = [(stream + b"\x00", -1)]
    if stream:
        frames.append((stream[:-1], -1))
    if 8 * len(stream) - n * bits:
        frames.append((stream[:-1] + bytes([stream[-1] | 0x80]), -2))
    return frames


def check_pack_bits(cell: Cell, bits: int) -> None:
    for n in counts(bits):
        values = ring_values(bits, n)
        want = packed(values, bits)
        bad = values.copy()
        if n:
            bad[n // 2] = -1 if n % 2 else 1 << bits
        if cell.lib is None:
            out = bytearray(b"head")
            pack_bits_into(values, bits, out)
            assert bytes(out) == b"head" + want, n
            if n:  # refused, the buffer as it was
                assert refused(pack_bits_into, bad, bits, out) and out == b"head" + want
        else:
            assert run_pack(cell.lib.repro_pack_bits, values, bits) == (0, want), n
            assert n == 0 or run_pack(cell.lib.repro_pack_bits, bad, bits)[0] == -2, n


def check_pack_low_bits(cell: Cell, bits: int) -> None:
    for n in counts(bits):
        sums = deferred_sums(bits, n)
        want = packed(sums & ((1 << bits) - 1), bits)
        if cell.lib is None:
            out = bytearray(b"head")
            pack_low_bits_into(sums, bits, out)
            assert bytes(out) == b"head" + want, n
        else:
            assert run_pack(cell.lib.repro_pack_low_bits, sums, bits) == (0, want), n


def run_unpack(fn, stream: bytes, n: int, bits: int, into: np.ndarray) -> tuple[int, np.ndarray]:
    src, dst = exact(stream), exact(into.tobytes(), np.int64)
    return fn(src.ctypes.data, len(stream), n, bits, dst.ctypes.data), dst


def huge_counts_refused(fn, bits: int) -> bool:
    """A count no buffer could hold must not walk off a three-byte one
    (nor overflow on the way to finding that out)."""
    sink = np.zeros(8, np.int64)
    counts_ = (2**31, 2**61, TOP - 1)
    return all(run_unpack(fn, bytes(3), count, bits, sink)[0] == -1 for count in counts_)


def check_unpack_bits(cell: Cell, bits: int) -> None:
    for n in counts(bits):
        values = ring_values(bits, n)
        stream = packed(values, bits)
        if cell.lib is None:
            np.testing.assert_array_equal(unpack_bits(exact(stream), n, bits), values)
            for data, _ in hostile(stream, n, bits):
                assert refused(unpack_bits, exact(data), n, bits), n
            continue
        fn = cell.lib.repro_unpack_bits
        rc, got = run_unpack(fn, stream, n, bits, np.zeros(n, np.int64))
        assert rc == 0, n
        np.testing.assert_array_equal(got, values, err_msg=f"n={n}")
        for data, code in hostile(stream, n, bits):
            assert run_unpack(fn, data, n, bits, np.zeros(n, np.int64))[0] == code, (n, code)
    if cell.lib is not None:
        assert huge_counts_refused(cell.lib.repro_unpack_bits, bits)


def check_unpack_add(cell: Cell, bits: int) -> None:
    for n in counts(bits):
        values, start = ring_values(bits, n), starts(n)
        stream = packed(values, bits)
        if cell.lib is None:
            total = start.copy()
            assert unpack_add(exact(stream), bits, total) is total
            for data, _ in hostile(stream, n, bits):
                assert refused(unpack_add, exact(data), bits, total), n
            np.testing.assert_array_equal(total, start + values, err_msg=f"n={n}")
            continue
        fn = cell.lib.repro_unpack_add
        for data, code in hostile(stream, n, bits):  # refused, the sum as it was
            rc, total = run_unpack(fn, data, n, bits, start)
            assert rc == code, (n, code)
            np.testing.assert_array_equal(total, start)
        rc, total = run_unpack(fn, stream, n, bits, start)
        assert rc == 0, n
        np.testing.assert_array_equal(total, start + values, err_msg=f"n={n}")
    if cell.lib is not None:
        assert huge_counts_refused(cell.lib.repro_unpack_add, bits)


MASK_SEEDS = (b"", bytes(range(7, 39)), bytes(range(47)))


@functools.cache
def mask(seed: bytes, bits: int) -> np.ndarray:
    """The longest mask a width's counts need: every count's is a prefix."""
    n = max(counts(bits))
    return fields(blocks(seed, 0, -(-n * bits // 256)), n, bits)


def check_mask_fold(cell: Cell, bits: int) -> None:
    ns = counts(bits)
    for seed in MASK_SEEDS:
        mask_ = mask(seed, bits)
        for n in ns:
            start = starts(n, bits)
            for sign in (1, -1):
                want = start + sign * mask_[:n]
                if cell.lib is None:
                    got = expand_uniform_numpy(seed, n, 1 << bits, out=start.copy(), sign=sign)
                else:
                    got = start.copy()
                    rc = cell.lib.repro_mask_fold(
                        chars(exact(seed)), len(seed), bits, sign, got.ctypes.data, n
                    )
                    assert rc == 0, (len(seed), n, sign)
                np.testing.assert_array_equal(got, want, err_msg=f"{len(seed)} {n} {sign}")
        if cell.lib is not None:  # and through the entry point
            start = starts(max(ns))
            got = expand_uniform(seed, max(ns), 1 << bits, out=start.copy(), sign=-1)
            np.testing.assert_array_equal(got, start - mask_)
    if cell.lib is not None:  # refused before anything is drawn, whatever the count
        fn, out = cell.lib.repro_mask_fold, starts(9)
        for seed, width, sign in ((bytes(48), bits, 1), (b"", 0, 1), (b"", 63, 1), (b"", bits, 0)):
            for n in (0, 9):
                assert fn(chars(exact(seed)), len(seed), width, sign, out.ctypes.data, n) == -1
        np.testing.assert_array_equal(out, starts(9))


# -- the sampler plane -----------------------------------------------------


def weight(k: float, z: float) -> float:
    return sampler._exp_scalar(sampler._log_weight(float(k), z))


WEIGHT_VARIANCES = {
    "z2^20": 2.0**20, "z3.3e6": 3.3e6, "z2.28e8": 2.28e8, "z2.5e9": 2.5e9, "z2^49": 2.0**49,
    "z-drawn": None,
}


def weight_cases(z: float | None) -> list[tuple[float, float]]:
    """``(k, z)``: every 64th of the support and 200 drawn points at one
    variance, or 300 variances drawn from [2**20, 2**50) with a point
    each; then the probe's five."""
    rng = random.Random(z or 50)
    if z is None:
        zs = [2.0 ** rng.uniform(20, 50) for _ in range(300)]
        cases = [(float(int(rng.uniform(-1, 1) * sampler.support_bound(z))), z) for z in zs]
    else:
        bound = sampler.support_bound(z)
        ks = {0, 1, -1, bound, -bound, *(bound * i // 64 for i in range(-64, 65)),
              *(rng.randint(-bound, bound) for _ in range(200))}
        cases = [(float(k), z) for k in sorted(ks)]
    return cases + [(k, z) for k, z, _ in native._SKELLAM_PROBE_WEIGHTS]


def check_skellam_weight(cell: Cell, z: float | None) -> None:
    cases = weight_cases(z)
    want = [weight(k, z_).hex() for k, z_ in cases]
    if cell.lib is None:  # the noise twin evaluates g over arrays: the same bits
        got = [
            sampler._exp_vector(sampler._log_weight(np.array([k]), z_))[0].hex() for k, z_ in cases
        ]
    else:
        got = [cell.lib.repro_skellam_weight(k, z_).hex() for k, z_ in cases]
    assert got == want
    probed = native._SKELLAM_PROBE_WEIGHTS
    assert want[-len(probed) :] == [float.fromhex(g).hex() for _, _, g in probed]


@functools.cache
def strip_table(name: str):
    if name == "one-row":  # every word past the first strip is rejected: refills back to back
        full = sampler._strip_table(2.28e8)
        one = np.ascontiguousarray(full.strips[:1])
        return sampler._StripTable(2.28e8, one, full.efficiency / 1024)
    return sampler._strip_table(float(name[1:]))


FILL_TABLES = {name: name for name in ("one-row", "z1048576", "z2.28e8", "z2.5e9")}
FILL_COUNTS = (0, 1, 255, 256, 257)  # either side of the kernel's 256-word refill
FILL_SEEDS = (b"", bytes(range(47)))


@functools.cache
def accepted_trials(name: str, seed: bytes, n: int) -> tuple[int, ...]:
    """The first ``n`` accepted trials of ``seed``'s stream, one word at
    a time as :mod:`repro.dp.sampler` specifies them, in Python integers."""
    table = strip_table(name)
    strips, z, out, ctr = table.strips.tolist(), table.z, [], 0
    while len(out) < n:
        block = blocks(seed, ctr, 1)
        ctr += 1
        for t in range(4):
            word = int.from_bytes(block[8 * t : 8 * t + 8], "big")
            if word >> 54 >= len(strips):
                continue
            base, width, threshold, hat = strips[word >> 54]
            product = ((word << 10) % TOP) * abs(width)
            offset, rem = product >> 64, product % TOP
            k = base + offset if width >= 0 else base - offset
            if rem > threshold and not (float(rem >> 11) * 2.0**-53 * hat <= weight(k, z)):
                continue
            out.append(k)
            if len(out) == n:
                break
    return tuple(out)


def check_skellam_fill(cell: Cell, name: str) -> None:
    table = strip_table(name)
    strips = exact(table.strips.tobytes())
    for seed in FILL_SEEDS:
        trials = np.array(accepted_trials(name, seed, max(FILL_COUNTS)), dtype=np.int64)
        for n in FILL_COUNTS:
            start = starts(n)
            for sign in (1, -1):
                got = start.copy()
                if cell.lib is None:
                    sampler._fill_numpy(table, seed, got, sign)
                else:
                    rc = cell.lib.repro_skellam_fill(
                        chars(exact(seed)), len(seed), strips.ctypes.data, len(table.strips),
                        table.z, sign, got.ctypes.data, n,
                    )
                    assert rc == 0, (len(seed), n, sign)
                np.testing.assert_array_equal(got, start + sign * trials[:n])
    if cell.lib is not None:  # refused before anything is drawn, whatever the count
        out = starts(9)
        for seed, nstrips, sign in ((bytes(48), len(table.strips), 1), (b"", 0, 1),
                                    (b"", 1025, 1), (b"", len(table.strips), 0)):
            for n in (0, 9):
                assert cell.lib.repro_skellam_fill(
                    chars(exact(seed)), len(seed), strips.ctypes.data, nstrips, table.z,
                    sign, out.ctypes.data, n,
                ) == -1
        np.testing.assert_array_equal(out, starts(9))


# -- the modexp plane ------------------------------------------------------


def run_modexp(fn, ctx, bases, exp: int, explen: int, *path, fill=b"") -> tuple[int, bytes]:
    width = 8 * ctx.limbs
    held = [exact(b) for b in (ctx.modulus, ctx.rr, ctx.rr52, exp.to_bytes(explen, "big"))]
    operand = exact(b"".join(b.to_bytes(width, "big") for b in bases))
    out = exact((fill or bytes(width * len(bases))) + GUARD)
    rc = fn(*path, *map(chars, held[:3]), ctx.limbs, chars(operand), len(bases),
            chars(held[3]), explen, chars(out))
    assert out[width * len(bases) :].tobytes() == GUARD
    return rc, out[: width * len(bases)].tobytes()


@functools.cache
def modexp_shape(limbs: int):
    """A random odd modulus of ``limbs`` limbs, top bit set; bases with
    p − 1, 0, 1 and the top bit alone planted; an exponent whose top
    limb is not zero; and their powers."""
    rng = random.Random(2112 + limbs)
    p = rng.getrandbits(64 * limbs) | (1 << (64 * limbs - 1)) | 1
    count = 1 + (3 * limbs) % 17
    if limbs in (1, 2, 8, 32, 33, 64):
        count = 17
    bases = [rng.randrange(p) for _ in range(count)]
    for at, edge in enumerate((p - 1, 0, 1, 1 << (64 * limbs - 1))):
        bases[(3 * at) % count] = edge
    explen = 8 * (1 + limbs % 8)
    exp = rng.getrandbits(8 * explen) | (1 << (8 * explen - 1))
    return p, bases, exp, explen, [pow(b, exp, p) for b in bases]


def check_modexp(cell: Cell, limbs: int) -> None:
    p, bases, exp, explen, powers = modexp_shape(limbs)
    ctx, width = native.montgomery_context(p), 8 * limbs
    if cell.lib is None:  # no kernel: None, and the group takes pow()
        assert native.modexp(ctx, bases, exp) is None
        assert DHGroup(p=p, g=2, q=p // 2).powers(bases[:2], exp) == powers[:2]
        return
    fn = cell.lib.repro_modexp
    whole = b"".join(power.to_bytes(width, "big") for power in powers)
    prefixes = (0, 1, 2, 7, 8, 9) if len(bases) == 17 else (0,)  # around a group of lanes
    for count in (*prefixes, len(bases)):
        want = whole[: width * count]
        assert run_modexp(fn, ctx, bases[:count], exp, explen) == (0, want), count
        if count:  # a base not below p, last or first: refused, out as it was
            for bad in (bases[: count - 1] + [p], [p] + bases[1:count]):
                assert run_modexp(fn, ctx, bad, exp, explen, fill=want) == (-1, want), count
    assert native.modexp(ctx, bases, exp) == powers
    assert bad_arguments_refused(fn, p, limbs)


def bad_arguments_refused(fn, p: int, limbs: int, *path) -> bool:
    """An even modulus, a width outside [1, 64], NULLs: each -1."""
    ctx, width = native.montgomery_context(p), 8 * limbs
    even = native.MontgomeryContext((p - 1).to_bytes(width, "big"), ctx.rr, ctx.rr52, limbs)
    out = ctypes.create_string_buffer(width)
    return (
        run_modexp(fn, even, [3], 3, 8, *path)[0] == -1
        and all(fn(*path, ctx.modulus, ctx.rr, ctx.rr52, wrong, bytes(width), 1, bytes(8), 8, out)
                == -1 for wrong in (0, 65))
        and fn(*path, None, ctx.rr, ctx.rr52, limbs, bytes(width), 1, bytes(8), 8, out) == -1
        and fn(*path, ctx.modulus, ctx.rr, ctx.rr52, limbs, None, 1, bytes(8), 8, out) == -1
        and out.raw == bytes(width)
    )


@functools.cache
def path_cases(p: int):
    """Nine distinct bases (edges first) cycled into every batch size
    around the group of eight, so an edge lands in every lane; edge
    exponents, one wider than the modulus, each with its powers."""
    distinct = [0, 1, 2, p - 2, p - 1, p // 3, (p * 5) // 7, p // 2 + 1, 12345]
    exps = (0, 1, (p - 1) // 2, p * p + 1)
    return distinct, {e: {b: pow(b, e, p) for b in distinct} for e in exps}


#: 2048 and 2112 bits: the lanes' last width (40 digits of 52 bits) and
#: the first past it, which the lanes refuse; five bases, one exponent.
@functools.cache
def boundary_case(p: int):
    bases, exp = [0, 1, p - 1, p // 3, 12345], (p - 1) // 2
    return bases, exp, [pow(b, exp, p) for b in bases]


def check_modexp_path(cell: Cell, path: int) -> None:
    if cell.lib is None:
        ctx = MODP_512._montgomery
        assert native.modexp(ctx, [3, 4], 5, path=path) is None
        assert MODP_512.powers([3, 4], 5) == [243, 1024]
        return
    fn = cell.lib.repro_modexp_path
    status = modexp_status(cell.lib, path)
    ctx = MODP_512._montgomery
    if not forced(cell, "repro_modexp_path", path, status, MODEXP_PATHS[path]):
        assert run_modexp(fn, ctx, [3, 4], 5, 8, path) == (status, bytes(128))
        assert native.modexp(ctx, [3, 4], 5, path=path) is None
        return
    for group in (MODP_512, MODP_2048):
        ctx, width = group._montgomery, 8 * group._montgomery.limbs
        distinct, powers = path_cases(group.p)
        for exp, want in powers.items():
            explen = 8 * max(1, -(-exp.bit_length() // 64))
            for count in (1, 2, 3, 4, 5, 6, 7, 8, 9, 17):
                bases = [distinct[(i + count) % len(distinct)] for i in range(count)]
                got = run_modexp(fn, ctx, bases, exp, explen, path)
                assert got == (0, b"".join(want[b].to_bytes(width, "big") for b in bases)), (
                    width, exp.bit_length(), count,
                )
    for p in ((1 << 2048) - 1, (1 << 2112) - 1):
        bases, exp, powers = boundary_case(p)
        ctx, width = native.montgomery_context(p), p.bit_length() // 8
        got = run_modexp(fn, ctx, bases, exp, width, path)
        if path == 2 and p.bit_length() > 2048:
            assert got == (-1, bytes(width * len(bases)))
        else:
            assert got == (0, b"".join(power.to_bytes(width, "big") for power in powers))
    # Every width, every base on this path.
    for limbs in range(1, 65):
        p, bases, exp, explen, powers = modexp_shape(limbs)
        ctx, width = native.montgomery_context(p), 8 * limbs
        got = run_modexp(fn, ctx, bases, exp, explen, path)
        if path == 2 and limbs > 32:  # past the lanes' 40 digits: refused, untouched
            assert got == (-1, bytes(width * len(bases))), limbs
        else:
            assert got == (0, b"".join(power.to_bytes(width, "big") for power in powers)), limbs
    # A base not below p in any lane refuses the whole call, untouched.
    ctx = MODP_512._montgomery
    for count in (1, 2, 8, 9, 17):
        for at in {0, count // 2, count - 1}:
            for bad in (MODP_512.p, MODP_512.p + 1, (1 << 512) - 1):
                bases = [5] * count
                bases[at] = bad
                fill = b"\xa5" * (64 * count)
                assert run_modexp(fn, ctx, bases, 3, 8, path, fill=fill) == (-1, fill)
    for wrong in (0, len(MODEXP_PATHS) + 1):
        assert run_modexp(fn, ctx, [3], 5, 8, wrong) == (-1, bytes(64))
    assert bad_arguments_refused(fn, MODP_512.p, 8, path)


def check_modexp_lanes(cell: Cell, _) -> None:
    if cell.lib is None:
        assert native.modexp_lanes() == 1
        return
    lanes = cell.lib.repro_modexp_lanes()
    # Lanes announced iff path 2 can run here.
    assert lanes == (8 if modexp_status(cell.lib, 2) == 0 else 1)
    assert native.modexp_lanes() == lanes
    if cell.name in NO_LANES:
        assert lanes == 1


# -- the transform plane ---------------------------------------------------

#: Where a butterfly that is not quite the definition shows: signed
#: zeros, both subnormal ends, and magnitudes whose sums overflow.
SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7e308)


def butterfly(vector: np.ndarray) -> np.ndarray:
    """The definition: (a, b) → (a + b, a − b) at strides 1, 2, 4, … n/2, on copies."""
    v, h = vector.copy(), 1
    while h < v.size:
        v = v.reshape(-1, 2 * h)
        left, right = v[:, :h].copy(), v[:, h:].copy()
        v[:, :h] = left + right
        v[:, h:] = left - right
        v = v.reshape(-1)
        h *= 2
    return v


@functools.cache
def butterfly_cases(stages: int) -> list[tuple[bytes, bytes]]:
    n = 1 << stages
    rng = np.random.default_rng(stages)
    vectors = [rng.standard_normal(n) * 10.0 ** rng.integers(-4, 5)]
    planted = vectors[0].copy()
    for i, value in enumerate(SPECIALS):
        planted[(37 * i) % n] = value
    vectors.append(planted)
    if 1 <= stages <= 13:  # alternating ±1e308: infinities from the first stage on
        vectors.append(np.where(np.arange(n) % 2, -1e308, 1e308))
    if stages == 9:  # the probe's Kronecker product, whose transform is exact
        vectors.append(np.ones(1))
        for c in range(2, 10):
            vectors[-1] = np.concatenate((vectors[-1], vectors[-1] * c))
    with np.errstate(over="ignore", invalid="ignore"):
        return [(v.tobytes(), butterfly(v).tobytes()) for v in vectors]


def check_fwht(cell: Cell, stages: int) -> None:
    for vector, want in butterfly_cases(stages):
        v = exact(vector, np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            if cell.lib is None:
                assert fwht(v).tobytes() == want
            else:
                assert cell.lib.repro_fwht(v.ctypes.data, v.size) == 0
                assert v.tobytes() == want
    n = 1 << stages
    for odd in {n - 1, n + 1} - {0, 1, 2}:  # no power of two: refused, untouched
        v = np.random.default_rng(odd).standard_normal(odd)
        if cell.lib is None:
            assert refused(fwht, v)
        else:
            kept = v.copy()
            assert cell.lib.repro_fwht(v.ctypes.data, odd) == -1
            assert v.tobytes() == kept.tobytes()
    if cell.lib is not None:
        assert cell.lib.repro_fwht(None, 0) == 0 and cell.lib.repro_fwht(None, 4) == -1


ROUND_SPECIALS = (
    0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 1.0, -1.0, 2.0**52 + 1, -(2.0**52) - 1,
    2.0**51 + 0.5, -(2.0**51) - 0.5, 2.0**61, -(2.0**61), 4611686018427387392.0,
)
#: Values no ring integer can hold at the limit 2**21: the rounder refuses them.
ROUND_REFUSED = (math.nan, math.inf, -math.inf, 2.0**62, -(2.0**62), 1e300, 2e6, -2e6)


def round_oracle(x, u, limit: int):
    """``floor(x) + (u < x − floor(x))`` per element, or ``None`` where
    one is not finite, outside ±2**62 or rounds outside [−limit, limit)."""
    out = []
    for xi, ui in zip(x.tolist(), u.tolist()):
        if not -(2.0**62) < xi < 2.0**62:
            return None
        below = float(math.floor(xi))
        k = int(below) + (ui < xi - below)
        if not -limit <= k < limit:
            return None
        out.append(k)
    return out


def round_cases(n: int):
    rng = np.random.default_rng(100 + n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 12)
    u = rng.random(n)
    yield x, u, 1 << 62
    if n:
        planted, exact_u = x.copy(), u.copy()
        for i, value in enumerate(ROUND_SPECIALS):
            planted[(7 * i) % n] = value
        for i in range(0, n, 3):  # u exactly the fraction: must stay down
            exact_u[i] = planted[i] - np.floor(planted[i])
        yield planted, exact_u, 1 << 62
        small = rng.uniform(-1e6, 1e6, n)
        yield small, u, 1 << 21
        for at in {0, n - 1}:
            for bad in ROUND_REFUSED:
                y = small.copy()
                y[at] = bad
                yield y, u, 1 << 21
    if n == 2:  # the limit's own edges: a value may round to [-limit, limit) only
        for x2, u2 in (([7.0, -8.0], [0.0, 0.0]), ([7.5, -8.5], [0.9, 0.1]),
                       ([7.0, 7.5], [0.0, 0.1]), ([-8.0, -8.5], [0.0, 0.9]),
                       ([7.5, -7.5], [0.75, 0.75]), ([7.999, -8.0], [0.9995, 0.0])):
            yield np.array(x2), np.array(u2), 8
    if n == 1:
        for x1, u1, limit, _ in native._ROUND_PROBE:
            yield np.array([x1]), np.array([u1]), limit


def check_stochastic_round(cell: Cell, n: int) -> None:
    for x, u, limit in round_cases(n):
        want = round_oracle(x, u, limit)
        if cell.lib is None:
            out = np.empty(n, np.int64)
            with np.errstate(invalid="ignore"):
                got = None if refused(_round_by_uniforms, x, u, limit, out) else out.tolist()
        else:
            xs, us = exact(x.tobytes(), np.float64), exact(u.tobytes(), np.float64)
            out = np.zeros(n, np.int64)
            rc = cell.lib.repro_stochastic_round(
                xs.ctypes.data, us.ctypes.data, n, limit, out.ctypes.data
            )
            assert rc in (0, -2), rc
            got = out.tolist() if rc == 0 else None
        assert got == want, (n, limit)
    if n == 1:  # the probe's vector is what the oracle says
        for x, u, limit, rounded in native._ROUND_PROBE:
            want = None if rounded is None else [rounded]
            assert round_oracle(np.array([x]), np.array([u]), limit) == want
    if cell.lib is not None:
        scratch = np.zeros(1)
        assert cell.lib.repro_stochastic_round(None, None, 0, 1, scratch.ctypes.data) == -1
        assert cell.lib.repro_stochastic_round(
            scratch.ctypes.data, scratch.ctypes.data, 1, 0, scratch.ctypes.data
        ) == -1


# -- the matrix ------------------------------------------------------------


class MatrixRow(NamedTuple):
    groups: dict  # label → shape group
    check: Callable[[Cell, object], None]
    #: Kernel rows: ways to be wrong, each ``(real function, *args) → rc``.
    wrong: dict = {}


def _flip(buf, at: int) -> None:
    buf[at] = bytes([buf[at][0] ^ 1])


def _one_wrong_stream_lane(real, seed, seedlen, ctr0, nblocks, out):
    """Right block by block, wrong only in a run long enough for the
    sixteen lanes: one bit of the lane whose counter is 2**32."""
    rc = real(seed, seedlen, ctr0, nblocks, out)
    if nblocks >= 16:
        _flip(out, 32 * 8)
    return rc


def _one_wrong_block(real, seed, seedlen, ctr0, nblocks, out):
    rc = real(seed, seedlen, ctr0, nblocks, out)
    _flip(out, 31)
    return rc


def _one_flipped_pack(real, src, n, bits, dst):
    rc = real(src, n, bits, dst)
    _flip(dst, 0)
    return rc


def _one_element_off(real, src, nbytes, n, bits, dst):
    rc = real(src, nbytes, n, bits, dst)
    dst[n - 1] ^= 1
    return rc


def _no_reduction(real, src, n, bits, dst):
    """Packs in-ring vectors right; the high bits of a deferred sum spill."""
    rc = real(src, n, bits, dst)
    if any(not 0 <= src[i] < 1 << bits for i in range(n)):
        _flip(dst, 0)
    return rc


def _wrong_second_group(real, src, n, bits, dst):
    """Right on three elements; past a group of eight, one bit of the
    second group's bytes — a lane with a wrong slot."""
    rc = real(src, n, bits, dst)
    if n >= 16:
        _flip(dst, bits)
    return rc


def _admits(refusal: int):
    """An unpack-add that folds what it should refuse into the sum."""
    def unpack_add(real, src, nbytes, n, bits, dst):
        rc = real(src, nbytes, n, bits, dst)
        if rc == refusal:
            dst[0] += 1
            rc = 0
        return rc
    return unpack_add


def _wrong_ninth_element(real, src, nbytes, n, bits, dst):
    """Right on an eight-byte stream; from one 64-byte group load on, the
    ninth element one off — a lane with a wrong shift."""
    rc = real(src, nbytes, n, bits, dst)
    if rc == 0 and nbytes >= 64:
        dst[8] += 1
    return rc


def _wrong_past_a_slab(real, seed, seedlen, bits, sign, out, n):
    """Right but for the element after the first slab of stream (816
    elements at 20 bits)."""
    rc = real(seed, seedlen, bits, sign, out, n)
    if n > 816:
        out[816] ^= 1
    return rc


def _one_ulp_off(real, k, z):
    """What a fused multiply-add does to the weight."""
    return math.nextafter(real(k, z), 2.0)


def _skips_a_trial(real, seed, seedlen, strips, nstrips, z, sign, out, n):
    rc = real(seed, seedlen, strips, nstrips, z, sign, out, n)
    out[n - 1] += 1
    return rc


def _one_flipped_power(real, mod, rr, rr52, limbs, bases, count, exp, explen, out):
    real(mod, rr, rr52, limbs, bases, count, exp, explen, out)
    _flip(out, 0)
    return 0


def _one_wrong_modexp_lane(real, mod, rr, rr52, limbs, bases, count, exp, explen, out):
    """Right one base at a time; in a call of several, the fourth base's
    power one bit off — a lane that mis-carries."""
    rc = real(mod, rr, rr52, limbs, bases, count, exp, explen, out)
    if count > 1:
        _flip(out, 32 * limbs - 1)
    return rc


def _swapped_last_stage(real, vector, n):
    """Right in every stage but the last: the halves come back swapped."""
    rc = real(vector, n)
    if n > 1:
        half = (ctypes.c_double * (n // 2))(*vector[: n // 2])
        vector[: n // 2] = vector[n // 2 :]
        vector[n // 2 :] = half
    return rc


def _up_on_a_tie(real, x, u, n, limit, out):
    """Rounds up when the uniform *equals* the fraction."""
    rc = real(x, u, n, limit, out)
    for i in range(n):
        if rc == 0 and u[i] == x[i] % 1.0 != 0.0:
            out[i] += 1
    return rc


def _never_refuses(real, x, u, n, limit, out):
    real(x, u, n, limit, out)
    return 0


MATRIX: dict[str, MatrixRow] = {
    "repro_sha256_ctr": MatrixRow(
        {f"seed{n}": n for n in range(native.MAX_SEED_LEN + 1)}, check_stream,
        {"one wrong lane": _one_wrong_stream_lane, "one wrong block": _one_wrong_block},
    ),
    "repro_sha256_ctr_path": MatrixRow({f"path{p}": p for p in STREAM_PATHS}, check_stream_path),
    "repro_sha256_ctr_backend": MatrixRow({"answer": None}, check_backend),
    "repro_sha256_ctr_lanes": MatrixRow({"answer": None}, check_stream_lanes),
    "repro_pack_bits": MatrixRow(WIDTHS, check_pack_bits, {"one flipped bit": _one_flipped_pack}),
    "repro_unpack_bits": MatrixRow(
        WIDTHS, check_unpack_bits, {"one element off": _one_element_off}
    ),
    "repro_pack_low_bits": MatrixRow(
        WIDTHS, check_pack_low_bits,
        {"no reduction": _no_reduction, "wrong second group": _wrong_second_group},
    ),
    "repro_unpack_add": MatrixRow(WIDTHS, check_unpack_add, {
        "folds a short stream": _admits(-1),
        "folds a set pad bit": _admits(-2),
        "wrong ninth element": _wrong_ninth_element,
    }),
    "repro_mask_fold": MatrixRow(
        WIDTHS, check_mask_fold, {"wrong past a slab": _wrong_past_a_slab}
    ),
    "repro_skellam_weight": MatrixRow(
        WEIGHT_VARIANCES, check_skellam_weight, {"one ulp off": _one_ulp_off}
    ),
    "repro_skellam_fill": MatrixRow(
        FILL_TABLES, check_skellam_fill, {"skips a trial": _skips_a_trial}
    ),
    "repro_modexp": MatrixRow(
        {f"limbs{n}": n for n in range(1, 65)}, check_modexp,
        {"one flipped bit": _one_flipped_power, "one wrong lane": _one_wrong_modexp_lane},
    ),
    "repro_modexp_path": MatrixRow({f"path{p}": p for p in MODEXP_PATHS}, check_modexp_path),
    "repro_modexp_lanes": MatrixRow({"answer": None}, check_modexp_lanes),
    "repro_fwht": MatrixRow(
        {f"n2^{s}": s for s in range(21)}, check_fwht, {"swapped last stage": _swapped_last_stage}
    ),
    "repro_stochastic_round": MatrixRow(
        {f"n{n}": n for n in (0, 1, 2, 7, 8, 9, 64, 1000)}, check_stochastic_round,
        {"up on a tie": _up_on_a_tie, "never refuses": _never_refuses},
    ),
}

CELLS = [
    pytest.param(symbol, name, label, id=f"{symbol}-{name}-{label}")
    for symbol, row in MATRIX.items()
    for name in OBJECTS
    for label in row.groups
]

#: A child interpreter binds one object and runs the cells it is given
#: (on stdin), a line of JSON before and after each, so a crash names
#: its cell.
CHILD = r"""
import json, sys, traceback
import pytest
from repro import native
from tests import test_native_matrix as matrix

name, sofile = sys.argv[1:]
print(json.dumps(["*", "binding and probing the object", None]), flush=True)
lib = native._bind(sofile)
native._probe(lib)
native._lib, native._loaded = lib, True
print(json.dumps(["*", "binding and probing the object", "ok"]), flush=True)
for symbol, label in json.load(sys.stdin):
    print(json.dumps([symbol, label, None]), flush=True)
    row = matrix.MATRIX[symbol]
    try:
        row.check(matrix.Cell(name, lib), row.groups[label])
        result = "ok"
    except pytest.skip.Exception as exc:
        result = "skip: " + str(exc.msg)
    except BaseException:
        result = traceback.format_exc()
    print(json.dumps([symbol, label, result]), flush=True)
"""


@functools.cache
def child_results(name: str, cells: tuple) -> dict[tuple[str, str], str]:
    """The cells of one object, run in child interpreters: one for all
    of them, and after a crash — which fails the cell it happened in —
    one for the cells after it."""
    sofile = build(name)
    results: dict[tuple[str, str], str] = {}
    pending = list(cells)
    while pending:
        done = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", CHILD, name, str(sofile)],
            input=json.dumps(pending), env=child_env(name),
            capture_output=True, text=True, timeout=1800,
        )
        report, running = done.stderr[-6000:], None
        for line in done.stdout.splitlines():
            symbol, label, result = json.loads(line)
            running = None if result else (symbol, label)
            if result:
                results[symbol, label] = result
        if running in pending:
            results[running] = f"crashed in this cell (exit {done.returncode}):\n{report}"
        else:  # the child ran every cell it was given, or died before the first
            where = f" while {running[1]}" if running else ""
            failure = f"not run (child exit {done.returncode}{where}):\n{report}"
            for cell in pending:
                results.setdefault(cell, failure)
        pending = [cell for cell in pending if cell not in results]
    return results


def selected(session: pytest.Session, name: str) -> tuple:
    """This session's cells of one object."""
    return tuple(
        (item.callspec.params["symbol"], item.callspec.params["label"])
        for item in session.items
        if item.originalname == "test_cell" and item.callspec.params["name"] == name
    )


@pytest.mark.timeout(1800)
@pytest.mark.parametrize("symbol, name, label", CELLS)
def test_cell(symbol, name, label, monkeypatch, request):
    row = MATRIX[symbol]
    if name in IN_SUBPROCESS:
        result = child_results(name, selected(request.session, name))[symbol, label]
        if result.startswith("skip: "):
            pytest.skip(result[len("skip: ") :])
        assert result == "ok", result
        return
    row.check(Cell(name, bind(name, monkeypatch)), row.groups[label])


def test_every_symbol_is_declared_and_tested():
    """The symbols the C planes define, the table's rows and the
    matrix's rows are one set: an undeclared export or an untested row
    fails by name."""
    planes = sorted((Path(native.__file__).parent / "_native").glob("*.c"))
    defined = {
        symbol
        for plane in planes
        for symbol in re.findall(r"^[a-z][\w ]*?\b(repro_\w+)\(", plane.read_text(), re.M)
    }
    declared = [row.symbol for row in native.KERNELS]
    assert len(declared) == len(set(declared))
    assert sorted(defined - set(declared)) == [], "defined in C, not in native.KERNELS"
    assert sorted(set(declared) - defined) == [], "in native.KERNELS, defined in no plane"
    assert sorted(set(declared) ^ set(MATRIX)) == [], "table and matrix rows differ"
    for row in native.KERNELS:
        assert (row.kind == native.KERNEL) == (row.probe is not None) == bool(row.announce)
        assert (row.kind == native.KERNEL) == bool(MATRIX[row.symbol].wrong), row.symbol


@pytest.fixture
def rearmed(monkeypatch):
    """``load()`` re-armed in this process, the real object kept at hand."""
    real = native.load()
    if real is None:
        pytest.skip("native kernel unavailable on this host")
    monkeypatch.setattr(native, "_loaded", False)
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    return real


def with_replaced(real, symbol: str, wrong):
    """The real object's bound functions, one of them replaced by
    ``wrong(real function, *args)``."""
    functions = {row.symbol: getattr(real, row.symbol) for row in native.KERNELS}
    original = functions[symbol]
    functions[symbol] = lambda *args: wrong(original, *args)
    return types.SimpleNamespace(**functions)


@pytest.mark.parametrize("symbol, how", [
    pytest.param(symbol, how, id=f"{symbol}-{how}")
    for symbol, row in MATRIX.items() for how in row.wrong
])
def test_a_wrong_kernel_fails_its_probe(symbol, how, rearmed, monkeypatch):
    row = next(row for row in native.KERNELS if row.symbol == symbol)
    kernel = with_replaced(rearmed, symbol, MATRIX[symbol].wrong[how])
    monkeypatch.setattr(native, "_build", lambda: kernel)
    with pytest.warns(RuntimeWarning, match="repro.native") as caught:
        assert native.load() is None
    assert native.load() is None  # memoized: no second warning
    (warning,) = caught
    assert f"probe mismatch ({row.announce})" in str(warning.message)
    assert native.sha256_ctr_stream(b"k" * 32, 1) is None
    assert native.stream_lanes() == native.modexp_lanes() == 1


def test_a_build_without_int128_keeps_the_rest_of_the_object(rearmed, monkeypatch):
    kernel = with_replaced(rearmed, "repro_modexp", lambda real, *args: -3)
    monkeypatch.setattr(native, "_build", lambda: kernel)
    with pytest.warns(RuntimeWarning, match="128-bit integer") as caught:
        assert native.load() is kernel
    assert len(caught) == 1
    assert native.sha256_ctr_stream(b"k" * 32, 1) is not None
    assert native.modexp(MODP_512._montgomery, [3, 4], 5) is None
    assert MODP_512.powers([3, 4], 5) == [243, 1024]
    assert MODP_2048.powers([3], 2) == [9]
