"""Seed → Skellam noise: the sampler XNoise's add-then-remove rests on.

XNoise ships 32-byte seeds instead of model-sized noise (§3.1), so what a
seed expands to is protocol semantics: the client that adds a component
and the server that removes it must derive the same vector on any host,
numpy release or execution path.  This module *is* that definition —
nothing here calls a library random generator or a libm function:

- **Stream.**  Word *t* is the big-endian ``u64`` at bytes ``[8t, 8t+8)``
  of the seed's AES-256-CTR stream (``K = SHA-256(seed)``, counter block
  0, 1, …) — the block stream the masks already use
  (:func:`repro.crypto.prg.counter_stream`, FIPS-197 and FIPS 180-4).
- **Target.**  ``Skellam(z/2, z/2)`` with z the variance: one draw per
  element from ``P(k) = e^{−z}·I_k(z)``, not a difference of two Poissons.
  The sampler works with the weight ``g(k) = √(2πz)·e^{−z}·I_k(z)``
  (``g(0) ≈ 1``), cut at ``|k| ≤ K`` (:func:`support_bound`; the mass
  beyond 16σ is below 2⁻¹⁸⁰).
- **z ≥ 2²⁰: strip rejection, one word per trial** (Ahrens' one-table
  method).  At most 2¹⁰ equal-area strips tile the support, built by
  stepping outward from the mode on each side: a strip starting at
  ``|k| = m`` covers ``width = ⌊A / g(m)⌋`` integers under the hat
  ``A / width`` (≥ ``g(m)``, so every strip has area exactly A and is
  picked uniformly), its squeeze is ``g`` at its outer end.  A word's
  top 10 bits pick the strip; with ``F = w << 10`` the product
  ``F·width`` splits into the offset ``j = mulhi`` (``k = base ± j``)
  and the acceptance uniform ``rem = mullo``, which moves in steps of
  ``width·2⁻⁵⁴``.  ``rem ≤ threshold`` (the squeeze, an integer) accepts
  at once; otherwise the trial is accepted iff
  ``(rem >> 11)·2⁻⁵³·hat ≤ g(k)``.  Element *j* is the *j*-th accepted
  trial, whatever the buffering.
- **g for z ≥ 2²⁰** is the two-term Debye expansion evaluated with
  ``+ − × ÷`` on IEEE doubles only (:func:`_log_weight`,
  :func:`_exp_scalar`), so C, numpy and Python floats agree bit for bit.
- **z < 2²⁰** (unit tests and toy configs): the exact pmf from the
  backward ratio recurrence ``r_k = 1/(2k/z + r_{k+1})`` in Python
  floats, accumulated into a 64-bit integer CDF; word *t* yields element
  *t* by table inversion.  Python/numpy only.

Two execution paths share every table: the C loop behind
:func:`repro.native.skellam_fill` (which also produces the stream, 2 KiB at a
time, so it never leaves the cache) and the numpy twin below
(:func:`skellam_noise_from_seed_numpy`, also the announced fallback
when the kernel is unavailable).  They are bit-identical and pinned so
(``tests/dp/test_sampler.py``, ``tests/test_native_matrix.py``).
Rejection sampling is *not* constant-time: the number of words consumed
depends on the values drawn.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from repro import native
from repro.crypto.prg import counter_stream

#: Supported variances are ``0 ≤ z < MAX_VARIANCE``: every strip width
#: (≤ 16σ < 2²⁹) then fits the twin's 32×32-bit split multiply.
MAX_VARIANCE = float(1 << 50)
#: From here up ``g`` comes from the Debye series and strips; below, from
#: the recurrence and table inversion.  Decided by the variance alone.
SERIES_MIN_VARIANCE = float(1 << 20)

_STRIP_BITS = 10
_MAX_STRIPS = 1 << _STRIP_BITS
_WORDS_PER_BLOCK = 4

#: One strip: ``k = base ± j`` for ``j ∈ [0, |width|)`` (the sign of
#: ``width`` is the direction), squeeze threshold on ``rem``, hat height.
#: The C kernel reads the same 32-byte rows.
STRIP_DTYPE = np.dtype(
    [("base", np.int64), ("width", np.int64), ("threshold", np.uint64), ("hat", np.float64)]
)

# exp(): Cody–Waite split of ln 2 (fdlibm's constants, exact in hex) and
# the Taylor coefficients 1/n!, n ≤ 13 (|r| ≤ ln2/2 → remainder < 4e-18).
_INV_LN2 = float.fromhex("0x1.71547652b82fep+0")
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
_INV_FACTORIAL = tuple(1.0 / math.factorial(n) for n in range(14))


def _exp_poly(r):
    acc = _INV_FACTORIAL[13]
    for coeff in _INV_FACTORIAL[12::-1]:
        acc = coeff + r * acc
    return acc


def _exp_scalar(x: float) -> float:
    """``e**x`` for ``−700 < x < 0.3`` from basic operations only."""
    n = int(x * _INV_LN2 - 0.5)
    r = (x - n * _LN2_HI) - n * _LN2_LO
    return _exp_poly(r) * math.ldexp(1.0, n)


def _exp_vector(x: np.ndarray) -> np.ndarray:
    """:func:`_exp_scalar` over a float64 array, bit for bit."""
    n = (x * _INV_LN2 - 0.5).astype(np.int64)
    r = (x - n * _LN2_HI) - n * _LN2_LO
    return _exp_poly(r) * ((n + 1023) << 52).view(np.float64)


def _log_weight(k, z: float):
    """``log g(k)`` for ``z ≥ 2**20`` and ``|k| ≤ 16√z``.

    ``k`` is a Python float or a float64 array; the body is the same
    sequence of IEEE ``+ − × ÷`` either way (and in ``skellam_log_weight``
    in the C kernel).  With u = (k/z)²: the exponent of the uniform
    (Debye) expansion of ``I_k(z)`` as a series in u, the
    ``(1+u)^(−1/4)`` prefactor, and its first two correction terms
    ``U₁(p)/k + U₂(p)/k²`` written in ``r = z√(1+u)``, ``p² = u/(1+u)``.
    Truncation (u⁷ in the exponent, ``U₃/k³``) is below 10⁻¹⁷; rounding
    leaves ≈ 3·10⁻¹⁴ absolute at 16σ (``tests/dp/test_sampler.py``).
    """
    t = k / z
    u = t * t
    exponent = u * (
        -0.5
        + u * (1.0 / 24.0
               + u * (-1.0 / 80.0
                      + u * (5.0 / 896.0
                             + u * (-7.0 / 2304.0 + u * (21.0 / 11264.0)))))
    )
    log1p_u = u * (1.0 - u * (0.5 - u * (1.0 / 3.0 - u * (0.25 - u * (1.0 / 5.0)))))
    root = 1.0 + u * (0.5 - u * (0.125 - u * 0.0625))  # √(1+u)
    v = 1.0 + u
    p2 = u / v
    c = (3.0 - 5.0 * p2) / (24.0 * (z * root)) + (
        81.0 - p2 * (462.0 - 385.0 * p2)
    ) / (1152.0 * (z * z * v))
    log1p_c = c * (1.0 - c * (0.5 - c * (1.0 / 3.0)))
    return z * exponent - 0.25 * log1p_u + log1p_c


def support_bound(variance: float) -> int:
    """K: every element of a noise vector of this variance is in [−K, K].

    ``⌊16σ⌋`` on the strip path; the inversion path (small z, where 16σ
    can be below 1) keeps 32 more integers.
    """
    cut = math.isqrt(int(256.0 * variance))
    return cut if variance >= SERIES_MIN_VARIANCE else cut + 32


class _StripTable(NamedTuple):
    """What the kernel and the twin need of one variance ≥ 2²⁰."""

    z: float
    #: Rows of :data:`STRIP_DTYPE`, read-only.
    strips: np.ndarray
    #: Expected accepted draws per stream word.
    efficiency: float


def _strip_edges(z: float, cut: int, area: float) -> list[tuple[int, int, int, float]]:
    """``(side, m, width, g(m))`` of the equal-area strips for hat area ``area``."""
    edges = []
    for side in (1, -1):
        m = 0 if side > 0 else 1  # the mode belongs to the upward side
        while m <= cut:
            inner = _exp_scalar(_log_weight(float(m), z))
            width = min(int(area / inner), cut - m + 1)
            edges.append((side, m, width, inner))
            m += width
    return edges


@lru_cache(maxsize=32)
def _strip_table(z: float) -> _StripTable:
    """Strips for ``z ≥ 2**20``, at a hat area that needs at most 2¹⁰;
    built once per variance (≈ 10 ms) and shared by both paths — a
    session draws seven distinct variances, the cache holds 32 tables
    of ≤ 32 KB.

    The curve's own area per strip, ``√(2πz)/2¹⁰``, is a lower bound
    (hats overshoot), so the search grows the area by the overshoot it
    just counted — and by at least 2⁻⁸, so it always moves — until the
    strips fit.  It ends after a few passes with ≈ 2 % of the hat area
    above the curve at the variances sessions use (≈ 17 % at 2²⁰, where
    a strip is only two or three integers wide).
    """
    cut = support_bound(z)
    mass = math.sqrt(2.0 * math.pi * z)
    area = mass / _MAX_STRIPS
    while len(edges := _strip_edges(z, cut, area)) > _MAX_STRIPS:
        area *= max(len(edges) / _MAX_STRIPS, 1.0 + 2.0**-8)
    strips = np.empty(len(edges), dtype=STRIP_DTYPE)
    for row, (side, m, width, inner) in zip(strips, edges):
        hat = max(area / width, inner)
        outer = _exp_scalar(_log_weight(float(m + width - 1), z))
        # The 2⁻³⁰ margin keeps the integer squeeze inside the float
        # test whatever rounding does to g near the strip's end.
        threshold = int(outer / hat * (1.0 - 2.0**-30) * 2.0**64)
        row["base"], row["width"] = side * m, side * width
        row["threshold"], row["hat"] = threshold, hat
    strips.setflags(write=False)
    return _StripTable(z, strips, mass / (_MAX_STRIPS * area))


@lru_cache(maxsize=32)
def _inversion_cdf(z: float) -> np.ndarray:
    """``cdf[i] = ⌊2⁶⁴·P(k ≤ i − K)⌋`` over ``[−K, K]`` for ``0 < z < 2**20``.

    ``r_k = I_k/I_{k−1}`` by the backward recurrence from ``r = 0`` far
    enough out (≈ 18σ) that the start has decayed below rounding by K;
    ``t_k = ∏ r_i`` is the pmf up to ``1/(t_0 + 2·Σ t_k)`` — the
    generating-function identity ``e^z = I_0 + 2·Σ I_k`` — so no
    exponential is needed.
    """
    cut = support_bound(z)
    start = math.isqrt(int(320.0 * z)) + 64
    ratio = 0.0
    ratios = [0.0] * (cut + 1)
    for k in range(start, 0, -1):
        ratio = 1.0 / (2.0 * k / z + ratio)
        if k <= cut:
            ratios[k] = ratio
    terms = [1.0] * (cut + 1)
    for k in range(1, cut + 1):
        terms[k] = terms[k - 1] * ratios[k]
    total = 0.0
    for k in range(cut, 0, -1):
        total += terms[k]
    total = terms[0] + 2.0 * total
    cdf: list[int] = []
    running = 0.0
    for k in range(-cut, cut + 1):
        running += terms[abs(k)] / total
        cdf.append(min(int(running * 2.0**64), 2**64 - 1))
    table = np.array(cdf, dtype=np.uint64)
    table.setflags(write=False)
    return table


def _words(stream) -> np.ndarray:
    return np.frombuffer(stream, dtype=">u8")


#: Words the twin handles per pass: its temporaries stay cache-resident.
_SLAB = 1 << 14


def _stream_blocks(missing: int, efficiency: float) -> int:
    """Blocks the twin requests for ``missing`` more elements: the
    expected word count plus 1/64 and a constant, so that a second
    request is rare."""
    words = int(missing / efficiency * (1.0 + 1.0 / 64.0)) + 64
    return -(-words // _WORDS_PER_BLOCK)


def _fill_numpy(table: _StripTable, seed: bytes, out: np.ndarray, sign: int) -> None:
    """The kernel's loop, vectorized over slabs of buffered stream.

    Adds ``sign·k`` of the first ``len(out)`` accepted trials into
    ``out``.  The stream is requested a buffer at a time and extended
    from the next counter if it runs out; where the buffers end never
    shows in the result.
    """
    strips = table.strips
    base, threshold, hat = (strips[name].copy() for name in ("base", "threshold", "hat"))
    span = np.abs(strips["width"]).astype(np.uint64)
    step = np.sign(strips["width"]) * sign
    filled = blocks = 0
    while filled < len(out):
        request = _stream_blocks(len(out) - filled, table.efficiency)
        stream = _words(counter_stream(seed, request, blocks))
        blocks += request
        for start in range(0, len(stream), _SLAB):
            if filled == len(out):
                break
            words = stream[start : start + _SLAB].astype(np.uint64)
            row = (words >> np.uint64(64 - _STRIP_BITS)).astype(np.intp)
            if len(strips) < _MAX_STRIPS:  # indices past the table reject
                live = row < len(strips)
                words, row = words[live], row[live]
            fraction = words << np.uint64(_STRIP_BITS)
            width = span[row]
            # mulhi(fraction, width) from 32-bit halves (width < 2³²).
            offset = (
                (fraction >> np.uint64(32)) * width
                + (((fraction & np.uint64(0xFFFFFFFF)) * width) >> np.uint64(32))
            ) >> np.uint64(32)
            rem = fraction * width  # mullo: wraps mod 2⁶⁴
            k = base[row] * sign + step[row] * offset.view(np.int64)
            accept = rem <= threshold[row]
            slow = np.flatnonzero(~accept)
            if slow.size:
                uniform = (rem[slow] >> np.uint64(11)).astype(np.float64) * 2.0**-53
                accept[slow] = uniform * hat[row[slow]] <= _exp_vector(
                    _log_weight(k[slow].astype(np.float64), table.z)
                )
            drawn = k[accept][: len(out) - filled]
            out[filled : filled + len(drawn)] += drawn
            filled += len(drawn)


def _invert(cdf: np.ndarray, seed: bytes, out: np.ndarray, sign: int) -> None:
    """Inversion path: word *t* → element *t* (no rejection)."""
    stream = counter_stream(seed, -(-len(out) // _WORDS_PER_BLOCK))
    words = _words(stream)[: len(out)].astype(np.uint64)
    index = np.searchsorted(cdf, words, side="right")
    np.minimum(index, len(cdf) - 1, out=index)
    out += sign * (index.astype(np.int64) - len(cdf) // 2)


def _expand(seed, variance, dimension, out, sign, kernel: bool) -> np.ndarray:
    if not isinstance(seed, (bytes, bytearray)):
        raise TypeError("seed must be bytes")
    z = float(variance)
    if not 0.0 <= z < MAX_VARIANCE:  # also refuses NaN and ±inf
        raise ValueError(
            f"variance {variance!r} outside the supported range [0, 2**50)"
        )
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if dimension < 0:
        raise ValueError("dimension must be non-negative")
    if out is None:
        out = np.zeros(dimension, dtype=np.int64)
    elif not (
        isinstance(out, np.ndarray)
        and out.dtype == np.int64
        and out.shape == (dimension,)
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise ValueError(
            f"out must be a writable contiguous int64 vector of length {dimension}"
        )
    if z == 0.0 or dimension == 0:
        return out
    seed = bytes(seed)
    if z < SERIES_MIN_VARIANCE:
        _invert(_inversion_cdf(z), seed, out, sign)
        return out
    table = _strip_table(z)
    if not (kernel and native.skellam_fill(table.strips, z, seed, out, sign)):
        _fill_numpy(table, seed, out, sign)
    return out


def skellam_noise_from_seed(
    seed: bytes,
    variance: float,
    dimension: int,
    out: Optional[np.ndarray] = None,
    sign: int = 1,
) -> np.ndarray:
    """Expand ``seed`` into ``dimension`` draws of Skellam(variance).

    Returns a fresh ``int64`` vector, or — given ``out`` (a contiguous
    ``int64`` vector of that length) — adds ``sign·noise`` into it in
    place and returns it, so a component that is about to be summed or
    subtracted is never materialised.  The vector is a function of
    ``(seed, variance, dimension)`` alone: the same with or without the
    native kernel, on any host.  ``ValueError`` for a variance that is
    negative, non-finite or ≥ 2⁵⁰, before any stream is drawn.
    """
    return _expand(seed, variance, dimension, out, sign, kernel=True)


def skellam_noise_from_seed_numpy(
    seed: bytes,
    variance: float,
    dimension: int,
    out: Optional[np.ndarray] = None,
    sign: int = 1,
) -> np.ndarray:
    """:func:`skellam_noise_from_seed` on the numpy twin, never the kernel."""
    return _expand(seed, variance, dimension, out, sign, kernel=False)
