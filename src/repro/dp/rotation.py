"""Randomized Hadamard transform.

DSkellam flattens coordinate magnitudes before quantization by applying
U = H·D/√d, where D is a diagonal of random signs and H the Walsh–Hadamard
matrix.  Flattening makes every coordinate O(‖x‖₂/√d) with high
probability, so a uniform per-coordinate quantizer wastes no range.  The
transform is orthogonal, hence exactly invertible and L2-preserving —
which also means it does not change the mechanism's L2 sensitivity.

Both the forward and inverse transforms run in O(d log d) via the
iterative butterfly ``(a, b) → (a + b, a − b)`` at strides 1, 2, 4, … in
that order, which *defines* :func:`fwht`: each output is one fixed tree of
IEEE additions, so the native kernel and the numpy twin give the same bits.
"""

from __future__ import annotations

import numpy as np

from repro import native
from repro.utils.rng import derive_rng


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


def _fwht_inplace(v: np.ndarray) -> None:
    """The butterfly over a fresh contiguous float64 vector of power-of-two
    length: the kernel, else its numpy twin over one half-length scratch."""
    lib = native.load()
    if lib is not None and lib.repro_fwht(v.ctypes.data, v.size) == 0:
        return
    n = v.shape[0]
    scratch = np.empty(n // 2)
    h = 1
    while h < n:
        pairs = v.reshape(-1, 2, h)
        left, right = pairs[:, 0], pairs[:, 1]
        diff = scratch.reshape(-1, h)
        np.subtract(left, right, out=diff)
        np.add(left, right, out=left)
        right[...] = diff
        h *= 2


def fwht(vector: np.ndarray) -> np.ndarray:
    """Fast Walsh–Hadamard transform (unnormalized) of a copy of ``vector``.

    Requires a power-of-two length; the caller pads.
    """
    v = np.array(vector, dtype=float, order="C")
    if v.ndim != 1 or v.size & (v.size - 1):
        raise ValueError("fwht length must be a power of two")
    _fwht_inplace(v)
    return v


class RandomizedHadamard:
    """Seeded rotation U = H·D/√d_pad with exact inverse.

    All clients in a round must use the *same* rotation so the aggregate
    can be inverted server-side; the seed is distributed as public
    per-round configuration.
    """

    def __init__(self, dimension: int, seed_material: bytes | str = b"rotation"):
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.padded = _next_pow2(dimension)
        rng = derive_rng("hadamard-signs", seed_material)
        self.signs = (rng.integers(0, 2, size=self.padded) * 2 - 1).astype(float)

    def forward(self, vector: np.ndarray, factor: float = 1.0) -> np.ndarray:
        """Rotate ``factor`` times a length-``dimension`` vector into
        length-``padded`` space, in place over the one padded buffer."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.dimension,):
            raise ValueError(
                f"expected shape ({self.dimension},), got {vector.shape}"
            )
        padded = np.zeros(self.padded)
        padded[: self.dimension] = vector
        if factor != 1.0:
            padded *= factor
        padded *= self.signs
        _fwht_inplace(padded)
        padded /= np.sqrt(self.padded)
        return padded

    def inverse(self, vector: np.ndarray, divisor: float = 1.0) -> np.ndarray:
        """Invert :meth:`forward` on ``vector / divisor``; returns the
        original ``dimension`` coords.  H/√d is its own inverse (orthogonal,
        symmetric), so the inverse is un-rotate then un-sign then truncate
        the padding — in place over the one float copy of ``vector``.
        """
        unrotated = np.array(vector, dtype=float, order="C")
        if unrotated.shape != (self.padded,):
            raise ValueError(f"expected shape ({self.padded},), got {unrotated.shape}")
        if divisor != 1.0:
            unrotated /= divisor
        _fwht_inplace(unrotated)
        unrotated /= np.sqrt(self.padded)
        unrotated *= self.signs
        return unrotated[: self.dimension]
