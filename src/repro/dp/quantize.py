"""Clipping, stochastic rounding, and modular wrapping.

These are the scalar-level pieces of the DSkellam encode path (§5):
model updates are L2-clipped, scaled, unbiasedly rounded to the integer
grid, and finally wrapped into the ring Z_{2^b} that secure aggregation
operates over.  Decoding reverses the wrap by re-centering into the signed
range.
"""

from __future__ import annotations

import numpy as np

from repro import native


def clip_l2(vector: np.ndarray, bound: float) -> np.ndarray:
    """Scale ``vector`` down to L2 norm ``bound`` if it exceeds it.

    Clipping fixes the per-client sensitivity that the DP analysis is
    calibrated against.
    """
    if bound <= 0:
        raise ValueError("clip bound must be positive")
    norm = float(np.linalg.norm(vector))
    if norm <= bound or norm == 0.0:
        return np.asarray(vector, dtype=float).copy()
    return np.asarray(vector, dtype=float) * (bound / norm)


def _round_by_uniforms(
    values: np.ndarray, uniforms: np.ndarray, limit: int, out: np.ndarray
) -> None:
    """``floor(x) + (u < x − floor(x))`` into ``out``: one kernel pass, else
    the same integers in numpy; ``ValueError`` for a value that is not
    finite, is outside ±2⁶² (no defined cast to int64) or rounds outside
    ``[-limit, limit)``.  The caller's own contiguous buffers (float64,
    float64, int64; one shape), ``limit`` at most 2⁶²."""
    lib = native.load()
    if lib is not None:
        done = 0 == lib.repro_stochastic_round(
            values.ctypes.data, uniforms.ctypes.data, values.size, limit, out.ctypes.data
        )
    else:
        done = bool((np.abs(values) < 2.0**62).all())  # NaN compares false
        if done and values.size:
            floor = np.floor(values)
            out[...] = floor
            out += uniforms < values - floor
            done = bool(-limit <= out.min() and out.max() < limit)
    if not done:
        raise ValueError(f"cannot round a non-finite value or one outside [-{limit}, {limit})")


def stochastic_round(
    vector: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Unbiased randomized rounding to the integer grid.

    Each coordinate x is rounded to ⌈x⌉ with probability frac(x) and to
    ⌊x⌋ otherwise, so E[round(x)] = x.  DSkellam applies *conditional*
    rounding (re-sample while the rounded norm exceeds a bound); the
    norm-inflation from rounding is at most √d/2 in expectation, which the
    caller accounts for in the sensitivity (see
    :meth:`repro.dp.skellam.SkellamMechanism.scaled_sensitivities`).
    """
    vector = np.ascontiguousarray(vector, dtype=float)
    rounded = np.empty(vector.shape, dtype=np.int64)
    _round_by_uniforms(vector, rng.random(vector.shape), 1 << 62, rounded)
    return rounded


def conditional_stochastic_round(
    vector: np.ndarray,
    rng: np.random.Generator,
    norm_bound: float,
    max_attempts: int = 64,
    limit: int = 1 << 62,
) -> np.ndarray:
    """DSkellam's conditional randomized rounding.

    Re-samples the rounding until the integer vector's L2 norm is within
    ``norm_bound``, drawing exactly one ``rng.random(vector.shape)`` per
    attempt.  The bound is chosen by the caller so acceptance is
    overwhelmingly likely (the paper's β = e^{−0.5} config); after
    ``max_attempts`` failures we fall back to deterministic rounding,
    whose norm inflation is at most √d/2 and always accepted by
    construction of the bound.  ``ValueError`` for a value that is not
    finite or rounds outside ``[-limit, limit)`` (the ring's signed range).
    """
    vector = np.ascontiguousarray(vector, dtype=float)
    uniforms = np.empty(vector.shape)
    rounded = np.empty(vector.shape, dtype=np.int64)
    for _ in range(max_attempts):
        rng.random(out=uniforms)
        _round_by_uniforms(vector, uniforms, limit, rounded)
        # The uniforms are spent: their buffer holds the float image to norm.
        np.copyto(uniforms, rounded, casting="unsafe")
        if np.linalg.norm(uniforms) <= norm_bound:
            return rounded
    # Deterministic, through the same refusals: a whole number stays put.
    uniforms.fill(0.0)
    _round_by_uniforms(np.rint(vector), uniforms, limit, rounded)
    return rounded


def wrap_modular(vector: np.ndarray, bits: int) -> np.ndarray:
    """Map signed integers into the ring [0, 2**bits)."""
    if not 1 <= bits <= 62:
        raise ValueError("bits must be in [1, 62]")
    modulus = 1 << bits
    return np.mod(np.asarray(vector, dtype=np.int64), modulus)


def unwrap_modular(vector: np.ndarray, bits: int) -> np.ndarray:
    """Re-center ring elements into the signed range [−2**(b−1), 2**(b−1))."""
    if not 1 <= bits <= 62:
        raise ValueError("bits must be in [1, 62]")
    half = 1 << (bits - 1)
    # The mask is mod 2**b, and an int64 wrap in v + half a multiple of it.
    v = np.asarray(vector, dtype=np.int64) + half
    v &= (1 << bits) - 1
    v -= half
    return v
