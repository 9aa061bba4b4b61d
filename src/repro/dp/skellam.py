"""The DSkellam mechanism (Agarwal, Kairouz & Liu, NeurIPS 2021).

Dordis's prototype employs the distributed Skellam mechanism for its DP
encoding (§5), because Skellam noise is (a) integer-valued — compatible
with secure aggregation over Z_{2^b} — and (b) closed under summation,
the property XNoise's decomposition requires (§3).

Encode path (client): L2-clip → randomized-Hadamard rotate → scale by s →
conditional stochastic rounding → add Skellam noise → wrap mod 2**b.
Decode path (server): unwrap to signed → inverse rotate → unscale.

Configuration follows the paper's §6.1: signal-bound multiplier k = 3,
rounding bias β = e^{−0.5}, bit width b = 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.dp.quantize import (
    conditional_stochastic_round,
    unwrap_modular,
    wrap_modular,
)
from repro.dp.rotation import RandomizedHadamard


@dataclass(frozen=True)
class SkellamConfig:
    """Static parameters of the DSkellam encoding.

    Attributes
    ----------
    dimension:   model-update length (pre-padding).
    clip_bound:  per-client L2 clip in the real domain.
    bits:        ring bit-width b; aggregation happens mod 2**bits.
    scale:       quantization granularity s (real value 1.0 maps to s).
    k_multiplier: signal-bound multiplier k (paper: 3).
    beta:        conditional-rounding bias parameter (paper: e**-0.5).
    rotation_seed: shared per-round seed for the Hadamard rotation.
    """

    dimension: int
    clip_bound: float
    bits: int = 20
    scale: float = 64.0
    k_multiplier: float = 3.0
    beta: float = math.exp(-0.5)
    rotation_seed: bytes = b"dskellam-rotation"

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")
        if self.clip_bound <= 0:
            raise ValueError("clip_bound must be positive")
        if not 4 <= self.bits <= 62:
            raise ValueError("bits must be in [4, 62]")
        if self.scale <= 0:
            raise ValueError("scale must be positive")


def choose_scale(
    bits: int,
    n_clients: int,
    clip_bound: float,
    noise_multiplier: float,
    dimension: int,
    k_multiplier: float = 3.0,
) -> float:
    """Largest scale s for which the aggregate fits the ring w.h.p.

    The ring must hold the sum of n flattened signals plus the aggregate
    noise with k-sigma headroom:

        n·k·s·c/√d  +  k·z·(s·c + √d/2)  ≤  2**(b−1)

    (flattened coordinates concentrate around ‖x‖₂/√d; the noise std is
    z·Δ̃₂ with Δ̃₂ = s·c + √d/2 covering rounding inflation).  Solving the
    linear inequality for s gives the returned value.  Raises if the bit
    width cannot accommodate even s = 1.
    """
    d_pad = 1 << (dimension - 1).bit_length()
    half_ring = float(1 << (bits - 1))
    z = noise_multiplier
    budget = half_ring - k_multiplier * z * math.sqrt(d_pad) / 2.0
    denom = k_multiplier * clip_bound * (n_clients / math.sqrt(d_pad) + z)
    if budget <= 0 or budget / denom < 1.0:
        raise ValueError(
            f"bit width {bits} too small for n={n_clients}, z={z}, d={dimension}"
        )
    return budget / denom


class SkellamMechanism:
    """Stateful encoder/decoder for one round's DSkellam aggregation."""

    def __init__(self, config: SkellamConfig):
        self.config = config
        self.rotation = RandomizedHadamard(config.dimension, config.rotation_seed)

    @property
    def padded_dimension(self) -> int:
        return self.rotation.padded

    @property
    def modulus(self) -> int:
        return 1 << self.config.bits

    def scaled_sensitivities(self) -> tuple[float, float]:
        """(Δ̃₂, Δ̃₁) in the scaled integer domain.

        Rotation preserves the L2 norm, so the scaled L2 sensitivity is
        s·c inflated by the rounding slack √d/2 (each coordinate moves by
        at most 1/2... stochastic rounding worst case 1 but the
        conditional-rounding acceptance bound keeps the norm inflation
        within √d/2 with the β = e^{−0.5} configuration).  Δ̃₁ uses the
        generic bounds Δ₁ ≤ min(Δ₂², √d·Δ₂).
        """
        c = self.config
        d2 = c.scale * c.clip_bound + math.sqrt(self.padded_dimension) / 2.0
        d1 = min(d2**2, math.sqrt(self.padded_dimension) * d2)
        return d2, d1

    def rounding_norm_bound(self) -> float:
        """Acceptance bound for conditional rounding (norm + √d/2 slack)."""
        c = self.config
        return c.scale * c.clip_bound + math.sqrt(self.padded_dimension) / 2.0

    def encode_signal(
        self, update: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Clip, rotate, scale, round — everything except noise and wrap.

        Returns a signed int64 vector of length ``padded_dimension``.
        XNoise adds its noise components to this before wrapping.
        ``ValueError`` for an update with a NaN or ±inf entry (it would
        poison the whole aggregate) or a rounding outside the signed ring.
        """
        bound = self.config.clip_bound
        norm = float(np.linalg.norm(update))
        if not (math.isfinite(norm) or np.isfinite(update).all()):
            raise ValueError("cannot encode an update with NaN or ±inf entries")
        # clip_l2's factor, applied in forward's own buffer.
        rotated = self.rotation.forward(update, bound / norm if norm > bound else 1.0)
        rotated *= self.config.scale
        return conditional_stochastic_round(
            rotated, rng, self.rounding_norm_bound(), limit=self.modulus >> 1
        )

    def sample_noise(
        self, variance: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Skellam noise of the given per-coordinate variance.

        Sk(μ, μ) with μ = variance/2 has mean 0 and variance 2μ; sums of
        independent Skellams are Skellam — the closure-under-summation
        property XNoise's add-then-remove algebra relies on.
        """
        if variance < 0:
            raise ValueError("variance must be non-negative")
        if variance == 0:
            return np.zeros(self.padded_dimension, dtype=np.int64)
        mu = variance / 2.0
        plus = rng.poisson(mu, size=self.padded_dimension)
        minus = rng.poisson(mu, size=self.padded_dimension)
        return (plus - minus).astype(np.int64)

    def wrap(self, signed: np.ndarray) -> np.ndarray:
        """Signed integer vector → ring representative (pre-masking)."""
        return wrap_modular(signed, self.config.bits)

    def encode(
        self,
        update: np.ndarray,
        noise_variance: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Full client-side encode: signal + Skellam noise, in the ring."""
        signal = self.encode_signal(update, rng)
        noise = self.sample_noise(noise_variance, rng)
        return self.wrap(signal + noise)

    def decode(self, aggregate_ring: np.ndarray) -> np.ndarray:
        """Server-side decode of a ring aggregate back to the real domain.

        Returns the *sum* of the participating clients' clipped updates
        (plus residual DP noise); the caller divides by the participant
        count for FedAvg.
        """
        signed = unwrap_modular(aggregate_ring, self.config.bits)
        return self.rotation.inverse(signed, self.config.scale)

    def aggregate_ring(self, encoded: list[np.ndarray]) -> np.ndarray:
        """Sum encoded vectors in the ring (what SecAgg computes)."""
        if not encoded:
            raise ValueError("nothing to aggregate")
        total = np.zeros(self.padded_dimension, dtype=np.int64)
        for vec in encoded:
            total = (total + vec) % self.modulus
        return total
