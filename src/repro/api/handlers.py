"""Pluggable DP mechanism handlers (Appendix D).

:class:`DPHandler` pins the interface a DP mechanism exposes to protocol
code; swapping it requires no protocol changes — the Table-4 promise.
The security primitives' handler slots are the fields of
:class:`repro.crypto.suite.Suite`.
"""

from __future__ import annotations

import numpy as np

from repro.dp.skellam import SkellamConfig, SkellamMechanism


class DPHandler:
    """DP mechanism interface: parameter setup, encode, decode."""

    def init_params(self, **kwargs) -> None:
        """Configure the mechanism before the round starts."""
        raise NotImplementedError

    def encode_data(self, chunk: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Client-side: real-valued chunk → aggregation-domain chunk."""
        raise NotImplementedError

    def decode_data(self, chunk: np.ndarray) -> np.ndarray:
        """Server-side: aggregated chunk → real-valued chunk."""
        raise NotImplementedError


class PlainDPHandler(DPHandler):
    """No-op encoding (float aggregation, no privacy) — the null object."""

    def init_params(self, **kwargs) -> None:  # noqa: D102 - nothing to do
        pass

    def encode_data(self, chunk, rng):
        return np.asarray(chunk, dtype=float)

    def decode_data(self, chunk):
        return np.asarray(chunk, dtype=float)


class SkellamDPHandler(DPHandler):
    """The DSkellam mechanism behind the DPHandler interface."""

    def __init__(self):
        self.mechanism: SkellamMechanism | None = None
        self.noise_variance: float = 0.0

    def init_params(
        self,
        dimension: int = 16,
        clip_bound: float = 1.0,
        bits: int = 20,
        scale: float = 64.0,
        noise_variance: float = 0.0,
        **kwargs,
    ) -> None:
        self.mechanism = SkellamMechanism(
            SkellamConfig(
                dimension=dimension, clip_bound=clip_bound, bits=bits,
                scale=scale, **kwargs,
            )
        )
        self.noise_variance = noise_variance

    def _require(self) -> SkellamMechanism:
        if self.mechanism is None:
            raise RuntimeError("call init_params() before encode/decode")
        return self.mechanism

    def encode_data(self, chunk, rng):
        return self._require().encode(chunk, self.noise_variance, rng)

    def decode_data(self, chunk):
        return self._require().decode(chunk)

