"""The fleet as first written: one boxed object per device, one loop a round.

:func:`heterogeneous_fleet_reference` is the one-object-per-device
builder :func:`repro.fleet.heterogeneous_fleet`'s columns are pinned
against (row ``i`` equals device ``i`` bit for bit), and
:func:`dropout_rates_reference` the per-round loop
:meth:`repro.fleet.BehaviorTrace.dropout_rates` batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fleet.availability import BehaviorTrace
from repro.fleet.profile import DEFAULT_BANDWIDTH_RANGE
from repro.utils.rng import derive_rng
from repro.utils.zipf import zipf_between, zipf_weights


@dataclass(frozen=True)
class DeviceProfile:
    """One client's hardware/network profile.

    ``compute_factor`` multiplies compute-stage durations (1.0 = the
    fleet's fastest device); ``uplink_bps`` / ``downlink_bps`` are the
    client→server and server→client link speeds in bytes per second.
    """

    client_id: int
    compute_factor: float
    uplink_bps: float
    downlink_bps: float

    def __post_init__(self) -> None:
        if self.compute_factor < 1.0:
            raise ValueError("compute_factor is relative to the fastest (>= 1)")
        if self.uplink_bps <= 0 or self.downlink_bps <= 0:
            raise ValueError("bandwidth must be positive")

    def link_seconds(self, down_nbytes: float, up_nbytes: float) -> float:
        """One request/response exchange: down on the downlink, up on
        the uplink.

        The symmetric case is ``(down + up) / bandwidth`` — one division,
        the pre-split formula — so a symmetric device reproduces it bit
        for bit (two divisions would round differently).
        """
        if self.uplink_bps == self.downlink_bps:
            return (down_nbytes + up_nbytes) / self.uplink_bps
        return down_nbytes / self.downlink_bps + up_nbytes / self.uplink_bps


def heterogeneous_fleet_reference(
    n: int,
    zipf_a: float = 1.2,
    bandwidth_range: tuple[float, float] = DEFAULT_BANDWIDTH_RANGE,
    max_slowdown: float = 8.0,
    seed: int = 0,
    downlink_range: tuple[float, float] | None = None,
) -> list[DeviceProfile]:
    """Every draw of :func:`repro.fleet.heterogeneous_fleet` boxed into
    a fresh :class:`DeviceProfile` — fine at 100 devices, hostile at 10^6."""
    if n < 1:
        raise ValueError("n must be >= 1")
    weights = zipf_weights(n, zipf_a)
    slowdowns = 1.0 + (max_slowdown - 1.0) * (weights - weights.min()) / (
        weights.max() - weights.min() + 1e-12
    )
    bandwidths = zipf_between(n, *bandwidth_range, a=zipf_a)
    rng = derive_rng("fleet-shuffle", seed)
    rng.shuffle(bandwidths)
    order = rng.permutation(n)
    if downlink_range is None:
        downlinks = bandwidths
    else:
        downlinks = zipf_between(n, *downlink_range, a=zipf_a)
        derive_rng("fleet-downlink-shuffle", seed).shuffle(downlinks)
    return [
        DeviceProfile(
            client_id=i,
            compute_factor=float(slowdowns[order[i]]),
            uplink_bps=float(bandwidths[i]),
            downlink_bps=float(downlinks[i]),
        )
        for i in range(n)
    ]


def dropout_rates_reference(
    trace: BehaviorTrace, sample_size: int, seed: int = 0
) -> np.ndarray:
    """One sample, one slice and one mean per round."""
    rng = derive_rng("trace-sampling", seed)
    rates = np.empty(trace.horizon)
    for r in range(trace.horizon):
        sample = rng.choice(trace.n_clients, size=min(sample_size, trace.n_clients), replace=False)
        rates[r] = 1.0 - trace._avail[sample, r].mean()
    return rates
