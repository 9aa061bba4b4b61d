"""Per-device hardware/network profiles with directional bandwidth.

The paper's §6.1 testbed is heterogeneous in two independent ways: the
end-to-end latency of the i-th slowest client follows an inverse Zipf
profile, and client bandwidth is Zipf-distributed within [21, 210] Mbps.
Its network costs are also *directionally asymmetric* — the client
uplink is the WAN bottleneck for masked inputs and shares, the downlink
for model broadcast — so a device carries separate uplink and downlink
speeds.

A population is :class:`ProfileColumns` (three float64 arrays, built by
:func:`heterogeneous_fleet`): device ``i`` is row ``i``, each device a
compute slowdown and its two link speeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import derive_rng
from repro.utils.zipf import zipf_between, zipf_weights

#: §6.1 bandwidth throttle, in bytes/second: [21, 210] Mbps.
DEFAULT_BANDWIDTH_RANGE = (21e6 / 8, 210e6 / 8)


@dataclass(frozen=True)
class ProfileColumns:
    """A device population as three parallel float64 columns.

    Row ``i`` is device ``i``: a million devices are three 8 MB arrays,
    not a million boxed objects.  ``compute_factor`` multiplies
    compute-stage durations (1.0 = the fleet's fastest device);
    ``uplink_bps`` / ``downlink_bps`` are the client→server and
    server→client link speeds in bytes per second.
    """

    compute_factor: np.ndarray
    uplink_bps: np.ndarray
    downlink_bps: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.compute_factor)
        if n < 1:
            raise ValueError("a fleet needs at least one device")
        if len(self.uplink_bps) != n or len(self.downlink_bps) != n:
            raise ValueError("profile columns must have equal length")
        # One pass at construction.
        if float(self.compute_factor.min()) < 1.0:
            raise ValueError("compute_factor is relative to the fastest (>= 1)")
        if float(self.uplink_bps.min()) <= 0 or float(self.downlink_bps.min()) <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def n(self) -> int:
        return len(self.compute_factor)


def heterogeneous_fleet(
    n: int,
    zipf_a: float = 1.2,
    bandwidth_range: tuple[float, float] = DEFAULT_BANDWIDTH_RANGE,
    max_slowdown: float = 8.0,
    seed: int = 0,
    downlink_range: tuple[float, float] | None = None,
) -> ProfileColumns:
    """The §6.1 heterogeneity draws, as columns.

    Row ``i`` equals a one-object-per-device builder's device ``i`` on
    the same rng streams, bit for bit (pinned by test).

    Compute factors follow the inverse Zipf profile (slowest =
    ``max_slowdown``×); uplink bandwidths are an independently-shuffled
    Zipf profile within ``bandwidth_range`` — the two resources are not
    correlated, as in the paper's setup of two independent Zipf draws.
    ``downlink_range=None`` gives symmetric devices; a range draws a
    third independent Zipf profile for the downlinks (real WAN links
    are asymmetric), shuffled on its own rng stream so the uplink and
    compute draws are untouched.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    weights = zipf_weights(n, zipf_a)
    # Largest weight = slowest device (rank 1 in the paper's i^-a law).
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
    return ProfileColumns(
        compute_factor=slowdowns[order],
        uplink_bps=bandwidths,
        downlink_bps=downlinks,
    )
