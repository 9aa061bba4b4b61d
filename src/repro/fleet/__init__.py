"""The heterogeneous fleet/scenario layer.

One place owns the client population: per-device profiles with
*directional* bandwidth (:class:`DeviceProfile`: separate
``uplink_bps`` / ``downlink_bps``, compute slowdown), pluggable
availability (:mod:`repro.fleet.availability`: §6.1 fixed-rate dropout,
the Fig.-1a behaviour-trace churn, or its lazy million-device
:class:`SessionStream` form with optional bandwidth×availability
rank correlation), and the :class:`Fleet` object binding the two into a
scenario the rest of the stack consumes — every byte-reporting
transport takes :meth:`Fleet.link_seconds` as its pricing hook
(:func:`repro.core.dordis.build_transport` wires it), the training
session derives per-round dropout and modeled round cost from it.

The population is stored columnar (:class:`ProfileColumns`, built by
:func:`heterogeneous_fleet`), so fleets scale to millions of devices as
three arrays; :func:`heterogeneous_fleet_reference` retains the
one-object-per-device builder as the parity-pinned executable spec.
"""

from repro.fleet.availability import (
    AlwaysAvailable,
    BehaviorTrace,
    DiurnalWave,
    FixedRateDropout,
    FlashCrowd,
    RegionalOutage,
    SessionStream,
    TraceDrivenDropout,
    build_availability,
)
from repro.fleet.fleet import Fleet, FleetConfig, FleetRoundCost
from repro.fleet.profile import (
    DEFAULT_BANDWIDTH_RANGE,
    DeviceProfile,
    ProfileColumns,
    heterogeneous_fleet,
    heterogeneous_fleet_reference,
)

__all__ = [
    "AlwaysAvailable",
    "BehaviorTrace",
    "DEFAULT_BANDWIDTH_RANGE",
    "DeviceProfile",
    "DiurnalWave",
    "Fleet",
    "FleetConfig",
    "FleetRoundCost",
    "FixedRateDropout",
    "FlashCrowd",
    "ProfileColumns",
    "RegionalOutage",
    "SessionStream",
    "TraceDrivenDropout",
    "build_availability",
    "heterogeneous_fleet",
    "heterogeneous_fleet_reference",
]
