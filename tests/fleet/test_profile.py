"""Device profiles: directional bandwidth and fleet construction."""

import numpy as np
import pytest

from repro.fleet import (
    DeviceProfile,
    Fleet,
    FleetConfig,
    ProfileColumns,
    heterogeneous_fleet,
    heterogeneous_fleet_columns,
    heterogeneous_fleet_reference,
)


class TestDeviceProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile(0, compute_factor=0.5, uplink_bps=1e6, downlink_bps=1e6)
        with pytest.raises(ValueError):
            DeviceProfile(0, compute_factor=1.0, uplink_bps=0.0, downlink_bps=1e6)
        with pytest.raises(ValueError):
            DeviceProfile(0, compute_factor=1.0, uplink_bps=1e6, downlink_bps=-1.0)

    def test_directional_transfer_times(self):
        d = DeviceProfile(0, compute_factor=1.0, uplink_bps=1e6, downlink_bps=4e6)
        assert d.upload_seconds(2e6) == pytest.approx(2.0)
        assert d.download_seconds(2e6) == pytest.approx(0.5)
        assert not d.is_symmetric

    def test_symmetric_link_is_bit_identical_to_single_division(self):
        """The pre-refactor formula was (req + resp) / bandwidth — one
        division.  A symmetric profile must reproduce it exactly, not
        via two separately-rounded divisions."""
        d = DeviceProfile.symmetric(0, bandwidth_bps=3.0)
        down, up = 1_000_003, 777_777
        assert d.link_seconds(down, up) == (down + up) / 3.0
        assert d.is_symmetric and d.bandwidth_bps == 3.0

    def test_asymmetric_link_charges_each_direction(self):
        d = DeviceProfile(0, compute_factor=1.0, uplink_bps=10.0, downlink_bps=40.0)
        assert d.link_seconds(400, 100) == 400 / 40.0 + 100 / 10.0

    def test_symmetric_constructor_sets_both_directions(self):
        d = DeviceProfile.symmetric(3, compute_factor=2.0, bandwidth_bps=5e5)
        assert d.uplink_bps == d.downlink_bps == 5e5
        assert d.bandwidth_bps == 5e5
        assert d.compute_factor == 2.0
        assert d.upload_seconds(1e6) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            DeviceProfile.symmetric(0, compute_factor=0.5, bandwidth_bps=1e6)
        with pytest.raises(ValueError):
            DeviceProfile.symmetric(0, bandwidth_bps=0.0)


class TestHeterogeneousFleet:
    def test_size_and_ranges(self):
        fleet = heterogeneous_fleet(50, seed=1)
        assert len(fleet) == 50
        assert all(1.0 <= d.compute_factor <= 8.0 for d in fleet)
        lo, hi = 21e6 / 8, 210e6 / 8
        assert all(lo <= d.bandwidth_bps <= hi for d in fleet)

    def test_heterogeneous(self):
        fleet = heterogeneous_fleet(50, seed=1)
        factors = {round(d.compute_factor, 3) for d in fleet}
        assert len(factors) > 10

    def test_deterministic(self):
        a = heterogeneous_fleet(10, seed=3)
        b = heterogeneous_fleet(10, seed=3)
        assert [d.bandwidth_bps for d in a] == [d.bandwidth_bps for d in b]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            heterogeneous_fleet(0)

    def test_default_fleet_is_symmetric(self):
        fleet = heterogeneous_fleet(30, seed=2)
        assert all(d.is_symmetric for d in fleet)

    def test_downlink_range_leaves_uplinks_and_compute_untouched(self):
        """The asymmetric draw rides its own rng stream: uplink and
        compute profiles are bit-identical to the symmetric fleet."""
        base = heterogeneous_fleet(25, seed=7)
        asym = heterogeneous_fleet(
            25, seed=7, downlink_range=(100e6 / 8, 1000e6 / 8)
        )
        assert [d.uplink_bps for d in base] == [d.uplink_bps for d in asym]
        assert [d.compute_factor for d in base] == [d.compute_factor for d in asym]
        lo, hi = 100e6 / 8, 1000e6 / 8
        assert all(lo <= d.downlink_bps <= hi for d in asym)
        assert not all(d.is_symmetric for d in asym)

    def test_asymmetric_fleet_deterministic(self):
        kwargs = dict(seed=4, downlink_range=(1e6, 2e6))
        a = heterogeneous_fleet(12, **kwargs)
        b = heterogeneous_fleet(12, **kwargs)
        assert [d.downlink_bps for d in a] == [d.downlink_bps for d in b]


class TestColumnarParity:
    """The columnar store is a representation change, not a model change:
    boxing any row must reproduce the retained reference builder's
    profile bit-for-bit (dataclass equality compares every float)."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seed=3),
            dict(seed=11, downlink_range=(1e6, 2e6)),
            dict(seed=0, zipf_a=1.6, max_slowdown=3.0),
        ],
    )
    def test_columns_bit_identical_to_reference(self, kwargs):
        ref = heterogeneous_fleet_reference(40, **kwargs)
        cols = heterogeneous_fleet_columns(40, **kwargs)
        assert [cols.device(i) for i in range(40)] == ref

    def test_boxing_wrapper_matches_reference(self):
        assert heterogeneous_fleet(25, seed=6) == (
            heterogeneous_fleet_reference(25, seed=6)
        )

    def test_fleet_build_devices_match_reference(self):
        """Fleet.build goes columnar end to end; every lazily boxed
        device must equal the boxed builder's output for the seed."""
        fleet = Fleet.build(30, FleetConfig(), seed=13)
        assert [fleet.device(i) for i in range(30)] == (
            heterogeneous_fleet_reference(30, seed=13)
        )

    def test_columns_validation(self):
        ones = np.ones(3)
        with pytest.raises(ValueError, match="at least one"):
            ProfileColumns(
                compute_factor=np.empty(0),
                uplink_bps=np.empty(0),
                downlink_bps=np.empty(0),
            )
        with pytest.raises(ValueError, match="equal length"):
            ProfileColumns(
                compute_factor=ones, uplink_bps=np.ones(2), downlink_bps=ones
            )
        with pytest.raises(ValueError, match="compute_factor"):
            ProfileColumns(
                compute_factor=np.array([1.0, 0.5, 1.0]),
                uplink_bps=ones,
                downlink_bps=ones,
            )
        with pytest.raises(ValueError, match="bandwidth"):
            ProfileColumns(
                compute_factor=ones,
                uplink_bps=np.array([1.0, 0.0, 1.0]),
                downlink_bps=ones,
            )
