"""Device profiles: directional bandwidth, fleet construction, and the
columns pinned against the boxed reference builder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    DeviceProfile,
    Fleet,
    FleetConfig,
    ProfileColumns,
    heterogeneous_fleet,
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
        assert d.link_seconds(0, 2e6) == pytest.approx(2.0)
        assert d.link_seconds(2e6, 0) == pytest.approx(0.5)

    def test_symmetric_link_is_bit_identical_to_single_division(self):
        """The pre-refactor formula was (req + resp) / bandwidth — one
        division.  A symmetric profile must reproduce it exactly, not
        via two separately-rounded divisions."""
        d = DeviceProfile(0, compute_factor=1.0, uplink_bps=3.0, downlink_bps=3.0)
        down, up = 1_000_003, 777_777
        assert d.link_seconds(down, up) == (down + up) / 3.0

    def test_asymmetric_link_charges_each_direction(self):
        d = DeviceProfile(0, compute_factor=1.0, uplink_bps=10.0, downlink_bps=40.0)
        assert d.link_seconds(400, 100) == 400 / 40.0 + 100 / 10.0


class TestHeterogeneousFleet:
    def test_size_and_ranges(self):
        cols = heterogeneous_fleet(50, seed=1)
        assert cols.n == 50
        assert ((1.0 <= cols.compute_factor) & (cols.compute_factor <= 8.0)).all()
        lo, hi = 21e6 / 8, 210e6 / 8
        assert ((lo <= cols.uplink_bps) & (cols.uplink_bps <= hi)).all()

    def test_heterogeneous(self):
        cols = heterogeneous_fleet(50, seed=1)
        assert len(np.unique(np.round(cols.compute_factor, 3))) > 10

    def test_deterministic(self):
        a = heterogeneous_fleet(10, seed=3)
        b = heterogeneous_fleet(10, seed=3)
        assert a.uplink_bps.tolist() == b.uplink_bps.tolist()

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            heterogeneous_fleet(0)

    def test_default_fleet_is_symmetric(self):
        cols = heterogeneous_fleet(30, seed=2)
        assert (cols.uplink_bps == cols.downlink_bps).all()

    def test_downlink_range_leaves_uplinks_and_compute_untouched(self):
        """The asymmetric draw rides its own rng stream: uplink and
        compute profiles are bit-identical to the symmetric fleet."""
        base = heterogeneous_fleet(25, seed=7)
        asym = heterogeneous_fleet(
            25, seed=7, downlink_range=(100e6 / 8, 1000e6 / 8)
        )
        assert base.uplink_bps.tolist() == asym.uplink_bps.tolist()
        assert base.compute_factor.tolist() == asym.compute_factor.tolist()
        lo, hi = 100e6 / 8, 1000e6 / 8
        assert ((lo <= asym.downlink_bps) & (asym.downlink_bps <= hi)).all()
        assert not (asym.uplink_bps == asym.downlink_bps).all()

    def test_asymmetric_fleet_deterministic(self):
        kwargs = dict(seed=4, downlink_range=(1e6, 2e6))
        a = heterogeneous_fleet(12, **kwargs)
        b = heterogeneous_fleet(12, **kwargs)
        assert a.downlink_bps.tolist() == b.downlink_bps.tolist()


def boxed(columns: ProfileColumns) -> list[DeviceProfile]:
    """Each row as the reference's DeviceProfile (client id = row)."""
    return [
        DeviceProfile(i, *(float(col[i]) for col in (
            columns.compute_factor, columns.uplink_bps, columns.downlink_bps
        )))
        for i in range(columns.n)
    ]


class TestColumnarParity:
    """The columns are a representation change, not a model change:
    every row must equal the retained reference builder's device
    bit-for-bit (dataclass equality compares every float)."""

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
        assert boxed(heterogeneous_fleet(40, **kwargs)) == ref

    def test_fleet_build_devices_match_reference(self):
        fleet = Fleet.build(30, FleetConfig(), seed=13)
        assert boxed(fleet.columns) == heterogeneous_fleet_reference(30, seed=13)

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


N, SEED = 40, 5
ASYMMETRIC = (100e6 / 8, 1000e6 / 8)
SHAPES = [
    pytest.param(None, offset, id=f"symmetric-offset{offset}")
    for offset in (0, 1)
] + [
    pytest.param(ASYMMETRIC, offset, id=f"downlink_range-offset{offset}")
    for offset in (0, 1)
]


def pinned(downlink_range, offset):
    fleet = Fleet.build(N, FleetConfig(downlink_range=downlink_range), seed=SEED)
    ref = heterogeneous_fleet_reference(N, seed=SEED, downlink_range=downlink_range)
    return fleet.with_id_offset(offset), ref


class TestFleetQueriesEqualTheOracle:
    """Every query a round makes, on symmetric and ``downlink_range``
    fleets at offsets 0 and 1, equals the same question asked of
    ``heterogeneous_fleet_reference(n, seed)[row]`` bit for bit."""

    @pytest.mark.parametrize("downlink_range, offset", SHAPES)
    @settings(max_examples=60, deadline=None)
    @given(
        row=st.integers(0, N - 1),
        down=st.integers(0, 1 << 40),
        up=st.integers(0, 1 << 40),
    )
    def test_link_seconds(self, downlink_range, offset, row, down, up):
        fleet, ref = pinned(downlink_range, offset)
        got = fleet.link_seconds(row + offset, down, up)
        assert type(got) is float
        assert got == ref[row].link_seconds(down, up)

    @pytest.mark.parametrize("downlink_range, offset", SHAPES)
    def test_straggler_factor(self, downlink_range, offset):
        fleet, ref = pinned(downlink_range, offset)
        rng = np.random.default_rng(offset)
        for size in (1, 5, N):
            rows = rng.choice(N, size=size, replace=False).tolist()
            assert fleet.straggler_factor([r + offset for r in rows]) == max(
                ref[r].compute_factor for r in rows
            )

    @pytest.mark.parametrize("downlink_range, offset", SHAPES)
    def test_round_cost(self, downlink_range, offset):
        fleet, ref = pinned(downlink_range, offset)
        rng = np.random.default_rng(10 + offset)
        nbytes = 800_017
        for size in (1, 7, N):
            rows = rng.choice(N, size=size, replace=False).tolist()
            alive = rows[: size // 2]
            cost = fleet.round_cost(
                [r + offset for r in rows], [r + offset for r in alive],
                nbytes, compute_seconds=1.25,
            )
            assert cost.down_seconds == max(nbytes / ref[r].downlink_bps for r in rows)
            assert cost.compute_seconds == 1.25 * max(
                ref[r].compute_factor for r in rows
            )
            assert cost.up_seconds == (
                max(nbytes / ref[r].uplink_bps for r in alive) if alive else 0.0
            )
            assert (cost.down_bytes, cost.up_bytes) == (
                nbytes * size, nbytes * len(alive)
            )
