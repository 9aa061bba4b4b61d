"""The Table-3 network-footprint model."""

import pytest

from repro.xnoise.rebasing import (
    CIPHERTEXT_BYTES,
    Table3Row,
    table3_row,
    xnoise_extra_bytes,
)


class TestXNoiseFootprint:
    def test_independent_of_model_size(self):
        """Table 3's headline: XNoise overhead does not grow with the
        model — only rebasing's does."""
        r5m = table3_row(5_000_000, 100, 0.0)
        r500m = table3_row(500_000_000, 100, 0.0)
        assert r5m.xnoise_mb == r500m.xnoise_mb
        assert r500m.rebasing_mb == pytest.approx(100 * r5m.rebasing_mb)

    def test_matches_paper_magnitudes(self):
        """Paper Table 3 (T = ⌈|U|/2⌉): ≈0.6 MB at 100 clients,
        ≈2.4 MB at 200, ≈5.5 MB at 300."""
        assert xnoise_extra_bytes(100) / 2**20 == pytest.approx(0.6, abs=0.1)
        assert xnoise_extra_bytes(200) / 2**20 == pytest.approx(2.4, abs=0.2)
        # (The paper mixes MB/MiB across Table 3; 5.38 MB = 5.13 MiB.)
        assert xnoise_extra_bytes(300) / 2**20 == pytest.approx(5.5, abs=0.4)

    def test_share_distribution_dominates(self):
        n = 100
        t = (n + 1) // 2
        base = t * (n - 1) * CIPHERTEXT_BYTES
        assert xnoise_extra_bytes(n) >= base
        assert xnoise_extra_bytes(n) < base * 1.2

    def test_decreases_with_dropout(self):
        """The Table-3 columns shrink slightly as d grows (fewer excess
        components to reveal/recover)."""
        vals = [xnoise_extra_bytes(300, d) for d in (0.0, 0.1, 0.2, 0.3)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[0] > vals[-1]

    def test_grows_superlinearly_with_sample_size(self):
        assert xnoise_extra_bytes(200) > 2.5 * xnoise_extra_bytes(100)

    def test_validation(self):
        with pytest.raises(ValueError):
            xnoise_extra_bytes(1)
        with pytest.raises(ValueError):
            xnoise_extra_bytes(100, dropout_rate=1.0)
        with pytest.raises(ValueError):
            xnoise_extra_bytes(100, tolerance=100)


class TestTable3Rows:
    def test_rebasing_matches_paper_column(self):
        """11.9 / 119.2 / 1192.1 MB at 5M / 50M / 500M weights."""
        assert table3_row(5_000_000, 100, 0.0).rebasing_mb == pytest.approx(11.9, abs=0.1)
        assert table3_row(50_000_000, 100, 0.0).rebasing_mb == pytest.approx(119.2, abs=0.5)
        assert table3_row(500_000_000, 100, 0.0).rebasing_mb == pytest.approx(1192.1, abs=2.0)

    def test_row_fields(self):
        row = table3_row(5_000_000, 200, 0.1)
        assert isinstance(row, Table3Row)
        assert row.dropout_rate == 0.1
        assert row.xnoise_mb < row.rebasing_mb

    def test_xnoise_wins_everywhere_in_the_grid(self):
        """XNoise < rebasing for every Table-3 cell."""
        for size in (5_000_000, 50_000_000, 500_000_000):
            for n in (100, 200, 300):
                for d in (0.0, 0.1, 0.2, 0.3):
                    row = table3_row(size, n, d)
                    assert row.xnoise_mb < row.rebasing_mb
