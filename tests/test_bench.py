"""Tier-1 smoke for the ``repro.cli bench`` entry point.

Runs the full bench pipeline at tiny dimensions and asserts the
contract CI's scheduled benchmark job relies on: schema-valid
``BENCH_<topic>.json`` reports on disk for every topic and a working
``--diff``.
"""

from __future__ import annotations

import json

import pytest

from repro import bench
from repro.cli import main

pytestmark = pytest.mark.timeout(120)

TOPICS = ("hotpath", "traffic", "listener", "fleet")


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    rc = main(
        [
            "bench",
            "--dims", "32", "64",
            "--clients", "4",
            "--repeats", "1",
            "--traffic-dimension", "32",
            "--connections", "20",
            "--fleet-devices", "2000",
            "--fleet-cohort", "8",
            "--fleet-rounds", "6",
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


class TestBenchEntrypoint:
    def test_writes_every_topic(self, bench_run):
        for topic in TOPICS:
            assert bench.bench_path(bench_run, topic).exists()

    @pytest.mark.parametrize("topic", TOPICS)
    def test_reports_are_schema_valid(self, bench_run, topic):
        report = bench.load_bench(bench.bench_path(bench_run, topic))
        assert report["topic"] == topic
        assert report["metrics"]

    def test_hotpath_records_speedup_pairs(self, bench_run):
        report = bench.load_bench(bench.bench_path(bench_run, "hotpath"))
        assert report["config"]["native_backend"]
        assert report["config"]["stream_lanes"] in (1, 16)
        assert report["config"]["modexp_lanes"] in (1, 8)
        m = report["metrics"]
        for group in ("modp512", "modp2048"):
            # A neighbourhood per call: pow, the scalar loop forced, the
            # kernel's own dispatch — each per agreement.
            assert f"dh_agree_batch31_{group}_scalar_s" in m
        # The dealer at the 256-byte key width clients used to share at.
        assert "shamir_share_n32_t17_width256_s" in m
        for name in (
            "prg_expand_d64",
            "dh_agree_modp512",
            "dh_agree_modp2048",
            "dh_agree_batch31_modp512",
            "dh_agree_batch31_modp2048",
            "mask_fold_d1048576_b20",
            "mask_fold_d262144_b20",
            "skellam_expand_d131072_var228000000",
            "skellam_expand_d131072_var2500000000",
            "fwht_d131072",
            "skellam_encode_signal_d131072",
            "skellam_decode_d131072",
            "shamir_share_n32_t17",
            "shamir_reconstruct_n32_t17",
            "codec_encode_d64",
            "mask_accumulate_d64",
        ):
            assert f"{name}_reference_s" in m
            assert f"{name}_fast_s" in m

    def test_traffic_report_balances(self, bench_run):
        m = bench.load_bench(bench.bench_path(bench_run, "traffic"))["metrics"]
        assert m["aggregate_ok"]["value"] == 1
        assert (
            m["total_down_bytes"]["value"] + m["total_up_bytes"]["value"]
            == m["total_bytes"]["value"]
        )

    def test_listener_report_sustains_the_cohort(self, bench_run):
        report = bench.load_bench(bench.bench_path(bench_run, "listener"))
        m = report["metrics"]
        assert report["config"]["connections"] == 20
        assert m["connections"]["value"] == 20
        assert m["accept_rate_per_s"]["unit"] == "per_s"
        assert m["accounting_balanced"]["value"] == 1
        assert m["all_answered_ok"]["value"] == 1
        assert m["total_bytes"]["value"] > m["handshake_bytes"]["value"] > 0

    def test_fleet_report_scales_and_bounds_memory(self, bench_run):
        report = bench.load_bench(bench.bench_path(bench_run, "fleet"))
        m = report["metrics"]
        assert report["config"]["devices"] == 2000
        assert m["build_columnar_s"]["unit"] == "s"
        assert m["round_cost_fast_s"]["value"] > 0
        assert m["round_cost_reference_s"]["value"] > 0
        # Correlated churn: the fast-uplink tail is measurably more
        # available than the slow tail.
        assert m["correlation_effect"]["value"] > 0
        # Scenario shapes, measured as excess dropout over the base
        # churn on identical cohorts: the diurnal trough adds churn its
        # peak doesn't, the flash crowd only inflates pre-join rounds,
        # and the outage only inflates its window (exact zeros outside).
        assert (
            m["diurnal_trough_excess"]["value"]
            > m["diurnal_peak_excess"]["value"]
        )
        assert m["flash_crowd_pre_join_excess"]["value"] > 0
        assert m["flash_crowd_post_join_excess"]["value"] == 0
        assert m["outage_window_excess"]["value"] > 0
        assert m["outage_outside_excess"]["value"] == 0

    def test_diff_reports_per_metric_deltas(self, bench_run, capsys):
        path = str(bench.bench_path(bench_run, "traffic"))
        rc = main(["bench", "--diff", path, path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "round_wall_s" in out
        assert "b/a" in out

    def test_diff_bench_rows(self, bench_run):
        path = bench.bench_path(bench_run, "traffic")
        rows = bench.diff_bench(path, path)
        assert rows
        for row in rows:
            assert row["delta"] == 0
            assert row["ratio"] == 1


class TestUnmaskBench:
    """The unmask plane topic (opt-in: not part of the default run)."""

    @pytest.fixture(scope="class")
    def unmask_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench-unmask")
        rc = main(
            [
                "bench",
                "--topics", "unmask",
                "--unmask-dim", "256",
                "--unmask-clients", "8",
                "--unmask-dropout", "0.25",
                "--unmask-workers", "1", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        return out

    def test_not_in_default_topics(self, bench_run):
        assert not bench.bench_path(bench_run, "unmask").exists()

    def test_report_is_schema_valid(self, unmask_run):
        report = bench.load_bench(bench.bench_path(unmask_run, "unmask"))
        assert report["topic"] == "unmask"
        assert report["config"]["dim"] == 256
        assert report["config"]["prg_backend"]
        assert report["config"]["stream_lanes"] in (1, 16)

    def test_fast_plane_is_bit_identical(self, unmask_run):
        m = bench.load_bench(bench.bench_path(unmask_run, "unmask"))["metrics"]
        assert m["parity_bit_identical"]["value"] == 1
        assert m["unmask_reference_s"]["value"] > 0
        for w in (1, 2):
            assert m[f"unmask_fast_w{w}_s"]["value"] > 0
            assert m[f"unmask_speedup_w{w}"]["unit"] == "x"


class TestBenchSchema:
    def test_validate_rejects_missing_metrics(self):
        with pytest.raises(ValueError):
            bench.validate_report(
                {
                    "schema_version": bench.SCHEMA_VERSION,
                    "topic": "x",
                    "created_unix": 0,
                    "config": {},
                    "metrics": {},
                }
            )

    def test_validate_rejects_unknown_unit(self):
        report = bench.make_report("x", {}, {"m": {"value": 1.0, "unit": "s"}})
        report["metrics"]["m"]["unit"] = "furlongs"
        with pytest.raises(ValueError):
            bench.validate_report(report)

    def test_validate_rejects_wrong_schema_version(self, tmp_path):
        report = bench.make_report("x", {}, {"m": {"value": 1.0, "unit": "s"}})
        report["schema_version"] = 999
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(report))
        with pytest.raises(ValueError):
            bench.load_bench(path)
