"""Tier-1 smoke of the micro topics (``benchmarks/micro/run.py``).

Each topic runs at a tiny shape and its report is checked against the
contract the scheduled benchmark job relies on: schema-valid, every
row present, and the runs' own checks passing — the listener answers
every exchange with both ends' byte counts equal, and the unmask plane
is bit-identical to its oracle.  Every row of ``hotpath`` that times
protocol code names it, and each name must resolve, through the module
a round imports it from, to the very object the row timed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import fleet as fleet_topic
import hotpath
import listener
import pytest
import unmask
from bench_schema import SCHEMA_VERSION, make_report, metric, validate_report, write_bench

pytestmark = pytest.mark.timeout(120)

_RUN = Path(__file__).resolve().parent / "run.py"
_spec = importlib.util.spec_from_file_location("micro_run", _RUN)
micro_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(micro_run)


@pytest.fixture(scope="module")
def hotpath_report():
    return hotpath.run_hotpath([32, 64], clients=4, repeats=1)


@pytest.fixture(scope="module")
def listener_report():
    return listener.run_listener(connections=20)


@pytest.fixture(scope="module")
def fleet_report():
    return fleet_topic.run_fleet(devices=2000, cohort=8, rounds=6, repeats=1)


@pytest.fixture(scope="module")
def unmask_report():
    return unmask.run_unmask(dim=256, clients=8, dropout=0.25, workers_list=(1, 2), repeats=1)


class TestRun:
    def test_every_topic_has_its_runner(self):
        for topic in micro_run.TOPICS:
            module = importlib.import_module(topic)
            assert module.TOPIC == topic
            assert callable(getattr(module, f"run_{topic}"))
        assert set(micro_run.DEFAULT_TOPICS) < set(micro_run.TOPICS)

    def test_unknown_topic_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            micro_run.main(["--out", str(tmp_path), "traffic"])
        assert excinfo.value.code == 2
        assert "traffic" in capsys.readouterr().err

    @pytest.mark.parametrize("topic", micro_run.TOPICS)
    def test_reports_are_schema_valid(self, tmp_path, request, topic):
        report = request.getfixturevalue(f"{topic}_report")
        assert report["topic"] == topic
        validate_report(report)
        path = write_bench(report, tmp_path / "out")
        assert path.name == f"BENCH_{topic}.json"
        assert path.is_file()


def _fake_runs(monkeypatch, **flags):
    """Replace every topic's runner with one that returns a tiny report:
    a speedup row, and the topic's check flag at ``flags[topic]`` (1 when
    not given)."""
    modules = {"hotpath": hotpath, "listener": listener, "fleet": fleet_topic, "unmask": unmask}
    for topic, module in modules.items():
        metrics = {f"{topic}_speedup": metric(2.0, "x")}
        if topic in micro_run.CHECKS:
            metrics[micro_run.CHECKS[topic]] = metric(flags.get(topic, 1), "flag")
        report = make_report(topic, {}, metrics)
        monkeypatch.setattr(module, f"run_{topic}", lambda report=report: report)


class TestMain:
    """``run.py``'s own contract, over runners that return at once."""

    def test_no_topic_runs_the_default_three(self, tmp_path, monkeypatch):
        _fake_runs(monkeypatch)
        assert micro_run.main(["--out", str(tmp_path)]) == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == sorted(f"BENCH_{t}.json" for t in micro_run.DEFAULT_TOPICS)

    def test_named_topics_alone_are_written(self, tmp_path, monkeypatch):
        _fake_runs(monkeypatch)
        assert micro_run.main(["--out", str(tmp_path), "unmask", "fleet"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "BENCH_fleet.json",
            "BENCH_unmask.json",
        ]

    @pytest.mark.parametrize("topic", sorted(micro_run.CHECKS))
    def test_a_failed_check_exits_1(self, tmp_path, monkeypatch, capsys, topic):
        _fake_runs(monkeypatch, **{topic: 0})
        assert micro_run.main(["--out", str(tmp_path), topic]) == 1
        assert f"{topic}: {micro_run.CHECKS[topic]} is 0" in capsys.readouterr().err
        # The report is still written, for the job's artifact.
        assert (tmp_path / f"BENCH_{topic}.json").is_file()

    def test_speedup_rows_are_printed(self, tmp_path, monkeypatch, capsys):
        _fake_runs(monkeypatch)
        assert micro_run.main(["--out", str(tmp_path), "hotpath"]) == 0
        assert "hotpath: hotpath_speedup 2.00x" in capsys.readouterr().out


class TestHotpath:
    def test_records_speedup_pairs(self, hotpath_report):
        report = hotpath_report
        assert report["config"]["native_backend"]
        assert report["config"]["stream_lanes"] in (0, 8, 16)
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
            "mask_accumulate_d64",
        ):
            assert f"{name}_reference_s" in m
            assert f"{name}_fast_s" in m
        # The codec rows are the fast path alone: encode, decode, bytes —
        # the masked upload and the control plane at many_clients' shape.
        for name in (
            "d64",
            "share_keys_request_n32",
            "share_payload",
            "share_payload_x6",
            "unmasking_b29_s3",
        ):
            assert m[f"codec_encode_{name}_s"]["value"] > 0
            assert m[f"codec_decode_{name}_s"]["value"] > 0
            assert m[f"codec_encoded_{name}_bytes"]["value"] > 0
        assert not any(k.startswith("codec_") and "reference" in k for k in m)
        # The fixed layout: route, five s^SK chunks and three b chunks,
        # then six g:k extras of three 16-byte chunks each.
        assert m["codec_encoded_share_payload_bytes"]["value"] == 16 + 8 * 16
        assert m["codec_encoded_share_payload_x6_bytes"]["value"] == 16 + 26 * 16
        # The ciphertext path a round runs, under one AE keyed per peer.
        assert m["ae_key_s"]["value"] > 0
        for name in ("share_payload", "share_payload_x6"):
            for row in ("ae_encrypt", "ae_decrypt", "ciphertext_seal", "ciphertext_open"):
                assert m[f"{row}_{name}_s"]["value"] > 0


def _resolve(dotted: str):
    """The object ``dotted`` names: the longest importable module prefix,
    then attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def _function(obj):
    """A bound classmethod's function; anything else as it is."""
    return getattr(obj, "__func__", obj)


class TestHotpathTimesTheRound:
    def test_every_fast_row_names_what_it_times(self, hotpath_report):
        timed = hotpath_report["config"]["timed"]
        metrics = hotpath_report["metrics"]
        fast_rows = {name for name in metrics if name.endswith("_fast_s")}
        assert fast_rows <= set(timed)
        assert set(timed) <= set(metrics)
        codec_rows = {n for n in metrics if n.startswith("codec_") and n.endswith("_s")}
        assert codec_rows <= set(timed)

    def test_each_name_resolves_to_the_timed_object(self, hotpath_report):
        paths = {p for row in hotpath_report["config"]["timed"].values() for p in row}
        assert paths == set(hotpath.ROUND_PATHS)
        for path in sorted(paths):
            assert _function(_resolve(path)) is _function(hotpath.ROUND_PATHS[path]), path

    def test_an_unknown_path_is_refused(self):
        with pytest.raises(KeyError):
            hotpath._times({}, "row_s", "repro.crypto.prg.expand_uniform_numpy")


class TestListener:
    def test_report_sustains_the_cohort(self, listener_report):
        m = listener_report["metrics"]
        assert listener_report["config"]["connections"] == 20
        assert m["connections"]["value"] == 20
        assert m["accept_rate_per_s"]["unit"] == "per_s"
        assert m["accounting_balanced"]["value"] == 1
        assert m["all_answered_ok"]["value"] == 1
        assert m["total_bytes"]["value"] > m["handshake_bytes"]["value"] > 0

    @pytest.mark.parametrize("kwargs", [dict(connections=0), dict(rounds=0)])
    def test_non_positive_shape_is_refused(self, kwargs):
        with pytest.raises(ValueError):
            listener.run_listener(**kwargs)


class TestFleet:
    def test_report_scales_and_bounds_memory(self, fleet_report):
        m = fleet_report["metrics"]
        assert fleet_report["config"]["devices"] == 2000
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


class TestUnmask:
    def test_not_in_default_topics(self):
        assert "unmask" in micro_run.TOPICS
        assert "unmask" not in micro_run.DEFAULT_TOPICS

    def test_report_config(self, unmask_report):
        assert unmask_report["topic"] == "unmask"
        assert unmask_report["config"]["dim"] == 256
        assert unmask_report["config"]["prg_backend"]
        assert unmask_report["config"]["stream_lanes"] in (0, 8, 16)

    def test_fast_plane_is_bit_identical(self, unmask_report):
        m = unmask_report["metrics"]
        assert m["parity_bit_identical"]["value"] == 1
        assert m["unmask_reference_s"]["value"] > 0
        for w in (1, 2):
            assert m[f"unmask_fast_w{w}_s"]["value"] > 0
            assert m[f"unmask_speedup_w{w}"]["unit"] == "x"


class TestSchema:
    def test_validate_rejects_missing_metrics(self):
        with pytest.raises(ValueError):
            validate_report(
                {
                    "schema_version": SCHEMA_VERSION,
                    "topic": "x",
                    "created_unix": 0,
                    "config": {},
                    "metrics": {},
                }
            )

    def test_validate_rejects_unknown_unit(self):
        report = make_report("x", {}, {"m": {"value": 1.0, "unit": "s"}})
        report["metrics"]["m"]["unit"] = "furlongs"
        with pytest.raises(ValueError):
            validate_report(report)

    def test_validate_rejects_wrong_schema_version(self):
        report = make_report("x", {}, {"m": {"value": 1.0, "unit": "s"}})
        report["schema_version"] = 999
        with pytest.raises(ValueError):
            validate_report(report)
