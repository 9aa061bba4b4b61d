"""Tier-1 contract of the perf benchmark (``benchmarks/perf``).

One ``--scale smoke`` run of all five workloads (toy shapes, two timed
rounds, both passes) feeds most of these tests: what the benchmark
promises in ``BENCHMARK.json`` is what it emits, every round is
verified, the layer table adds up, every wrap still resolves — and the
checks themselves can fail (a wrong expected sum is a failed round, a
round slower by twice the bound is a regression).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import perf_results
import perf_trace
import perf_workloads
import report

PERF_DIR = Path(__file__).resolve().parent
RUN = [sys.executable, str(PERF_DIR / "run.py")]
CONTRACT = perf_results.load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
SECAGG_WORKLOADS = ["wide_model", "many_clients", "dropout_recovery"]

pytestmark = pytest.mark.timeout(180)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """All workloads, both passes, at smoke scale: (stdout, results by pass)."""
    out = tmp_path_factory.mktemp("perf_smoke")
    done = subprocess.run(
        RUN + ["--scale", "smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    results = report.load_results(out)
    by_pass = {
        trace: {r["workload"]: r for r in results if r["trace"] == trace}
        for trace in (0, 1)
    }
    return done.stdout, by_pass, out


def test_contract_file_is_consistent():
    end_to_end = {m["name"]: m for m in CONTRACT["end_to_end"]}
    per_layer = [m["name"] for m in CONTRACT["per_layer"]]
    assert CONTRACT["paths"] == ["benchmarks/perf"]
    assert sorted(WORKLOADS) == sorted(perf_workloads.FULL) == sorted(perf_workloads.SMOKE)
    assert end_to_end["setup_s"]["unit"] == "s"
    assert all(0 < m["bound"] <= 0.25 for m in end_to_end.values())
    assert end_to_end["setup_s"]["bound"] == max(m["bound"] for m in end_to_end.values())
    assert len(per_layer) == len(set(per_layer)) and not set(per_layer) & set(end_to_end)
    # Every row of the layer table is a declared per-layer metric.
    assert {span + "_s" for span in perf_trace.TABLE_SPANS} <= set(per_layer)


def test_every_declared_metric_is_emitted_with_its_unit(smoke):
    stdout, by_pass, _ = smoke
    for trace, declared in ((0, CONTRACT["end_to_end"]), (1, CONTRACT["per_layer"])):
        assert sorted(by_pass[trace]) == sorted(WORKLOADS)
        for name, result in by_pass[trace].items():
            assert {m: e["unit"] for m, e in result["metrics"].items()} == {
                m["name"]: m["unit"] for m in declared
            }, name
    for workload in WORKLOADS:
        for metric, entry in by_pass[0][workload]["metrics"].items():
            assert entry["value"] > 0, (workload, metric)
            assert metric in stdout and entry["unit"] in stdout


def test_every_round_is_verified_and_stamped(smoke):
    _, by_pass, _ = smoke
    for results in by_pass.values():
        for name, result in results.items():
            assert result["correct"] and result["failed"] == 0, name
            assert result["attempted"] == perf_workloads.SMOKE_ROUNDS
            assert result[perf_results.FAILED_ROUND_SHARE] == 0
            assert all(r["error"] is None and r["elements"] > 0 for r in result["rounds"])
            assert result["params"] == dataclasses.asdict(perf_workloads.SMOKE[name])
            stamp = result["provenance"]
            assert {"git_sha", "git_dirty", "nproc", "cpu_model", "python", "numpy",
                    "scipy", "prg_backend"} <= set(stamp)
            assert stamp["prg_backend"] in {"python", "c-scalar", "c-sha-ni"}
    assert not report.cross_checks(
        [r for results in by_pass.values() for r in results.values()]
    )


def test_layer_table_sums_to_the_traced_round(smoke):
    _, by_pass, out = smoke
    for name, result in by_pass[1].items():
        assert result["unresolved"] == [], name
        assert result["metrics"]["trace.unresolved"]["value"] == 0
        total = sum(result["layer_table"].values())
        assert total == pytest.approx(result["traced_round_wall_s"], rel=0.01), name
        spans = [json.loads(line) for line in open(out / f"{name}.spans.jsonl")]
        assert spans and {"id", "name", "start", "end", "parent", "round"} <= set(spans[0])
        assert any(s["parent"] is not None for s in spans)


def test_layers_fire_where_they_should_and_nowhere_else(smoke):
    _, by_pass, _ = smoke

    def value(workload, metric):
        return by_pass[1][workload]["metrics"][metric]["value"]

    for workload in WORKLOADS:
        # Captured by the codec registry at first use: proves the wraps
        # went in before the program resolved its codecs.
        assert value(workload, "secagg.codec.encode_masked_input_s") > 0
        assert value(workload, "crypto.dh.agree_calls") > 0
        assert value(workload, "wire.encoded_bytes") == (
            value(workload, "engine.down_bytes") + value(workload, "engine.up_bytes")
        )
    # A declared metric that reads 0 on every workload is a misspelt one.
    for metric in (m["name"] for m in CONTRACT["per_layer"]):
        if metric != "trace.unresolved":
            assert any(value(w, metric) != 0 for w in WORKLOADS), metric
    for workload in SECAGG_WORKLOADS:
        assert value(workload, "xnoise.noise_from_seed_calls") == 0
        assert value(workload, "fl.local_train_calls") == 0
        assert value(workload, "engine.rounds") == 1
    assert value("wide_model", "crypto.shamir.reconstruct_secrets") == 4
    assert value("dropout_recovery", "crypto.shamir.reconstruct_secrets") == 6
    for workload in ("dordis_round", "dordis_round_chunked"):
        assert value(workload, "xnoise.noise_from_seed_calls") > 0
        assert value(workload, "fl.local_train_calls") == 6
        assert value(workload, "fleet.build_s") > 0
    assert value("dordis_round", "engine.rounds") == 1
    assert value("dordis_round_chunked", "engine.rounds") == 4
    ratio = value("dordis_round_chunked", "crypto.dh.agree_calls") / value(
        "dordis_round", "crypto.dh.agree_calls"
    )
    assert 3.5 <= ratio <= 4.5


def test_wrong_expected_sum_is_a_failed_round():
    class SecondRoundExpectsWrongSum(perf_workloads.SecAggWorkload):
        def expected_sum(self, u3):
            return super().expected_sum(u3) + (1 if self.rounds else 0)

    workload = SecondRoundExpectsWrongSum(perf_workloads.SMOKE["wide_model"], seed=0)
    workload.execute(perf_workloads.Budget(rounds=2))
    first, second = workload.rounds
    assert first.error is None and first.wall_s > 0
    assert second.wall_s is None and "VerificationError" in second.error
    assert workload.failed == 1


def _copy_with(results, out, edit):
    out.mkdir()
    for result in results.values():
        result = json.loads(json.dumps(result))
        edit(result)
        perf_results.write_result(out, result)
    return out


def test_compare_verdicts(smoke, tmp_path, capsys):
    _, by_pass, out = smoke

    bound = next(m["bound"] for m in CONTRACT["end_to_end"] if m["name"] == "round_wall_s")

    def slower(result):
        result["metrics"]["round_wall_s"]["value"] *= 1 + 2 * bound

    def other_host(result):
        result["provenance"]["nproc"] += 1

    def failing(result):
        result[perf_results.FAILED_ROUND_SHARE] = 0.5

    assert compare.main(["--base", str(out), "--new", str(out)]) == 0
    table = capsys.readouterr().out
    assert "unchanged" in table and "regressed" not in table

    new = _copy_with(by_pass[0], tmp_path / "slower", slower)
    assert compare.main(["--base", str(out), "--new", str(new)]) == 1
    rows = [line for line in capsys.readouterr().out.splitlines() if "regressed" in line]
    assert len(rows) == len(WORKLOADS) and all("round_wall_s" in row for row in rows)

    new = _copy_with(by_pass[0], tmp_path / "failing", failing)
    assert compare.main(["--base", str(out), "--new", str(new)]) == 1
    new = _copy_with(by_pass[0], tmp_path / "other_host", other_host)
    assert compare.main(["--base", str(out), "--new", str(new)]) == 2
    assert "nproc differs" in capsys.readouterr().err

    # Noisy, overlapping sides cannot tell; disjoint ones can.
    assert compare.verdict([1.0, 1.4, 0.8], [1.1, 0.9, 1.5], "lower", 0.1)[0] == "unresolved"
    assert compare.verdict([1.0, 1.4, 0.8], [2.0, 2.4, 1.8], "lower", 0.1)[0] == "regressed"
    assert compare.verdict([1.0, 1.01], [0.8, 0.81], "lower", 0.1)[0] == "improved"
    assert compare.verdict([100.0], [95.0], "higher", 0.1)[0] == "unchanged"


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run must not succeed."""
    shutil.copy(perf_results.REPO_ROOT / "BENCHMARK.json", tmp_path)
    bare = tmp_path / "benchmarks" / "perf"
    bare.mkdir(parents=True)
    for source in PERF_DIR.glob("*.py"):
        shutil.copy(source, bare)
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "wide_model",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
