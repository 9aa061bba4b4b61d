"""Run the perf benchmark: one workload in this process, or all of them.

``python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    is the benchmark driver's contract.  The workload runs in this
    process and the last line of standard output is one JSON object:
    ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
    ``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0``,
    every ``per_layer`` metric with ``--trace 1``.

``python3 benchmarks/perf/run.py [--out DIR]``
    runs every workload, untraced then traced, each in a fresh
    subprocess, prints every metric by name with its unit, writes one
    result file per workload and pass (plus the spans as JSON lines)
    under ``DIR`` and ends with the layer-table report.

Process order for one workload: preload numpy (a third-party import
whose cold-cache time is not the program's) → untimed *prepare* (a child
process builds the native PRG kernel, which is gitignored and would
otherwise charge the C compiler to the first run of a fresh clone) →
start the set-up clock → import the program, load the kernel, build
inputs / engine / session, run one untimed warm-up round → stop the
set-up clock → timed rounds.  ``setup_s`` is the median of this
process's set-up and of two more taken in fresh child processes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import perf_results
from perf_results import FAILED_ROUND_SHARE, REPO_ROOT, SRC_DIR

#: Set-ups per untraced full-scale run (this process's and the rest in
#: child processes); the reported ``setup_s`` is their median.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 900


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC_DIR}{os.pathsep}{extra}" if extra else str(SRC_DIR)
    return env


def _last_json_line(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("child process printed no result")
    return json.loads(lines[-1])


def prepare() -> None:
    """Build the native PRG kernel in a child, before any clock starts."""
    subprocess.run(
        [sys.executable, "-c", "from repro import native; native.load()"],
        cwd=REPO_ROOT, env=_child_env(), check=True, timeout=CHILD_TIMEOUT_S,
    )


def _setup_in_child(args) -> float:
    done = subprocess.run(
        [
            sys.executable, __file__, "--workload", args.workload,
            "--seed", str(args.seed), "--scale", args.scale, "--setup-only",
        ],
        cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return float(_last_json_line(done.stdout)["setup_s"])


def _metric_entries(values: dict, declared: list[dict]) -> dict:
    """``{name: {value, unit}}`` for exactly the declared metrics.

    A per-layer metric nothing produced on this workload (a layer that
    never ran, or a wrap that no longer resolves) reads 0.
    """
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def run_workload(args, contract: dict) -> int:
    if not (SRC_DIR / "repro").is_dir():
        sys.exit(f"the program is missing: no {SRC_DIR / 'repro'}")
    sys.path.insert(0, str(SRC_DIR))
    import numpy  # noqa: F401  (preload: not part of the program's set-up)

    import perf_workloads
    from perf_trace import TABLE_SPANS, Tracer

    smoke = args.scale == "smoke"
    setups: list[float] = []
    if not args.setup_only:
        prepare()
        if not args.trace and not smoke:
            setups = [_setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]

    tracer = Tracer() if args.trace else None
    workload = perf_workloads.make_workload(args.workload, args.scale, args.seed, tracer)
    if args.setup_only:
        budget = perf_workloads.Budget(rounds=0)
    elif smoke:
        budget = perf_workloads.Budget(rounds=perf_workloads.SMOKE_ROUNDS)
    else:
        budget = perf_workloads.Budget(seconds=args.seconds)
    workload.execute(budget)
    if args.setup_only:
        print(json.dumps({"setup_s": workload.setup_s}))
        return 0

    attempted = len(workload.rounds)
    failed = workload.failed
    if attempted == failed:
        errors = [r.error for r in workload.rounds] or [workload.detail]
        sys.exit(f"{args.workload}: no timed round succeeded: {errors}")
    setups.append(workload.setup_s)
    if args.trace:
        values = workload.per_layer()
        declared = contract["per_layer"]
    else:
        values = workload.end_to_end()
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        declared = contract["end_to_end"]
    metrics = _metric_entries(values, declared)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    if args.out is not None:
        good = [r.wall_s for r in workload.rounds if r.wall_s is not None]
        result = dict(summary)
        result.update(
            schema=perf_results.SCHEMA_VERSION,
            workload=args.workload,
            scale=args.scale,
            trace=args.trace,
            seed=args.seed,
            seconds=None if smoke else args.seconds,
            params=dataclasses.asdict(workload.params),
            provenance=perf_results.provenance(workload.prg_backend),
            setup_samples_s=setups,
            round_wall_s_stats=perf_results.quartile_stats(good),
            rounds=[vars(r) for r in workload.rounds],
            detail=workload.detail,
        )
        result[FAILED_ROUND_SHARE] = failed / attempted
        if tracer is not None:
            result["layer_table"] = {
                span: values[span + "_s"] for span in TABLE_SPANS
            }
            result["traced_round_wall_s"] = values["trace.traced_round_wall_s"]
            result["unresolved"] = tracer.unresolved
            tracer.write_jsonl(args.out / f"{args.workload}.spans.jsonl")
        perf_results.write_result(args.out, result)

    print(json.dumps(summary))
    return 0 if failed == 0 else 1


def run_all(args, contract: dict) -> int:
    """Every workload, untraced then traced, each in a fresh subprocess."""
    import report

    out = args.out if args.out is not None else perf_results.PERF_DIR / "out"
    passes = [0, 1] if args.trace is None else [args.trace]
    status = 0
    for workload in (w["name"] for w in contract["workloads"]):
        for trace in passes:
            done = subprocess.run(
                [
                    sys.executable, __file__, "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--scale", args.scale, "--out", str(out),
                ],
                cwd=REPO_ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            if done.returncode != 0:
                status = 1
                print(f"{workload} trace={trace}: FAILED\n{done.stdout}{done.stderr}")
                continue
            summary = _last_json_line(done.stdout)
            print(
                f"{workload} trace={trace}: {summary['attempted']} rounds, "
                f"{summary['failed']} failed"
            )
            for name, entry in summary["metrics"].items():
                print(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']}")
    results = report.load_results(out)
    for problem in report.cross_checks(results):
        status = 1
        print(f"CROSS-CHECK FAILED: {problem}")
    print(report.render(results))
    return status


def main(argv=None) -> int:
    contract = perf_results.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run this workload in-process (default: all, in subprocesses)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="how long the timed rounds measure (full scale)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics, tracing off; 1: per-layer metrics")
    parser.add_argument("--scale", choices=["full", "smoke"], default="full",
                        help="smoke: toy shapes and a fixed two timed rounds")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for result files and span logs")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.out is not None:
        args.out = args.out.resolve()
    if args.workload is None:
        return run_all(args, contract)
    if args.trace is None:
        args.trace = 0
    return run_workload(args, contract)


if __name__ == "__main__":
    sys.exit(main())
