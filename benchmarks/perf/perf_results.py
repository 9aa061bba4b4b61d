"""Result files of the perf benchmark: metric contract, statistics, provenance.

``BENCHMARK.json`` at the repository root is the single source of the
metric names, units, directions and regression bounds; nothing here
repeats them.  A *result file* is what one workload process writes under
``--out``: the metrics it printed plus everything needed to decide
whether two files may be compared at all (schema version, workload
parameters, host and PRG backend).
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Any, Iterable

SCHEMA_VERSION = 1

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"

#: Reported in every result file beside the gated metrics.  It cannot be
#: an ``end_to_end`` entry of ``BENCHMARK.json`` (a gated metric must
#: never read 0, and this one must always read 0); ``compare.py`` and
#: the run's exit status enforce it instead.
FAILED_ROUND_SHARE = "failed_round_share"


def load_contract() -> dict[str, Any]:
    """The parsed ``BENCHMARK.json``."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def quartile_stats(values: Iterable[float]) -> dict[str, float]:
    """Count, min, quartiles and max of ``values`` (at least one).

    Quartiles follow ``statistics.quantiles(n=4)`` — the rule the
    benchmark driver applies to its own repeated runs — and collapse to
    the single value when there is only one sample.
    """
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("no samples")
    if len(data) == 1:
        q1 = median = q3 = data[0]
    else:
        q1, median, q3 = statistics.quantiles(data, n=4)
    return {
        "n": len(data),
        "min": data[0],
        "q1": q1,
        "median": median,
        "q3": q3,
        "max": data[-1],
    }


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(prg_backend: str) -> dict[str, Any]:
    """Where a number came from: tree, host, interpreter, PRG backend.

    A checkout that is not a git repository (the benchmark driver's)
    records ``git_sha: null``; everything else is always present.
    """
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "prg_backend": prg_backend,
    }


def write_result(out_dir: Path, result: dict[str, Any]) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{result['workload']}.trace{result['trace']}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def load_result(path: Path) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        result = json.load(handle)
    if not isinstance(result, dict) or "schema" not in result:
        raise ValueError(f"{path}: not a perf result file")
    return result
