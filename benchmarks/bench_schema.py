"""The ``BENCH_<topic>.json`` report schema the micro topics and the census write.

One report per topic, flat so two runs compare metric by metric::

    {
      "schema_version": 1,
      "topic": "hotpath",
      "created_unix": 1723100000,
      "config": {"dims": [16384, ...], "repeats": 3, ...},
      "metrics": {
        "prg_expand_d1048576_fast_s": {"value": 0.153, "unit": "s"},
        ...
      }
    }

Units are plain strings: ``s`` (seconds), ``bytes``, ``x`` (speedup
ratio), ``count``, ``flag`` (0/1), ``per_s`` (events per second).
:func:`validate_report` is the contract every writer goes through.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

SCHEMA_VERSION = 1

#: Units a metric may carry; anything else fails validation.
KNOWN_UNITS = frozenset({"s", "bytes", "x", "count", "flag", "per_s"})


def metric(value: float, unit: str) -> dict[str, Any]:
    """One metric entry: a number and its unit."""
    if unit not in KNOWN_UNITS:
        raise ValueError(f"unknown metric unit {unit!r}")
    return {"value": float(value), "unit": unit}


def make_report(
    topic: str, config: dict[str, Any], metrics: dict[str, dict[str, Any]]
) -> dict[str, Any]:
    """Assemble a schema-valid report for one topic."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "topic": topic,
        "created_unix": int(time.time()),
        "config": config,
        "metrics": metrics,
    }
    validate_report(report)
    return report


def validate_report(report: Any) -> None:
    """Raise ``ValueError`` unless ``report`` matches the schema."""
    if not isinstance(report, dict):
        raise ValueError("report must be a JSON object")
    for key in ("schema_version", "topic", "created_unix", "config", "metrics"):
        if key not in report:
            raise ValueError(f"report missing required key {key!r}")
    if report["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {report['schema_version']!r} != {SCHEMA_VERSION}"
        )
    if not isinstance(report["topic"], str) or not report["topic"]:
        raise ValueError("topic must be a non-empty string")
    if not isinstance(report["created_unix"], (int, float)):
        raise ValueError("created_unix must be a number")
    if not isinstance(report["config"], dict):
        raise ValueError("config must be an object")
    metrics = report["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError("metrics must be a non-empty object")
    for name, entry in metrics.items():
        if not isinstance(entry, dict):
            raise ValueError(f"metric {name!r} must be an object")
        if not isinstance(entry.get("value"), (int, float)):
            raise ValueError(f"metric {name!r} has a non-numeric value")
        if entry.get("unit") not in KNOWN_UNITS:
            raise ValueError(
                f"metric {name!r} has unknown unit {entry.get('unit')!r}"
            )


def write_bench(report: dict[str, Any], out_dir: str | Path = ".") -> Path:
    """Persist one report as ``<out_dir>/BENCH_<topic>.json``; returns
    the path.  Creates ``out_dir`` if needed."""
    validate_report(report)
    path = Path(out_dir) / f"BENCH_{report['topic']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
