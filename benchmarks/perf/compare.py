"""Compare two sets of untraced result files: ``compare.py --base A... --new B...``.

Each side is any mix of result files and directories (searched
recursively for ``*.trace0.json``); several files of one workload on a
side are repeated runs.  One row per (workload, end-to-end metric)
gives each side's median and quartiles, the change, the bound from
``BENCHMARK.json`` and a verdict:

``regressed``   the new median is worse than the base median by more than the bound
``improved``    it is better by more than the bound
``unchanged``   it is within the bound
``unresolved``  the run-to-run spread (the wider side's interquartile
                range over the base median) exceeds the bound *and* the
                two sides' ranges overlap — the runs cannot tell

Results are only compared like with like: the command refuses (exit 2)
when schema version, scale, run length, workload parameters, ``nproc``
or PRG backend differ anywhere.  Exit 1 on any regression or any
``failed_round_share`` above 0, else 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import perf_results
from perf_results import FAILED_ROUND_SHARE, quartile_stats


def collect(paths: list[Path]) -> dict[str, list[dict]]:
    """``{workload: [result, ...]}`` of the untraced results under ``paths``."""
    files: list[Path] = []
    for path in paths:
        files.extend(sorted(path.rglob("*.trace0.json")) if path.is_dir() else [path])
    by_workload: dict[str, list[dict]] = {}
    for file in files:
        result = perf_results.load_result(file)
        if result["trace"] == 0:
            by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def _identity(result: dict) -> dict:
    """Everything two results must share to be comparable."""
    return {
        "schema": result["schema"],
        "scale": result["scale"],
        "seconds": result["seconds"],
        "params": result["params"],
        "nproc": result["provenance"]["nproc"],
        "prg_backend": result["provenance"]["prg_backend"],
    }


def incomparable(base: dict[str, list[dict]], new: dict[str, list[dict]]) -> list[str]:
    problems = []
    if set(base) != set(new):
        problems.append(
            f"workloads differ: base {sorted(base)} vs new {sorted(new)}"
        )
    for workload in sorted(set(base) & set(new)):
        reference = _identity(base[workload][0])
        for side, results in (("base", base[workload]), ("new", new[workload])):
            for result in results:
                for key, value in _identity(result).items():
                    if value != reference[key]:
                        problems.append(
                            f"{workload}: {key} differs ({side} has {value!r}, "
                            f"expected {reference[key]!r})"
                        )
    return problems


def verdict(base: list[float], new: list[float], better: str, bound: float):
    """``(verdict, base stats, new stats, signed change)`` for one metric.

    ``change`` is relative to the base median, positive when the new
    side reads higher.
    """
    b, n = quartile_stats(base), quartile_stats(new)
    scale = abs(b["median"])
    change = (n["median"] - b["median"]) / scale if scale else 0.0
    worse = change if better == "lower" else -change
    spread = max(b["q3"] - b["q1"], n["q3"] - n["q1"]) / scale if scale else 0.0
    overlap = n["min"] <= b["max"] and b["min"] <= n["max"]
    if spread > bound and overlap:
        name = "unresolved"
    elif worse > bound:
        name = "regressed"
    elif worse < -bound:
        name = "improved"
    else:
        name = "unchanged"
    return name, b, n, change


def compare(base: dict[str, list[dict]], new: dict[str, list[dict]], contract: dict):
    """Rows ``(workload, metric, unit, verdict, base, new, change, bound)``."""
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        if workload not in base:
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            values = [
                [r["metrics"][name]["value"] for r in side[workload]]
                for side in (base, new)
            ]
            result, b, n, change = verdict(*values, metric["better"], metric["bound"])
            rows.append(
                (workload, name, metric["unit"], result, b, n, change, metric["bound"])
            )
        b, n = (
            quartile_stats(r[FAILED_ROUND_SHARE] for r in side[workload])
            for side in (base, new)
        )
        result = "regressed" if b["max"] > 0 or n["max"] > 0 else "unchanged"
        rows.append((workload, FAILED_ROUND_SHARE, "ratio", result, b, n, 0.0, 0.0))
    return rows


def render(rows) -> str:
    lines = [
        f"{'workload':<21}{'metric':<25}{'base median [q1, q3] n':<40}"
        f"{'new median [q1, q3] n':<40}{'change':>9}{'bound':>8}  verdict"
    ]
    for workload, metric, unit, result, b, n, change, bound in rows:
        def side(s):
            return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']} {unit}"
        lines.append(
            f"{workload:<21}{metric:<25}{side(b):<40}{side(n):<40}"
            f"{100 * change:>+8.2f}%{100 * bound:>7.0f}%  {result}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    base, new = collect(args.base), collect(args.new)
    if not base or not new:
        print("no untraced result files on one side", file=sys.stderr)
        return 2
    problems = incomparable(base, new)
    if problems:
        print("refusing to compare:", *problems, sep="\n  ", file=sys.stderr)
        return 2
    rows = compare(base, new, perf_results.load_contract())
    print(render(rows))
    return 1 if any(row[3] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
