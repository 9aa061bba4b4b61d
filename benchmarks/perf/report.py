"""Print the benchmark's result files as tables: ``report.py DIR``.

Per workload: the end-to-end metrics of the untraced pass, then the
layer table of the traced pass — self time per layer, sorted, with
shares that sum to 100 % of the traced round and ``engine.self`` (what
no layer claims: event loop, arbiter, listener, socket I/O) last — and
the split of the single-host total into client Σ, coordinator and the
rest.
"""

from __future__ import annotations

import sys
from pathlib import Path

import perf_results
from perf_trace import ENGINE_SPAN

#: Rows of the layer table must add up to the traced round this closely.
TABLE_TOLERANCE = 0.01


def load_results(out_dir: Path) -> list[dict]:
    return [perf_results.load_result(p) for p in sorted(Path(out_dir).glob("*.json"))]


def _by_pass(results: list[dict], trace: int) -> dict[str, dict]:
    return {r["workload"]: r for r in results if r["trace"] == trace}


def cross_checks(results: list[dict]) -> list[str]:
    """Properties no single workload process can check on its own."""
    problems = []
    untraced = _by_pass(results, 0)
    plain = untraced.get("dordis_round")
    chunked = untraced.get("dordis_round_chunked")
    if plain and chunked:
        a = plain["detail"]["epsilon_history"]
        b = chunked["detail"]["epsilon_history"]
        shared = min(len(a), len(b))
        if a[:shared] != b[:shared]:
            problems.append(
                "epsilon trajectories of dordis_round and dordis_round_chunked differ"
            )
    for name, result in _by_pass(results, 1).items():
        total = sum(result["layer_table"].values())
        wall = result["traced_round_wall_s"]
        if abs(total - wall) > TABLE_TOLERANCE * wall:
            problems.append(
                f"{name}: layer table sums to {total:.6f} s, traced round is {wall:.6f} s"
            )
        if result["unresolved"]:
            problems.append(f"{name}: unresolved wraps {result['unresolved']}")
    return problems


def _value(result: dict, metric: str) -> float:
    return result["metrics"][metric]["value"]


def _render_end_to_end(result: dict) -> list[str]:
    stats = result["round_wall_s_stats"]
    lines = [
        f"end to end (tracing off): {result['attempted']} timed rounds, "
        f"{result['failed']} failed"
    ]
    for name, entry in result["metrics"].items():
        lines.append(f"  {name:<28} {entry['value']:>16.6g} {entry['unit']}")
    lines.append(
        f"  round_wall_s over n={stats['n']}: min {stats['min']:.4f}  "
        f"q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  max {stats['max']:.4f}"
    )
    return lines


def _render_layer_table(result: dict) -> list[str]:
    table = result["layer_table"]
    wall = sum(table.values())
    traced = sum(1 for r in result["rounds"] if r["traced"] and r["wall_s"] is not None)
    lines = [
        f"layer table (self time per traced round, {traced} traced rounds, "
        f"tracing overhead x{_value(result, 'trace.overhead_ratio'):.3f}):"
    ]
    rows = sorted(
        (item for item in table.items() if item[0] != ENGINE_SPAN and item[1] > 0),
        key=lambda item: -item[1],
    )
    for span, seconds in rows + [(ENGINE_SPAN, table[ENGINE_SPAN])]:
        lines.append(f"  {span:<36} {seconds:>10.5f} s {100 * seconds / wall:>6.1f} %")
    lines.append(f"  {'total = traced round':<36} {wall:>10.5f} s {100.0:>6.1f} %")
    clients = _value(result, "api.client_handle_s")
    coordinator = _value(result, "secagg.server.total_s")
    rest = wall - clients - coordinator
    lines.append(
        f"  clients Σ {clients:.4f} s ({100 * clients / wall:.0f} %, "
        f"{_value(result, 'api.client_handle_per_client_s'):.4f} s per client) | "
        f"coordinator {coordinator:.4f} s ({100 * coordinator / wall:.0f} %) | "
        f"engine, wire, session {rest:.4f} s ({100 * rest / wall:.0f} %)"
    )
    return lines


def render(results: list[dict]) -> str:
    lines: list[str] = []
    names = list(dict.fromkeys(r["workload"] for r in results))
    for name in names:
        passes = {r["trace"]: r for r in results if r["workload"] == name}
        any_pass = next(iter(passes.values()))
        prov = any_pass["provenance"]
        sha = (prov["git_sha"] or "no-git")[:10] + ("+dirty" if prov["git_dirty"] else "")
        lines.append("")
        lines.append(
            f"== {name} == scale {any_pass['scale']}, seed {any_pass['seed']}, "
            f"{prov['prg_backend']}, nproc {prov['nproc']}, {sha}"
        )
        lines.append(f"   {any_pass['params']}")
        if 0 in passes:
            lines.extend(_render_end_to_end(passes[0]))
        if 1 in passes:
            lines.extend(_render_layer_table(passes[1]))
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    results = load_results(Path(argv[0]))
    if not results:
        print(f"no result files in {argv[0]}", file=sys.stderr)
        return 2
    print(render(results))
    problems = cross_checks(results)
    for problem in problems:
        print(f"CROSS-CHECK FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
