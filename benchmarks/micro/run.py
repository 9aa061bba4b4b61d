"""Micro-benchmarks of the protocol's hot paths, one ``BENCH_<topic>.json`` each.

``python benchmarks/micro/run.py [--out DIR] [TOPIC ...]``

Topics: ``hotpath`` (every fast path against its specification),
``listener`` (1,000 dialers on one coordinator port), ``fleet`` (a
1M-device population's construction, cohort queries and churn
scenarios) and ``unmask`` (the coordinator's unmask plane against its
serial oracle — minutes at its shape, so it runs only when named).
With no topic named the first three run.  Each runs at its committed
shape, the module constants of its file; ``test_micro.py`` calls each
at tiny shapes.  Exits 1 when a run's own check fails: a listener
exchange unanswered, or the unmask plane not bit-identical to its
oracle.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

MICRO_DIR = Path(__file__).resolve().parent
REPO_ROOT = MICRO_DIR.parents[1]

TOPICS = ("hotpath", "listener", "fleet", "unmask")
DEFAULT_TOPICS = ("hotpath", "listener", "fleet")

#: Per topic, the flag metric a run must set to pass.
CHECKS = {"listener": "all_answered_ok", "unmask": "parity_bit_identical"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=".", help="directory for BENCH_<topic>.json")
    parser.add_argument("topics", nargs="*", metavar="TOPIC",
                        help=f"any of {', '.join(TOPICS)} (default: "
                             f"{' '.join(DEFAULT_TOPICS)})")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.topics) - set(TOPICS))
    if unknown:
        parser.error(f"unknown topic(s) {', '.join(unknown)}; choose from {', '.join(TOPICS)}")
    # The topics import bench_schema (benchmarks/), their oracles
    # (tests/oracles/) and the package (src/).
    for path in (REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT, MICRO_DIR):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from bench_schema import write_bench

    failed = []
    for topic in args.topics or DEFAULT_TOPICS:
        module = importlib.import_module(topic)
        report = getattr(module, f"run_{topic}")()
        path = write_bench(report, args.out)
        for name, entry in sorted(report["metrics"].items()):
            if name.endswith("_speedup"):
                print(f"{topic}: {name} {entry['value']:.2f}x")
        check = CHECKS.get(topic)
        if check and not report["metrics"][check]["value"]:
            failed.append(f"{topic}: {check} is 0")
        print(f"wrote {path}", flush=True)
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
