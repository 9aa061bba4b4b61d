"""Benchmark harness behind ``repro.cli bench``.

One entry point runs the hot-path microbenchmarks (every optimized path
timed against its retained ``*_reference`` twin), a measured protocol
round and the listener stress over real sockets, and the million-device
fleet topic (columnar construction, cohort queries, and churn
scenarios), and persists each topic as a machine-readable
``BENCH_<topic>.json`` so successive runs form a diffable performance
trajectory (``repro.cli bench --diff old new``).
"""

from repro.bench.fleet import run_fleet
from repro.bench.hotpath import run_hotpath
from repro.bench.listener import run_listener
from repro.bench.rounds import run_traffic
from repro.bench.unmask import run_unmask
from repro.bench.schema import (
    SCHEMA_VERSION,
    bench_path,
    diff_bench,
    format_diff,
    load_bench,
    make_report,
    validate_report,
    write_bench,
)

__all__ = [
    "SCHEMA_VERSION",
    "bench_path",
    "diff_bench",
    "format_diff",
    "load_bench",
    "make_report",
    "run_fleet",
    "run_hotpath",
    "run_listener",
    "run_traffic",
    "run_unmask",
    "validate_report",
    "write_bench",
]
