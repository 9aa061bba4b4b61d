"""The ``traffic`` topic: a real protocol round over real sockets.

One SecAgg round over the framed-TCP transport at a modest dimension,
recording the *measured* per-stage byte split the engine traced (the
Table-3 network-footprint view, as bytes on an actual socket rather
than a formula).  End-to-end round wall time is the perf benchmark's
job (``benchmarks/perf``, ``wide_model/round_wall_s``).
"""

from __future__ import annotations

import re
import time
from typing import Any

import numpy as np

from repro.bench.schema import make_report, metric
from repro.utils.rng import derive_rng

TRAFFIC_TOPIC = "traffic"


def _slug(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", label.lower()).strip("_")


def _run_measured_round(
    clients: int, dimension: int, bits: int, seed: int
) -> dict[str, Any]:
    """One SecAgg round over framed TCP; returns raw measurements."""
    from repro.engine import RoundEngine, SocketTransport
    from repro.engine.core import run_sync
    from repro.secagg.driver import DropoutSchedule, arun_secagg_round
    from repro.secagg.types import SecAggConfig

    n = max(3, clients)
    config = SecAggConfig(
        threshold=max(2, n // 2 + 1),
        bits=bits,
        dimension=dimension,
        dh_group="modp512",
    )
    rng = derive_rng("bench-round", seed)
    inputs = {
        u: rng.integers(0, config.modulus, size=dimension)
        for u in range(1, n + 1)
    }
    transport = SocketTransport()
    engine = RoundEngine(transport=transport)
    schedule = DropoutSchedule.before_upload(set())

    start = time.perf_counter()
    result = run_sync(
        arun_secagg_round(config, dict(inputs), schedule, engine=engine)
    )
    wall_s = time.perf_counter() - start

    expected = np.zeros(dimension, dtype=np.int64)
    for u in result.u3:
        expected = (expected + inputs[u]) % config.modulus
    stats = transport.closed_connection_stats
    split = engine.trace.round_traffic_split(0)
    return {
        "clients": n,
        "wall_s": wall_s,
        "ok": bool(np.array_equal(result.aggregate, expected)),
        "down_bytes": split.down,
        "up_bytes": split.up,
        "total_bytes": engine.trace.round_traffic_bytes(0),
        "handshake_bytes": sum(
            s.handshake_sent + s.handshake_received for s in stats
        ),
        "connections": len(stats),
        "stages": {
            label: s
            for label, s in engine.trace.stage_traffic_split(0).items()
            if s.total
        },
    }


def run_traffic(
    *, clients: int = 4, dimension: int = 1024, bits: int = 20, seed: int = 0
) -> dict[str, Any]:
    """Measured per-stage traffic of one framed-TCP SecAgg round."""
    m = _run_measured_round(clients, dimension, bits, seed)
    metrics: dict[str, Any] = {
        "round_wall_s": metric(m["wall_s"], "s"),
        "total_down_bytes": metric(m["down_bytes"], "bytes"),
        "total_up_bytes": metric(m["up_bytes"], "bytes"),
        "total_bytes": metric(m["total_bytes"], "bytes"),
        "handshake_bytes": metric(m["handshake_bytes"], "bytes"),
        "connections": metric(m["connections"], "count"),
        "aggregate_ok": metric(1 if m["ok"] else 0, "flag"),
    }
    for label, split in m["stages"].items():
        slug = _slug(label)
        metrics[f"stage_{slug}_down_bytes"] = metric(split.down, "bytes")
        metrics[f"stage_{slug}_up_bytes"] = metric(split.up, "bytes")
    config = {
        "clients": m["clients"],
        "dimension": dimension,
        "bits": bits,
        "seed": seed,
        "transport": "sockets",
    }
    return make_report(TRAFFIC_TOPIC, config, metrics)
