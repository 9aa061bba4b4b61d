"""The ``unmask`` topic: the coordinator's unmask plane against its oracle.

Fabricates one round's worth of post-Unmasking coordinator state
(committed shape d = 2^20, 32 clients, 10% dropout) — real DH
keypairs, real Shamir shares of every survivor's self-mask seed and
every dropped client's mask key, random masked inputs admitted through
the coordinator's own door (packed, as they arrive) — then times the
serial oracle ``collect_unmask_reference`` of ``tests/oracles/secagg.py``
(one PRG expansion and one full reduction per term, one Lagrange
computation per reconstruction) against the deferred-reduction plane
:meth:`SecAggServer.collect_unmask` at each requested ``workers``
setting.  Every timed run must produce the bit-identical aggregate; the
report carries that check as a metric.

Admission — the arrival fold — happens while the state is built and is
not in either timing; the ``hotpath`` topic times it on its own
(``unpack_add``).  The oracle is told the vectors the clients sent,
which the coordinator itself no longer holds.

Fabricating state directly is what makes the target shape reachable: a
full protocol round at d = 2^20 would spend ~20 minutes in client-side
masking to set up a measurement the coordinator finishes in seconds.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Any, Optional, Sequence

import numpy as np

from bench_schema import make_report, metric
from repro import native
from repro.crypto.dh import KeyAgreement, resolve_group
from repro.crypto.shamir import ShamirSecretSharing
from repro.secagg.server import SecAggServer
from repro.secagg.types import (
    AdvertiseKeysMsg,
    MaskedInputMsg,
    SecAggConfig,
    UnmaskingMsg,
)
from repro.utils.rng import derive_rng
from tests.oracles.secagg import collect_unmask_reference

TOPIC = "unmask"

#: The committed shape: dimension, cohort, dropout fraction (in
#: [0, 0.5)), the ``workers`` settings timed, best-of repeats.  The
#: oracle alone takes about two minutes a repeat at it.
DIM = 1 << 20
CLIENTS = 32
DROPOUT = 0.1
WORKERS = (1, 2)
REPEATS = 3


def _fabricate_state(
    dim: int, clients: int, dropout: float, bits: int, seed: int
) -> dict[str, Any]:
    """One round's coordinator state, ready for the unmask stage."""
    rng = derive_rng("bench-unmask", seed)
    ids = list(range(1, clients + 1))
    threshold = clients // 2 + 1
    n_dropped = int(round(dropout * clients))
    dropped = sorted(
        int(u) for u in rng.choice(ids, size=n_dropped, replace=False)
    )
    survivors = [u for u in ids if u not in dropped]

    config = SecAggConfig(
        threshold=threshold, bits=bits, dimension=dim, dh_group="modp512"
    )
    ka = KeyAgreement(resolve_group(config.dh_group))
    pairs = {u: ka.generate() for u in ids}
    modulus = config.modulus

    masked = {
        u: rng.integers(0, modulus, size=dim, dtype=np.int64)
        for u in survivors
    }
    uploads = {u: MaskedInputMsg.from_vector(u, masked[u], bits) for u in survivors}

    # Every client shares both secrets across the whole cohort (complete
    # graph); responders reveal b_u for survivors, s^SK_u for dropped.
    ss = ShamirSecretSharing(threshold)
    b_shares = {u: ss.share([rng.bytes(32)], ids)[0] for u in survivors}
    sk_shares = {
        u: ss.share([pairs[u].secret.to_bytes(ka.group.secret_bytes, "big")], ids)[0]
        for u in dropped
    }
    messages = {
        v: UnmaskingMsg(
            sender=v,
            s_sk_shares={u: sk_shares[u][v] for u in dropped},
            b_shares={u: b_shares[u][v] for u in survivors},
        )
        for v in survivors
    }

    # c_public is never touched during unmasking (any valid key does);
    # s_public must be the real DH public so the coordinator's agreement
    # reproduces each dropped client's pairwise seeds.
    roster = {
        u: AdvertiseKeysMsg(
            sender=u,
            c_public=ka.public_bytes(pairs[u]),
            s_public=ka.public_bytes(pairs[u]),
        )
        for u in ids
    }

    return {
        "config": config,
        "ids": ids,
        "survivors": survivors,
        "dropped": dropped,
        "roster": roster,
        "masked": masked,
        "uploads": uploads,
        "messages": messages,
    }


def _make_server(state: dict[str, Any], workers: Optional[int]) -> SecAggServer:
    """A fresh coordinator holding the fabricated round state.

    Fresh per timed run, so each run starts with a cold Lagrange cache —
    the timings include the full per-round setup cost, not a warmed one.
    """
    cfg = state["config"]
    config = SecAggConfig(
        threshold=cfg.threshold,
        bits=cfg.bits,
        dimension=cfg.dimension,
        dh_group=cfg.dh_group,
        workers=workers,
    )
    server = SecAggServer(config)
    server.collect_advertise(state["roster"])
    server.u2 = list(state["ids"])
    for u, upload in state["uploads"].items():
        server.admit_masked(u, upload)
    server.collect_masked()
    return server


def run_unmask(
    *,
    dim: int = DIM,
    clients: int = CLIENTS,
    dropout: float = DROPOUT,
    workers_list: Sequence[int] = WORKERS,
    repeats: int = REPEATS,
    bits: int = 20,
    seed: int = 0,
) -> dict[str, Any]:
    """Benchmark the unmask plane; returns a schema report."""
    state = _fabricate_state(dim, clients, dropout, bits, seed)
    survivors = state["survivors"]
    dropped = state["dropped"]
    # Complete graph: every dropped client pairs with every survivor.
    n_masks = len(survivors) * (1 + len(dropped))

    metrics: dict[str, Any] = {}
    results: list[np.ndarray] = []

    best = float("inf")
    for _ in range(max(1, repeats)):
        server = _make_server(state, workers=1)
        start = time.perf_counter()
        out = collect_unmask_reference(server, state["messages"], state["masked"])
        best = min(best, time.perf_counter() - start)
        results.append(out)
    ref_s = best
    metrics["unmask_reference_s"] = metric(ref_s, "s")

    for workers in workers_list:
        best = float("inf")
        for _ in range(max(1, repeats)):
            server = _make_server(state, workers=workers)
            start = time.perf_counter()
            out = server.collect_unmask(state["messages"])
            best = min(best, time.perf_counter() - start)
            results.append(out)
        metrics[f"unmask_fast_w{workers}_s"] = metric(best, "s")
        if best > 0:
            metrics[f"unmask_speedup_w{workers}"] = metric(ref_s / best, "x")

    identical = all(np.array_equal(results[0], r) for r in results[1:])
    metrics["parity_bit_identical"] = metric(int(identical), "flag")
    metrics["masks_expanded"] = metric(n_masks, "count")
    metrics["reconstructions"] = metric(len(survivors) + len(dropped), "count")

    config = {
        "dim": dim,
        "clients": clients,
        "dropout": dropout,
        "dropped": len(dropped),
        "survivors": len(survivors),
        "threshold": state["config"].threshold,
        "workers_list": list(workers_list),
        "repeats": repeats,
        "bits": bits,
        "seed": seed,
        "prg_backend": native.backend_name(),
        "stream_lanes": native.stream_lanes(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    return make_report(TOPIC, config, metrics)
