"""Run secure-aggregation rounds on the async RoundEngine.

Demonstrates the three execution modes of the unified engine:

1. an in-process round (bit-identical to the legacy synchronous driver),
2. the same round over the simulated-latency transport, where §6.1
   heterogeneous devices gate each comm stage,
3. a chunk-pipelined round: the vector splits into m sub-rounds that
   overlap per the Appendix-C schedule, and the traced completion time
   beats serial execution.

Run:  PYTHONPATH=src python examples/async_round_engine.py
"""

import asyncio

import numpy as np

from repro.engine import (
    DropoutTransport,
    PerOpTiming,
    RoundEngine,
    SimulatedNetworkTransport,
)
from repro.secagg import (
    DropoutSchedule,
    SecAggConfig,
    secagg_stage_of,
)
from repro.fleet import Fleet
from repro.secagg.driver import arun_secagg_round, secagg_round_components


def make_inputs(n=6, dim=64, seed=0):
    rng = np.random.default_rng(seed)
    return {u: rng.integers(0, 1 << 16, size=dim) for u in range(1, n + 1)}


async def main():
    config = SecAggConfig(threshold=4, bits=16, dimension=64, dh_group="modp512")
    inputs = make_inputs()
    dropout = DropoutSchedule.before_upload({3})

    # 1 — in-process round with dropout middleware (live objects move,
    # so no bytes are counted here).
    result = await arun_secagg_round(config, inputs, dropout)
    print(f"in-process: survivors U3 = {result.u3}")

    # 2 — the same round over simulated per-link latency: the slowest
    # sampled device gates every comm-bearing stage.  SecAgg's client
    # ids start at 1, so the fleet is addressed through a +1 view.
    fleet = Fleet.build(len(inputs), seed=1).with_id_offset(1)
    engine = RoundEngine(
        transport=DropoutTransport(
            SimulatedNetworkTransport(fleet.link_seconds),
            dropout,
            secagg_stage_of,
        )
    )
    server, clients = secagg_round_components(config, inputs)
    timed = await engine.run_round(server, clients)
    split = engine.trace.round_traffic_split(0)
    print(f"simulated net: U3 = {timed.u3}, "
          f"round completes at t = {engine.trace.completion_time * 1e3:.2f} ms "
          f"(virtual), traffic = {split.down / 1024:.1f} KiB down + "
          f"{split.up / 1024:.1f} KiB up (framed sizes from the codecs)")

    # 3 — chunk-pipelined execution: m independent sub-rounds overlap
    # per the Appendix-C schedule; serial execution is the baseline.
    times = {
        "advertise_keys": 0.2, "collect_advertise": 0.1,
        "share_keys": 0.4, "route_shares": 0.1,
        "masked_input": 0.6, "collect_masked": 0.3,
        "unmask": 0.4, "collect_unmask": 0.5,
    }

    def chunk_factory(_j, chunk_inputs):
        chunk_dim = next(iter(chunk_inputs.values())).shape[0]
        chunk_config = SecAggConfig(
            threshold=4, bits=16, dimension=chunk_dim, dh_group="modp512"
        )
        return secagg_round_components(chunk_config, chunk_inputs)

    for pipelined in (False, True):
        engine = RoundEngine(timing=PerOpTiming(times))
        chunked = await engine.run_chunked_round(
            chunk_factory, inputs, n_chunks=4, pipelined=pipelined,
        )
        mode = "pipelined" if pipelined else "serial   "
        print(f"{mode} m=4: completion {chunked.completion_time:.2f} s "
              f"(virtual), aggregate checksum "
              f"{int(chunked.result.sum()) % (1 << 16)}")


if __name__ == "__main__":
    asyncio.run(main())
