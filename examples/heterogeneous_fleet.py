"""A churning, asymmetric-bandwidth fleet — the §6.1 / Fig.-1a scenario.

Builds a Dordis session over a heterogeneous fleet whose devices have
independent Zipf uplinks ([21, 210] Mbps) and downlinks ([100, 1000]
Mbps) and whose availability follows the behaviour-trace model: clients
flip between heavy-tailed online/offline sessions, so the per-round
dropout rate swings across the whole range instead of sitting at a
constant (Fig. 1a).  Every round the session derives dropout from the
fleet's availability model and records the fleet's directional round
cost — broadcast on each sampled downlink, local training gated by the
compute straggler, upload on each surviving uplink — as traced spans.

Then the same fleet carries one *real* XNoise+SecAgg round behind the
wire serialization boundary, where the per-direction traffic is
measured (framed bytes), not modeled — masked-vector uploads dominate
the client uplink exactly as the paper's network story says.

Run:  PYTHONPATH=src python examples/heterogeneous_fleet.py
"""

import numpy as np

from repro.core import DordisConfig, DordisSession
from repro.fleet import FleetConfig


def main():
    config = DordisConfig(
        task="cifar10-like",
        num_clients=60,
        sample_size=16,
        rounds=8,
        samples_per_client=20,
        learning_rate=0.1,
        strategy="xnoise",
        seed=7,
        fleet=FleetConfig(
            availability="trace",
            downlink_range=(100e6 / 8, 1000e6 / 8),  # asymmetric WAN
            compute_seconds=2.0,
        ),
    )
    session = DordisSession(config)
    fleet = session.fleet
    cols = fleet.columns
    ups = cols.uplink_bps * 8 / 1e6
    downs = cols.downlink_bps * 8 / 1e6
    print(f"fleet: {fleet.n_clients} devices, uplink "
          f"{ups.min():.0f}-{ups.max():.0f} Mbps, downlink "
          f"{downs.min():.0f}-{downs.max():.0f} Mbps, slowest compute "
          f"{cols.compute_factor.max():.1f}x")
    print()

    result = session.run()
    trace = session.engine.trace
    print("round  dropout   seconds       down (B)      up (B)")
    # Rounds where every sampled client was offline execute nothing:
    # dropout_history still gets an entry, but no seconds/traffic are
    # recorded.  `executed` indexes the recorded rounds (their engine
    # trace serials are sequential in execution order).
    executed = 0
    for r, rate in enumerate(result.dropout_history):
        if rate >= 1.0 or executed >= len(result.round_seconds_history):
            print(f"{r:>5}  {rate:>6.0%}  {'—':>8s}  "
                  f"{'all sampled clients offline; round skipped':>26s}")
            continue
        split = trace.round_traffic_split(executed)
        print(f"{r:>5}  {rate:>6.0%}  "
              f"{result.round_seconds_history[executed]:>8.2f}  "
              f"{split.down:>12,d}  {split.up:>10,d}")
        executed += 1
    rates = result.dropout_history
    print(f"\ndropout swings {min(rates):.0%}..{max(rates):.0%} "
          f"(mean {float(np.mean(rates)):.0%}) — the Fig.-1a churn, not a "
          f"constant rate")
    print(f"session traffic: {trace.total_down_bytes:,d} B down, "
          f"{trace.total_up_bytes:,d} B up "
          f"(modeled: broadcast down, survivor uploads up)")

    # -- one real protocol round over the same fleet ---------------------
    print("\none measured XNoise+SecAgg round (wire frames, same fleet):")
    secagg = DordisSession(
        DordisConfig(
            task="cifar10-like",
            num_clients=12,
            sample_size=6,
            rounds=1,
            samples_per_client=10,
            mechanism="skellam",
            secure_aggregation="secagg",
            strategy="xnoise",
            tolerance_fraction=0.4,
            dropout_rate=0.2,
            transport="inprocess",
            seed=7,
            fleet=FleetConfig(downlink_range=(100e6 / 8, 1000e6 / 8)),
        )
    )
    secagg.run()
    mtrace = secagg.engine.trace
    print(f"{'stage':24s} {'down':>10s} {'up':>10s}")
    for label, split in mtrace.stage_traffic_split(0).items():
        if split.total:
            print(f"{label:24s} {split.down:>10,d} {split.up:>10,d}")
    total = mtrace.round_traffic_split(0)
    print(f"{'total':24s} {total.down:>10,d} {total.up:>10,d}")
    masked = mtrace.stage_traffic_split(0).get("masked_input")
    if masked is not None:
        print(f"\nmasked-input uplink: {masked.up:,d} B of the round's "
              f"{total.up:,d} B up — the model-sized client cost rides "
              f"the uplink")


if __name__ == "__main__":
    main()
