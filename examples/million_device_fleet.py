"""A million-device fleet with correlated churn — the scale story.

Builds a 1,000,000-device population the columnar way (three float64
arrays, no boxed profiles), with bandwidth×availability rank correlation
(``FleetConfig(correlation=0.6)``): the devices on the slowest Zipf
uplinks are also the flakiest, coupled through a Gaussian copula that
keeps the population's online-propensity marginal intact.  Availability
derives lazily per device (:class:`SessionStream`), so memory stays
O(sampled cohort) no matter the population size.

Each round samples a 100-client cohort and runs it through a
regional-outage scenario — a quarter of the id space vanishes for a
window of rounds mid-training — printing the per-round modeled cost
(broadcast / compute-straggler / upload) and the dropout curve with the
outage clearly visible on top of the organic churn.

Run:  PYTHONPATH=src python examples/million_device_fleet.py
"""

import time

import numpy as np

from repro.fleet import Fleet, FleetConfig, RegionalOutage

DEVICES = 1_000_000
COHORT = 100
ROUNDS = 24
UPDATE_NBYTES = 8 * 100_000  # a 100k-dim float64 model update
OUTAGE = (8, 14)             # rounds the region is dark
REGION = (0, DEVICES // 4)   # the id slice behind the failing backbone


def main():
    start = time.perf_counter()
    fleet = Fleet.build(
        DEVICES,
        FleetConfig(
            availability="trace",   # lazily derived at this scale
            correlation=0.6,        # slow links are also flaky
            compute_seconds=2.0,
        ),
        horizon=ROUNDS,
        seed=11,
    )
    built = time.perf_counter() - start
    print(f"built {fleet.n_clients:,d} devices in {built:.3f}s "
          f"(columnar: ~{3 * 8 * DEVICES / 2**20:.0f} MiB of arrays)")

    # Slow uplinks are flaky by construction: compare the online
    # propensity of the bandwidth tails.
    order = np.argsort(fleet.columns.uplink_bps)
    slow = float(np.mean(
        [fleet.availability.propensity(int(u)) for u in order[:200]]
    ))
    fast = float(np.mean(
        [fleet.availability.propensity(int(u)) for u in order[-200:]]
    ))
    print(f"correlated churn: slowest-uplink tail is online {slow:.0%} "
          f"of the time, fastest {fast:.0%}\n")

    outage = RegionalOutage(
        fleet.availability, region=REGION,
        start_round=OUTAGE[0], end_round=OUTAGE[1],
    )
    rng = np.random.default_rng(11)
    print("round  dropout  curve                 seconds   down    up")
    rates = []
    for r in range(ROUNDS):
        cohort = rng.choice(DEVICES, size=COHORT, replace=False).tolist()
        gone = outage.dropped(cohort, r)
        survivors = [u for u in cohort if u not in gone]
        rate = len(gone) / len(cohort)
        rates.append(rate)
        cost = fleet.round_cost(cohort, survivors, UPDATE_NBYTES)
        bar = "#" * round(rate * 20)
        dark = " <- outage" if OUTAGE[0] <= r < OUTAGE[1] else ""
        print(f"{r:>5}  {rate:>6.0%}  {bar:20s}  "
              f"{cost.total_seconds:>7.1f}  "
              f"{cost.down_bytes / 2**20:>5.1f}M {cost.up_bytes / 2**20:>4.1f}M"
              f"{dark}")

    inside = float(np.mean(rates[OUTAGE[0]:OUTAGE[1]]))
    outside = float(np.mean(rates[:OUTAGE[0]] + rates[OUTAGE[1]:]))
    print(f"\norganic churn {outside:.0%} -> {inside:.0%} while the region "
          f"({REGION[1] - REGION[0]:,d} devices) is dark")
    print(f"resident availability timelines after {ROUNDS} rounds of "
          f"{COHORT}-client cohorts: {fleet.availability.resident_devices:,d} "
          f"(LRU-bounded, not O({DEVICES:,d}))")


if __name__ == "__main__":
    main()
