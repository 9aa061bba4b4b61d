"""Fleet-scale benchmarks: million-device construction and cohort queries.

The columnar fleet path against its retained references, at the scale
the ROADMAP's "millions of users" north star asks for: building a
1M-device population (columnar vs the boxed
:func:`heterogeneous_fleet_reference` builder, which is timed at a
capped size and compared per-device), sampling 100-client cohorts,
pricing rounds (vectorized :meth:`Fleet.round_cost` vs a per-device
Python loop over the *same* columns), and the lazy
:class:`SessionStream` availability model with correlated
bandwidth×availability churn — plus scenario sweeps (diurnal wave,
flash-crowd join, regional outage) exercising the composition wrappers.
Persisted as ``BENCH_fleet.json``.
"""

from __future__ import annotations

import platform
import time
from typing import Any

import numpy as np

from repro.bench.schema import make_report, metric
from repro.fleet import (
    DiurnalWave,
    Fleet,
    FleetConfig,
    FlashCrowd,
    RegionalOutage,
    heterogeneous_fleet_reference,
)
from repro.utils.rng import derive_rng

TOPIC = "fleet"

#: The boxed reference builder is timed at most at this size — one
#: object per device makes 10^6 pointless to wait for; the comparison
#: is per-device throughput, which is size-stable for both builders.
REFERENCE_BUILD_CAP = 100_000


def _scenario_rates(
    model: Any, cohorts: list[list[int]]
) -> tuple[np.ndarray, float]:
    """Per-round dropout rates of a scenario model, plus wall seconds."""
    rates = np.empty(len(cohorts))
    start = time.perf_counter()
    for r, cohort in enumerate(cohorts):
        rates[r] = len(model.dropped(cohort, r)) / len(cohort)
    return rates, time.perf_counter() - start


def run_fleet(
    *,
    devices: int = 1_000_000,
    cohort: int = 100,
    rounds: int = 50,
    repeats: int = 3,
    correlation: float = 0.6,
    seed: int = 0,
) -> dict[str, Any]:
    """Benchmark fleet construction and cohort queries; returns a report."""
    cohort = min(cohort, devices)
    update_nbytes = 8 * 100_000  # a 100k-dim float64 model update
    metrics: dict[str, Any] = {}

    # -- construction: columnar vs boxed reference --------------------
    build_s = float("inf")
    fleet = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fleet = Fleet.build(
            devices,
            FleetConfig(
                availability="trace",
                correlation=correlation,
                compute_seconds=1.0,
            ),
            horizon=rounds,
            seed=seed,
        )
        build_s = min(build_s, time.perf_counter() - start)
    metrics["build_columnar_s"] = metric(build_s, "s")
    metrics["build_columnar_devices_per_s"] = metric(devices / build_s, "per_s")

    ref_devices = min(devices, REFERENCE_BUILD_CAP)
    ref_s = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        heterogeneous_fleet_reference(ref_devices, seed=seed)
        ref_s = min(ref_s, time.perf_counter() - start)
    metrics["build_reference_s"] = metric(ref_s, "s")
    metrics["build_reference_devices"] = metric(ref_devices, "count")
    metrics["build_reference_devices_per_s"] = metric(
        ref_devices / ref_s, "per_s"
    )
    metrics["build_per_device_speedup"] = metric(
        (ref_s / ref_devices) / (build_s / devices), "x"
    )

    # -- cohort sampling + round pricing ------------------------------
    rng = derive_rng("bench-fleet-cohorts", seed)
    cohorts = [
        rng.choice(devices, size=cohort, replace=False).tolist()
        for _ in range(rounds)
    ]

    # Dropout query on fresh cohorts: every call derives timelines the
    # LRU has never seen — the lazy model's worst case.
    start = time.perf_counter()
    survivor_sets = []
    for r, c in enumerate(cohorts):
        gone = fleet.dropped(c, r)
        survivor_sets.append([u for u in c if u not in gone])
    dropped_s = (time.perf_counter() - start) / rounds
    metrics["cohort_dropout_query_s"] = metric(dropped_s, "s")

    # The loop baseline: one Python-level read and reduction per device
    # and stage over the same columns, so the recorded speedup is
    # loop-vs-vectorized on identical data.
    cols = fleet.columns
    down_bps, up_bps = cols.downlink_bps, cols.uplink_bps
    fast_s = float("inf")
    ref_cost_s = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        for r, c in enumerate(cohorts):
            fleet.round_cost(c, survivor_sets[r], update_nbytes)
        fast_s = min(fast_s, (time.perf_counter() - start) / rounds)
        start = time.perf_counter()
        for r, c in enumerate(cohorts):
            max(update_nbytes / down_bps.item(u) for u in c)
            max(cols.compute_factor.item(u) for u in c)
            if survivor_sets[r]:
                max(update_nbytes / up_bps.item(u) for u in survivor_sets[r])
        ref_cost_s = min(ref_cost_s, (time.perf_counter() - start) / rounds)
    metrics["round_cost_reference_s"] = metric(ref_cost_s, "s")
    metrics["round_cost_fast_s"] = metric(fast_s, "s")
    if fast_s > 0:
        metrics["round_cost_speedup"] = metric(ref_cost_s / fast_s, "x")
        metrics["round_cost_queries_per_s"] = metric(1.0 / fast_s, "per_s")

    # -- correlated bandwidth × availability --------------------------
    # Slow-uplink devices should be flakier: compare the mean online
    # propensity of the slowest and fastest uplink tails.
    k = max(1, min(200, devices // 2))
    order = np.argsort(up_bps)
    availability = fleet.availability
    slow_p = float(
        np.mean([availability.propensity(int(u)) for u in order[:k]])
    )
    fast_p = float(
        np.mean([availability.propensity(int(u)) for u in order[-k:]])
    )
    metrics["propensity_slow_tail"] = metric(slow_p, "x")
    metrics["propensity_fast_tail"] = metric(fast_p, "x")
    metrics["correlation_effect"] = metric(fast_p - slow_p, "x")

    # -- scenarios ----------------------------------------------------
    # Each wrapper composes over the fleet's own (correlated) session
    # churn; reporting the per-round *excess* over the base model on
    # identical cohorts isolates exactly what the scenario adds — the
    # structural zeros (pre-outage rounds, post-join rounds, the wave's
    # daily peak) are exact, not noise-relative.
    base = fleet.availability
    scen_rng = derive_rng("bench-fleet-scenarios", seed)
    scen_cohorts = [
        scen_rng.choice(devices, size=cohort, replace=False).tolist()
        for _ in range(rounds)
    ]
    base_rates, _ = _scenario_rates(base, scen_cohorts)
    metrics["base_churn_dropout"] = metric(float(base_rates.mean()), "x")

    period = max(2, min(24, rounds))
    diurnal = DiurnalWave(base, period=period, amplitude=0.5, seed=seed)
    rates, wall = _scenario_rates(diurnal, scen_cohorts)
    excess = rates - base_rates
    metrics["scenario_diurnal_s"] = metric(wall, "s")
    high_wave = np.array(
        [diurnal.offline_rate(r) >= 0.25 for r in range(rounds)]
    )
    metrics["diurnal_peak_excess"] = metric(
        float(excess[~high_wave].mean()), "x"
    )
    metrics["diurnal_trough_excess"] = metric(
        float(excess[high_wave].mean()), "x"
    )

    join_round = rounds // 2
    crowd = FlashCrowd(base, devices, join_round=join_round, fraction=0.5)
    rates, wall = _scenario_rates(crowd, scen_cohorts)
    excess = rates - base_rates
    metrics["scenario_flash_crowd_s"] = metric(wall, "s")
    metrics["flash_crowd_pre_join_excess"] = metric(
        float(excess[:join_round].mean()), "x"
    )
    metrics["flash_crowd_post_join_excess"] = metric(
        float(excess[join_round:].mean()), "x"
    )

    out_start, out_end = rounds // 3, max(rounds // 3 + 1, 2 * rounds // 3)
    outage = RegionalOutage(
        base, region=(0, devices // 4), start_round=out_start,
        end_round=out_end,
    )
    rates, wall = _scenario_rates(outage, scen_cohorts)
    excess = rates - base_rates
    metrics["scenario_outage_s"] = metric(wall, "s")
    metrics["outage_window_excess"] = metric(
        float(excess[out_start:out_end].mean()), "x"
    )
    metrics["outage_outside_excess"] = metric(
        float(
            np.concatenate([excess[:out_start], excess[out_end:]]).mean()
        ),
        "x",
    )

    config = {
        "devices": devices,
        "cohort": cohort,
        "rounds": rounds,
        "repeats": repeats,
        "correlation": correlation,
        "seed": seed,
        "update_nbytes": update_nbytes,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    return make_report(TOPIC, config, metrics)
