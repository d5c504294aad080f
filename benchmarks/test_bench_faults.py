"""FAULTS — the injection plane must be free when nothing is injected.

Every hot path in the fleet pipeline now carries fault probes
(telemetry ingest, frame unpack, cache reads, worker attempts).  On a
clean run those probes are one module-global read returning ``None``;
this group pins that cost:

* a clean online coordination pass and the same pass inside an armed
  all-but-never-firing fault scope stay within noise of each other
  (the armed case additionally pays one SHA-256 per probe — the upper
  bound on what any site can cost);
* :func:`repro.faults.get_injector` itself is nanoseconds per call.

The recorded ``extra_info`` ratios are the PR's "<1% disabled-injector
overhead" number; the assertions use looser bounds because shared CI
boxes jitter individual timings far more than the overhead itself.
"""

import time

import pytest

from repro.faults import FaultPlan, fault_scope, get_injector
from repro.neighborhood import (
    FeederConfig,
    ForecastConfig,
    build_fleet,
    coordinate_fleet_online,
    execute_fleet,
)
from repro.sim.units import HOUR

HOMES = 30
HORIZON = 3 * HOUR  # four 45-min CP epochs on the suburb mix

#: Armed but unfirable: enabled (so every probe hashes) at odds no
#: schedule ever realizes — the most expensive clean run possible.
NEVER = FaultPlan(seed=1, telemetry_drop=1e-300, telemetry_delay=1e-300,
                  telemetry_dup=1e-300, frame_loss=1e-300)


def median(samples):
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


@pytest.mark.benchmark(group="faults")
def test_disabled_injector_overhead(benchmark):
    fleet = build_fleet(HOMES, mix="suburb", seed=1,
                        cp_fidelity="ideal", horizon=HORIZON)
    results = execute_fleet(fleet, until=HORIZON).homes

    def online():
        return coordinate_fleet_online(
            fleet, results, HORIZON, config=FeederConfig(),
            forecast=ForecastConfig(forecaster="persistence"))

    def timed(arm):
        start = time.perf_counter()
        plan = online() if arm is None else None
        if arm is not None:
            with fault_scope(arm):
                plan = online()
        elapsed = time.perf_counter() - start
        assert plan.n_epochs > 1
        return elapsed

    timed(None), timed(NEVER)  # warm caches before measuring
    clean, zero, armed = [], [], []
    for _ in range(5):  # interleaved so load spikes hit all three
        clean.append(timed(None))
        zero.append(timed(FaultPlan(seed=1)))  # disabled: no injector
        armed.append(timed(NEVER))
    # Median of per-pair ratios, not ratio of medians: the box's speed
    # drifts between minutes, and each pair ran within one window.
    disabled_ratio = median([z / c for z, c in zip(zero, clean)])
    armed_ratio = median([a / c for a, c in zip(armed, clean)])

    benchmark.extra_info["median_clean_s"] = round(median(clean), 4)
    benchmark.extra_info["disabled_overhead"] = \
        round(disabled_ratio - 1.0, 4)
    benchmark.extra_info["armed_never_firing_overhead"] = \
        round(armed_ratio - 1.0, 4)
    benchmark.pedantic(online, rounds=3, iterations=1)

    assert disabled_ratio < 1.10  # typically < 1.01; bound is CI noise
    assert armed_ratio < 1.35


@pytest.mark.benchmark(group="faults")
def test_get_injector_is_one_global_read(benchmark):
    def probe():
        total = 0
        for _ in range(10_000):
            if get_injector() is not None:
                total += 1
        return total

    assert benchmark(probe) == 0
