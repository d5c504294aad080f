"""The four benchmark workloads: inputs from a seed, execution, checks.

Every workload runs through the public API only (``repro.api.run`` or
the service client and worker).  The three batch workloads are fixed
experiments whose outputs are pinned in ``expected.json``; the seed
varies the order in which their independent cells are written into the
spec (and the spec name), so the pool sees the work in another order
while every simulated number stays the same.  The service loop draws
its request order and its warm re-submits from the seed.

Each workload is a pair ``prepare(seed, tmp) -> state`` (set-up, not
timed) and ``execute(state, around) -> output`` (timed), plus
``check(output) -> Outcome`` (not timed), which compares the output
with the expected values.  ``around()`` is a context manager the caller
supplies; it encloses exactly the work one timed operation does (the
whole execution, or one service request), which is where a traced run
opens its root span.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

EXPECTED = json.loads(
    (Path(__file__).resolve().parent / "expected.json").read_text())

#: Pool shape of every workload (the reference box has two cores).
JOBS = 2


@dataclass
class Outcome:
    """What one execution produced, reduced to what the report needs."""

    digest: str
    failures: list[str] = field(default_factory=list)
    #: simulated, deterministic model numbers
    model: dict[str, float] = field(default_factory=dict)
    #: operations attempted and failed (an execution, or a request)
    attempted: int = 1
    failed: int = 0
    #: workload-specific extras (service latencies, online counts)
    extra: dict[str, float] = field(default_factory=dict)
    #: the timed part, when it is less than the whole execution (the
    #: service loop times its requests, not the checks between them)
    wall_s: Optional[float] = None


def _series_digest(hasher, series) -> None:
    hasher.update(np.asarray(series.times, dtype=np.float64).tobytes())
    hasher.update(np.asarray(series.values, dtype=np.float64).tobytes())


def _expect(failures: list[str], what: str, got, want) -> None:
    if got != want:
        failures.append(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# paper-home: the HEADLINE grid as one sweep spec
# ---------------------------------------------------------------------------

def prepare_paper_home(seed: int, tmp: Path):
    from repro.api.spec import ControlSpec, ExperimentSpec, SweepSpec
    rng = random.Random(seed)
    rates = [4.0, 18.0, 30.0]
    seeds = [1, 2, 3, 4, 5]
    rng.shuffle(rates)
    rng.shuffle(seeds)
    return ExperimentSpec(
        name=f"paper-home-{seed}", kind="sweep",
        control=ControlSpec(cp_fidelity="round"),
        seeds=tuple(seeds), sweep=SweepSpec(rates=tuple(rates)))


def execute_batch(spec, around):
    from repro.api import run
    with around():
        return run(spec, jobs=JOBS)


def check_paper_home(result) -> Outcome:
    from repro.analysis.loadstats import percent_reduction
    expected = EXPECTED["paper-home"]
    failures: list[str] = []
    hasher = hashlib.sha256()
    for run in sorted(result.runs, key=lambda one: (
            one.config.scenario.arrival_rate_per_hour, one.config.policy,
            one.config.seed)):
        hasher.update(repr((run.config.scenario.arrival_rate_per_hour,
                            run.config.policy,
                            run.config.seed)).encode())
        _series_digest(hasher, run.load_w)
    digest = hasher.hexdigest()
    peaks, stds, drifts = [], [], []
    for by_policy in result.sweep_table().values():
        pairs = zip(by_policy["coordinated"].stats(),
                    by_policy["uncoordinated"].stats())
        for with_stats, without in pairs:
            peaks.append(percent_reduction(without.peak_kw,
                                           with_stats.peak_kw))
            stds.append(percent_reduction(without.std_kw, with_stats.std_kw))
            drifts.append(100.0 * abs(with_stats.mean_kw - without.mean_kw)
                          / max(without.mean_kw, 1e-9))
    headline = {
        "peak_reduction_max_pct": max(peaks),
        "peak_reduction_mean_pct": float(np.mean(peaks)),
        "std_reduction_max_pct": max(stds),
        "std_reduction_mean_pct": float(np.mean(stds)),
        "mean_drift_mean_pct": float(np.mean(drifts)),
    }
    _expect(failures, "runs", len(result.runs), 30)
    for key, shown in expected["headline"].items():
        _expect(failures, key, f"{headline[key]:.1f}", shown)
    _expect(failures, "digest", digest, expected["digest"])
    return Outcome(digest=digest, failures=failures, model={
        "peak_reduction_pct": headline["peak_reduction_max_pct"],
        "variation_reduction_pct": headline["std_reduction_max_pct"]})


# ---------------------------------------------------------------------------
# grid-substation: 8 feeders x 250 homes under one substation
# ---------------------------------------------------------------------------

def prepare_grid_substation(seed: int, tmp: Path):
    from repro.api.spec import (
        ControlSpec,
        ExperimentSpec,
        FeederPlan,
        GridPlan,
        ScenarioSpec,
    )
    # The grid is one pinned experiment; the seed only names it (and so
    # changes its spec hash).  Its feeders are identical plans, so there
    # is no order to vary without changing the homes.
    return ExperimentSpec(
        name=f"grid-substation-{seed}", kind="grid",
        control=ControlSpec(cp_fidelity="ideal"),
        scenario=ScenarioSpec(horizon_s=900.0), seeds=(1,),
        grid=GridPlan(feeders=tuple(FeederPlan(homes=250)
                                    for _ in range(8)),
                      coordination="substation"))


def check_grid_substation(result) -> Outcome:
    expected = EXPECTED["grid-substation"]
    failures: list[str] = []
    grid = result.grid
    hasher = hashlib.sha256()
    _series_digest(hasher, grid.substation_w)
    _series_digest(hasher, grid.independent_w)
    hasher.update(repr(grid.coordination.offsets_s).encode())
    digest = hasher.hexdigest()
    comparison = grid.comparison()
    _expect(failures, "homes", grid.n_homes, 2000)
    _expect(failures, "digest", digest, expected["digest"])
    if not comparison.energy_drift_pct < 1e-6:
        failures.append(f"energy drift {comparison.energy_drift_pct!r} % "
                        f"is not below 1e-6 %")
    if not comparison.peak_reduction_pct >= 0.0:
        failures.append(f"substation peak rose: reduction "
                        f"{comparison.peak_reduction_pct!r} %")
    return Outcome(digest=digest, failures=failures, model={
        "peak_reduction_pct": comparison.peak_reduction_pct,
        "variation_reduction_pct": comparison.variation_reduction_pct})


# ---------------------------------------------------------------------------
# online-replay: the NBHD-ONLINE artefact
# ---------------------------------------------------------------------------

def prepare_online_replay(seed: int, tmp: Path):
    from repro.api.spec import ArtefactSpec, ExperimentSpec
    noises = [0.1, 0.25, 0.5]
    random.Random(seed).shuffle(noises)
    return ExperimentSpec(
        name=f"online-replay-{seed}", kind="artefact",
        artefact=ArtefactSpec(kind="nbhd-online",
                              params={"noises": noises}))


def check_online_replay(result) -> Outcome:
    expected = EXPECTED["online-replay"]
    failures: list[str] = []
    data = result.artefact.data
    digest = data["digest"]
    _expect(failures, "digest", digest, expected["digest"])
    _expect(failures, "n_epochs", data["n_epochs"], 5)
    _expect(failures, "oracle_energy_drift_wh",
            data["oracle_energy_drift_wh"], 0.0)
    independent = data["peak_independent_kw"]
    oracle = data["sweep"]["oracle"]["peak_kw"]
    return Outcome(digest=digest, failures=failures, model={
        "peak_reduction_pct": 100.0 * (independent - oracle) / independent,
    }, extra={
        "online.deliveries_ratio": data["oracle_cp_deliveries"]
        / data["ceiling_cp_deliveries"],
        "telemetry.events": data["telemetry_events"],
    })


# ---------------------------------------------------------------------------
# service-resubmit: one client, one in-process worker, a fresh store
# ---------------------------------------------------------------------------

#: Distinct specs executed cold per loop, and warm re-submits after each.
N_COLD = 40
WARM_PER_COLD = 30


def service_spec(spec_seed: int):
    from repro.api.spec import (
        ControlSpec,
        ExperimentSpec,
        ScenarioSpec,
        SweepSpec,
    )
    return ExperimentSpec(
        name=f"service-resubmit-{spec_seed}", kind="sweep",
        scenario=ScenarioSpec(preset="paper-low", horizon_s=2700.0),
        control=ControlSpec(cp_fidelity="ideal"), seeds=(spec_seed,),
        sweep=SweepSpec(policies=("coordinated", "uncoordinated")))


def prepare_service_resubmit(seed: int, tmp: Path):
    from repro.service.client import ServiceClient
    from repro.service.store import ServiceStore
    from repro.service.worker import WorkerDaemon
    rng = random.Random(seed)
    cold = list(range(1, N_COLD + 1))
    rng.shuffle(cold)
    plan = []
    for index, spec_seed in enumerate(cold):
        plan.append(("cold", spec_seed))
        plan.extend(("warm", rng.choice(cold[:index + 1]))
                    for _ in range(WARM_PER_COLD))
    store = ServiceStore(tmp / "service-store")
    return {"plan": plan,
            "specs": {one: service_spec(one) for one in cold},
            "client": ServiceClient(store),
            "worker": WorkerDaemon(store, worker_id="bench", jobs=JOBS)}


def _result_digest(result) -> str:
    hasher = hashlib.sha256()
    for run in result.runs:
        hasher.update(repr((run.config.policy, run.config.seed)).encode())
        _series_digest(hasher, run.load_w)
    return hasher.hexdigest()


def execute_service_resubmit(state, around):
    """The closed loop: each request waits for its result.

    Returns per-request ``(kind, spec seed, job id, latency, summary or
    exception)`` records and the store's counters.  Each result is
    reduced to its digest between requests, outside the timed part, so
    no result stays alive across the loop; :func:`check_service_resubmit`
    compares the digests.
    """
    client, worker = state["client"], state["worker"]
    records = []
    for kind, spec_seed in state["plan"]:
        spec = state["specs"][spec_seed]
        start = time.perf_counter()
        try:
            with around():
                job_id = client.submit(spec)
                if kind == "cold":
                    worker.step()
                result = client.result(job_id, timeout=0)
        except Exception as error:  # a failed request is data here
            records.append((kind, spec_seed, None,
                            time.perf_counter() - start, error))
            continue
        latency = time.perf_counter() - start
        summary = (result.provenance.spec_hash, _result_digest(result),
                   _cold_reductions(result) if kind == "cold" else None)
        records.append((kind, spec_seed, job_id, latency, summary))
    stats = client.cache.stats()
    counts = {"queue.journal_events": len(client.queue.journal_events()),
              "cache.hits": stats.hits, "cache.misses": stats.misses,
              "cache.bytes_read": stats.bytes_read,
              "cache.bytes_written": stats.bytes_written}
    return records, counts


def _cold_reductions(result) -> tuple[float, float]:
    from repro.analysis.loadstats import percent_reduction
    stats = {run.config.policy: run.stats(end=result.spec.until_s)
             for run in result.runs}
    return (percent_reduction(stats["uncoordinated"].peak_kw,
                              stats["coordinated"].peak_kw),
            percent_reduction(stats["uncoordinated"].std_kw,
                              stats["coordinated"].std_kw))


def check_service_resubmit(output) -> Outcome:
    records, counts = output
    expected = EXPECTED["service-resubmit"]
    failures: list[str] = []
    cold_digests: dict[int, str] = {}
    reductions: dict[int, tuple[float, float]] = {}
    cold_ms, warm_ms = [], []
    failed = 0
    for kind, spec_seed, job_id, latency, summary in records:
        if isinstance(summary, Exception):
            failed += 1
            failures.append(f"{kind} spec seed {spec_seed}: "
                            f"{type(summary).__name__}: {summary}")
            continue
        spec_hash, digest, cold = summary
        problem = None
        if spec_hash != job_id:
            problem = f"spec_hash {spec_hash} != job id {job_id}"
        elif kind == "cold":
            cold_digests[spec_seed] = digest
            reductions[spec_seed] = cold
        elif cold_digests.get(spec_seed) != digest:
            problem = "warm result differs from its cold one"
        if problem is not None:
            failed += 1
            failures.append(f"{kind} spec seed {spec_seed}: {problem}")
            continue
        (cold_ms if kind == "cold" else warm_ms).append(latency * 1e3)
    combined = hashlib.sha256("".join(
        cold_digests[one] for one in sorted(cold_digests)).encode())
    digest = combined.hexdigest()
    _expect(failures, "digest", digest, expected["digest"])
    peaks = [reductions[one][0] for one in sorted(reductions)]
    stds = [reductions[one][1] for one in sorted(reductions)]
    extra = dict(counts)
    if cold_ms and len(warm_ms) >= 2:
        extra.update({
            "job_p50_ms": statistics.median(cold_ms),
            "resubmit_p50_ms": statistics.median(warm_ms),
            "resubmit_p99_ms": float(np.quantile(warm_ms, 0.99)),
            "resubmit_samples": len(warm_ms),
        })
    return Outcome(digest=digest, failures=failures, model={
        "peak_reduction_pct": float(np.mean(peaks)) if peaks else 0.0,
        "variation_reduction_pct": float(np.mean(stds)) if stds else 0.0,
    }, attempted=len(records), failed=failed, extra=extra,
        wall_s=sum(record[3] for record in records))


#: name -> (prepare, execute, check)
WORKLOADS = {
    "paper-home": (prepare_paper_home, execute_batch, check_paper_home),
    "grid-substation": (prepare_grid_substation, execute_batch,
                        check_grid_substation),
    "online-replay": (prepare_online_replay, execute_batch,
                      check_online_replay),
    "service-resubmit": (prepare_service_resubmit,
                         execute_service_resubmit,
                         check_service_resubmit),
}
