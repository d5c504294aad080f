"""The repository benchmark: one command, four workloads, two reports.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-home --seed 1 \
        --seconds 20 --trace 0

For ``--seconds`` seconds this process starts one fresh interpreter
after another (``perfbench/child.py``), each doing a single execution
of the workload, and reports medians over them.  ``wall_s`` therefore
times first executions in fresh processes, which is what a
``repro regen`` user pays; ``setup_s`` is the time from starting that
interpreter until its pool workers are up.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced executions and prints the per-layer metrics, the
layer table and the trace self-test instead.  Either way the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every output is checked against ``perfbench/expected.json``; a
mismatch counts as a failed operation.  Everything the benchmark writes
stays under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("paper-home", "grid-substation", "online-replay",
             "service-resubmit")
JOBS = 2
#: A run must end well inside three minutes.
RUN_LIMIT_S = 170.0

#: name -> unit, as reported with --trace 0 (see BENCHMARK.json)
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "parent_rss_mb": "MB",
    "worker_rss_mb": "MB", "peak_reduction_pct": "%",
    "success_rate": "ratio",
}

#: Per-layer metrics: name -> (unit, source).  A source ``self:N`` is
#: the summed self time of spans named N, ``count:N`` their number,
#: ``counter:K`` a counter taken at a layer boundary, ``extra:K`` a
#: value the workload's own output reports, and ``derived`` is
#: computed in :func:`per_layer`.
PER_LAYER = {
    "home.sim_s": ("s", "self:home.sim"),
    "home.runs": ("count", "counter:home.runs"),
    "st.cp_rounds_total": ("count", "counter:st.cp_rounds_total"),
    "st.cp_rounds_active": ("count", "counter:st.cp_rounds_active"),
    "st.cp_active_ratio": ("ratio", "derived"),
    "st.calibrate_s": ("s", "self:st.calibrate"),
    "core.plan_hits": ("count", "counter:core.plan_hits"),
    "core.plan_misses": ("count", "counter:core.plan_misses"),
    "core.plan_reused": ("count", "counter:core.plan_reused"),
    "core.plan_planned": ("count", "counter:core.plan_planned"),
    "core.plan_hit_ratio": ("ratio", "derived"),
    "han.requests": ("count", "counter:han.requests"),
    "pool.spawn_s": ("s", "derived"),
    "runner.batches": ("count", "counter:runner.batches"),
    "runner.items": ("count", "counter:runner.items"),
    "runner.batch_s": ("s", "self:runner.batch"),
    "runner.task_s": ("s", "self:runner.task"),
    "pool.busy_ratio": ("ratio", "derived"),
    "fleet.build_s": ("s", "self:fleet.build"),
    "fleet.execute_s": ("s", "self:fleet.execute"),
    "shard.count": ("count", "count:shard.execute"),
    "shard.execute_s": ("s", "self:shard.execute"),
    "shard.collect_s": ("s", "self:shard.collect"),
    "transport.frames": ("count", "counter:transport.frames"),
    "transport.frame_bytes": ("B", "counter:transport.frame_bytes"),
    "transport.pack_s": ("s", "self:transport.pack"),
    "transport.unpack_s": ("s", "self:transport.unpack"),
    "aggregate.partial_sum_s": ("s", "self:aggregate.partial_sum"),
    "aggregate.combine_s": ("s", "self:aggregate.combine"),
    "aggregate.sum_series_s": ("s", "self:aggregate.sum_series"),
    "aggregate.stats_s": ("s", "self:aggregate.stats"),
    "coordination.envelope_s": ("s", "self:coordination.envelope"),
    "coordination.negotiate_s": ("s", "self:coordination.negotiate"),
    "coordination.renegotiate_s": ("s", "self:coordination.renegotiate"),
    "coordination.rotate_s": ("s", "self:coordination.rotate"),
    "coordination.fleet_s": ("s", "self:coordination.fleet"),
    "grid.substation_s": ("s", "self:grid.substation"),
    "online.loop_s": ("s", "self:online.loop"),
    "artefact.generate_s": ("s", "self:artefact.generate"),
    "coordination.cp_rounds": ("count", "counter:coordination.cp_rounds"),
    "coordination.deliveries": ("count",
                                "counter:coordination.deliveries"),
    "coordination.sweeps": ("count", "counter:coordination.sweeps"),
    "coordination.applied": ("count", "counter:coordination.applied"),
    "online.epochs": ("count", "counter:online.epochs"),
    "online.epochs_applied": ("count", "counter:online.epochs_applied"),
    "online.replanned_homes": ("count", "counter:online.replanned_homes"),
    "online.deliveries_ratio": ("ratio", "extra:online.deliveries_ratio"),
    "telemetry.events": ("count", "extra:telemetry.events"),
    "telemetry.ingest_s": ("s", "self:telemetry.ingest"),
    "telemetry.replay_s": ("s", "self:telemetry.replay"),
    "telemetry.digest_s": ("s", "self:telemetry.digest"),
    "forecast.calls": ("count", "count:forecast.predict"),
    "forecast.predict_s": ("s", "self:forecast.predict"),
    "api.run_s": ("s", "self:api.run"),
    "api.validate_s": ("s", "self:api.validate"),
    "api.compile_s": ("s", "self:api.compile"),
    "cache.has_s": ("s", "self:cache.has"),
    "cache.get_s": ("s", "self:cache.get"),
    "cache.put_s": ("s", "self:cache.put"),
    "queue.submit_s": ("s", "self:queue.submit"),
    "queue.lease_s": ("s", "self:queue.lease"),
    "queue.complete_s": ("s", "self:queue.complete"),
    "worker.step_s": ("s", "self:worker.step"),
    "client.submit_s": ("s", "self:client.submit"),
    "client.result_s": ("s", "self:client.result"),
    "queue.journal_events": ("count", "extra:queue.journal_events"),
    "cache.hits": ("count", "extra:cache.hits"),
    "cache.misses": ("count", "extra:cache.misses"),
    "cache.bytes_read": ("B", "extra:cache.bytes_read"),
    "cache.bytes_written": ("B", "extra:cache.bytes_written"),
    "service.job_p50_ms": ("ms", "derived"),
    "service.resubmit_p50_ms": ("ms", "derived"),
    "service.resubmit_p99_ms": ("ms", "derived"),
    "model.variation_reduction_pct": ("%", "derived"),
    "error_rate": ("ratio", "derived"),
    "layer.home_s": ("s", "derived"),
    "layer.fanout_s": ("s", "derived"),
    "layer.fleet_s": ("s", "derived"),
    "layer.coordination_s": ("s", "derived"),
    "layer.frontdoor_s": ("s", "derived"),
    "layer.wait_s": ("s", "derived"),
    "trace.coverage_pct": ("%", "derived"),
    "trace.spans": ("count", "derived"),
    "trace.overhead_pct": ("%", "derived"),
}

LAYER_KEYS = {
    "home simulation": "layer.home_s", "fan-out": "layer.fanout_s",
    "fleet execution": "layer.fleet_s",
    "coordination": "layer.coordination_s",
    "front door and service": "layer.frontdoor_s",
}

#: Each workload's predicted dominant layer, and the span-name prefixes
#: it must never reach (the layers it bypasses).
PREDICTED = {
    "paper-home": ("home simulation",
                   ("shard.", "transport.", "coordination.", "grid.",
                    "online.", "cache.", "queue.", "worker.", "client.")),
    "grid-substation": ("home simulation",
                        ("st.calibrate", "cache.", "queue.", "worker.",
                         "client.")),
    "online-replay": ("coordination",
                      ("st.calibrate", "cache.", "queue.", "worker.",
                       "client.")),
    "service-resubmit": ("front door and service",
                         ("shard.", "transport.", "coordination.")),
}


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong output)."""


def _kill_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_child(workload: str, seed: int, trace: bool, index: int,
              run_dir: Path, timeout: float) -> dict:
    """One fresh-process execution; returns the child's report."""
    tmp = run_dir / f"exec{index}"
    tmp.mkdir(parents=True)
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "REPRO_CACHE_DIR": str(tmp / "cache"),
        "REPRO_SERVICE_STORE": str(tmp / "service-store"),
        "TMPDIR": str(tmp),
    })
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(trace)), "--tmp", str(tmp),
               "--started"]
    started = time.monotonic()
    proc = subprocess.Popen(command + [repr(started)], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise BenchError(f"{workload} execution exceeded {timeout:.0f} s")
    finally:
        _kill_group(proc.pid)
    if proc.returncode != 0:
        raise BenchError(f"{workload} execution exited with "
                         f"{proc.returncode}:\n{err[-4000:]}")
    report = json.loads(out.strip().splitlines()[-1])
    report["trace_file"] = tmp / "trace.jsonl"
    return report


def _median(values) -> float:
    return float(statistics.median(values))


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Medians of the per-layer metrics over the traced executions."""
    rows = []
    for report in traced:
        trace = report["trace"]
        names, counters = trace["names"], trace["counters"]
        extra = report["extra"]
        row = {}
        for name, (_unit, source) in PER_LAYER.items():
            kind, _, key = source.partition(":")
            if kind == "self":
                row[name] = names.get(key, {}).get("self_s", 0.0)
            elif kind == "count":
                row[name] = names.get(key, {}).get("count", 0)
            elif kind == "counter":
                row[name] = counters.get(key, 0)
            elif kind == "extra":
                row[name] = extra.get(key, 0)
        total = row["st.cp_rounds_total"]
        row["st.cp_active_ratio"] = \
            row["st.cp_rounds_active"] / total if total else 0.0
        lookups = row["core.plan_hits"] + row["core.plan_misses"]
        row["core.plan_hit_ratio"] = \
            row["core.plan_hits"] / lookups if lookups else 0.0
        row["pool.spawn_s"] = sum(
            entry.get("pool.spawn", {}).get("self_s", 0.0)
            for entry in (names, trace["setup_names"]))
        batch_wall = names.get("runner.batch", {}).get("total_s", 0.0)
        row["pool.busy_ratio"] = trace["worker_busy_s"] / (
            JOBS * batch_wall) if batch_wall else 0.0
        for layer, key in LAYER_KEYS.items():
            row[key] = trace["layers"].get(layer, {}).get("busy_s", 0.0)
        row["layer.wait_s"] = sum(
            entry["wait_s"] for entry in trace["layers"].values())
        row["trace.coverage_pct"] = 100.0 * trace["coverage"]
        row["trace.spans"] = sum(entry["count"]
                                 for entry in names.values())
        rows.append(row)
    metrics = {name: _median([row[name] for row in rows])
               for name in rows[0]}
    everything = traced + untraced
    for key in ("job_p50_ms", "resubmit_p50_ms", "resubmit_p99_ms"):
        values = [report["extra"][key] for report in untraced
                  if key in report["extra"]]
        metrics[f"service.{key}"] = _median(values) if values else 0.0
    metrics["model.variation_reduction_pct"] = _median(
        [report["model"].get("variation_reduction_pct", 0.0)
         for report in everything])
    attempted = sum(report["attempted"] for report in everything)
    metrics["error_rate"] = sum(_failed(report) for report in everything) \
        / attempted
    metrics["trace.overhead_pct"] = 100.0 * (
        _median([r["wall_s"] for r in traced])
        / _median([r["wall_s"] for r in untraced]) - 1.0)
    return metrics


def trace_self_test(workload: str, traced: list[dict]) -> list[str]:
    """Coverage, self-time and bypass checks of each traced execution."""
    failures = []
    dominant, bypassed = PREDICTED[workload]
    for report in traced:
        trace = report["trace"]
        if trace["coverage"] < 0.95:
            failures.append(f"named spans cover only "
                            f"{100 * trace['coverage']:.1f}% of the "
                            f"traced wall time")
        if not trace["self_sum_ok"]:
            failures.append("self times add up to more than wall time")
        for name, entry in trace["names"].items():
            if name.startswith(bypassed) and entry["count"]:
                failures.append(f"{name} ran {entry['count']} times but "
                                f"{workload} bypasses it")
        layers = trace["layers"]
        top = max(LAYER_KEYS, key=lambda layer:
                  layers.get(layer, {}).get("busy_s", 0.0))
        if top != dominant:
            failures.append(f"dominant layer is {top}, "
                            f"predicted {dominant}")
    return failures


def _failed(report: dict) -> int:
    # A failed check that no single request owns (the service loop's
    # combined digest) still counts as one failed operation.
    return max(report["failed"], int(bool(report["failures"])))


def host_facts() -> str:
    import numpy
    return (f"host: nproc {os.cpu_count()}, Python "
            f"{platform.python_version()}, NumPy {numpy.__version__}, "
            f"{platform.system()} {platform.machine()}")


def print_layer_table(traced: list[dict]) -> None:
    trace = traced[-1]["trace"]
    layers = trace["layers"]
    busy = sum(entry["busy_s"] for entry in layers.values()) or 1.0
    print("layer table (self time summed over the driving process and "
          "its pool workers; last traced execution):")
    print(f"  {'layer':<24} {'busy s':>9} {'share':>7} {'wait s':>9}")
    for layer, entry in sorted(layers.items(),
                               key=lambda item: -item[1]["busy_s"]):
        print(f"  {layer:<24} {entry['busy_s']:9.3f} "
              f"{100 * entry['busy_s'] / busy:6.1f}% "
              f"{entry['wait_s']:9.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2

    run_dir = WORK / "runs" / f"{args.workload}-seed{args.seed}-" \
                              f"{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    begin = time.monotonic()
    reports: list[dict] = []
    try:
        while True:
            elapsed = time.monotonic() - begin
            traced = bool(args.trace) and len(reports) % 2 == 1
            reports.append(run_child(
                args.workload, args.seed, traced, len(reports), run_dir,
                timeout=RUN_LIMIT_S - elapsed))
            elapsed = time.monotonic() - begin
            last = elapsed / len(reports)
            done = elapsed >= args.seconds and (
                not args.trace or len(reports) >= 2)
            if done or elapsed + 1.5 * last > RUN_LIMIT_S:
                break
        spans = [r["trace_file"] for r in reports if r["trace"]]
        if spans:
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            shutil.copy(spans[-1],
                        traces / f"{args.workload}-seed{args.seed}.jsonl")
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced = [r for r in reports if not r["trace"]]
    traced = [r for r in reports if r["trace"]]
    failures = [f"execution {i}: {failure}"
                for i, report in enumerate(reports)
                for failure in report["failures"]]
    digests = {report["digest"] for report in reports}
    if len(digests) != 1:
        failures.append(f"executions disagree: {len(digests)} digests")
    if args.trace and not traced:
        failures.append("no traced execution finished in time")
    elif args.trace:
        failures += trace_self_test(args.workload, traced)
    attempted = sum(report["attempted"] for report in reports)
    failed = sum(_failed(report) for report in reports)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(untraced)} untraced + {len(traced)} traced fresh-process "
          f"executions in {time.monotonic() - begin:.1f} s")
    print(host_facts())
    print("wall_s per execution: " + ", ".join(
        f"{report['wall_s']:.3f}{'*' if report['trace'] else ''}"
        for report in reports) + ("  (* traced)" if traced else ""))
    for failure in failures:
        print(f"CHECK FAILED: {failure}")

    def median_of(key: str) -> float:
        return _median([report[key] for report in untraced])

    model = untraced[0]["model"]
    extra = untraced[0]["extra"]
    shown = {
        "setup_s": (median_of("setup_s"), "s"),
        "wall_s": (median_of("wall_s"), "s"),
        "parent_rss_mb": (median_of("parent_rss_mb"), "MB"),
        "worker_rss_mb": (median_of("worker_rss_mb"), "MB"),
        "peak_reduction_pct": (model["peak_reduction_pct"], "%"),
        "variation_reduction_pct": (
            model.get("variation_reduction_pct"), "%"),
        "error_rate": (failed / attempted, "ratio"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
    }
    for key in ("job_p50_ms", "resubmit_p50_ms", "resubmit_p99_ms"):
        values = [r["extra"][key] for r in untraced if key in r["extra"]]
        shown[key] = (_median(values) if values else None, "ms")
    print("end-to-end (median over untraced executions; n/a = the "
          "workload has no such quantity):")
    for name, (value, unit) in shown.items():
        text = "n/a" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<24} {text}")
    if "resubmit_samples" in extra:
        print(f"  ({int(extra['resubmit_samples'])} warm samples per "
              f"loop, {len(untraced)} loops)")

    if args.trace:
        metrics = per_layer(traced, untraced)
        print_layer_table(traced)
        print("per-layer metrics (median over traced executions):")
        for name, value in metrics.items():
            print(f"  {name:<30} {value:.6g} {PER_LAYER[name][0]}")
        result = {name: {"value": value, "unit": PER_LAYER[name][0]}
                  for name, value in metrics.items()}
    else:
        result = {name: {"value": shown[name][0], "unit": unit}
                  for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not failures and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
