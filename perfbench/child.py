"""One workload execution in a fresh interpreter (started by run.py).

Every execution gets a new process so that it pays what a first run
pays: imports, pool spawn, an empty planner memo and a cold result
store.  Usage (run.py passes the arguments)::

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 \
        --tmp DIR --started MONOTONIC_SECONDS

Prints one JSON object on its last stdout line.  Set-up is timed from
``--started`` (the parent's ``time.monotonic()`` just before it
started this process) until the pool workers have finished warming up.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _worker_pid(delay: float) -> int:
    time.sleep(delay)
    return os.getpid()


def _warm_pool(jobs: int) -> None:
    """Spawn the shared pool and wait until every worker has started."""
    from repro.experiments.pool import shared_pool
    pool = shared_pool(jobs)
    seen: set[int] = set()
    delay = 0.005
    while len(seen) < jobs:
        seen.update(pool.map(_worker_pid, [delay] * jobs))
        delay *= 2


def _rss_mb(who: int) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--started", type=float, required=True)
    args = parser.parse_args()

    import repro.api  # noqa: F401  (imports are part of set-up)
    import repro.service.worker  # noqa: F401
    from repro.core.scheduler import reset_plan_caches
    from repro.experiments import pool

    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    prepare, execute, check = workloads.WORKLOADS[args.workload]
    recorder = None
    setup_trace = None
    if args.trace:
        spill = args.tmp / "spans"
        spill.mkdir(parents=True, exist_ok=True)
        recorder = tracing.install(spill)
        recorder.active = True
    state = prepare(args.seed, args.tmp)
    reset_plan_caches()
    _warm_pool(workloads.JOBS)
    setup_s = time.monotonic() - args.started
    if recorder is not None:
        recorder.active = False
        setup_trace = tracing.summarize(*recorder.collect())

    @contextlib.contextmanager
    def around():
        if recorder is None:
            yield
            return
        recorder.active = True
        span = recorder.open("execution")
        try:
            yield
        finally:
            recorder.close(span)
            recorder.active = False

    start = time.perf_counter()
    output = execute(state, around)
    wall_s = time.perf_counter() - start

    trace = None
    if recorder is not None:
        processes, counters = recorder.collect()
        trace = tracing.summarize(processes, counters)
        trace["setup_names"] = setup_trace["names"]
        tracing.write_spans(
            args.tmp / "trace.jsonl",
            f"{args.workload}-seed{args.seed}-{os.getpid()}", processes)

    outcome = check(output)
    pool.shutdown_all()
    report = {
        "setup_s": setup_s,
        "wall_s": outcome.wall_s if outcome.wall_s is not None else wall_s,
        "parent_rss_mb": _rss_mb(resource.RUSAGE_SELF),
        "worker_rss_mb": _rss_mb(resource.RUSAGE_CHILDREN),
        "digest": outcome.digest,
        "failures": outcome.failures,
        "model": outcome.model,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "extra": outcome.extra,
        "trace": trace,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
