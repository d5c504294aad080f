"""In-memory span recorder that wraps layer entry points from outside.

The benchmark never edits the program: :func:`install` replaces each
public function named in :data:`TARGETS` at *every* name it is bound
under (``from x import f`` copies the binding into the importing
module, so patching only the defining module would miss those call
sites).  Methods are patched on their class.

Each call records one span ``(name, start, end, parent)``; a span's
self time is its duration minus the time covered by its child spans on
the same thread.  Spans stay in memory.  Pool workers are forked after
:func:`install`, so they inherit the wrappers; a worker appends its
spans and counters to ``<spill_dir>/<pid>.jsonl`` each time a
top-level task span ends, which is how worker-side spans leave the
worker.  The driving process reads those files after the execution.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Layer of each span name prefix (the text before the first dot).
LAYERS = {
    "home": "home simulation", "st": "home simulation",
    "runner": "fan-out", "pool": "fan-out",
    "fleet": "fleet execution", "shard": "fleet execution",
    "transport": "fleet execution", "aggregate": "fleet execution",
    "coordination": "coordination", "grid": "coordination",
    "online": "coordination", "telemetry": "coordination",
    "forecast": "coordination", "artefact": "coordination",
    "api": "front door and service", "cache": "front door and service",
    "queue": "front door and service", "worker": "front door and service",
    "client": "front door and service",
    "execution": "benchmark",
}

#: Spans whose self time is waiting on pool workers, not work.
WAIT_SPANS = frozenset({"runner.batch"})


def _count_run(counters, args, kwargs, result):
    counters["home.runs"] += 1
    counters["han.requests"] += len(result.requests)
    if result.cp_stats is not None:
        counters["st.cp_rounds_total"] += result.cp_stats.rounds_total
        counters["st.cp_rounds_active"] += result.cp_stats.rounds_active


def _count_batch(counters, args, kwargs, result):
    counters["runner.batches"] += 1
    counters["runner.items"] += len(result)


def _count_frame(counters, args, kwargs, frame):
    counters["transport.frames"] += 1
    # Payload of the (2, total) float64 block, whichever transport.
    counters["transport.frame_bytes"] += 16 * frame.total


def _count_negotiation(counters, args, kwargs, result):
    _claims, stats, sweeps = result
    counters["coordination.cp_rounds"] += stats.rounds_total
    counters["coordination.deliveries"] += stats.deliveries
    counters["coordination.sweeps"] += sweeps


def _count_plan(counters, args, kwargs, plan):
    counters["coordination.applied"] += int(plan.applied)


def _count_online(counters, args, kwargs, plan):
    counters["online.epochs"] += plan.n_epochs
    counters["online.epochs_applied"] += plan.epochs_applied
    counters["online.replanned_homes"] += plan.replanned_homes


#: (span name, "module:qualname", optional counter hook on the result).
TARGETS = (
    ("home.sim", "repro.core.system:execute_config", _count_run),
    ("st.calibrate", "repro.st.rounds:SampledCP.calibrate", None),
    ("pool.spawn", "repro.experiments.pool:WorkerPool._ensure", None),
    ("runner.batch", "repro.experiments.runner:ParallelRunner.run",
     _count_batch),
    ("runner.batch", "repro.experiments.runner:ParallelRunner.execute",
     _count_batch),
    ("runner.task", "repro.experiments.runner:_execute_run_spec", None),
    ("fleet.build", "repro.neighborhood.fleet:build_fleet", None),
    ("fleet.execute", "repro.neighborhood.federation:execute_fleet", None),
    ("fleet.execute", "repro.neighborhood.grid:execute_grid", None),
    ("shard.execute", "repro.neighborhood.shard:_execute_shard", None),
    ("shard.collect", "repro.neighborhood.shard:execute_shards", None),
    ("transport.pack", "repro.neighborhood.transport:pack_series",
     _count_frame),
    ("transport.unpack", "repro.neighborhood.transport:unpack_series",
     None),
    ("aggregate.partial_sum", "repro.neighborhood.aggregate:partial_sum",
     None),
    ("aggregate.combine", "repro.neighborhood.aggregate:combine_partials",
     None),
    ("aggregate.sum_series", "repro.neighborhood.aggregate:sum_series",
     None),
    ("aggregate.stats", "repro.analysis.loadstats:load_stats", None),
    ("aggregate.stats", "repro.neighborhood.aggregate:feeder_stats", None),
    ("coordination.envelope",
     "repro.neighborhood.coordination:phase_envelope", None),
    ("coordination.envelope",
     "repro.neighborhood.coordination:phase_envelope_window", None),
    ("coordination.negotiate",
     "repro.neighborhood.coordination:negotiate_offsets",
     _count_negotiation),
    ("coordination.renegotiate",
     "repro.neighborhood.coordination:renegotiate_offsets",
     _count_negotiation),
    ("coordination.rotate",
     "repro.neighborhood.coordination:rotate_series", None),
    ("coordination.rotate",
     "repro.neighborhood.coordination:rotate_window", None),
    ("coordination.fleet",
     "repro.neighborhood.coordination:coordinate_fleet", _count_plan),
    ("grid.substation", "repro.neighborhood.grid:coordinate_profiles",
     _count_plan),
    ("online.loop", "repro.neighborhood.online:coordinate_fleet_online",
     _count_online),
    ("telemetry.ingest", "repro.telemetry.stream:TelemetryIngest.ingest",
     None),
    ("telemetry.replay",
     "repro.telemetry.stream:TelemetryIngest.ingest_late", None),
    ("telemetry.replay", "repro.telemetry.log:TelemetryLog.replay", None),
    ("telemetry.digest", "repro.telemetry.log:TelemetryLog.digest", None),
    ("forecast.predict",
     "repro.forecast.forecasters:OracleForecaster.predict", None),
    ("forecast.predict",
     "repro.forecast.forecasters:PersistenceForecaster.predict", None),
    ("forecast.predict",
     "repro.forecast.forecasters:SeasonalNaiveForecaster.predict", None),
    ("forecast.predict",
     "repro.forecast.forecasters:EwmaForecaster.predict", None),
    ("forecast.predict",
     "repro.forecast.forecasters:NoisyForecaster.predict", None),
    ("artefact.generate", "repro.experiments.ablations:online_uplift",
     None),
    ("api.run", "repro.api.run:run", None),
    ("api.validate", "repro.api.validate:validate", None),
    ("api.compile", "repro.api.compile:compile_run_specs", None),
    ("api.compile", "repro.api.compile:compile_grid", None),
    ("api.compile", "repro.api.compile:compile_fleet", None),
    ("api.compile", "repro.api.compile:resolve_artefact", None),
    ("cache.has", "repro.api.cache:ResultCache.has", None),
    ("cache.get", "repro.api.cache:ResultCache.get_object", None),
    ("cache.put", "repro.api.cache:ResultCache.put_object", None),
    ("queue.submit", "repro.service.queue:JobQueue.submit", None),
    ("queue.lease", "repro.service.queue:JobQueue.lease", None),
    ("queue.complete", "repro.service.queue:JobQueue.complete", None),
    ("worker.step", "repro.service.worker:WorkerDaemon.step", None),
    ("client.submit", "repro.service.client:ServiceClient.submit", None),
    ("client.result", "repro.service.client:ServiceClient.result", None),
)


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.owner_pid = os.getpid()
        self.active = False
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._plan_seen = self._plan_stats()
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        # A forked worker starts with no spans: the parent's open spans
        # and finished records stay the parent's.
        self.spans = []
        self.counters = defaultdict(float)
        self._local = threading.local()
        self._plan_seen = self._plan_stats()

    @staticmethod
    def _plan_stats() -> dict:
        from repro.core.scheduler import PLAN_TRACE_STATS
        return dict(PLAN_TRACE_STATS)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter(), None,
                stack[-1][4] if stack else 0, next(self._ids),
                threading.get_ident()]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        self.spans.append(span)
        if not stack and os.getpid() != self.owner_pid:
            self.spill()

    def plan_delta(self) -> dict:
        """Planner-trace counter growth since the last call."""
        now = self._plan_stats()
        delta = {f"core.plan_{key}": now[key] - self._plan_seen.get(key, 0)
                 for key in now}
        self._plan_seen = now
        return delta

    def spill(self) -> None:
        """Append this worker's spans and counters to its spill file."""
        counters = dict(self.counters)
        for key, value in self.plan_delta().items():
            counters[key] = counters.get(key, 0) + value
        record = {"spans": self.spans, "counters": counters}
        with open(self.spill_dir / f"{os.getpid()}.jsonl", "a") as out:
            out.write(json.dumps(record) + "\n")
        self.spans = []
        self.counters = defaultdict(float)

    def collect(self) -> tuple[list[dict], dict]:
        """Take the driving process's and every worker's records so far.

        Returns ``(per-process records, summed counters)``; the files
        are consumed, so each execution sees only its own spans.
        """
        counters = defaultdict(float, self.counters)
        for key, value in self.plan_delta().items():
            counters[key] += value
        processes = [{"pid": self.owner_pid, "spans": self.spans}]
        for path in sorted(self.spill_dir.glob("*.jsonl")):
            spans = []
            for line in path.read_text().splitlines():
                record = json.loads(line)
                spans.extend(record["spans"])
                for key, value in record["counters"].items():
                    counters[key] += value
            path.unlink()
            processes.append({"pid": int(path.stem), "spans": spans})
        self.spans = []
        self.counters = defaultdict(float)
        return processes, dict(counters)


def _resolve(target: str):
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _wrap(recorder: Recorder, name: str, func, hook):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not recorder.active and os.getpid() == recorder.owner_pid:
            return func(*args, **kwargs)
        span = recorder.open(name)
        try:
            result = func(*args, **kwargs)
            if hook is not None:
                hook(recorder.counters, args, kwargs, result)
        finally:
            recorder.close(span)
        return result
    return wrapper


def install(spill_dir: Path) -> Recorder:
    """Wrap every :data:`TARGETS` entry; returns the process recorder.

    Call before the first pool is spawned so forked workers inherit the
    wrappers.  Recording starts when ``recorder.active`` is set; pool
    workers record every call (they only ever run benchmark work).
    """
    recorder = Recorder(spill_dir)
    for name, target, hook in TARGETS:
        owner, attr = _resolve(target)
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            setattr(owner, attr,
                    staticmethod(_wrap(recorder, name, raw.__func__, hook)))
            continue
        wrapper = _wrap(recorder, name, raw, hook)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapper)
    return recorder


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time of each span id: duration minus its children's."""
    own = {span[4]: span[2] - span[1] for span in spans}
    for span in spans:
        if span[3] in own:
            own[span[3]] -= span[2] - span[1]
    return own


def summarize(processes: list[dict], counters: dict,
              root: str = "execution") -> dict:
    """Per-span-name self/total time and counts, plus the layer table.

    ``coverage`` is the share of the root span's wall time that named
    spans under it account for; ``self_sum_ok`` says that on every
    thread of every process the self times add up to no more than that
    thread's covered wall time.
    """
    by_name: dict[str, dict] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "count": 0})
    worker_busy = 0.0
    wall = coverage = 0.0
    self_sum_ok = True
    for proc_index, process in enumerate(processes):
        spans = process["spans"]
        own = self_times(spans)
        threads: dict[int, list] = defaultdict(list)
        for span in spans:
            entry = by_name[span[0]]
            entry["self_s"] += own[span[4]]
            entry["total_s"] += span[2] - span[1]
            entry["count"] += 1
            threads[span[5]].append(span)
            if span[0] == root:
                wall += span[2] - span[1]
                coverage += span[2] - span[1] - own[span[4]]
            if proc_index > 0 and span[3] == 0:
                worker_busy += span[2] - span[1]
        for thread_spans in threads.values():
            ids = {span[4] for span in thread_spans}
            tops = [span for span in thread_spans if span[3] not in ids]
            top_wall = sum(span[2] - span[1] for span in tops)
            self_sum = sum(own[span[4]] for span in thread_spans)
            if self_sum > top_wall * (1 + 1e-9) + 1e-9:
                self_sum_ok = False
    layers: dict[str, dict] = defaultdict(
        lambda: {"busy_s": 0.0, "wait_s": 0.0})
    for name, entry in by_name.items():
        layer = LAYERS[name.split(".")[0]]
        key = "wait_s" if name in WAIT_SPANS else "busy_s"
        layers[layer][key] += entry["self_s"]
    return {"names": dict(by_name), "counters": dict(counters),
            "layers": dict(layers), "wall_s": wall,
            "coverage": coverage / wall if wall > 0 else 0.0,
            "self_sum_ok": self_sum_ok, "worker_busy_s": worker_busy}


def write_spans(path: Path, execution_id: str,
                processes: list[dict]) -> None:
    """Write one execution's spans as JSON lines (one span per line)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        for process in processes:
            for name, start, end, parent, span_id, thread in \
                    process["spans"]:
                out.write(json.dumps({
                    "execution": execution_id, "pid": process["pid"],
                    "thread": thread, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end}) + "\n")
