"""Self-test of the benchmark itself (not part of a measured run).

Run from a git checkout of the repository::

    python3 perfbench/selftest.py [--seconds 1]

It checks that

* ``BENCHMARK.json`` names exactly the metrics, units and workloads
  that ``run.py`` reports;
* a traced run of every workload passes (outputs, trace coverage,
  self times, bypassed layers, predicted dominant layer) and prints
  every per-layer metric; an untraced run prints every end-to-end one;
* running the benchmark leaves ``git status --porcelain`` unchanged,
  i.e. it rewrites no tracked file and leaves nothing unignored behind.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def git_status() -> str:
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True,
                          check=True).stdout


def check_manifest() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == \
        list(run.WORKLOADS), "workload names differ"
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == \
        run.END_TO_END, "end-to-end metrics differ"
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == \
        {name: unit for name, (unit, _) in run.PER_LAYER.items()}, \
        "per-layer metrics differ"


def run_once(workload: str, seconds: float, trace: int) -> None:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    assert done.returncode == 0, \
        f"{workload} --trace {trace} exited {done.returncode}:\n" \
        f"{done.stderr[-2000:]}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], f"{workload} --trace {trace}:\n{done.stdout}"
    expected = set(run.PER_LAYER) if trace else set(run.END_TO_END)
    assert set(result["metrics"]) == expected, \
        f"{workload} --trace {trace} reports other metrics"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    check_manifest()
    before = git_status()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            run_once(workload, args.seconds, trace)
            print(f"ok  {workload} --trace {trace}", flush=True)
    after = git_status()
    assert after == before, \
        f"git status changed:\nbefore:\n{before}\nafter:\n{after}"
    print("ok  git status unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
