#!/usr/bin/env python3
"""Run the pytest-benchmark suite and distill a machine-readable report.

Runs the selected benchmark groups and reduces pytest-benchmark's
(very verbose) JSON to the numbers perf PRs diff against each other —
per benchmark: the median wall time, ops/second and rounds, grouped the
way the suite groups them::

    {
      "schema": 1,
      "argv": [...],
      "pytest_exit_code": 0,
      "groups": {
        "micro": {
          "test_kernel_event_throughput": {
            "median_s": 0.021, "mean_s": 0.022, "stddev_s": 0.001,
            "ops_per_s": 46.2, "rounds": 12
          }, ...
        }, ...
      }
    }

The report file (``BENCH_PR4.json`` at the repo root for this PR; CI's
``bench-smoke`` job uploads one per commit) is the perf trajectory
anchor: future optimisation PRs regenerate it with the same command and
diff group medians mechanically instead of eyeballing logs.

Usage::

    python tools/bench_report.py --groups micro headline --out BENCH.json
    python tools/bench_report.py --groups all --out BENCH.json -- -q

Everything after ``--`` is passed through to pytest.  Benchmarks run
with GC disabled and a minimum of 3 rounds (matching CI) unless
overridden via pass-through arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Benchmark group name -> the bench files that populate it.  Selection
#: is by file (pytest-benchmark has no group filter); a file may feed
#: several logical groups (the figure benches all share group
#: "figures").
GROUP_FILES: dict[str, tuple[str, ...]] = {
    "micro": ("benchmarks/test_bench_micro.py",),
    "headline": ("benchmarks/test_bench_headline.py",),
    "figures": ("benchmarks/test_bench_fig2a.py",
                "benchmarks/test_bench_fig2b.py",
                "benchmarks/test_bench_fig2c.py",
                "benchmarks/test_bench_headline.py"),
    "neighborhood": ("benchmarks/test_bench_neighborhood.py",),
    "transport": ("benchmarks/test_bench_transport.py",),
    "fleet": ("benchmarks/test_bench_fleet.py",),
    "grid": ("benchmarks/test_bench_grid.py",),
    "service": ("benchmarks/test_bench_service.py",),
    "online": ("benchmarks/test_bench_online.py",),
    "faults": ("benchmarks/test_bench_faults.py",),
    "cp": ("benchmarks/test_bench_cp_round.py",),
    "ablations": ("benchmarks/test_bench_ablation_cp_period.py",
                  "benchmarks/test_bench_ablation_loss.py",
                  "benchmarks/test_bench_ablation_scale.py",
                  "benchmarks/test_bench_ablation_slots.py",
                  "benchmarks/test_bench_ablation_variants.py",
                  "benchmarks/test_bench_st_vs_at.py"),
}


def selected_files(groups: list[str]) -> list[str]:
    """The de-duplicated bench files covering ``groups`` (or all)."""
    if "all" in groups:
        return sorted(str(p.relative_to(REPO_ROOT))
                      for p in (REPO_ROOT / "benchmarks").glob(
                          "test_bench_*.py"))
    files: list[str] = []
    for group in groups:
        try:
            members = GROUP_FILES[group]
        except KeyError:
            known = ", ".join(sorted(GROUP_FILES) + ["all"])
            raise SystemExit(
                f"error: unknown group {group!r}; known: {known}")
        for name in members:
            if name not in files:
                files.append(name)
    return files


def reduce_report(raw: dict) -> dict:
    """pytest-benchmark JSON -> {group: {bench: headline numbers}}."""
    groups: dict[str, dict] = {}
    for bench in raw.get("benchmarks", []):
        group = bench.get("group") or "ungrouped"
        stats = bench.get("stats", {})
        name = bench.get("name", "?")
        groups.setdefault(group, {})[name] = {
            "median_s": stats.get("median"),
            "mean_s": stats.get("mean"),
            "stddev_s": stats.get("stddev"),
            "ops_per_s": stats.get("ops"),
            "rounds": stats.get("rounds"),
            "extra_info": bench.get("extra_info", {}),
        }
    return groups


def host_info(raw_machine_info: dict) -> dict:
    """The report's host block: bench-host facts that explain numbers.

    pytest-benchmark's machine_info carries interpreter + OS identity;
    CPU count and the platform triple are added here because they are
    the two facts a reader diffing BENCH_*.json files across hosts
    needs first (a 2x wall-time delta on half the cores is not a
    regression).
    """
    import platform
    return {
        **{key: raw_machine_info.get(key)
           for key in ("python_version", "cpu", "system")},
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    passthrough: list[str] = []
    if "--" in argv:
        split = argv.index("--")
        argv, passthrough = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--groups", nargs="+", default=["micro"],
                        help=f"benchmark groups to run "
                             f"({', '.join(sorted(GROUP_FILES))}, all)")
    parser.add_argument("--out", metavar="PATH", default="BENCH.json",
                        help="report file to write (default BENCH.json)")
    args = parser.parse_args(argv)

    files = selected_files(args.groups)
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        raw_path = Path(tmp) / "benchmark.json"
        command = [sys.executable, "-m", "pytest", *files,
                   "--benchmark-disable-gc", "--benchmark-min-rounds=3",
                   f"--benchmark-json={raw_path}", "-q", *passthrough]
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
            else "")
        print("running:", " ".join(command))
        proc = subprocess.run(command, cwd=REPO_ROOT, env=env)
        if not raw_path.exists():
            print(f"FAIL: pytest produced no benchmark JSON "
                  f"(exit {proc.returncode})")
            return proc.returncode or 1
        raw = json.loads(raw_path.read_text())

    report = {
        "schema": 1,
        "argv": ["tools/bench_report.py", *sys.argv[1:]],
        "pytest_exit_code": proc.returncode,
        "machine_info": host_info(raw.get("machine_info", {})),
        "groups": reduce_report(raw),
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=1, sort_keys=True)
                        + "\n")
    total = sum(len(v) for v in report["groups"].values())
    print(f"wrote {out_path} ({len(report['groups'])} groups, "
          f"{total} benchmarks)")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
