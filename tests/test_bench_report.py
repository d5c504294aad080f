"""tools/bench_report.py: every benchmark group is reachable by name."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_report():
    path = ROOT / "tools" / "bench_report.py"
    spec = importlib.util.spec_from_file_location("bench_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_declared_group_maps_to_its_files():
    group_files = _bench_report().GROUP_FILES
    declared = {}
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        for group in re.findall(r'group="([^"]+)"', path.read_text()):
            declared.setdefault(group, set()).add(
                str(path.relative_to(ROOT)))
    assert {"cp", "ablations"} <= set(declared)
    for group, files in declared.items():
        assert group in group_files, f"group {group!r} is unreachable"
        assert files <= set(group_files[group]), group


def test_group_files_exist():
    for files in _bench_report().GROUP_FILES.values():
        for name in files:
            assert (ROOT / name).is_file(), name
