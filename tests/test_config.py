"""The declared config schema against the README key reference and the benchmark's configs."""

import importlib.util
import re
import sys
from pathlib import Path

from fracspec.config import (
    KEYS,
    OPERATOR_KEYS,
    SCALAR_TASKS,
    SYSTEM_PARABOLIC,
    TASK_PARAMETERS,
    TASKS,
    RunConfig,
)

ROOT = Path(__file__).resolve().parent.parent


def test_readme_key_reference_matches_schema():
    declared = {(s, k, t) for s in ("task", "problem", "output") for k in KEYS[s] for t in TASKS}
    declared -= {("problem", k, t) for k in OPERATOR_KEYS for t in SCALAR_TASKS}
    declared |= {
        ("parameters", k, t) for t, keys in TASK_PARAMETERS.items() for k in ("seed", *keys)
    }
    rows = re.findall(
        r"^\| `\[(\w+)\] (\w+)` \| ([^|]+) \|", (ROOT / "README.md").read_text(), re.MULTILINE
    )
    documented, parabolic_only = set(), set()
    for section, key, tasks in rows:
        names = TASKS if tasks.strip() == "all" else [t.strip() for t in tasks.split(",")]
        for name in names:
            task = name.removesuffix(" (mode = parabolic)")
            documented.add((section, key, task))
            if task != name:
                parabolic_only.add((task, key))
    assert documented == declared
    assert parabolic_only == {("system", key) for key in SYSTEM_PARABOLIC}


def test_every_benchmark_config_loads(tmp_path, monkeypatch):
    """The benchmark's task configs all pass the loader, which rejects undeclared keys."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        paths = workloads.write_configs(workload, tmp_path / workload.name)
        assert [RunConfig.load(path).task for path in paths] == [t.name for t in workload.tasks]
