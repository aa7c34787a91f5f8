"""Tests of the benchmark's own machinery: tracer, self times and output checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import fracspec.cli  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

TINY = {
    "elliptic": """
[problem]
gamma = 1.5
n = 32
a_family = scaled_decay
a_op_matrix = 2,1;1,2
[task]
name = solve-elliptic
[parameters]
lambda = 1+1j
forcing = random
""",
    "sweep": """
[problem]
gamma = 1.5
n = 32
a_family = scaled_decay
a_op_matrix = 2,1;1,2
[task]
name = resolvent-sweep
[parameters]
radii = 1e-1:1e1:3
angles = 3
""",
    "parabolic": """
[problem]
gamma = 1.5
n = 32
a_family = scaled_decay
a_op_matrix = 2,1;1,2
[task]
name = solve-parabolic
[parameters]
nt = 8
forcing = random
time_profile = sine
""",
}


def _run_tiny(tmp: Path, tag: str, tracer=None) -> dict:
    """Run every tiny config once; returns {relative path: bytes} of the artifacts."""
    out = {}
    for name, text in TINY.items():
        config = tmp / f"{name}.ini"
        config.write_text(text)
        target = tmp / tag / name
        with tracer if tracer is not None else contextlib.nullcontext():
            code = fracspec.cli.main(["--config", str(config), "--out", str(target), "--seed", "3"])
        assert code == 0
        for path in sorted(target.iterdir()):
            out[f"{name}/{path.name}"] = path.read_bytes()
    return out


def _bindings() -> dict:
    """Every binding the tracer may replace, by (owner, attribute)."""
    owners = [importlib.import_module("fracspec")]
    owners += [importlib.import_module(f"fracspec.{layer}") for layer in tracing.LAYERS]
    owners += [np.fft, np.linalg]
    found = {}
    for owner in owners:
        for attr, value in vars(owner).items():
            found[(owner.__name__, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("fracspec"):
                for name, raw in vars(value).items():
                    found[(f"{value.__module__}.{value.__name__}", name)] = raw
    return found


def test_self_times_subtract_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 1],
        ["elliptic.solve_elliptic", 1.0, 4.0, 0, 1],
        ["kernel.svd", 2.0, 3.0, 1, 1],
        ["core.forward_transform", 5.0, 9.0, 0, 1],
        ["kernel.fft", 5.5, 7.5, 3, 1],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 2.0, 2.0]
    m = tracing.summarize(list(zip(spans, tracing.self_times(spans))), {}, {})
    assert m["cli.self_s"] == 3.0
    assert m["elliptic.self_s"] == 2.0
    assert m["core.self_s"] == 2.0
    assert m["kernel.svd_s"] == 1.0 and m["kernel.svd_calls"] == 1
    assert m["kernel.fft_s"] == 2.0 and m["kernel.fft_calls"] == 1
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    kernels = sum(m[f"kernel.{group}_s"] for group in tracing.KERNELS)
    assert layers + kernels == spans[0][2] - spans[0][1]


def test_tracer_wraps_then_restores_every_binding():
    before = _bindings()
    with tracing.Tracer():
        during = _bindings()
        assert during[("fracspec.elliptic", "solve_elliptic")] is not before[("fracspec.elliptic", "solve_elliptic")]
        assert during[("fracspec.parabolic", "solve_elliptic")] is during[("fracspec.elliptic", "solve_elliptic")]
        assert during[("fracspec", "solve_elliptic")] is during[("fracspec.elliptic", "solve_elliptic")]
        assert during[("numpy.fft", "fft")] is not before[("numpy.fft", "fft")]
        assert during[("fracspec.parabolic", "expm")] is not before[("fracspec.parabolic", "expm")]
        assert during[("fracspec.config.RunConfig", "load")] is not before[("fracspec.config.RunConfig", "load")]
        assert during[("fracspec.cli", "_fmt")] is before[("fracspec.cli", "_fmt")]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_and_untraced_artifacts_are_byte_identical(tmp_path):
    plain = _run_tiny(tmp_path, "plain")
    t = tracing.Tracer()
    traced = _run_tiny(tmp_path, "traced", t)
    assert plain == traced
    names = {s[0] for s in t.spans}
    assert {"cli.main", "kernel.svd", "kernel.expm", "kernel.fft", "symbols._q_stack"} <= names


def test_counters_repeat_exactly_across_traced_runs(tmp_path):
    counters = []
    for tag in ("a", "b"):
        t = tracing.Tracer()
        _run_tiny(tmp_path, tag, t)
        m = t.summaries()[0]
        counters.append({k: v for k, v in m.items() if not k.endswith("_s")})
    assert counters[0] == counters[1]
    assert counters[0]["kernel.expm_calls"] == 32
    assert counters[0]["symbols.q_distinct_ratio"] > 0


@pytest.mark.parametrize("row", [5, 30])
def test_fingerprint_rejects_one_perturbed_value(tmp_path, row):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((81, 3))
    path = tmp_path / "a.csv"

    def write(values):
        lines = ["x,re_u,im_u"] + [",".join(f"{v:.16e}" for v in r) for r in values]
        path.write_text("\n".join(lines) + "\n")

    write(data)
    reference = checks.fingerprint(path)
    assert checks.compare_fingerprints(checks.fingerprint(path), reference) == []
    # Row 30 is one of the strided rows (every 10th of 81); row 5 shows only in the norm.
    data[row, 1] *= 1.0 + 1e-6
    write(data)
    problems = checks.compare_fingerprints(checks.fingerprint(path), reference)
    assert problems and all(p.startswith("re_u") for p in problems)


def test_fingerprint_judges_imaginary_noise_against_the_real_part(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("x,re_u,im_u\n0.0,1.0,1e-19\n1.0,2.0,-3e-19\n")
    reference = checks.fingerprint(path)
    path.write_text("x,re_u,im_u\n0.0,1.0,-2e-19\n1.0,2.0,4e-19\n")
    assert checks.compare_fingerprints(checks.fingerprint(path), reference) == []
    path.write_text("x,re_u,im_u\n0.0,1.0,1e-9\n1.0,2.0,-3e-19\n")
    assert checks.compare_fingerprints(checks.fingerprint(path), reference)


def test_fingerprint_keeps_labels_exact(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("steps,error,order\n32,1e-5,-\n64,2e-6,floor\n")
    fp = checks.fingerprint(path)
    assert fp["columns"][2]["rows"] == ["-", "floor"]
    path.write_text("steps,error,order\n32,1e-5,-\n64,2e-6,2.0\n")
    assert checks.compare_fingerprints(checks.fingerprint(path), fp)


def test_importtime_parsing():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |     150000 | numpy",
            "import time:       200 |     260000 |   scipy.linalg",
            "import time:      1000 |       5000 | fracspec.core",
            "import time:       500 |     300000 | fracspec",
        ]
    )
    got = run.parse_importtime(text)
    assert got == pytest.approx({
        "import.numpy_s": 0.15,
        "import.scipy_linalg_s": 0.26,
        "import.fracspec_self_s": 0.0015,
    })


def test_benchmark_json_lists_what_the_run_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # The gated workloads are a subset of those defined; each keeps its reason.
    for workload in bench["workloads"]:
        assert workload["why"] == run.WORKLOADS[workload["name"]].why
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
