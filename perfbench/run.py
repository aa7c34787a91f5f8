#!/usr/bin/env python3
"""fracspec benchmark: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the program is imported from its
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Each metric is printed
by name with its unit; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import os

# Every process of the benchmark, this one included, runs with one BLAS
# thread and without the program's FRACSPEC_* overrides.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
for _key in [k for k in os.environ if k.startswith("FRACSPEC_")]:
    del os.environ[_key]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import environment  # noqa: E402
from tracer import KERNELS, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, program_seed, write_configs  # noqa: E402

END_TO_END = {"op_s": "s", "cli_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    **{f"{layer}.{k}": u for layer in LAYERS for k, u in (("self_s", "s"), ("calls", "count"))},
    **{f"kernel.{group}{k}": u for group in KERNELS for k, u in (("_s", "s"), ("_calls", "count"))},
    "kernel.fft_points": "count",
    "kernel.svd_matrices": "count",
    "core.fwd_distinct_ratio": "ratio",
    "fractional.frac_power_distinct_ratio": "ratio",
    "symbols.q_distinct_ratio": "ratio",
    "cli.bytes_written": "bytes",
    "cli.write_mb_per_s": "MB/s",
    "import.numpy_s": "s",
    "import.scipy_linalg_s": "s",
    "import.fracspec_self_s": "s",
    "trace.op_s": "s",
    "trace.overhead": "ratio",
    "trace.unaccounted_share": "ratio",
}

# Each kind of op (warm and fresh, or untraced and traced) runs at least
# this many times, however short the window.
MIN_SAMPLES = 3
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0


class ProgramMissing(RuntimeError):
    """The checkout has no importable fracspec under src/."""


def load_program():
    """Import ``fracspec.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "fracspec" / "cli.py").is_file():
        raise ProgramMissing(f"no fracspec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fracspec.cli

    if not Path(fracspec.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"fracspec was imported from {fracspec.cli.__file__}, not {SRC}")
    return fracspec.cli


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run one child to completion: exit code, wall seconds, peak RSS in MB."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=child_env())
        try:
            deadline = start + CHILD_TIMEOUT_S
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.002)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(scratch: Path) -> list[float]:
    """Wall times of fresh interpreters importing fracspec.cli, after one untimed."""
    argv = [sys.executable, "-c", "import fracspec.cli"]
    times = []
    for i in range(SETUP_SAMPLES + 1):
        code, wall, _ = spawn(argv, scratch / "setup.log")
        if code != 0:
            raise ProgramMissing((scratch / "setup.log").read_text(errors="replace").strip())
        if i:
            times.append(wall)
    return times


def parse_importtime(text: str) -> dict:
    """Seconds for numpy, scipy.linalg and fracspec's own modules from -X importtime."""
    out = {"import.numpy_s": 0.0, "import.scipy_linalg_s": 0.0, "import.fracspec_self_s": 0.0}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            own, cumulative = int(fields[0]), int(fields[1])
        except ValueError:  # the header line
            continue
        name = fields[2].strip()
        if name == "numpy":
            out["import.numpy_s"] = cumulative / 1e6
        elif name == "scipy.linalg":
            out["import.scipy_linalg_s"] = cumulative / 1e6
        if name == "fracspec" or name.startswith("fracspec."):
            out["import.fracspec_self_s"] += own / 1e6
    return out


def measure_imports(scratch: Path) -> list[dict]:
    argv = [sys.executable, "-X", "importtime", "-c", "import fracspec.cli"]
    rows = []
    for _ in range(IMPORT_SAMPLES):
        log = scratch / "importtime.log"
        code, _, _ = spawn(argv, log)
        if code != 0:
            raise ProgramMissing(log.read_text(errors="replace").strip())
        rows.append(parse_importtime(log.read_text()))
    return rows


class Run:
    """One workload at one seed: runs ops, checks them, keeps their figures."""

    def __init__(self, workload, seed: int, cli):
        self.workload = workload
        self.pseed = program_seed(seed)
        self.cli = cli
        self.dir = WORK / f"{workload.name}-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.configs = write_configs(workload, self.dir / "configs")
        reference = json.loads(REFERENCE.read_text())
        self.reference = reference.get(workload.name, {}).get(str(self.pseed))
        self.first_digest = None
        self.verdicts: dict = {}  # artifact digest -> fingerprint problems
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.problems: list[str] = []
        self.ops = 0

    def fail(self, op: int, problems: list[str]) -> None:
        self.failed_ops.add(op)
        self.problems += [f"op {op}: {p}" for p in problems]

    def _argv(self, config: Path, out: Path) -> list[str]:
        return ["--config", str(config), "--out", str(out), "--seed", str(self.pseed)]

    def _op_dirs(self) -> list[Path]:
        self.ops += 1
        base = self.dir / f"op{self.ops}"
        return [base / str(i) for i in range(len(self.configs))]

    def warm_op(self, tracer=None) -> tuple[float, int]:
        """One op through ``fracspec.cli.main`` in this process: seconds, bytes written.

        With a tracer, its patches are in place for the op and only the op.
        """
        outs = self._op_dirs()
        codes = []
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            for config, out in zip(self.configs, outs):
                codes.append(self.cli.main(self._argv(config, out)))
            wall = time.perf_counter() - start
        return wall, self._finish(outs, codes)

    def fresh_op(self) -> tuple[float, float]:
        """One op as fresh ``python -m fracspec.cli`` processes: summed seconds, max RSS MB."""
        outs = self._op_dirs()
        codes, wall, rss = [], 0.0, 0.0
        for config, out in zip(self.configs, outs):
            out.mkdir(parents=True)
            argv = [sys.executable, "-m", "fracspec.cli", *self._argv(config, out)]
            code, seconds, peak = spawn(argv, out.parent / f"{out.name}.log")
            codes.append(code)
            wall += seconds
            rss = max(rss, peak)
        self._finish(outs, codes)
        return wall, rss

    def _finish(self, outs: list[Path], codes: list[int]) -> int:
        """Check an op's outputs, count it, delete them; returns bytes written."""
        problems = []
        for task, out, code in zip(self.workload.tasks, outs, codes):
            problems += checks.check_task(task, out, code)
        written = sum(p.stat().st_size for d in outs if d.is_dir() for p in d.iterdir())
        if not problems:
            digest = checks.digest(outs)
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                problems.append("artifacts differ from the run's first op")
            if digest not in self.verdicts:
                if self.reference is None:
                    verdict = [f"no reference fingerprint for program seed {self.pseed}"]
                else:
                    got = checks.fingerprints(self.workload.tasks, outs)
                    verdict = checks.compare_op(got, self.reference)
                self.verdicts[digest] = verdict
            problems += self.verdicts[digest]
        self.attempted += 1
        if problems:
            self.fail(self.ops, problems)
        shutil.rmtree(outs[0].parent, ignore_errors=True)
        return written


def alternate(kinds: dict, seconds: float) -> dict:
    """Run the op kinds in turn for ``seconds``, next the one with least time so far.

    Each kind runs at least MIN_SAMPLES times.  Returns each kind's results.
    """
    results = {name: [] for name in kinds}
    spent = {name: 0.0 for name in kinds}
    deadline = time.perf_counter() + seconds
    while True:
        short = [n for n in kinds if len(results[n]) < MIN_SAMPLES]
        if time.perf_counter() >= deadline and not short:
            return results
        name = min(short or kinds, key=lambda n: (spent[n], n))
        start = time.perf_counter()
        results[name].append(kinds[name]())
        spent[name] += time.perf_counter() - start


def run_untraced(run: Run, seconds: float) -> tuple[dict, list[str]]:
    setup = measure_setup(run.dir)
    run.warm_op()  # untimed: loads caches and fingerprints the artifacts
    res = alternate({"warm": run.warm_op, "fresh": run.fresh_op}, seconds)
    warm = [w for w, _ in res["warm"]]
    fresh = [w for w, _ in res["fresh"]]
    rss = [r for _, r in res["fresh"]]
    values = {"op_s": warm, "cli_s": fresh, "setup_s": setup, "peak_rss_mb": rss}
    metrics = {name: (statistics.median(values[name]), unit) for name, unit in END_TO_END.items()}
    notes = [
        f"op_s: median of {len(warm)} warm in-process ops {_fmt(warm)}",
        f"cli_s: median of {len(fresh)} fresh-process ops {_fmt(fresh)}"
        + (f", {len(run.configs)} processes each, summed" if len(run.configs) > 1 else ""),
        f"setup_s: median of {len(setup)} fresh `import fracspec.cli` processes {_fmt(setup)}",
        f"peak_rss_mb: median over {len(rss)} fresh ops of the largest child max RSS {_fmt(rss)}",
    ]
    return metrics, notes


def run_traced(run: Run, seconds: float) -> tuple[dict, list[str]]:
    imports = measure_imports(run.dir)
    run.warm_op()  # untimed, as in the untraced run
    tracer = Tracer()

    def traced_op():
        tracer.op += 1
        wall, written = run.warm_op(tracer)
        return wall, written, run.ops

    res = alternate({"plain": run.warm_op, "traced": traced_op}, seconds)
    plain = [w for w, _ in res["plain"]]
    summaries = tracer.summaries()
    rows = []
    for op, (wall, written, _) in enumerate(res["traced"], start=1):
        m = summaries.get(op, {})
        accounted = sum(v for k, v in m.items() if k.endswith("self_s"))
        accounted += sum(m[f"kernel.{group}_s"] for group in KERNELS)
        m["cli.bytes_written"] = written
        m["cli.write_mb_per_s"] = written / m["cli.write_s"] / 1e6
        m["trace.op_s"] = wall
        m["trace.unaccounted_share"] = (wall - accounted) / wall
        rows.append(m)
    for r in imports:
        for m in rows:
            m.update(r)
    overhead = statistics.median(m["trace.op_s"] for m in rows) / statistics.median(plain) - 1.0
    metrics = {}
    for name, unit in PER_LAYER.items():
        # Counters repeat exactly, so the lower median keeps them whole numbers.
        median = statistics.median_low if unit in ("count", "bytes") else statistics.median
        metrics[name] = (overhead if name == "trace.overhead" else median(m[name] for m in rows), unit)
    counters = [{k: m[k] for k, u in PER_LAYER.items() if u in ("count", "bytes")} for m in rows]
    for (_, _, run_op), c in zip(res["traced"], counters):
        if c != counters[0]:
            run.fail(run_op, ["per-layer counters differ from the first traced op's"])
    spans_path = run.dir / "spans.json"
    spans_path.write_text(json.dumps(tracer.spans))
    notes = [
        f"per-layer: median over {len(rows)} traced ops; untraced ops {_fmt(plain)}",
        f"traced ops {_fmt([m['trace.op_s'] for m in rows])}",
        f"import.*: median of {len(imports)} fresh `python -X importtime -c 'import fracspec.cli'`",
        f"spans of every traced op: {spans_path.relative_to(ROOT)}",
    ]
    return metrics, notes


def _fmt(samples) -> str:
    return "[" + ", ".join(f"{x:.4g}" for x in samples) + "]"


def run_workload(name: str, seed: int, seconds: float, trace: bool, cli) -> dict:
    run = Run(WORKLOADS[name], seed, cli)
    print(f"# workload {name}  seed {seed}  program seed {run.pseed}  trace {int(trace)}")
    print("# env " + json.dumps(environment.record(ROOT, seed), sort_keys=True))
    metrics, notes = (run_traced if trace else run_untraced)(run, seconds)
    for note in notes:
        print(f"# {note}")
    for key, (value, unit) in metrics.items():
        print(f"{key:40s} {value:.6g} {unit}")
    failed = len(run.failed_ops)
    print(f"{'error_rate':40s} {failed / run.attempted:.6g} ratio ({failed} of {run.attempted} ops failed a check)")
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an exception, so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        cli = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        if args.workload == "all":
            for name in WORKLOADS:
                for trace in (False, True):
                    print(json.dumps(run_workload(name, args.seed, args.seconds, trace, cli)))
        else:
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace), cli)))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
