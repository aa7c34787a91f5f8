"""The benchmark's workloads: fixed INI configs plus a seed-derived ``--seed``.

One op of a workload runs its tasks in order, each as one
``fracspec.cli`` invocation with its own output directory.  The program
sees only the generated config files and ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# The program seed is drawn from a pool of this many values so that every
# op's CSVs can be compared against a fingerprint recorded in reference.json.
REFERENCE_SEEDS = 32

# One large problem shared by the two single-task workloads.
_LARGE_PROBLEM = {
    "gamma": "1.5",
    "l": "10",
    "n": "1024",
    "a_family": "scaled_decay",
    "a_op_matrix": "2,1;1,2",
}


@dataclass(frozen=True)
class Task:
    """One CLI invocation: its config and gated report keys."""

    name: str
    sections: dict
    # Dotted paths into report.json whose value must not exceed the residual gate.
    gates: tuple = ()

    def ini(self) -> str:
        lines = []
        for section, values in self.sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in values.items())
            lines.append("")
        return "\n".join(lines)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tasks: tuple


def _task(task, problem, parameters, **kw) -> Task:
    sections = {
        "problem": problem,
        "task": {"name": task},
        "parameters": parameters,
        "output": {"threads": "1"},
    }
    return Task(name=task, sections=sections, **kw)


_PERTURBED_3 = {
    "gamma": "1.5",
    "l": "10",
    "n": "4096",
    "a_family": "scaled_decay",
    "a_op_family": "perturbed",
    "a_op_matrix": "3,1,0;1,3,1;0,1,3",
    "a_op_perturbation": "1,0,0;0,0,0;0,0,1",
    "sector_angle": "1.0",
}
_PERTURBED_2 = {
    "gamma": "1.5",
    "l": "10",
    "n": "4096",
    "a_family": "scaled_decay",
    "a_op_family": "perturbed",
    "a_op_matrix": "3,1;1,3",
    "a_op_perturbation": "1,0;0,1",
}
_CONSTANT_4096 = dict(_LARGE_PROBLEM, n="4096")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="parabolic-large",
            why="one 9 MB solution.csv (66k rows) and 1024 expm per op, never the batched SVD gate: "
            "artifact writing dominates, so a writer change shows and a gate change must not",
            tasks=(
                _task(
                    "solve-parabolic",
                    _LARGE_PROBLEM,
                    {
                        "t": "1",
                        "nt": "64",
                        "forcing": "random",
                        "time_profile": "sine",
                        "scheme": "exact",
                    },
                ),
            ),
        ),
        Workload(
            name="sweep-refine",
            why="850 batched small-matrix SVDs at N=1024 and 2048 and a 30 KB artifact: "
            "a symbol-kernel change shows and a writer change must not",
            tasks=(
                _task(
                    "resolvent-sweep",
                    _LARGE_PROBLEM,
                    {"radii": "1e-3:1e3:25", "angles": "17", "refine": "true", "probes": "0"},
                ),
            ),
        ),
        Workload(
            name="study-mix",
            why="six short tasks per op: per-call overhead, repeated transforms and import "
            "dominate; the only workload covering bvp, config and the stepped integrators",
            tasks=(
                _task(
                    "solve-elliptic",
                    _PERTURBED_3,
                    {"lambda": "2+1j", "forcing": "random"},
                    gates=("results.residual_rel",),
                ),
                _task("separability", _PERTURBED_2, {"trials": "100"}),
                _task(
                    "verify-conditions",
                    _CONSTANT_4096,
                    {"lambda_set": "0,1,10,100,1+1j", "samples": "20000"},
                ),
                _task("embedding-probe", _CONSTANT_4096, {"draws": "16"}),
                _task(
                    "bvp",
                    {"gamma": "1.5", "l": "10", "n": "256", "a_family": "scaled_decay"},
                    {"mesh_size": "31", "b2": "1,0.5", "b0": "1"},
                    gates=("results.solve.residual_rel",),
                ),
                _task(
                    "convergence",
                    _LARGE_PROBLEM,
                    {"levels": "32,64,128,256", "scheme": "crank-nicolson", "forcing": "random"},
                ),
            ),
        ),
    )
}


def program_seed(seed: int) -> int:
    """The ``--seed`` handed to the program for benchmark seed ``seed``."""
    return seed % REFERENCE_SEEDS


def write_configs(workload: Workload, directory: Path) -> list[Path]:
    """Write one INI per task into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, task in enumerate(workload.tasks):
        path = directory / f"{i}-{task.name}.ini"
        path.write_text(task.ini())
        paths.append(path)
    return paths
