"""Output checks behind ``failed``: exit codes, gates, fingerprints, byte identity.

A fingerprint of a CSV keeps its header, row count, and per column the
Euclidean norm, the largest magnitude and the values of a few strided rows.
Two fingerprints agree when every number is within ``TOL`` times its
column's scale, the fast-path agreement tolerance the project uses; the
``re_*`` and ``im_*`` columns of one complex value share a scale.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-12
RESIDUAL_GATE = 1e-9
STRIDED_ROWS = 9


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def fingerprint(path: Path) -> dict:
    lines = path.read_text().split("\n")
    if lines[-1] == "":
        lines.pop()
    header = lines[0].split(",")
    body = lines[1:]
    picks = sorted({int(i) for i in np.linspace(0, len(body) - 1, STRIDED_ROWS).round()}) if body else []
    try:
        table = np.array(",".join(body).split(","), dtype=float).reshape(len(body), len(header))
        columns = [table[:, j] for j in range(len(header))]
    except ValueError:  # a column holds labels such as "floor"
        cells = [row.split(",") for row in body]
        columns = [[_number(row[j]) for row in cells] for j in range(len(header))]
    out = []
    for name, col in zip(header, columns):
        nums = np.array([v for v in col if isinstance(v, float)], dtype=float)
        out.append(
            {
                "name": name,
                "norm": float(np.linalg.norm(nums)) if nums.size else 0.0,
                "scale": float(np.max(np.abs(nums))) if nums.size else 0.0,
                "rows": [col[i] if isinstance(col[i], str) else float(col[i]) for i in picks],
            }
        )
    return {"rows": len(body), "columns": out}


def _quantity(column: str) -> str:
    """The quantity a column holds: ``re_u`` and ``im_u`` both hold ``u``.

    The parts of one complex quantity share its scale, so an imaginary part
    that is pure rounding noise is judged against ``|u|``.
    """
    return column[3:] if column[:3] in ("re_", "im_") else column


def compare_fingerprints(got: dict, ref: dict) -> list[str]:
    """Differences between two fingerprints, as readable lines; empty if they agree."""
    if got["rows"] != ref["rows"]:
        return [f"row count {got['rows']} != {ref['rows']}"]
    names = [c["name"] for c in got["columns"]]
    if names != [c["name"] for c in ref["columns"]]:
        return [f"header {names} != {[c['name'] for c in ref['columns']]}"]
    scale, norm = {}, {}
    for c in ref["columns"]:
        key = _quantity(c["name"])
        scale[key] = max(scale.get(key, 0.0), c["scale"])
        norm[key] = max(norm.get(key, 0.0), c["norm"])
    problems = []
    for g, r in zip(got["columns"], ref["columns"]):
        key = _quantity(r["name"])
        tol = TOL * max(scale[key], np.finfo(float).tiny)
        if abs(g["norm"] - r["norm"]) > TOL * max(norm[key], np.finfo(float).tiny):
            problems.append(f"{r['name']}: norm {g['norm']!r} != {r['norm']!r}")
        for i, (a, b) in enumerate(zip(g["rows"], r["rows"])):
            if isinstance(a, str) or isinstance(b, str):
                bad = a != b
            else:
                bad = not abs(a - b) <= tol
            if bad:
                problems.append(f"{r['name']}: strided row {i} {a!r} != {b!r}")
    return problems


def _at(report: dict, dotted: str):
    node = report
    for part in dotted.split("."):
        node = node[part]
    return node


def check_task(task, out_dir: Path, exit_code: int) -> list[str]:
    """Exit code, failed checks and residual gates of one task's run; every task should exit 0."""
    if exit_code != 0:
        return [f"{task.name}: exit code {exit_code}"]
    try:
        report = json.loads((out_dir / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"{task.name}: report.json unreadable: {exc}"]
    problems = []
    if report.get("failed_checks") != []:
        problems.append(f"{task.name}: failed_checks {report.get('failed_checks')!r}")
    for gate in task.gates:
        try:
            value = float(_at(report, gate))
        except (KeyError, TypeError, ValueError):
            problems.append(f"{task.name}: report.json has no number at {gate}")
            continue
        if not (math.isfinite(value) and value <= RESIDUAL_GATE):
            problems.append(f"{task.name}: {gate} = {value!r} exceeds {RESIDUAL_GATE}")
    return problems


def digest(out_dirs: list[Path]) -> str:
    """One hash over every artifact of an op, file names included."""
    h = hashlib.sha256()
    for d in out_dirs:
        for path in sorted(d.iterdir()):
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def fingerprints(tasks, out_dirs: list[Path]) -> dict:
    """Fingerprints of every CSV an op wrote, keyed by task then file name."""
    return {
        task.name: {p.name: fingerprint(p) for p in sorted(d.glob("*.csv"))}
        for task, d in zip(tasks, out_dirs)
    }


def compare_op(got: dict, ref: dict) -> list[str]:
    """Compare an op's fingerprints with the recorded reference."""
    problems = []
    for task, files in ref.items():
        if set(got.get(task, {})) != set(files):
            problems.append(f"{task}: CSV files {sorted(got.get(task, {}))} != {sorted(files)}")
            continue
        for name, fp in files.items():
            problems += [f"{task}/{name}: {p}" for p in compare_fingerprints(got[task][name], fp)]
    return problems
