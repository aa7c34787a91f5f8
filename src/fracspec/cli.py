"""Command-line runner: reads a run config, writes CSV/JSON artifacts.

Exit codes: 0 on success, 2 when a condition check inside the task fails
(the artifacts are still written), 1 on hard errors with a one-line
diagnostic on stderr.  Byte-identical outputs for identical inputs: all
floats are written as ``%.16e``, JSON keys are sorted, newlines are
Unix, and random draws come from a seeded generator.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bvp import BVPCoefficients, check_ellipticity, solve_anisotropic
from .config import ConfigError, RunConfig, build_forcing, build_problem, parse_matrix
from .core import (
    DEFAULT_SEED,
    GridFunction,
    Sector,
    SpaceTimeFunction,
    lp_norm,
    random_band_limited,
)
from .elliptic import (
    coercive_report,
    embedding_probe,
    resolvent_sweep,
    separability_check,
)
from .parabolic import (
    ParabolicProblem,
    SystemMatrix,
    parabolic_coercive_report,
    solve_parabolic,
    solve_parabolic_stepped,
    solve_system,
)
from .symbols import (
    check_mikhlin_bounds,
    check_sector_growth,
    scalar_inequality_suite,
    symbol_resolvent_bound,
)

__all__ = ["main"]

# Errors below this are treated as rounding noise in convergence tables.
FLOOR = 1e-11


# Rows formatted per write in _write_csv; bounds the text held in memory.
CSV_BLOCK_ROWS = 4096


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write one CSV table given as equal-length 1-D columns.

    Each column's format follows its dtype: integers as ``%d``, floats as
    ``%.16e``, anything else verbatim.  Rows are formatted and written
    ``CSV_BLOCK_ROWS`` at a time, so the file is never held whole.
    """
    columns = [np.asarray(c) for c in columns]
    rows = columns[0].size
    if len(columns) != len(header) or any(c.shape != (rows,) for c in columns):
        shapes = [c.shape for c in columns]
        raise ValueError(f"{path.name}: columns {header} have unequal shapes {shapes}")
    fmts = [
        "%d" if np.issubdtype(c.dtype, np.integer)
        else "%.16e" if np.issubdtype(c.dtype, np.floating)
        else "%s"
        for c in columns
    ]
    line = ",".join(fmts) + "\n"
    width = len(columns)
    with path.open("w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, rows)
            flat = [None] * ((stop - start) * width)
            for k, col in enumerate(columns):
                flat[k::width] = col[start:stop].tolist()
            fh.write(line * (stop - start) % tuple(flat))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", newline="\n")


def _write_solution(path: Path, lead: list[str], lead_cols: list, values: np.ndarray) -> None:
    """Solution CSV: the lead columns, then the real and imaginary part of
    each component of ``values`` (last axis; the others flatten to rows)."""
    flat = values.reshape(-1, values.shape[-1])
    names = ["u"] if flat.shape[1] == 1 else [f"u_{c + 1}" for c in range(flat.shape[1])]
    header, cols = list(lead), list(lead_cols)
    for c, name in enumerate(names):
        header += [f"re_{name}", f"im_{name}"]
        cols += [flat[:, c].real, flat[:, c].imag]
    _write_csv(path, header, cols)


def _float_text(values) -> np.ndarray:
    """The ``%.16e`` text of each value of a 1-D float array, as an object array."""
    return np.array(["%.16e" % v for v in np.asarray(values, dtype=float).tolist()], dtype=object)


def _product_lead(outer, inner) -> list:
    """Lead columns of the grid ``outer`` x ``inner``, outer varying slowest.

    Each distinct value is formatted once and its text repeated;
    ``_write_csv`` writes text columns verbatim, so the bytes are those of
    formatting every row.
    """
    outer_text, inner_text = _float_text(outer), _float_text(inner)
    return [np.repeat(outer_text, inner_text.size), np.tile(inner_text, outer_text.size)]


def _write_space_time_solution(path: Path, u: SpaceTimeFunction) -> None:
    _write_solution(path, ["t", "x"], _product_lead(u.times, u.grid.points), u.values)


def _s_set(cfg: RunConfig, gamma: float) -> list[float]:
    if "s_set" not in cfg.sections.get("parameters", {}):
        return [0.0, gamma / 2.0, gamma]
    return cfg.get_list("parameters", "s_set", "")


def _horizon(cfg: RunConfig) -> float:
    horizon = cfg.get_float("parameters", "t", 1.0)
    if not 0.0 < horizon < math.inf:
        raise ConfigError(f"[parameters] t must be finite and positive, got {horizon}")
    return horizon


def _steps(cfg: RunConfig) -> int:
    steps = cfg.get_int("parameters", "nt", 64)
    if steps < 2:
        raise ConfigError(f"[parameters] nt must be at least 2, got {steps}")
    return steps


class _Run:
    """Resolved invocation: config plus seed, thread count, output dir."""

    def __init__(self, cfg: RunConfig, out_dir: Path, seed: int, threads: int):
        self.cfg = cfg
        self.out = out_dir
        self.seed = seed
        self.threads = threads

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def report(self, results: dict, failed_checks: list[str]) -> None:
        _write_json(
            self.out / "report.json",
            {
                "task": self.cfg.task,
                "seed": self.seed,
                "threads": self.threads,
                "config": self.cfg.to_jsonable(),
                "failed_checks": sorted(failed_checks),
                "results": results,
            },
        )


def _task_solve_elliptic(run: _Run) -> bool:
    cfg = run.cfg
    prob = build_problem(cfg)
    lam = cfg.get_complex("parameters", "lambda", 1.0 + 0.0j)
    f = build_forcing(cfg, prob.grid, prob.dim, run.rng())
    rep = coercive_report(
        prob,
        f,
        lam,
        s_set=_s_set(cfg, prob.order.gamma),
        p=cfg.get_float("parameters", "p", 2.0),
    )
    _write_solution(run.out / "solution.csv", ["x"], [prob.grid.points], rep.solution.values)
    run.report(rep.to_jsonable(), [])
    return False


def _space_time_forcing(cfg: RunConfig, grid, dim: int, times, rng) -> SpaceTimeFunction:
    """Spatial forcing times the ``[parameters] time_profile`` weight at each time."""
    spatial = build_forcing(cfg, grid, dim, rng)
    profile = cfg.get_str("parameters", "time_profile", "constant")
    if profile == "constant":
        weights = np.ones(times.size)
    elif profile == "sine":
        weights = np.sin(times)
    elif profile == "ramp":
        weights = times.copy()
    else:
        raise ConfigError(
            f"[parameters] time_profile must be 'constant', 'sine' or 'ramp', got {profile!r}"
        )
    vals = weights[:, None, None] * spatial.values[None, :, :]
    return SpaceTimeFunction(grid, times, vals)


def _task_solve_parabolic(run: _Run) -> bool:
    cfg = run.cfg
    prob = build_problem(cfg)
    pprob = ParabolicProblem(
        core=prob,
        horizon=_horizon(cfg),
        steps=_steps(cfg),
    )
    f = _space_time_forcing(cfg, prob.grid, prob.dim, pprob.times, run.rng())
    scheme = cfg.get_str("parameters", "scheme", "exact")
    if scheme == "exact":
        u = solve_parabolic(pprob, f)
    else:
        u = solve_parabolic_stepped(pprob, f, scheme=scheme)
    rep = parabolic_coercive_report(
        pprob,
        f,
        u=u,
        p=cfg.get_float("parameters", "p", 2.0),
        p1=cfg.get_float("parameters", "p1", 2.0),
    )
    _write_space_time_solution(run.out / "solution.csv", u)
    run.report(rep.to_jsonable(), [])
    return False


def _task_resolvent_sweep(run: _Run) -> bool:
    cfg = run.cfg
    prob = build_problem(cfg)
    try:
        sweep_sector = Sector(cfg.get_float("parameters", "sweep_angle", prob.sector.angle))
    except ValueError as exc:
        raise ConfigError(f"[parameters] sweep_angle: {exc}") from exc
    radii = cfg.get_list("parameters", "radii", "1e-3:1e3:25", log_range=True)
    rep = resolvent_sweep(
        prob,
        sweep_sector,
        radii=radii,
        angles=cfg.get_int("parameters", "angles", 17),
        probes=cfg.get_int("parameters", "probes", 0),
        p=cfg.get_float("parameters", "p", 2.0),
        seed=run.seed,
        refine=cfg.get_bool("parameters", "refine", True),
        threads=run.threads,
    )
    lams = np.array(rep.lambdas, dtype=complex)
    header = ["re_lambda", "im_lambda", "value"]
    columns = [lams.real, lams.imag, np.array(rep.values, dtype=float)]
    if rep.probe_values is not None:
        header.append("probe_lower")
        columns.append(np.array(rep.probe_values, dtype=float))
    _write_csv(run.out / "sweep.csv", header, columns)
    failed = []
    if rep.stable is False:
        failed.append("refinement-stability")
    if rep.witnesses:
        failed.append("singular-symbol")
    run.report(rep.to_jsonable(), failed)
    return bool(failed)


def _task_verify_conditions(run: _Run) -> bool:
    cfg = run.cfg
    prob = build_problem(cfg)
    try:
        phi1 = Sector(cfg.get_float("parameters", "phi1", prob.sector.angle))
    except ValueError as exc:
        raise ConfigError(f"[parameters] phi1: {exc}") from exc
    lams = cfg.get_list("parameters", "lambda_set", "0,1,10", cast=complex)
    reports = [
        check_sector_growth(prob, phi1),
        check_mikhlin_bounds(prob),
        symbol_resolvent_bound(prob, lams),
        scalar_inequality_suite(
            phi1,
            prob.sector,
            samples=cfg.get_int("parameters", "samples", 2000),
            seed=run.seed,
        ),
    ]
    failed = [r.name for r in reports if not r.passed]
    run.report({r.name: r.to_jsonable() for r in reports}, failed)
    return bool(failed)


def _task_separability(run: _Run) -> bool:
    cfg = run.cfg
    prob = build_problem(cfg)
    rep = separability_check(
        prob,
        trials=cfg.get_int("parameters", "trials", 50),
        p=cfg.get_float("parameters", "p", 2.0),
        s_set=_s_set(cfg, prob.order.gamma),
        seed=run.seed,
    )
    ratios = np.array(rep.meta["ratios"], dtype=float)
    _write_csv(run.out / "ratios.csv", ["trial", "ratio"], [np.arange(1, ratios.size + 1), ratios])
    run.report(rep.to_jsonable(), [] if rep.passed else [rep.name])
    return not rep.passed


def _task_embedding_probe(run: _Run) -> bool:
    cfg = run.cfg
    prob = build_problem(cfg)
    h_set = cfg.get_list("parameters", "h_set", "0.1,0.3,1.0")
    draws = cfg.get_int("parameters", "draws", 8)
    rng = run.rng()
    kwargs = dict(
        alpha=cfg.get_float("parameters", "alpha", 1.0),
        s=cfg.get_float("parameters", "s", 2.0),
        p=cfg.get_float("parameters", "p", 2.0),
        q=cfg.get_float("parameters", "q_exp", 2.0),
        mu=cfg.get_float("parameters", "mu", 0.0),
        h_set=h_set,
    )
    ratios = []
    reports = []
    max_ratio = 0.0
    for _ in range(draws):
        u = random_band_limited(prob.grid, prob.dim, rng)
        rep = embedding_probe(prob, u, **kwargs)
        reports.append(rep.to_jsonable())
        ratios += [rep.meta["ratios_by_h"][f"{h:g}"] for h in h_set]
        max_ratio = max(max_ratio, rep.constants["max_ratio"])
    draw = np.repeat(np.arange(1, draws + 1), len(h_set))
    columns = [draw, np.tile(np.array(h_set, dtype=float), draws), np.array(ratios, dtype=float)]
    _write_csv(run.out / "ratios.csv", ["draw", "h", "ratio"], columns)
    run.report({"draws": reports, "max_ratio": max_ratio}, [])
    return False


def _poly(cfg: RunConfig, key: str, default: str):
    """Polynomial in y from the ascending coefficients "c0,c1,c2" of ``[parameters] key``."""
    coeffs = cfg.get_list("parameters", key, default)

    def func(y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for c in reversed(coeffs):
            out = out * y + c
        return out

    return func


def _task_bvp(run: _Run) -> bool:
    cfg = run.cfg
    prob = build_problem(cfg)
    coeffs = BVPCoefficients(
        b2=_poly(cfg, "b2", "1"),
        b1=_poly(cfg, "b1", "0"),
        b0=_poly(cfg, "b0", "0"),
        mesh_size=cfg.get_int("parameters", "mesh_size", 31),
    )
    try:
        phi0 = Sector(cfg.get_float("parameters", "phi0", math.pi / 4.0))
    except ValueError as exc:
        raise ConfigError(f"[parameters] phi0: {exc}") from exc
    ell = check_ellipticity(coeffs, phi0)
    lam = cfg.get_complex("parameters", "lambda", 1.0 + 0.0j)
    grid = prob.grid
    wave = cfg.get_int("parameters", "transverse_mode", 1)
    profile = np.sin(wave * math.pi * coeffs.mesh)
    f = GridFunction(grid, np.exp(-grid.points**2)[:, None] * profile[None, :])
    rep = solve_anisotropic(
        coeffs, prob.order, prob.a, lam, f, grid, p=cfg.get_float("parameters", "p", 2.0)
    )
    lead = _product_lead(grid.points, coeffs.mesh)
    _write_solution(run.out / "solution.csv", ["x", "y"], lead, rep.solution.values[:, :, None])
    failed = [] if ell.passed else [ell.name]
    run.report({"ellipticity": ell.to_jsonable(), "solve": rep.to_jsonable()}, failed)
    return bool(failed)


def _task_system(run: _Run) -> bool:
    cfg = run.cfg
    mat = SystemMatrix(parse_matrix(cfg.get_str("parameters", "matrix", "1")))
    prob = build_problem(cfg)
    lam = cfg.get_complex("parameters", "lambda", 1.0 + 0.0j)
    mode = cfg.get_str("parameters", "mode", "elliptic")
    literal = cfg.get_bool("parameters", "literal_shift", False)
    p = cfg.get_float("parameters", "p", 2.0)
    if mode == "elliptic":
        f = build_forcing(cfg, prob.grid, mat.size, run.rng())
        rep = solve_system(
            mat, prob.order, prob.a, lam, f, mode=mode, grid=prob.grid,
            literal_shift=literal, p=p,
        )
        _write_solution(run.out / "solution.csv", ["x"], [prob.grid.points], rep.solution.values)
    elif mode == "parabolic":
        horizon = _horizon(cfg)
        steps = _steps(cfg)
        times = np.linspace(0.0, horizon, steps + 1)
        f = _space_time_forcing(cfg, prob.grid, mat.size, times, run.rng())
        rep = solve_system(
            mat, prob.order, prob.a, lam, f, mode=mode, grid=prob.grid,
            horizon=horizon, steps=steps, literal_shift=literal, p=p,
            p1=cfg.get_float("parameters", "p1", 2.0),
        )
        _write_space_time_solution(run.out / "solution.csv", rep.solution)
    else:
        raise ConfigError(f"[parameters] mode must be 'elliptic' or 'parabolic', got {mode!r}")
    run.report(rep.to_jsonable(), [])
    return False


def _task_convergence(run: _Run) -> bool:
    cfg = run.cfg
    levels = cfg.get_list("parameters", "levels", "64,128,256", cast=int)
    if len(levels) < 3:
        raise ConfigError(f"[parameters] levels needs at least 3 entries, got {levels}")
    if sorted(levels) != levels or len(set(levels)) != len(levels):
        raise ConfigError(f"[parameters] levels must be strictly increasing, got {levels}")
    scheme = cfg.get_str("parameters", "scheme", "crank-nicolson")
    prob = build_problem(cfg)
    horizon = _horizon(cfg)

    def final_state(steps: int, integrator: str) -> GridFunction:
        pprob = ParabolicProblem(core=prob, horizon=horizon, steps=steps)
        rng = np.random.default_rng(run.seed)
        f = _space_time_forcing(cfg, prob.grid, prob.dim, pprob.times, rng)
        if integrator == "exact":
            u = solve_parabolic(pprob, f)
        else:
            u = solve_parabolic_stepped(pprob, f, scheme=integrator)
        return u.slice_at(pprob.steps)

    reference = final_state(levels[-1], "exact")
    errors = []
    for steps in levels:
        diff = final_state(steps, scheme).values - reference.values
        errors.append(lp_norm(GridFunction(prob.grid, diff), 2.0))

    orders: list[str] = []
    for i, err in enumerate(errors):
        if err < FLOOR:
            order = "floor"
        elif i == 0 or errors[i - 1] < FLOOR:
            order = "-"
        else:
            order = "%.16e" % (math.log2(errors[i - 1] / err) / math.log2(levels[i] / levels[i - 1]))
        orders.append(order)
    columns = [np.array(levels), np.array(errors, dtype=float), np.array(orders)]
    _write_csv(run.out / "convergence.csv", ["steps", "error", "order"], columns)
    run.report(
        {"scheme": scheme, "levels": levels, "errors": errors, "orders": orders}, []
    )
    return False


_TASKS = {
    "solve-elliptic": _task_solve_elliptic,
    "solve-parabolic": _task_solve_parabolic,
    "resolvent-sweep": _task_resolvent_sweep,
    "verify-conditions": _task_verify_conditions,
    "separability": _task_separability,
    "embedding-probe": _task_embedding_probe,
    "bvp": _task_bvp,
    "system": _task_system,
    "convergence": _task_convergence,
}


def _resolve(flag, env_name: str, cast, default):
    if flag is not None:
        return flag
    env = os.environ.get(env_name)
    if env is not None:
        try:
            return cast(env)
        except ValueError as exc:
            raise ConfigError(f"environment variable {env_name}={env!r}: {exc}") from exc
    return default


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="fracspec",
        description="Spectral runner for sectorial convolution problems on the line.",
    )
    parser.add_argument("--config", help="path to an INI run config")
    parser.add_argument("--out", help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, help="seed for random probes")
    parser.add_argument("--threads", type=int, help="worker threads for sweeps (0 = auto)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        config_path = _resolve(args.config, "FRACSPEC_CONFIG", str, None)
        if config_path is None:
            raise ConfigError("no config given: pass --config or set FRACSPEC_CONFIG")
        cfg = RunConfig.load(config_path)
        seed = _resolve(args.seed, "FRACSPEC_SEED", int, None)
        if seed is None:
            seed = cfg.get_int("parameters", "seed", DEFAULT_SEED)
        out_name = _resolve(args.out, "FRACSPEC_OUT", str, None)
        if out_name is None:
            out_name = cfg.get_str("output", "directory", "out")
        threads = _resolve(args.threads, "FRACSPEC_THREADS", int, None)
        if threads is None:
            threads = cfg.get_int("output", "threads", 1)
        if threads < 0:
            raise ConfigError(f"[output] threads must be >= 0 (0 = all cores), got {threads}")
        if threads == 0:
            threads = os.cpu_count() or 1
        out_dir = Path(out_name)
        out_dir.mkdir(parents=True, exist_ok=True)
        run = _Run(cfg, out_dir, seed, threads)
        failed = _TASKS[cfg.task](run)
    except Exception as exc:  # noqa: BLE001 - single funnel to exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
