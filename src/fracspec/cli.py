"""Command-line runner: reads a run config, writes CSV/JSON artifacts.

Exit codes: 0 on success, 2 when a condition check inside the task fails
(the artifacts are still written), 1 on hard errors with a one-line
diagnostic on stderr.  Byte-identical outputs for identical inputs: all
floats are written as ``%.16e``, JSON keys are sorted, newlines are
Unix, and random draws come from a seeded generator.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bvp import BVPCoefficients, check_ellipticity, solve_anisotropic
from .config import (
    KEYS,
    ConfigError,
    RunConfig,
    _operator_key,
    _require_memory,
    build_forcing,
    build_problem,
    naming,
)
from .core import (
    GridFunction,
    Sector,
    SpaceTimeFunction,
    random_band_limited,
)
from .elliptic import coercive_report, embedding_probe, resolvent_sweep, separability_check
from .parabolic import SystemMatrix, _convergence_errors, parabolic_coercive_report, solve_system
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

# The ``%.16e`` fast path takes |x| in [1e-280, 1e280].  Its decimal exponents
# k lie in [-_K_MAX, _K_MAX], allowing for a log10 estimate one off and for
# the carry; there every 10^(16-k) and every product below stays normal.
_K_MAX = 282
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


@functools.cache
def _float_tables():
    """Tables of the ``%.16e`` fast path, indexed by k + _K_MAX or by value;
    built at the first CSV write, so importing the module stays cheap.

    - hi, lo: 10^(16-k) as a double-double, each part correctly rounded
      (int / int true division is), and hh + hl = hi split in halves.
    - digits: the 4 ASCII digits of 0..9999 in the low bytes of a ``<u8``.
    - exps: ``e+XX`` / ``e-XXX`` in the low bytes of a ``<u8``.
    """
    pow10 = []
    for k in range(-_K_MAX, _K_MAX + 1):
        num, den = 10 ** max(16 - k, 0), 10 ** max(k - 16, 0)
        hi = num / den
        n, d = hi.as_integer_ratio()
        hh = _upper_half(hi)
        pow10.append((hi, (num * d - n * den) / (den * d), hh, hi - hh))
    i = np.arange(10000, dtype=np.uint16)
    digits = np.zeros((i.size, 8), np.uint8)
    for place, power in enumerate((1000, 100, 10, 1)):
        digits[:, place] = i // power % 10 + ord("0")
    exps = [b"e%+03d" % k for k in range(-_K_MAX, _K_MAX + 1)]
    return (
        tuple(np.array(part) for part in zip(*pow10)),
        digits.view("<u8").ravel(),
        np.array(exps, dtype="S8").view("<u8"),
    )


def _upper_half(v):
    """Veltkamp's split: the upper 26 significant bits of ``v``, so that
    ``v - _upper_half(v)`` holds the rest and products of halves are exact."""
    t = v * _SPLIT
    return t - (t - v)


def _scaled(a: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^(16-k) as a double-double (yh, yl), with k = i - _K_MAX.

    The table gives 10^(16-k) = hi + lo + e, |e| <= 2^-53 |lo| <= 2^-106 hi.
    Dekker's two-product makes ph + pl = a * hi exactly; a * lo is rounded
    once (error <= 2^-106 a hi) and so is pl + a * lo (error <= 2^-53 *
    2^-52 a hi, as |pl|, |a lo| <= 2^-53 a hi); the final fast two-sum is
    exact.  So |yh + yl - a 10^(16-k)| <= 2^-104 a hi, which is below
    2^-104 * 1e17 < 5e-15 wherever the result lies in [1e16, 1e17).
    """
    hi, lo, hh, hl = (part.take(i) for part in _float_tables()[0])
    ph = a * hi
    ah = _upper_half(a)
    al = a - ah
    s = (((ah * hh - ph) + ah * hl + al * hh) + al * hl) + a * lo
    yh = ph + s
    return yh, s - (yh - ph)


def _float_cells(values: np.ndarray) -> np.ndarray:
    """``'%.16e' % x`` of each float of ``values`` as the rows of an (n, 24)
    uint8 matrix, left to right with 0 bytes for padding.

    A cell prints |x| as n * 10^(k-16), with n the 17-digit integer nearest
    y = |x| 10^(16-k) and y in [1e16, 1e17).  k starts from log10 and moves one
    step where the double-double y (``_scaled``) lies outside that range;
    near either end both choices of k print the same digits, since y then
    rounds to a power of ten.  y lies within 5e-15 of yh + yl and yh is an
    integer (y > 2^53), so rounding yh + yl to an integer rounds y alike
    unless the fraction of yl lies within 1e-9 of 1/2, exact ties included.
    Those cells, non-finite values and |x| outside [1e-280, 1e280] take
    ``'%.16e' % x`` itself; +-0.0 stay on the fast path.  No cell is
    longer than 24 characters (``-1.2345678901234567e-300``).
    """
    _, digits, exps = _float_tables()
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)
    i = np.floor(np.log10(a)).astype(np.intp) + _K_MAX
    yh, yl = _scaled(a, i)
    step = ((yh > 1e17) | ((yh == 1e17) & (yl >= 0.0))).astype(np.intp)
    step -= (yh < 1e16) | ((yh == 1e16) & (yl < 0.0))
    moved = np.flatnonzero(step)
    if moved.size:
        i[moved] += step[moved]
        yh[moved], yl[moved] = _scaled(a[moved], i[moved])
    r = np.rint(yl)
    n = yh.astype(np.int64) + r.astype(np.int64)
    carry = n == 10**17
    n[carry] = 10**16
    i += carry
    zero = x == 0.0
    n[zero] = 0
    i[zero] = _K_MAX
    slow = ~(fast | zero) | (np.abs(np.abs(yl - r) - 0.5) < 1e-9)

    # Four little-endian words per cell: sign, lead digit and point in the
    # top bytes of the first, 8 digits in each of the next two, the exponent.
    # The text lies in bytes 5..28; the cell is that 24-byte window.
    cells = np.empty((x.size, 4), "<u8")
    lead = n // 10**16
    np.left_shift(lead.view(np.uint64) + ord("0"), 48, out=cells[:, 0])
    cells[:, 0] |= np.signbit(x) * np.uint64(ord("-") << 40) | np.uint64(ord(".") << 56)
    for word, block in ((1, (n - lead * 10**16) // 10**8), (2, n % 10**8)):
        upper = block // 10**4
        cells[:, word] = digits.take(upper) | digits.take(block - upper * 10**4) << np.uint64(32)
    cells[:, 3] = exps.take(i)
    cells = cells.view(np.uint8)[:, 5:29]
    slow = np.flatnonzero(slow)
    if slow.size:
        text = np.array(["%.16e" % v for v in x[slow].tolist()], dtype="S24")
        cells[slow] = text.view(np.uint8).reshape(-1, 24)
    return cells


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write one CSV table given as equal-length columns.

    A 1-D column's format follows its dtype: floats as ``%.16e``, integers
    as ``%d`` and anything else verbatim (both through ``astype("S")``).
    Floats are printed by ``_float_cells``, which proves each cell's
    rounding in fixed precision and hands the cells it cannot prove to
    ``'%.16e' % x``, so every byte is that of ``%``-formatting.  A 2-D
    uint8 column holds rendered cells, one row each, padded with 0 bytes
    (as ``_write_solution`` makes them).  Rows are formatted and written
    ``CSV_BLOCK_ROWS`` at a time, so the file is never held whole.
    """
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0])

    def fits(c):
        return c.shape == (rows,) or (c.ndim == 2 and c.dtype == np.uint8 and len(c) == rows)

    if len(columns) != len(header) or not all(map(fits, columns)):
        shapes = [c.shape for c in columns]
        raise ValueError(f"{path.name}: columns {header} have unequal shapes {shapes}")
    floats = [np.issubdtype(c.dtype, np.floating) for c in columns]
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, rows, CSV_BLOCK_ROWS):
            block = [c[start:start + CSV_BLOCK_ROWS] for c in columns]
            fh.write(_csv_block(block, floats))


def _csv_block(block: list[np.ndarray], floats: list[bool]) -> bytes:
    """The CSV rows of equal-length column slices; ``floats`` marks the float ones.

    Each column renders into a (rows, width) uint8 matrix padded with 0
    bytes (a 2-D uint8 column is one already); the matrices are joined with
    comma and newline columns and the padding is dropped.
    """
    rows = len(block[0])
    float_cells = iter(())
    if any(floats):
        stacked = np.column_stack([c for c, f in zip(block, floats) if f])
        float_cells = iter(_float_cells(stacked).reshape(rows, -1, 24).transpose(1, 0, 2))
    comma = np.full((rows, 1), ord(","), np.uint8)
    parts = []
    for col, is_float in zip(block, floats):
        if is_float:
            parts.append(next(float_cells))
        elif col.ndim == 2:
            parts.append(col)
        else:
            text = col.astype("S")
            parts.append(text.view(np.uint8).reshape(rows, text.itemsize))
        parts.append(comma)
    parts[-1] = np.full((rows, 1), ord("\n"), np.uint8)
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", newline="\n")


def _write_solution(path: Path, axes: dict, values: np.ndarray) -> None:
    """Solution CSV of a field sampled on the product of ``axes`` (name to
    points, the first varying slowest): a column per axis, then the real and
    imaginary part of each component of ``values``, one row per point of the
    product.  Each axis's points are formatted once, as rendered cells."""
    rows = math.prod(len(points) for points in axes.values())
    header, cols, outer = list(axes), [], 1
    for points in axes.values():
        cells = _float_cells(np.asarray(points, dtype=float))
        shape = (outer, len(cells), rows // (outer * len(cells)), cells.shape[1])
        cols.append(np.broadcast_to(cells[None, :, None], shape).reshape(rows, -1))
        outer *= len(cells)
    flat = values.reshape(rows, -1)
    names = ["u"] if flat.shape[1] == 1 else [f"u_{c + 1}" for c in range(flat.shape[1])]
    for c, name in enumerate(names):
        header += [f"re_{name}", f"im_{name}"]
        cols += [flat[:, c].real, flat[:, c].imag]
    _write_csv(path, header, cols)


def _horizon(cfg: RunConfig, steps: int) -> float:
    """``[parameters] t``, whose time step over ``steps`` is normal."""
    horizon = cfg.value("parameters", "t")
    if horizon / steps < sys.float_info.min:
        raise ConfigError(
            f"[parameters] t = {horizon} over {steps} steps gives a subnormal time step"
        )
    return horizon


class _Run:
    """Resolved invocation: config plus seed and output dir."""

    def __init__(self, cfg: RunConfig, out_dir: Path, seed: int):
        self.cfg = cfg
        self.out = out_dir
        self.seed = seed

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def report(self, results: dict, failed_checks: list[str]) -> None:
        _write_json(
            self.out / "report.json",
            {
                "task": self.cfg.task,
                "seed": self.seed,
                "threads": self.cfg.value("output", "threads"),
                "config": self.cfg.sections,
                "failed_checks": sorted(failed_checks),
                "results": results,
            },
        )


def _task_solve_elliptic(run: _Run) -> bool:
    cfg = run.cfg
    prob = build_problem(cfg)
    f = build_forcing(cfg, prob.grid, prob.dim, run.rng())
    lam, s_set = cfg.value("parameters", "lambda"), cfg.value("parameters", "s_set")
    rep = coercive_report(prob, f, lam, s_set=s_set, p=cfg.value("parameters", "p"))
    _write_solution(run.out / "solution.csv", {"x": prob.grid.points}, rep.solution.values)
    run.report(rep.to_jsonable(), [])
    return False


def _profile_weights(cfg: RunConfig, times: np.ndarray) -> np.ndarray:
    """The ``[parameters] time_profile`` weight at each of ``times``."""
    profile = cfg.value("parameters", "time_profile")
    if profile == "sine":
        return np.sin(times)
    if profile == "ramp":
        return times.copy()
    return np.ones(times.size)


def _parabolic_forcing(cfg: RunConfig, grid, dim: int, rng) -> SpaceTimeFunction:
    """Spatial forcing times the ``[parameters] time_profile`` weight at each
    time of the uniform grid of ``[parameters] nt`` steps over
    ``[parameters] t``, after checking that its (nt+1) x N x d field fits in
    memory and that its time step is normal."""
    steps = cfg.value("parameters", "nt")
    _require_memory("[parameters] nt", steps, (steps + 1, grid.size, dim))
    times = np.linspace(0.0, _horizon(cfg, steps), steps + 1)
    spatial = build_forcing(cfg, grid, dim, rng)
    vals = _profile_weights(cfg, times)[:, None, None] * spatial.values[None, :, :]
    return SpaceTimeFunction(grid, times, vals)


def _task_solve_parabolic(run: _Run) -> bool:
    cfg = run.cfg
    prob = build_problem(cfg)
    f = _parabolic_forcing(cfg, prob.grid, prob.dim, run.rng())
    rep = parabolic_coercive_report(
        prob,
        f,
        cfg.value("parameters", "scheme") or "exact",
        p=cfg.value("parameters", "p"),
        p1=cfg.value("parameters", "p1"),
    )
    u = rep.solution
    _write_solution(run.out / "solution.csv", {"t": u.times, "x": prob.grid.points}, u.values)
    run.report(rep.to_jsonable(), [])
    return False


def _task_resolvent_sweep(run: _Run) -> bool:
    cfg = run.cfg
    prob = build_problem(cfg)
    sweep_angle = cfg.value("parameters", "sweep_angle")
    with naming("[parameters] sweep_angle"):
        sweep_sector = prob.sector if sweep_angle is None else Sector(sweep_angle)
    radii, angles, probes = (cfg.value("parameters", k) for k in ("radii", "angles", "probes"))
    # The sweep holds its radius x angle lattice and every probe's forcing.
    _require_memory("[parameters] angles", angles, (len(radii), angles))
    _require_memory("[parameters] probes", probes, (probes, prob.grid.size, prob.dim))
    rep = resolvent_sweep(
        prob,
        sweep_sector,
        radii=radii,
        angles=angles,
        probes=probes,
        p=cfg.value("parameters", "p"),
        seed=run.seed,
        refine=cfg.value("parameters", "refine"),
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
    phi1_angle = cfg.value("parameters", "phi1")
    with naming("[parameters] phi1"):
        phi1 = prob.sector if phi1_angle is None else Sector(phi1_angle)
    samples = cfg.value("parameters", "samples")
    _require_memory("[parameters] samples", samples, (samples,))
    # The lambda_set rule runs first; report.json sorts the checks, so the order
    # leaves its bytes alone.
    reports = [
        symbol_resolvent_bound(prob, cfg.value("parameters", "lambda_set")),
        check_sector_growth(prob, phi1),
        check_mikhlin_bounds(prob),
    ]
    try:
        reports.append(scalar_inequality_suite(phi1, prob.sector, samples=samples, seed=run.seed))
    except ValueError as exc:
        raise ConfigError(f"[parameters] phi1: {exc}, with phi2 = [problem] sector_angle") from exc
    failed = [r.name for r in reports if not r.passed]
    run.report({r.name: r.to_jsonable() for r in reports}, failed)
    return bool(failed)


def _task_separability(run: _Run) -> bool:
    cfg = run.cfg
    prob, trials = build_problem(cfg), cfg.value("parameters", "trials")
    # Each trial keeps its ratio.
    _require_memory("[parameters] trials", trials, (trials,))
    rep = separability_check(
        prob,
        trials=trials,
        p=cfg.value("parameters", "p"),
        s_set=cfg.value("parameters", "s_set"),
        seed=run.seed,
    )
    ratios = np.array(rep.meta["ratios"], dtype=float)
    _write_csv(run.out / "ratios.csv", ["trial", "ratio"], [np.arange(1, ratios.size + 1), ratios])
    run.report(rep.to_jsonable(), [] if rep.passed else [rep.name])
    return not rep.passed


def _task_embedding_probe(run: _Run) -> bool:
    cfg = run.cfg
    prob = build_problem(cfg)
    h_set = cfg.value("parameters", "h_set")
    draws = cfg.value("parameters", "draws")
    _require_memory("[parameters] draws", draws, (draws, prob.grid.size, prob.dim))
    alpha, s, p, q, mu = (cfg.value("parameters", k) for k in ("alpha", "s", "p", "q_exp", "mu"))
    rng = run.rng()
    us = [random_band_limited(prob.grid, prob.dim, rng) for _ in range(draws)]
    reports = embedding_probe(prob, us, alpha, s, p, q, mu, h_set)
    ratios = [r for rep in reports for r in rep.meta["ratios"]]
    max_ratio = functools.reduce(max, (rep.constants["max_ratio"] for rep in reports), 0.0)
    draw = np.repeat(np.arange(1, draws + 1), len(h_set))
    columns = [draw, np.tile(np.array(h_set, dtype=float), draws), np.array(ratios, dtype=float)]
    _write_csv(run.out / "ratios.csv", ["draw", "h", "ratio"], columns)
    run.report({"draws": [rep.to_jsonable() for rep in reports], "max_ratio": max_ratio}, [])
    return False


def _poly(cfg: RunConfig, key: str):
    """Polynomial in y from the ascending coefficients "c0,c1,c2" of ``[parameters] key``."""
    coeffs = cfg.value("parameters", key)

    def func(y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        # a value that overflows is inf, which the stencil rules name
        with np.errstate(over="ignore", invalid="ignore"):
            for c in reversed(coeffs):
                out = out * y + c
        return out

    return func


def _task_bvp(run: _Run) -> bool:
    cfg = run.cfg
    prob = build_problem(cfg)
    grid = prob.grid
    mesh_size = cfg.value("parameters", "mesh_size")
    # The solve assembles the N x m x m symbol stack of the boundary operator.
    _require_memory("[parameters] mesh_size", mesh_size, (grid.size, mesh_size, mesh_size))
    coeffs = BVPCoefficients(
        b2=_poly(cfg, "b2"),
        b1=_poly(cfg, "b1"),
        b0=_poly(cfg, "b0"),
        mesh_size=mesh_size,
    )
    wave = cfg.value("parameters", "transverse_mode")
    profile = np.sin(wave * math.pi * coeffs.mesh)
    f = GridFunction(grid, np.exp(-grid.points**2)[:, None] * profile[None, :])
    lam, p = cfg.value("parameters", "lambda"), cfg.value("parameters", "p")
    # The solve holds the coefficients to the stencil rules, which keep the
    # ellipticity check finite.
    rep = solve_anisotropic(coeffs, prob.order, prob.a, lam, f, p=p)
    with naming("[parameters] phi0"):
        ell = check_ellipticity(coeffs, Sector(cfg.value("parameters", "phi0")))
    mesh = {"x": grid.points, "y": coeffs.mesh}
    _write_solution(run.out / "solution.csv", mesh, rep.solution.values)
    failed = [] if ell.passed else [ell.name]
    run.report({"ellipticity": ell.to_jsonable(), "solve": rep.to_jsonable()}, failed)
    return bool(failed)


def _task_system(run: _Run) -> bool:
    cfg = run.cfg
    entries = cfg.value("parameters", "matrix")
    with naming("[parameters] matrix"):
        mat = SystemMatrix(entries)
    prob = build_problem(cfg)
    # Either mode assembles the N x m x m symbol stack of the coupling.
    _require_memory("[problem] n", prob.grid.size, (prob.grid.size, mat.size, mat.size))
    lam = cfg.value("parameters", "lambda")
    literal = cfg.value("parameters", "literal_shift")
    # elliptic mode declares no p1 and reads its default, which it does not use
    p, p1 = cfg.value("parameters", "p"), cfg.value("parameters", "p1")
    axes = {"x": prob.grid.points}
    if cfg.value("parameters", "mode") == "elliptic":
        f = build_forcing(cfg, prob.grid, mat.size, run.rng())
    else:
        f = _parabolic_forcing(cfg, prob.grid, mat.size, run.rng())
        axes = {"t": f.times, **axes}
    rep = solve_system(mat, prob.order, prob.a, lam, f, literal_shift=literal, p=p, p1=p1)
    _write_solution(run.out / "solution.csv", axes, rep.solution.values)
    run.report(rep.to_jsonable(), [])
    return False


def _task_convergence(run: _Run) -> bool:
    cfg = run.cfg
    levels = cfg.value("parameters", "levels")
    scheme = cfg.value("parameters", "scheme") or "crank-nicolson"
    prob = build_problem(cfg)
    text = ",".join(map(str, levels))
    # The loop keeps only an N x d state; this guard bounds the reference's
    # (steps+1) x N x d work, not a resident field.
    _require_memory("[parameters] levels", text, (levels[-1] + 1, prob.grid.size, prob.dim))
    horizon = _horizon(cfg, levels[-1])
    spatial = build_forcing(cfg, prob.grid, prob.dim, run.rng())
    errors = _convergence_errors(
        prob, spatial, functools.partial(_profile_weights, cfg), horizon, levels, scheme
    )

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

# Each task's config key of every argument that a library rule can put the
# fault on; a key of [problem] is named there, the rest in [parameters].
_ARG_KEYS = {
    "solve-elliptic": {"lam": "lambda", "s_set": "s_set"},
    "solve-parabolic": {"dt": "t"},
    "resolvent-sweep": {"phi": "sweep_angle"},
    "verify-conditions": {"lam": "lambda_set"},
    "separability": {"s_set": "s_set", "a": "a_value", "A": "a_op_matrix", "grid": "l"},
    "embedding-probe": {
        "prob": "a_op_family", "A": "a_op_matrix", "q": "q_exp",
        "alpha": "alpha", "s": "s", "mu": "mu",
    },
    "bvp": {"b2": "b2", "b1": "b1", "b0": "b0", "lam": "lambda"},
    "system": {"lam": "lambda", "dt": "t"},
    "convergence": {"dt": "t"},
}


@contextlib.contextmanager
def _keyed(cfg: RunConfig):
    """Re-raise an error that a library rule put on an argument (its ``arg``)
    as a ConfigError naming the task's key of that argument (for the
    operator, the key of its larger part, as ``build_problem`` names it):
    ``[section] key: message``, or ``[section] key = text: message`` for an
    arithmetic fault (an overflow or a zero division).
    Any other error passes unchanged."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        key = _ARG_KEYS[cfg.task].get(getattr(exc, "arg", None))
        if key is None:
            raise
        if key == "a_op_matrix":
            key = _operator_key(cfg)
        section = "problem" if key in KEYS["problem"] else "parameters"
        label = f"[{section}] {key}"
        if isinstance(exc, ArithmeticError):
            label += f" = {cfg.text(section, key)}"
        raise ConfigError(f"{label}: {exc}") from exc


def _override(flag: str | None, env_name: str) -> str | None:
    """The text of a command-line flag, else of environment variable ``env_name``."""
    return flag if flag is not None else os.environ.get(env_name)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise, to exit 1 as every other hard error."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="fracspec",
        description="Spectral runner for sectorial convolution problems on the line.",
    )
    parser.add_argument("--config", help="path to an INI run config")
    parser.add_argument("--out", help="output directory (created if missing)")
    parser.add_argument("--seed", help="seed for random probes")
    try:
        args = parser.parse_args(argv)
        config_path = _override(args.config, "FRACSPEC_CONFIG")
        if config_path is None:
            raise ConfigError("no config given: pass --config or set FRACSPEC_CONFIG")
        cfg = RunConfig.load(config_path)
        seed = cfg.value("parameters", "seed", _override(args.seed, "FRACSPEC_SEED"))
        out_dir = Path(cfg.value("output", "directory", _override(args.out, "FRACSPEC_OUT")))
        run = _Run(cfg, out_dir, seed)
        with _keyed(cfg):
            failed = _TASKS[cfg.task](run)
    except Exception as exc:  # noqa: BLE001 - single funnel to exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
