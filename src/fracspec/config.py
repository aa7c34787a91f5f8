"""Flat sectioned key=value run configs and assembly of problem objects.

A run config is an INI file with sections [problem], [task], [parameters]
and [output].  Everything is a string in the file; typed accessors raise
:class:`ConfigError` naming the offending section and key so the CLI can
print a one-line diagnostic and exit.
"""

from __future__ import annotations

import cmath
import configparser
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import GridFunction, Sector, SpatialGrid, random_band_limited
from .fractional import FractionalOrder, frac_power_i_xi
from .symbols import (
    CoefficientSymbol,
    EllipticProblem,
    OperatorSymbol,
    constant_coefficient,
    constant_operator,
    perturbed_operator,
    scaled_decay_coefficient,
)

__all__ = ["ConfigError", "RunConfig", "build_problem", "build_forcing"]

TASKS = (
    "solve-elliptic",
    "solve-parabolic",
    "resolvent-sweep",
    "verify-conditions",
    "separability",
    "embedding-probe",
    "bvp",
    "system",
    "convergence",
)


class ConfigError(ValueError):
    """A run config is missing, malformed, or inconsistent."""


def parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number from {text!r}") from exc


def parse_matrix(text: str) -> np.ndarray:
    rows = [r for r in text.strip().split(";") if r.strip()]
    try:
        cells = [[parse_complex(c) for c in row.split(",")] for row in rows]
    except ConfigError as exc:
        raise ConfigError(f"cannot parse matrix from {text!r}") from exc
    if len({len(row) for row in cells}) > 1:
        raise ConfigError(f"matrix {text!r} has rows of unequal length")
    mat = np.array(cells)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"matrix {text!r} is not square")
    if np.all(mat.imag == 0.0):
        return mat.real.copy()
    return mat


def _log_range(text: str) -> list[float]:
    """"start:stop:count" as ``count`` log-spaced floats from start to stop."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("log range must be start:stop:count")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError("log range endpoints must be finite")
    if lo <= 0.0 or hi <= 0.0 or n < 1:
        raise ConfigError("log range endpoints and count must be positive")
    return list(np.logspace(math.log10(lo), math.log10(hi), n))


def _finite(section: str, key: str, text: str, value):
    """``value`` parsed from ``text``; a nan or infinite float or complex is a ConfigError."""
    if isinstance(value, (float, complex)) and not cmath.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {text!r}")
    return value


@dataclass
class RunConfig:
    """Parsed run config: raw section dicts plus typed accessors."""

    sections: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            parser.read(p)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {p}: {exc}") from exc
        sections = {name: dict(parser[name]) for name in parser.sections()}
        cfg = cls(sections)
        task = cfg.task
        if task not in TASKS:
            raise ConfigError(f"[task] name must be one of {', '.join(TASKS)}; got {task!r}")
        return cfg

    @property
    def task(self) -> str:
        return self.get_str("task", "name", "")

    def _raw(self, section: str, key: str):
        return self.sections.get(section, {}).get(key)

    def get_str(self, section: str, key: str, default: str | None = None) -> str:
        raw = self._raw(section, key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required key [{section}] {key}")
            return default
        return raw.strip()

    def get_float(self, section: str, key: str, default: float | None = None) -> float:
        raw = self._raw(section, key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required key [{section}] {key}")
            return default
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}") from exc
        return _finite(section, key, raw, value)

    def get_int(self, section: str, key: str, default: int | None = None) -> int:
        raw = self._raw(section, key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required key [{section}] {key}")
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from exc

    def get_bool(self, section: str, key: str, default: bool) -> bool:
        raw = self._raw(section, key)
        if raw is None:
            return default
        val = raw.strip().lower()
        if val in ("1", "true", "yes", "on"):
            return True
        if val in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{section}] {key} must be a boolean, got {raw!r}")

    def get_complex(self, section: str, key: str, default: complex | None = None) -> complex:
        raw = self._raw(section, key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required key [{section}] {key}")
            return default
        try:
            value = parse_complex(raw)
        except ConfigError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc
        return _finite(section, key, raw, value)

    def get_matrix(self, section: str, key: str, default: str | None = None) -> np.ndarray:
        """Square matrix written as rows "a,b;c,d" (see :func:`parse_matrix`)."""
        text = self.get_str(section, key, default)
        try:
            mat = parse_matrix(text)
        except ConfigError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc
        if not np.all(np.isfinite(mat)):
            raise ConfigError(f"[{section}] {key} must be finite, got {text!r}")
        return mat

    def get_list(
        self, section: str, key: str, default: str, cast=float, log_range: bool = False
    ) -> list:
        """Comma list with every entry converted by ``cast``; with
        ``log_range`` the value may also be a "start:stop:count" log range."""
        raw = self.get_str(section, key, default)
        try:
            if log_range and ":" in raw:
                return _log_range(raw)
            entries = [c.strip() for c in raw.split(",") if c.strip()]
            values = [cast(c) for c in entries]
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}: {exc}") from exc
        return [_finite(section, key, c, v) for c, v in zip(entries, values)]

    def to_jsonable(self) -> dict:
        return {name: dict(vals) for name, vals in self.sections.items()}


def build_grid(cfg: RunConfig) -> SpatialGrid:
    half_width = cfg.get_float("problem", "l", 10.0)
    if half_width <= 0.0:
        raise ConfigError(f"[problem] l must be finite and positive, got {half_width}")
    size = cfg.get_int("problem", "n", 256)
    try:
        return SpatialGrid(half_width=half_width, size=size)
    except ValueError as exc:
        raise ConfigError(f"[problem] n: {exc}") from exc


def build_order(cfg: RunConfig) -> FractionalOrder:
    gamma = cfg.get_float("problem", "gamma", 2.0)
    try:
        return FractionalOrder(gamma)
    except ValueError as exc:
        raise ConfigError(f"[problem] gamma: {exc}") from exc


def build_coefficient(cfg: RunConfig, gamma: float) -> CoefficientSymbol:
    family = cfg.get_str("problem", "a_family", "constant")
    value = cfg.get_complex("problem", "a_value", -1.0 + 0.0j)
    if family == "constant":
        return constant_coefficient(value)
    if family == "scaled_decay":
        return scaled_decay_coefficient(value, gamma)
    raise ConfigError(f"[problem] a_family must be 'constant' or 'scaled_decay', got {family!r}")


def build_operator(cfg: RunConfig) -> OperatorSymbol:
    family = cfg.get_str("problem", "a_op_family", "constant")
    mat = cfg.get_matrix("problem", "a_op_matrix", "1")
    if family == "perturbed":
        bump = cfg.get_matrix("problem", "a_op_perturbation")
    elif family != "constant":
        raise ConfigError(
            f"[problem] a_op_family must be 'constant' or 'perturbed', got {family!r}"
        )
    try:
        if family == "constant":
            return constant_operator(mat)
        return perturbed_operator(mat, bump)
    except ValueError as exc:
        raise ConfigError(f"[problem] operator symbol: {exc}") from exc


def _require_memory(key: str, text, shape: tuple[int, ...]) -> None:
    """ConfigError naming ``key = text`` when a complex field of ``shape``
    would not fit in physical memory (page count times page size).

    Called before the field, or anything sized by it, is allocated.
    """
    need = math.prod(shape) * np.dtype(complex).itemsize
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        dims = " x ".join(str(n) for n in shape)
        raise ConfigError(
            f"{key} = {text}: a {dims} complex field needs {need / 2**30:.4g} GiB, "
            f"more than the {have / 2**30:.4g} GiB of physical memory"
        )


def build_problem(cfg: RunConfig) -> EllipticProblem:
    order = build_order(cfg)
    sector_angle = cfg.get_float("problem", "sector_angle", math.pi / 4.0)
    try:
        sector = Sector(sector_angle)
    except ValueError as exc:
        raise ConfigError(f"[problem] sector_angle: {exc}") from exc
    a = build_coefficient(cfg, order.gamma)
    op = build_operator(cfg)
    grid = build_grid(cfg)
    # Every task assembles the N x d x d symbol stack Q(xi).
    _require_memory("[problem] n", grid.size, (grid.size, op.dim, op.dim))
    try:
        prob = EllipticProblem(
            order=order,
            a=a,
            A=op,
            sector=sector,
            grid=grid,
            q_form=cfg.get_str("problem", "q_form", "unfactored"),
        )
    except ValueError as exc:
        raise ConfigError(f"[problem] q_form: {exc}") from exc
    xi = grid.frequencies
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(a(xi) * frac_power_i_xi(xi, order.gamma))
    if not finite.all():
        raise ConfigError(
            f"[problem] a_value = {cfg.get_str('problem', 'a_value', '-1')}: a(xi) (i xi)^gamma "
            f"overflows the float range at xi = {xi[np.argmin(finite)]:.6g}"
        )
    return prob


def build_forcing(
    cfg: RunConfig, grid: SpatialGrid, dim: int, rng: np.random.Generator
) -> GridFunction:
    family = cfg.get_str("parameters", "forcing", "gaussian")
    if family == "gaussian":
        vals = np.exp(-grid.points**2)
        return GridFunction(grid, np.tile(vals[:, None], (1, dim)))
    if family == "mode":
        k = cfg.get_int("parameters", "forcing_mode_index", 1)
        if not -grid.size // 2 <= k < grid.size // 2:
            raise ConfigError(
                f"[parameters] forcing_mode_index {k} outside the grid's index range"
            )
        xi = math.pi * k / grid.half_width
        vals = np.exp(1j * xi * grid.points)
        return GridFunction(grid, np.tile(vals[:, None], (1, dim)))
    if family == "random":
        return random_band_limited(grid, dim, rng)
    raise ConfigError(
        f"[parameters] forcing must be 'gaussian', 'mode' or 'random', got {family!r}"
    )
