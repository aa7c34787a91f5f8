"""Flat sectioned key=value run configs and assembly of problem objects.

A run config is an INI file with sections [problem], [task], [parameters]
and [output].  Every key is declared once in :data:`KEYS` with its reader,
which parses the text and holds the value to the key's range, and its
default, written as config text and read like a value from the file.
:meth:`RunConfig.load` rejects a section or key its task does not declare
and reads every key present, so a bad config fails before any work with a
:class:`ConfigError` naming the offending section and key; the CLI prints
it as a one-line diagnostic.
"""

from __future__ import annotations

import cmath
import configparser
import contextlib
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import DEFAULT_SEED, GridFunction, Sector, SpatialGrid, random_band_limited
from .fractional import FractionalOrder
from .parabolic import SCHEMES
from .symbols import (
    _Q_FORMS,
    CoefficientSymbol,
    EllipticProblem,
    OperatorSymbol,
    constant_coefficient,
    constant_operator,
    perturbed_operator,
    scaled_decay_coefficient,
)

__all__ = ["ConfigError", "RunConfig", "build_problem", "build_forcing"]


class ConfigError(ValueError):
    """A run config is missing, malformed, or inconsistent."""


@contextlib.contextmanager
def naming(label: str):
    """Re-raise a ValueError from the block, which builds a config object (a
    sector, matrix, order, grid or operator) from the value of the key that
    ``label`` names, as ``ConfigError(f"{label}: {exc}")``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


# Readers: the text of a key to its value.  A ValueError carries the rest of
# the diagnostic that follows "[section] key ".


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text!r}") from None


def _finite(value, text: str):
    if not cmath.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"must be a number, got {text!r}") from None
    return _finite(value, text)


def _complex(text: str) -> complex:
    try:
        value = complex(text.strip().replace(" ", ""))
    except ValueError:
        raise ValueError(f"must be a complex number, got {text!r}") from None
    return _finite(value, text)


def _bool(text: str) -> bool:
    val = text.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"must be a boolean, got {text!r}")


def _matrix(text: str) -> np.ndarray:
    """Square matrix written as rows "a,b;c,d"; real when every entry is."""
    rows = [r for r in text.strip().split(";") if r.strip()]
    cells = [[_complex(c) for c in row.split(",")] for row in rows]
    if len({len(row) for row in cells}) > 1:
        raise ValueError(f"must have rows of equal length, got {text!r}")
    mat = np.array(cells)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"must be a square matrix, got {text!r}")
    if np.all(mat.imag == 0.0):
        return mat.real.copy()
    return mat


def _list(read):
    """Reader of a comma list whose entries are read by ``read``."""
    return lambda text: [read(c.strip()) for c in text.split(",") if c.strip()]


def _log_range(text: str) -> list[float]:
    """A comma list of floats, or "start:stop:count" as ``count`` log-spaced
    floats from start to stop."""
    if ":" not in text:
        return _list(_float)(text)
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"must be a comma list or start:stop:count, got {text!r}")
    lo, hi, n = _float(parts[0]), _float(parts[1]), _int(parts[2])
    if lo <= 0.0 or hi <= 0.0 or n < 1:
        raise ValueError(f"must have positive endpoints and count, got {text!r}")
    _require_memory("count", n, (n,))
    return list(np.logspace(math.log10(lo), math.log10(hi), n))


def _choice(*options: str):
    either = ", ".join(map(repr, options[:-1])) + f" or {options[-1]!r}"

    def read(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be {either}, got {text!r}")
        return text

    return read


def _ranged(read, test, rule: str):
    """``read``, then a ValueError unless ``test(value)``: the value must ``rule``."""

    def checked(text: str):
        value = read(text)
        if not test(value):
            raise ValueError(f"must {rule}, got {value}")
        return value

    return checked


def _at_least(least: int):
    return _ranged(_int, lambda n: n >= least, f"be at least {least}")


def _levels(text: str) -> list[int]:
    """At least 3 strictly increasing step counts, each at least 2."""
    levels = _list(_int)(text)
    if len(levels) < 3:
        raise ValueError(f"needs at least 3 entries, got {levels}")
    if sorted(levels) != levels or len(set(levels)) != len(levels):
        raise ValueError(f"must be strictly increasing, got {levels}")
    if levels[0] < 2:
        raise ValueError(f"entries must be at least 2, got {levels}")
    return levels


_POSITIVE = _ranged(_float, lambda v: v > 0.0, "be finite and positive")
# Not subnormal either: the embedding probe raises each h to the power mu - 1.
_NORMAL = _ranged(_float, lambda v: v >= sys.float_info.min, "be finite, positive and normal")
_EXPONENT = _ranged(_float, lambda p: p > 1.0, "lie in (1, inf)")  # Lebesgue exponent
_QUARTER_PI = "0.7853981633974483"
# An output directory can be made where no file lies at or above the path.
_DIRECTORY = _ranged(
    str,
    lambda t: next((p for p in (Path(t), *Path(t).parents) if p.exists()), Path(".")).is_dir(),
    "not lie at or below a file",
)

_FORCING = ("forcing", "forcing_mode_index")
_TIME = ("time_profile", "t")
# The [parameters] keys that system takes only with mode = parabolic.
SYSTEM_PARABOLIC = (*_TIME, "nt", "p1")

# The [parameters] keys of each task besides seed, which every task reads
# along with every key of [task], [problem] and [output].
TASK_PARAMETERS = {
    "solve-elliptic": ("lambda", *_FORCING, "s_set", "p"),
    "solve-parabolic": (*_FORCING, *_TIME, "nt", "scheme", "p", "p1"),
    "resolvent-sweep": ("sweep_angle", "radii", "angles", "probes", "p", "refine"),
    "verify-conditions": ("phi1", "lambda_set", "samples"),
    "separability": ("trials", "p", "s_set"),
    "embedding-probe": ("h_set", "draws", "alpha", "s", "p", "q_exp", "mu"),
    "bvp": ("b2", "b1", "b0", "mesh_size", "phi0", "lambda", "transverse_mode", "p"),
    "system": ("matrix", "mode", "lambda", "literal_shift", "p", *_FORCING, *SYSTEM_PARABOLIC),
    "convergence": ("levels", "scheme", *_TIME, *_FORCING),
}
TASKS = tuple(TASK_PARAMETERS)
# The [problem] keys of the operator symbol, its sector and the form of Q.
# bvp and system do not read them: they take the scalar equation alone.
OPERATOR_KEYS = ("a_op_family", "a_op_matrix", "a_op_perturbation", "sector_angle", "q_form")
SCALAR_TASKS = ("bvp", "system")

# Section -> key -> (reader, default as config text).  A None default marks a
# key whose absence the task handles: a_op_perturbation is required by the
# perturbed family; s_set, sweep_angle, phi1 and scheme default to values
# derived from other keys or from the task.
KEYS = {
    # No task is named "": an absent name fails its reader.
    "task": {"name": (_choice(*TASKS), "")},
    "problem": {
        "gamma": (_float, "2.0"),
        "l": (_ranged(_POSITIVE, lambda v: 2.0 * v < math.inf, "have a finite period 2l"), "10.0"),
        "n": (_int, "256"),
        "a_family": (_choice("constant", "scaled_decay"), "constant"),
        "a_value": (_complex, "-1"),
        "a_op_family": (_choice("constant", "perturbed"), "constant"),
        "a_op_matrix": (_matrix, "1"),
        "a_op_perturbation": (_matrix, None),
        "sector_angle": (_float, _QUARTER_PI),
        "q_form": (_choice(*_Q_FORMS), "unfactored"),
    },
    "parameters": {
        "seed": (_at_least(0), str(DEFAULT_SEED)),
        "lambda": (_complex, "1"),
        "forcing": (_choice("gaussian", "mode", "random"), "gaussian"),
        "forcing_mode_index": (_int, "1"),
        "time_profile": (_choice("constant", "sine", "ramp"), "constant"),
        "t": (_POSITIVE, "1.0"),
        "nt": (_at_least(2), "64"),
        "scheme": (_choice(*SCHEMES), None),
        "p": (_EXPONENT, "2.0"),
        "p1": (_EXPONENT, "2.0"),
        "s_set": (_list(_float), None),
        "sweep_angle": (_float, None),
        "radii": (
            _ranged(_log_range, lambda r: r and min(r) >= 0.0, "be non-empty and non-negative"),
            "1e-3:1e3:25",
        ),
        "angles": (_at_least(2), "17"),
        "probes": (_at_least(0), "0"),
        "refine": (_bool, "true"),
        "phi1": (_float, None),
        "lambda_set": (_ranged(_list(_complex), bool, "be non-empty"), "0,1,10"),
        "samples": (_at_least(1), "2000"),
        "trials": (_at_least(1), "50"),
        "h_set": (_ranged(_list(_NORMAL), bool, "be non-empty"), "0.1,0.3,1.0"),
        "draws": (_at_least(1), "8"),
        "alpha": (_ranged(_float, lambda v: v >= 0.0, "be >= 0"), "1.0"),
        "s": (_POSITIVE, "2.0"),
        "q_exp": (_EXPONENT, "2.0"),
        "mu": (_float, "0.0"),
        "b2": (_list(_float), "1"),
        "b1": (_list(_float), "0"),
        "b0": (_list(_float), "0"),
        "mesh_size": (_at_least(1), "31"),
        "phi0": (_float, _QUARTER_PI),
        "transverse_mode": (_int, "1"),
        "matrix": (_matrix, "1"),
        "mode": (_choice("elliptic", "parabolic"), "elliptic"),
        "literal_shift": (_bool, "false"),
        "levels": (_levels, "64,128,256"),
    },
    "output": {
        "directory": (_DIRECTORY, "out"),
        "threads": (_ranged(_int, lambda n: n >= 0, "be >= 0"), "1"),
    },
}


@dataclass
class RunConfig:
    """A run config as the text of each section; :meth:`value` reads a key."""

    sections: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        """Parse ``path``, check its task, then reject any section or key the
        task (in its mode, for system) does not declare and read every key
        present, in file order."""
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        # Values are read verbatim (no interpolation), and [DEFAULT] is an
        # ordinary section, not one copied into every other.
        parser = configparser.ConfigParser(
            inline_comment_prefixes=(";", "#"), interpolation=None, default_section=""
        )
        try:
            parser.read(p)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config {p}: {exc}") from exc
        cfg = cls({name: dict(parser[name]) for name in parser.sections()})
        task = cfg.value("task", "name")
        declared = {**KEYS, "parameters": ("seed", *TASK_PARAMETERS[task])}
        scope = {section: f"task {task}" for section in declared}
        if task in SCALAR_TASKS:
            declared["problem"] = [key for key in KEYS["problem"] if key not in OPERATOR_KEYS]
        if task == "system" and cfg.value("parameters", "mode") == "elliptic":
            scope["parameters"] += " with mode = elliptic"
            declared["parameters"] = [
                key for key in declared["parameters"] if key not in SYSTEM_PARABOLIC
            ]
        for section, values in cfg.sections.items():
            if section not in declared:
                raise ConfigError(f"[{section}]: not a section of task {task}")
            for key in values:
                if key not in declared[section]:
                    raise ConfigError(f"[{section}] {key}: not a key of {scope[section]}")
                cfg.value(section, key)
        return cfg

    @property
    def task(self) -> str:
        return self.sections.get("task", {}).get("name", "")

    def text(self, section: str, key: str) -> str | None:
        """The text of ``[section] key``: the file's, else its declared default."""
        return self.sections.get(section, {}).get(key, KEYS[section][key][1])

    def value(self, section: str, key: str, text: str | None = None):
        """``[section] key`` read by its declared reader from ``text`` when
        given (a command-line or environment override), else from
        :meth:`text`; None for an absent key without a default."""
        if text is None:
            text = self.text(section, key)
        if text is None:
            return None
        try:
            return KEYS[section][key][0](text)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} {exc}") from exc


def build_coefficient(cfg: RunConfig, gamma: float) -> CoefficientSymbol:
    value = cfg.value("problem", "a_value")
    if cfg.value("problem", "a_family") == "scaled_decay":
        return scaled_decay_coefficient(value, gamma)
    return constant_coefficient(value)


def build_operator(cfg: RunConfig) -> OperatorSymbol:
    mat = cfg.value("problem", "a_op_matrix")
    if cfg.value("problem", "a_op_family") == "constant":
        with naming("[problem] a_op_matrix"):
            return constant_operator(mat)
    bump = cfg.value("problem", "a_op_perturbation")
    if bump is None:
        raise ConfigError("missing required key [problem] a_op_perturbation")
    with naming("[problem] a_op_perturbation"):
        return perturbed_operator(mat, bump)


def _operator_key(cfg: RunConfig) -> str:
    """The [problem] key of the operator's larger part: a_op_perturbation when
    the perturbed family's largest entry is there, else a_op_matrix."""
    base, bump = cfg.value("problem", "a_op_matrix"), cfg.value("problem", "a_op_perturbation")
    perturbed = cfg.value("problem", "a_op_family") == "perturbed"
    return "a_op_perturbation" if perturbed and abs(bump).max() > abs(base).max() else "a_op_matrix"


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
    gamma = cfg.value("problem", "gamma")
    with naming("[problem] gamma"):
        order = FractionalOrder(gamma)
    sector_angle = cfg.value("problem", "sector_angle")
    with naming("[problem] sector_angle"):
        sector = Sector(sector_angle)
    a = build_coefficient(cfg, order.gamma)
    op = build_operator(cfg)
    half_width, size = cfg.value("problem", "l"), cfg.value("problem", "n")
    with naming("[problem] n"):
        grid = SpatialGrid(half_width=half_width, size=size)
    # A normal spacing h keeps the top frequency pi/h below 1.42e308.
    if grid.spacing < sys.float_info.min:
        raise ConfigError(
            f"[problem] l = {cfg.text('problem', 'l')} over n = {size} "
            "gives a subnormal grid spacing"
        )
    # Forcings, draws, ledgers and the Mikhlin ratios square values of the order
    # of l or pi/l; separability and resolvent-sweep run at any l of finite
    # period.
    squares = cfg.task not in ("separability", "resolvent-sweep")
    if squares and half_width * half_width == math.inf:
        raise ConfigError(
            f"[problem] l = {cfg.text('problem', 'l')}: l^2 overflows the float range"
        )
    # Every task assembles the N x d x d symbol stack Q(xi).
    _require_memory("[problem] n", grid.size, (grid.size, op.dim, op.dim))
    prob = EllipticProblem(
        order=order, a=a, A=op, sector=sector, grid=grid, q_form=cfg.value("problem", "q_form")
    )
    # The grid symbol is evaluated here first, where an overflow is named.
    with np.errstate(over="ignore", invalid="ignore"):
        sym = prob._symbol
        finite = np.isfinite(sym.a * sym.frac)
    if not finite.all():
        # (i xi)^gamma alone overflowing puts the fault on the top frequency pi/h.
        k = np.argmin(finite)
        key = "a_value" if np.isfinite(sym.frac[k]) else "l"
        raise ConfigError(
            f"[problem] {key} = {cfg.text('problem', key)}: a(xi) (i xi)^gamma "
            f"overflows the float range at xi = {sym.xi[k]:.6g}"
        )
    if cfg.task == "embedding-probe":  # the one task that builds no Q(xi, lambda)
        return prob
    with np.errstate(over="ignore", invalid="ignore"):
        q0_finite = np.isfinite(prob._q0).all(axis=(1, 2))
    if not q0_finite.all():
        # the larger of a and A there is at fault, as in separability_check
        k = np.argmin(q0_finite)
        key = "a_value" if abs(sym.a[k]) >= np.abs(sym.A[k]).max() else _operator_key(cfg)
        raise ConfigError(
            f"[problem] {key} = {cfg.text('problem', key)}: Q(xi, 0) "
            f"overflows the float range at xi = {sym.xi[k]:.6g}"
        )
    return prob


def build_forcing(
    cfg: RunConfig, grid: SpatialGrid, dim: int, rng: np.random.Generator
) -> GridFunction:
    family = cfg.value("parameters", "forcing")
    if family == "random":
        return random_band_limited(grid, dim, rng)
    if family == "gaussian":
        vals = np.exp(-grid.points**2)
    else:
        k = cfg.value("parameters", "forcing_mode_index")
        if not -grid.size // 2 <= k < grid.size // 2:
            raise ConfigError(
                f"[parameters] forcing_mode_index {k} outside the grid's index range"
            )
        xi = math.pi * k / grid.half_width
        vals = np.exp(1j * xi * grid.points)
    return GridFunction(grid, np.tile(vals[:, None], (1, dim)))
