"""Coefficient and operator symbols, the assembled frequency symbol
Q(xi, lambda), and the admissibility checks that decide whether a problem
is covered by the solver's estimates.

Checks never raise on mathematical failure; they return a
:class:`ConditionReport` whose witnesses pin down where and by how much a
bound is violated.  Hard errors (singular reference values, exponents out
of range) raise ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Iterable

import numpy as np

from .core import DEFAULT_SEED, Sector, SpatialGrid
from .fractional import FractionalOrder, frac_power_i_xi

__all__ = [
    "CoefficientSymbol",
    "OperatorSymbol",
    "EllipticProblem",
    "JsonRecord",
    "Witness",
    "ConditionReport",
    "constant_coefficient",
    "scaled_decay_coefficient",
    "constant_operator",
    "perturbed_operator",
    "q_symbol",
    "q_matrices",
    "smallest_singular_values",
    "check_sector_growth",
    "check_mikhlin_bounds",
    "symbol_resolvent_bound",
    "scalar_inequality_suite",
]

_FD_STEP = 1e-5  # central-difference step is _FD_STEP * max(1, |xi|)


def _json_value(v):
    """JSON-ready copy of ``v``: complex as {"re", "im"}, numpy scalars and
    arrays as Python values, and a dataclass instance as a dict of its
    fields, skipping any field declared with ``metadata={"json": False}``."""
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if is_dataclass(v) and not isinstance(v, type):
        return {
            f.name: _json_value(getattr(v, f.name))
            for f in fields(v)
            if f.metadata.get("json", True)
        }
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return [_json_value(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return v


class JsonRecord:
    """Base of the result dataclasses: ``to_jsonable`` encodes their fields."""

    def to_jsonable(self) -> dict:
        return _json_value(self)


@dataclass(frozen=True)
class Witness(JsonRecord):
    """A single located violation: where, and by how much."""

    label: str
    location: dict
    magnitude: float


@dataclass(frozen=True, eq=False)
class ConditionReport(JsonRecord):
    """Outcome of one admissibility check.

    ``passed`` is true exactly when ``witnesses`` is empty; empirical
    constants and sampling metadata ride along for reporting.
    """

    name: str
    passed: bool
    constants: dict
    witnesses: tuple[Witness, ...]
    meta: dict

    def __post_init__(self) -> None:
        if self.passed != (len(self.witnesses) == 0):
            raise ValueError("a report passes exactly when it has no witnesses")


@dataclass(frozen=True, eq=False)
class CoefficientSymbol:
    """Scalar symbol xi -> a(xi); ``func`` must accept ndarray input."""

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, xi) -> np.ndarray:
        arr = np.asarray(xi, dtype=float)
        out = np.asarray(self.func(arr), dtype=complex)
        return np.broadcast_to(out, arr.shape).copy() if out.shape != arr.shape else out

    def derivative_at(self, xi, force_fd: bool = False) -> np.ndarray:
        arr = np.asarray(xi, dtype=float)
        if self.derivative is not None and not force_fd:
            out = np.asarray(self.derivative(arr), dtype=complex)
            return np.broadcast_to(out, arr.shape).copy() if out.shape != arr.shape else out
        step = _FD_STEP * np.maximum(1.0, np.abs(arr))
        return (self(arr + step) - self(arr - step)) / (2.0 * step)


def smallest_singular_values(q: np.ndarray, rel_tol: float) -> tuple[np.ndarray, int | None]:
    """Smallest singular value of each matrix in a (..., d, d) stack, and the
    first flat index whose value is at most ``rel_tol * max(largest, 1)``
    (None when every matrix passes): the one singular-symbol gate."""
    svals = np.linalg.svd(q, compute_uv=False)
    smin = svals[..., -1]
    bad = np.flatnonzero(smin <= rel_tol * np.maximum(svals[..., 0], 1.0))
    return smin, (int(bad[0]) if bad.size else None)


@dataclass(frozen=True, eq=False)
class OperatorSymbol:
    """Matrix symbol xi -> A(xi) in C^{d x d}; ``func`` maps (M,) -> (M, d, d).

    ``xi0`` is the nonzero reference frequency used to normalize the
    multiplier bounds; A(xi0) must be invertible.  ``constant_matrix`` is
    set by the constant builder so operations needing a plain matrix
    (fractional powers, SPD gates) can get at it.
    """

    name: str
    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray] | None = None
    xi0: float = 1.0
    constant_matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.xi0 == 0.0:
            raise ValueError("reference frequency xi0 must be nonzero")
        _, bad = smallest_singular_values(self(self.xi0), 1e-12)
        if bad is not None:
            raise ValueError(
                f"operator symbol {self.name!r} is singular at the reference "
                f"frequency xi0={self.xi0}"
            )

    def __call__(self, xi) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(xi, dtype=float))
        out = np.asarray(self.func(arr), dtype=complex)
        if out.shape != (arr.size, self.dim, self.dim):
            raise ValueError(
                f"operator symbol {self.name!r} returned shape {out.shape}, "
                f"expected {(arr.size, self.dim, self.dim)}"
            )
        return out

    def at(self, xi: float) -> np.ndarray:
        return self(np.array([float(xi)]))[0]

    def derivative_at(self, xi, force_fd: bool = False) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(xi, dtype=float))
        if self.derivative is not None and not force_fd:
            out = np.asarray(self.derivative(arr), dtype=complex)
            if out.shape != (arr.size, self.dim, self.dim):
                raise ValueError(
                    f"derivative of operator symbol {self.name!r} returned shape "
                    f"{out.shape}, expected {(arr.size, self.dim, self.dim)}"
                )
            return out
        step = _FD_STEP * np.maximum(1.0, np.abs(arr))
        return (self(arr + step) - self(arr - step)) / (2.0 * step)[:, None, None]


def constant_coefficient(value: complex, name: str | None = None) -> CoefficientSymbol:
    c = complex(value)
    return CoefficientSymbol(
        name=name or f"constant({c:g})",
        func=lambda xi: np.full(np.shape(xi), c),
        derivative=lambda xi: np.zeros(np.shape(xi), dtype=complex),
    )


def scaled_decay_coefficient(
    value: complex, gamma: float, name: str | None = None
) -> CoefficientSymbol:
    """c * |xi|^(2-gamma) / (1 + xi^2)^((2-gamma)/2): bounded, quadratic-growth safe."""
    c = complex(value)
    beta = 2.0 - float(gamma)

    def func(xi: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = c * np.abs(xi) ** beta / (1.0 + xi**2) ** (beta / 2.0)
        return np.where(xi == 0.0, c if beta == 0.0 else 0.0, out)

    def deriv(xi: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            base = (np.abs(xi) / np.sqrt(1.0 + xi**2)) ** (beta - 1.0)
            out = c * beta * base * np.sign(xi) * (1.0 + xi**2) ** (-1.5)
        return np.where(xi == 0.0, 0.0, out)

    return CoefficientSymbol(name=name or f"scaled_decay({c:g},{gamma:g})", func=func, derivative=deriv)


def _square(mat: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {np.shape(mat)}")
    return m


def constant_operator(mat: np.ndarray, name: str | None = None, xi0: float = 1.0) -> OperatorSymbol:
    m = _square(mat, "operator matrix")
    d = m.shape[0]
    return OperatorSymbol(
        name=name or f"constant[{d}x{d}]",
        dim=d,
        func=lambda xi: np.broadcast_to(m, (np.size(xi), d, d)),
        derivative=lambda xi: np.zeros((np.size(xi), d, d), dtype=complex),
        xi0=xi0,
        constant_matrix=m,
    )


def perturbed_operator(
    base: np.ndarray, bump: np.ndarray, name: str | None = None, xi0: float = 1.0
) -> OperatorSymbol:
    """A0 + B/(1 + xi^2): a decaying perturbation of a constant operator."""
    a0 = _square(base, "base matrix")
    b = _square(bump, "perturbation matrix")
    if b.shape != a0.shape:
        raise ValueError(f"perturbation shape {b.shape} does not match base {a0.shape}")
    d = a0.shape[0]

    def func(xi: np.ndarray) -> np.ndarray:
        w = 1.0 / (1.0 + xi**2)
        return a0[None, :, :] + w[:, None, None] * b[None, :, :]

    def deriv(xi: np.ndarray) -> np.ndarray:
        w = -2.0 * xi / (1.0 + xi**2) ** 2
        return w[:, None, None] * b[None, :, :]

    return OperatorSymbol(name=name or f"perturbed[{d}x{d}]", dim=d, func=func, derivative=deriv, xi0=xi0)


_Q_FORMS = ("unfactored", "factored")


@dataclass(frozen=True, eq=False)
class EllipticProblem:
    """Problem data for a*D^gamma u + A*u + lambda*u = f on the line.

    ``q_form`` selects how the frequency symbol is assembled:
    "unfactored" (default) gives a(xi)(i xi)^gamma I + A(xi) + lambda I;
    "factored" gives a(xi) [ (i xi)^gamma I + A(xi) + lambda I ], in which
    case the lambda-coupling of the equation is lambda * (a * u).
    """

    order: FractionalOrder
    a: CoefficientSymbol
    A: OperatorSymbol
    sector: Sector
    grid: SpatialGrid
    q_form: str = "unfactored"

    def __post_init__(self) -> None:
        if self.q_form not in _Q_FORMS:
            raise ValueError(f"q_form must be one of {_Q_FORMS}, got {self.q_form!r}")

    @property
    def dim(self) -> int:
        return self.A.dim


def _q_stack(prob: EllipticProblem, xi: np.ndarray, lam: complex) -> np.ndarray:
    a_vals = prob.a(xi)
    frac = frac_power_i_xi(xi, prob.order.gamma)
    a_mats = prob.A(xi)
    eye = np.eye(prob.dim)
    if prob.q_form == "unfactored":
        return (a_vals * frac + lam)[:, None, None] * eye + a_mats
    return a_vals[:, None, None] * ((frac + lam)[:, None, None] * eye + a_mats)


def q_symbol(prob: EllipticProblem, xi: float, lam: complex) -> np.ndarray:
    """The d x d frequency symbol Q(xi, lambda)."""
    return _q_stack(prob, np.array([float(xi)]), complex(lam))[0]


def q_matrices(prob: EllipticProblem, lam: complex) -> np.ndarray:
    """Q(xi_k, lambda) stacked over the problem grid's frequencies, shape (N, d, d)."""
    return _q_stack(prob, prob.grid.frequencies, complex(lam))


def _grouped_by_magnitude(xi: np.ndarray, vals: np.ndarray):
    """Sorted distinct |xi| together with the max of ``vals`` at each magnitude."""
    mags = np.abs(xi)
    uniq = np.unique(mags)
    grouped = np.array([vals[mags == m].max() for m in uniq])
    return uniq, grouped


def check_sector_growth(prob: EllipticProblem, phi1: Sector) -> ConditionReport:
    """Check that a(xi)(i xi)^gamma stays in the given sector and grows at
    most quadratically.

    Sector membership is tested at every nonzero grid frequency with an
    angular slack of 1e-12 for boundary values.  The quadratic bound
    |a(xi)| |xi|^gamma <= C0 xi^2 is always finite on a truncated grid, so
    failure is reported as divergence toward xi -> 0: the ratio's maximum
    sits at the smallest frequency and exceeds 1.5x its value near
    |xi| = 1.  Witnesses list the offending frequencies.
    """
    xi = prob.grid.frequencies
    xi = xi[xi != 0.0]
    gamma = prob.order.gamma
    vals = prob.a(xi) * frac_power_i_xi(xi, gamma)

    witnesses: list[Witness] = []
    angles = np.abs(np.angle(vals))
    bad = (angles > phi1.angle + 1e-12) & (vals != 0.0)
    for idx in np.nonzero(bad)[0][:16]:
        witnesses.append(
            Witness(
                label="sector",
                location={"xi": float(xi[idx]), "value": complex(vals[idx])},
                magnitude=float(angles[idx] - phi1.angle),
            )
        )
    sector_pass = not bad.any()

    ratio = np.abs(prob.a(xi)) * np.abs(xi) ** gamma / xi**2
    c0 = float(ratio.max())
    uniq, grouped = _grouped_by_magnitude(xi, ratio)
    ref = float(grouped[np.argmin(np.abs(uniq - 1.0))])
    diverging = bool(np.argmax(grouped) == 0 and grouped[0] > 1.5 * ref)
    if diverging:
        small = (uniq < 1.0) & (grouped > 1.5 * ref)
        for m, r in list(zip(uniq[small], grouped[small]))[:16]:
            witnesses.append(
                Witness(label="growth", location={"xi": float(m)}, magnitude=float(r))
            )

    return ConditionReport(
        name="sector-growth",
        passed=sector_pass and not diverging,
        constants={"C0": c0, "phi1": phi1.angle},
        witnesses=tuple(witnesses),
        meta={
            "sector_pass": sector_pass,
            "growth_pass": not diverging,
            "growth_reference": ref,
            "grid_size": prob.grid.size,
            "grid_half_width": prob.grid.half_width,
        },
    )


def check_mikhlin_bounds(prob: EllipticProblem, use_fd: bool = False) -> ConditionReport:
    """Empirical multiplier bounds sup |xi|^b |D^b a| and
    sup ||xi|^b D^b A(xi) A(xi0)^{-1}| for b in {0, 1}.

    A term fails when its sup sits in the outer half-band |xi| >= xi_max/2
    and exceeds 1.25x the mid-band sup, i.e. the quantity is still growing
    at the edge of the resolved spectrum.  ``use_fd`` forces central
    finite-difference derivatives even when analytic ones are available.
    """
    xi = prob.grid.frequencies
    xi = xi[xi != 0.0]
    ref_inv = np.linalg.inv(prob.A.at(prob.A.xi0))

    terms = {
        "coeff_b0": np.abs(prob.a(xi)),
        "coeff_b1": np.abs(xi) * np.abs(prob.a.derivative_at(xi, force_fd=use_fd)),
        "op_b0": np.linalg.norm(prob.A(xi) @ ref_inv, ord=2, axis=(1, 2)),
        "op_b1": np.abs(xi)
        * np.linalg.norm(prob.A.derivative_at(xi, force_fd=use_fd) @ ref_inv, ord=2, axis=(1, 2)),
    }

    edge = np.abs(xi) >= 0.5 * np.abs(xi).max()
    witnesses: list[Witness] = []
    sups: dict[str, float] = {}
    for label, vals in terms.items():
        sups[label] = float(vals.max())
        inner_max = float(vals[~edge].max()) if (~edge).any() else 0.0
        outer_max = float(vals[edge].max())
        if outer_max >= sups[label] and inner_max > 0.0 and outer_max > 1.25 * inner_max:
            at = float(xi[edge][np.argmax(vals[edge])])
            witnesses.append(
                Witness(label=label, location={"xi": at}, magnitude=outer_max)
            )

    return ConditionReport(
        name="multiplier-bounds",
        passed=not witnesses,
        constants={
            "C1": max(sups["coeff_b0"], sups["coeff_b1"]),
            "C2": max(sups["op_b0"], sups["op_b1"]),
        },
        witnesses=tuple(witnesses),
        meta={"term_sups": sups, "used_fd": bool(use_fd), "grid_size": prob.grid.size},
    )


def symbol_resolvent_bound(
    prob: EllipticProblem, lam_values: Iterable[complex]
) -> ConditionReport:
    """Empirical C = sup ||Q(xi, lambda)^{-1}|| (1 + |lambda| + xi^2).

    Every lambda must lie in the problem sector; a singular Q is a hard
    error naming the offending (xi, lambda).
    """
    lam_values = [complex(lam) for lam in lam_values]
    if not lam_values:
        raise ValueError("lambda set must be non-empty")
    xi = prob.grid.frequencies
    best = -math.inf
    argmax = {"xi": 0.0, "lambda": 0j}
    for lam in lam_values:
        if not prob.sector.contains(lam):
            raise ValueError(f"lambda {lam} lies outside the problem sector")
        smin, k = smallest_singular_values(_q_stack(prob, xi, lam), 1e-14)
        if k is not None:
            raise ValueError(f"singular symbol at xi={xi[k]:.6g}, lambda={lam}")
        vals = (1.0 + abs(lam) + xi**2) / smin
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            argmax = {"xi": float(xi[k]), "lambda": lam}
    return ConditionReport(
        name="resolvent-bound",
        passed=True,
        constants={"C": best},
        witnesses=(),
        meta={"argmax": argmax, "lambda_count": len(lam_values)},
    )


def scalar_inequality_suite(
    phi1: Sector,
    phi2: Sector,
    samples: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> ConditionReport:
    """Scalar inequalities behind the symbol estimates.

    Part one: min |lambda + nu| / (|lambda| + |nu|) over a deterministic
    log-radial lattice (25 radii in [1e-3, 1e3], 32 angles per sector)
    with lambda in the phi2-sector and nu in the phi1-sector; positive
    whenever phi1 + phi2 < pi.  Part two: ``samples`` random draws of
    (lambda, xi, s, gamma) checking |lambda|^(1-s/gamma) |xi|^s <=
    |lambda| + |xi|^gamma with no tolerance.
    """
    if phi1.angle + phi2.angle >= math.pi:
        raise ValueError(
            f"sector angles must satisfy phi1 + phi2 < pi, got {phi1.angle + phi2.angle}"
        )
    radii = np.logspace(-3.0, 3.0, 25)
    th_lam = np.linspace(-phi2.angle, phi2.angle, 32)
    th_nu = np.linspace(-phi1.angle, phi1.angle, 32)
    lam = (radii[:, None] * np.exp(1j * th_lam)[None, :]).ravel()
    nu = (radii[:, None] * np.exp(1j * th_nu)[None, :]).ravel()
    quot = np.abs(lam[:, None] + nu[None, :]) / (np.abs(lam)[:, None] + np.abs(nu)[None, :])
    k = int(np.argmin(quot))
    c_min = float(quot.flat[k])
    arg = {"lambda": complex(lam[k // nu.size]), "nu": complex(nu[k % nu.size])}

    rng = np.random.default_rng(seed)
    gam = 1.0 + rng.uniform(np.finfo(float).eps, 1.0, size=samples)
    s = rng.uniform(0.0, gam)
    lam_r = 10.0 ** rng.uniform(-3.0, 3.0, size=samples)
    xi_r = 10.0 ** rng.uniform(-3.0, 3.0, size=samples)
    lhs = lam_r ** (1.0 - s / gam) * xi_r**s
    rhs = lam_r + xi_r**gam
    viol = lhs > rhs

    witnesses: list[Witness] = []
    if c_min <= 0.0:
        witnesses.append(
            Witness(label="angle-separation", location=arg, magnitude=c_min)
        )
    for i in np.nonzero(viol)[0][:16]:
        witnesses.append(
            Witness(
                label="weighted-product",
                location={
                    "lambda_abs": float(lam_r[i]),
                    "xi_abs": float(xi_r[i]),
                    "s": float(s[i]),
                    "gamma": float(gam[i]),
                },
                magnitude=float(lhs[i] / rhs[i]),
            )
        )

    return ConditionReport(
        name="scalar-inequalities",
        passed=not witnesses,
        constants={
            "angle_separation_min": c_min,
            "weighted_product_violations": int(viol.sum()),
            "weighted_product_max_quotient": float((lhs / rhs).max()),
        },
        witnesses=tuple(witnesses),
        meta={"argmin": arg, "samples": int(samples), "seed": int(seed)},
    )
