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
from functools import cached_property
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .core import DEFAULT_SEED, Sector, SpatialGrid, _at_fault
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
    "q_matrices",
    "smallest_singular_values",
    "symbol_kernel",
    "symbol_smin",
    "check_sector_growth",
    "check_mikhlin_bounds",
    "symbol_resolvent_bound",
    "scalar_inequality_suite",
]

# Singular-symbol gate: Q(xi, lambda) is singular where its smallest
# singular value is at most _SINGULAR_TOL * max(largest, 1).
_SINGULAR_TOL = 1e-14

_XI0 = 1.0  # reference frequency of the multiplier bounds: A(_XI0) must be invertible


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
    """Scalar symbol xi -> a(xi) and its analytic derivative xi -> a'(xi);
    ``func`` and ``derivative`` must accept ndarray input."""

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]

    def __call__(self, xi) -> np.ndarray:
        arr = np.asarray(xi, dtype=float)
        out = np.asarray(self.func(arr), dtype=complex)
        return np.broadcast_to(out, arr.shape).copy() if out.shape != arr.shape else out

    def derivative_at(self, xi) -> np.ndarray:
        """a'(xi), evaluated as ``__call__`` evaluates a(xi)."""
        arr = np.asarray(xi, dtype=float)
        out = np.asarray(self.derivative(arr), dtype=complex)
        return np.broadcast_to(out, arr.shape).copy() if out.shape != arr.shape else out


def smallest_singular_values(q: np.ndarray, rel_tol: float) -> tuple[np.ndarray, int | None]:
    """Smallest singular value of each matrix in a (..., d, d) stack, and the
    first flat index whose value is at most ``rel_tol * max(largest, 1)``
    (None when every matrix passes): the general path of ``symbol_smin``."""
    svals = np.linalg.svd(q, compute_uv=False)
    smin = svals[..., -1]
    bad = np.flatnonzero(smin <= rel_tol * np.maximum(svals[..., 0], 1.0))
    return smin, (int(bad[0]) if bad.size else None)


@dataclass(frozen=True, eq=False)
class OperatorSymbol:
    """Matrix symbol xi -> A(xi) in C^{d x d} and its analytic derivative
    xi -> A'(xi); ``func`` and ``derivative`` map (M,) -> (M, d, d).

    A(xi0) at the reference frequency xi0 = 1 normalizes the multiplier
    bounds and must be invertible.  ``constant_matrix`` is set by the
    constant builder so operations needing a plain matrix (fractional
    powers, SPD gates) can get at it.
    """

    name: str
    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    constant_matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        _, bad = smallest_singular_values(self(_XI0), 1e-12)
        if bad is not None:
            raise ValueError(
                f"operator symbol {self.name!r} is singular at the reference "
                f"frequency xi0={_XI0}"
            )

    def _stack(self, fn, xi, what: str) -> np.ndarray:
        """``fn`` on ``xi`` as an (M, d, d) stack; any other shape is a
        ValueError naming ``what`` of the symbol."""
        arr = np.atleast_1d(np.asarray(xi, dtype=float))
        out = np.asarray(fn(arr), dtype=complex)
        if out.shape != (arr.size, self.dim, self.dim):
            raise ValueError(
                f"{what}operator symbol {self.name!r} returned shape {out.shape}, "
                f"expected {(arr.size, self.dim, self.dim)}"
            )
        return out

    def __call__(self, xi) -> np.ndarray:
        return self._stack(self.func, xi, "")

    def at(self, xi: float) -> np.ndarray:
        return self(np.array([float(xi)]))[0]

    def derivative_at(self, xi) -> np.ndarray:
        """A'(xi), checked for shape as A(xi) is."""
        return self._stack(self.derivative, xi, "derivative of ")


def constant_coefficient(value: complex) -> CoefficientSymbol:
    c = complex(value)
    return CoefficientSymbol(
        name=f"constant({c:g})",
        func=lambda xi: np.full(np.shape(xi), c),
        derivative=lambda xi: np.zeros(np.shape(xi), dtype=complex),
    )


def scaled_decay_coefficient(value: complex, gamma: float) -> CoefficientSymbol:
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

    return CoefficientSymbol(name=f"scaled_decay({c:g},{gamma:g})", func=func, derivative=deriv)


def _square(mat: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {np.shape(mat)}")
    return m


def constant_operator(mat: np.ndarray, name: str | None = None) -> OperatorSymbol:
    m = _square(mat, "operator matrix")
    d = m.shape[0]
    return OperatorSymbol(
        name=name or f"constant[{d}x{d}]",
        dim=d,
        func=lambda xi: np.broadcast_to(m, (np.size(xi), d, d)),
        derivative=lambda xi: np.zeros((np.size(xi), d, d), dtype=complex),
        constant_matrix=m,
    )


def perturbed_operator(base: np.ndarray, bump: np.ndarray) -> OperatorSymbol:
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

    return OperatorSymbol(name=f"perturbed[{d}x{d}]", dim=d, func=func, derivative=deriv)


_Q_FORMS = ("unfactored", "factored")


class _GridSymbol(NamedTuple):
    """The lambda-independent parts of Q on a problem grid, and the values of
    A behind a normal Q (None when Q is not normal)."""

    xi: np.ndarray
    a: np.ndarray
    frac: np.ndarray
    A: np.ndarray
    normal: np.ndarray | None


class _Symmetrizer(NamedTuple):
    """A positive diagonal s, kappa = max s / min s and J = S A S^-1 = W diag(mu) W^T."""

    s: np.ndarray
    kappa: float
    mu: np.ndarray
    W: np.ndarray


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

    @cached_property
    def _symbol(self) -> _GridSymbol:
        """Q's lambda-independent parts on ``grid`` as read-only views, taken on
        first use.  Q is a scalar times (a scalar times I plus A(xi)), so it is
        normal when d == 1 or A(xi) is exactly Hermitian at every frequency;
        ``normal`` is then ``A.constant_matrix`` (d, d) if set, else A(xi)."""
        xi = self.grid.frequencies
        a_vals, frac, a_mats = self.a(xi), frac_power_i_xi(xi, self.order.gamma), self.A(xi)
        normal = a_mats if self.A.constant_matrix is None else self.A.constant_matrix
        if self.dim > 1 and not np.array_equal(normal, np.conj(np.swapaxes(normal, -1, -2))):
            normal = None
        # broadcast_to(v, v.shape) is a read-only view of v
        parts = (xi, a_vals, frac, a_mats, normal)
        return _GridSymbol(*(v if v is None else np.broadcast_to(v, v.shape) for v in parts))

    @cached_property
    def _q0(self) -> np.ndarray:
        """The stack Q(xi, 0) of :func:`q_matrices` as a read-only view, taken on first use."""
        q0 = q_matrices(self, 0.0)
        return np.broadcast_to(q0, q0.shape)

    @cached_property
    def _mu(self) -> np.ndarray:
        """The eigenvalues of ``_symbol.normal``, taken on first use."""
        normal = self._symbol.normal
        return normal[..., 0] if self.dim == 1 else np.linalg.eigvalsh(normal)

    @cached_property
    def _symmetrizer(self) -> _Symmetrizer | None:
        """The diagonal symmetrizer of a constant A that is not normal but real
        tridiagonal with A[i, i+1] A[i+1, i] > 0 (Wilkinson 1965, ch. 5), taken
        on first use; None for any other A, or when kappa >= _SINGULAR_TOL**-0.5
        and the gate's bounds clear nothing.  No product of two entries is formed."""
        mat = self.A.constant_matrix
        if mat is None or self._symbol.normal is not None or mat.imag.any():
            return None
        mat = mat.real
        up, low = np.diag(mat, 1), np.diag(mat, -1)
        tridiagonal = not (np.triu(mat, 2).any() or np.tril(mat, -2).any())
        if not tridiagonal or (np.sign(up) * np.sign(low) <= 0).any():
            return None
        root_up, root_low = np.sqrt(np.abs(up)), np.sqrt(np.abs(low))
        with np.errstate(all="ignore"):
            s = np.cumprod(np.r_[1.0, root_up / root_low])  # s[i+1] / s[i] = sqrt|up[i] / low[i]|
            kappa = float(s.max() / s.min())
        if not kappa < _SINGULAR_TOL**-0.5:
            return None
        off = np.sign(up) * root_up * root_low
        mu, w = np.linalg.eigh(np.diag(np.diag(mat)) + np.diag(off, 1) + np.diag(off, -1))
        return _Symmetrizer(s, kappa, mu, w)


def _in_sector(sector: Sector, lam: complex) -> complex:
    """``lam`` as a complex number; ValueError, at fault ``lam``, unless ``sector`` holds it."""
    lam = complex(lam)
    if not sector.contains(lam):
        outside = f"lambda {lam} lies outside the problem sector (angle {sector.angle:.6g})"
        raise _at_fault("lam", ValueError(outside))
    return lam


def _q_stack(prob: EllipticProblem, xi: np.ndarray, lam: complex) -> np.ndarray:
    """Q(xi, lambda) assembled from the grid symbol; ``xi`` is its
    frequencies, passed so that a profiler can key each call on them."""
    sym = prob._symbol
    eye = np.eye(prob.dim)
    if prob.q_form == "unfactored":
        return (sym.a * sym.frac + lam)[:, None, None] * eye + sym.A
    return sym.a[:, None, None] * ((sym.frac + lam)[:, None, None] * eye + sym.A)


def q_matrices(prob: EllipticProblem, lam: complex) -> np.ndarray:
    """Q(xi_k, lambda) stacked over the problem grid's frequencies, shape (N, d, d)."""
    return _q_stack(prob, prob._symbol.xi, complex(lam))


def symbol_kernel(prob: EllipticProblem) -> str:
    """Which kernel ``symbol_smin`` uses on the problem grid: "hermitian-eig"
    when Q(xi, lambda) is normal there, else "svd"."""
    return "svd" if prob._symbol.normal is None else "hermitian-eig"


def _eigenvalues(prob: EllipticProblem, lam: complex, mu: np.ndarray | None = None) -> np.ndarray:
    """The planar (d, N) eigenvalues nu_j of a normal Q(xi, lambda) on the
    problem grid: nu_j = a (i xi)^gamma + lambda + mu_j (unfactored) or
    a ((i xi)^gamma + lambda + mu_j) (factored), with mu_j the (d,) or
    (N, d) eigenvalues of A(xi), ``prob._mu`` unless the caller has them already."""
    sym, mu = prob._symbol, prob._mu if mu is None else mu
    mu = np.atleast_2d(mu).T  # (d, 1) or (d, N)
    if prob.q_form == "unfactored":
        return sym.a * sym.frac + lam + mu
    return sym.a * (sym.frac + lam + mu)


def symbol_smin(
    prob: EllipticProblem, lam: complex, q: np.ndarray | None = None
) -> tuple[np.ndarray, int | None]:
    """``smallest_singular_values(q_matrices(prob, lam), _SINGULAR_TOL)``
    without the SVD when Q is normal: the singular-symbol gate.

    A normal Q has singular values |nu_j|, the moduli of the eigenvalues of
    :func:`_eigenvalues`.  Other problems take the SVD, of ``q`` when the
    caller has built the stack already.
    """
    if prob._symbol.normal is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            mods = np.abs(_eigenvalues(prob, lam))
        # an overflowed modulus bounds nothing: leave the verdict to the SVD
        if np.isfinite(mods).all():
            smin = mods.min(axis=0)
            bad = np.flatnonzero(~_cleared(smin, mods.max(axis=0), 1.0))
            return smin, (int(bad[0]) if bad.size else None)
    return smallest_singular_values(q_matrices(prob, lam) if q is None else q, _SINGULAR_TOL)


def _cleared(lo: np.ndarray, hi: np.ndarray, kappa: float) -> np.ndarray:
    """Where Q = S^-1 N S, N normal with eigenvalue moduli in [lo, hi] and
    kappa = cond(S), surely passes the singular-symbol gate, as smin(Q) >= lo / kappa
    and smax(Q) <= kappa hi (Bauer & Fike 1960); at kappa = 1, the gate itself."""
    return lo / kappa > _SINGULAR_TOL * np.maximum(kappa * hi, 1.0)


def _symmetrized_gate(prob: EllipticProblem, lam: complex) -> tuple[np.ndarray, int | None]:
    """The (d, N) eigenvalues nu of a symmetrizable Q and the verdict of ``symbol_smin``,
    for which only the frequencies that ``_cleared`` cannot clear take the SVD."""
    rec = prob._symmetrizer
    with np.errstate(over="ignore", invalid="ignore"):
        nu = _eigenvalues(prob, lam, rec.mu)
        mods = np.abs(nu)
        unclear = np.flatnonzero(~_cleared(mods.min(axis=0), mods.max(axis=0), rec.kappa))
    if not unclear.size:
        return nu, None
    _, k = smallest_singular_values(q_matrices(prob, lam)[unclear], _SINGULAR_TOL)
    return nu, None if k is None else int(unclear[k])


def _grouped_by_magnitude(xi: np.ndarray, vals: np.ndarray):
    """Sorted distinct |xi| together with the max of ``vals`` at each magnitude."""
    mags = np.abs(xi)
    order = np.argsort(mags, kind="stable")
    mags = mags[order]
    starts = np.flatnonzero(np.r_[True, mags[1:] != mags[:-1]])
    return mags[starts], np.maximum.reduceat(vals[order], starts)


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
    sym = prob._symbol
    nz = sym.xi != 0.0
    xi, a_vals = sym.xi[nz], sym.a[nz]
    gamma = prob.order.gamma
    vals = a_vals * sym.frac[nz]

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

    ratio = np.abs(a_vals) * np.abs(xi) ** gamma / xi**2
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


def check_mikhlin_bounds(prob: EllipticProblem) -> ConditionReport:
    """Empirical multiplier bounds sup |xi|^b |D^b a| and
    sup ||xi|^b D^b A(xi) A(xi0)^{-1}| for b in {0, 1}.

    A term fails when its sup sits in the outer half-band |xi| >= xi_max/2
    and exceeds 1.25x the mid-band sup, i.e. the quantity is still growing
    at the edge of the resolved spectrum.  The b = 1 terms read the
    symbols' analytic derivatives.
    """
    sym = prob._symbol
    nz = sym.xi != 0.0
    xi = sym.xi[nz]
    ref_inv = np.linalg.inv(prob.A.at(_XI0))

    terms = {
        "coeff_b0": np.abs(sym.a[nz]),
        "coeff_b1": np.abs(xi) * np.abs(prob.a.derivative_at(xi)),
    }
    const = prob.A.constant_matrix
    if const is None:
        terms["op_b0"] = np.linalg.norm(sym.A[nz] @ ref_inv, ord=2, axis=(1, 2))
        terms["op_b1"] = np.abs(xi) * np.linalg.norm(
            prob.A.derivative_at(xi) @ ref_inv, ord=2, axis=(1, 2)
        )
    else:
        # a constant operator has one norm and a derivative that is exactly 0
        terms["op_b0"] = np.full(xi.shape, np.linalg.norm(const @ ref_inv, ord=2))
        terms["op_b1"] = np.zeros(xi.shape)

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
        meta={"term_sups": sups, "grid_size": prob.grid.size},
    )


def symbol_resolvent_bound(
    prob: EllipticProblem, lam_values: Iterable[complex]
) -> ConditionReport:
    """Empirical C = sup ||Q(xi, lambda)^{-1}|| (1 + |lambda| + xi^2).

    Every lambda must lie in the problem sector; a singular Q is a hard
    error naming the offending (xi, lambda).
    """
    lam_values = [_in_sector(prob.sector, lam) for lam in lam_values]
    if not lam_values:
        raise ValueError("lambda set must be non-empty")
    xi = prob.grid.frequencies
    best = -math.inf
    argmax = {"xi": 0.0, "lambda": 0j}
    for lam in lam_values:
        smin, k = symbol_smin(prob, lam)
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
        meta={
            "argmax": argmax,
            "lambda_count": len(lam_values),
            "symbol_kernel": symbol_kernel(prob),
        },
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
    lam = radii[:, None] * np.exp(1j * th_lam)[None, :]
    nu = (radii[:, None] * np.exp(1j * th_nu)[None, :]).ravel()
    # One lambda radius (32 x 800 quotients) at a time; a strict < keeps
    # the first occurrence of the minimum in row-major order.
    c_min, arg = math.inf, {}
    for row in lam:
        quot = np.abs(row[:, None] + nu[None, :]) / (np.abs(row)[:, None] + np.abs(nu)[None, :])
        k = int(np.argmin(quot))
        if quot.flat[k] < c_min:
            c_min = float(quot.flat[k])
            arg = {"lambda": complex(row[k // nu.size]), "nu": complex(nu[k % nu.size])}

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
