"""Time evolution u_t + O u = f with u(0) = 0, frequency by frequency.

The primary integrator is variation of constants with the forcing taken
piecewise linear in t on each step, evaluated through the matrix
exponential of a block-augmented matrix (one 3d x 3d exponential per
frequency); it is exact for forcing data that is genuinely piecewise
linear in time, and second-order for smooth data.  Implicit Euler and
Crank-Nicolson steppers exist for cross-validation of convergence orders.

The coupled-system entry point wraps a constant SPD coupling matrix as an
operator symbol after gating on symmetry and positive definiteness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from .core import (
    GridFunction,
    Sector,
    SpaceTimeFunction,
    SpatialGrid,
    lp_norm,
    mixed_norm,
)
from .elliptic import SolveError, SolveReport, solve_elliptic
from .fractional import FractionalOrder, frac_power_i_xi
from .symbols import (
    CoefficientSymbol,
    EllipticProblem,
    constant_operator,
    q_matrices,
)

__all__ = [
    "ParabolicProblem",
    "SystemMatrix",
    "solve_parabolic",
    "solve_parabolic_stepped",
    "parabolic_coercive_report",
    "solve_system",
]

SCHEMES = ("implicit-euler", "crank-nicolson")


@dataclass(frozen=True, eq=False)
class ParabolicProblem:
    """Evolution problem on [0, horizon] with ``steps`` uniform time steps."""

    core: EllipticProblem
    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not self.horizon > 0.0:
            raise ValueError(f"time horizon must be positive, got {self.horizon}")
        if self.steps < 2:
            raise ValueError(f"need at least 2 time steps, got {self.steps}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


def _check_forcing(prob: ParabolicProblem, f: SpaceTimeFunction) -> None:
    if f.grid != prob.core.grid:
        raise ValueError("grid mismatch between forcing and problem")
    if f.dim != prob.core.dim:
        raise ValueError(
            f"forcing dimension {f.dim} does not match problem dimension {prob.core.dim}"
        )
    if f.values.shape[0] != prob.steps + 1 or not np.allclose(
        f.times, prob.times, rtol=0.0, atol=1e-12 * max(1.0, prob.horizon)
    ):
        raise ValueError("forcing time samples do not match the problem's uniform grid")


def _dissipative_gate(prob: ParabolicProblem) -> np.ndarray:
    """Q(xi, 0) stack after checking every eigenvalue has positive real part."""
    q0 = q_matrices(prob.core, 0.0)
    eigs = np.linalg.eigvals(q0)
    re_min = eigs.real.min(axis=1)
    if (re_min <= 0.0).any():
        k = int(np.argmin(re_min))
        xi = prob.core.grid.spectral().frequencies[k]
        j = int(np.argmin(eigs[k].real))
        raise SolveError(
            f"operator symbol is not dissipative at xi={xi:.6g}: eigenvalue {eigs[k, j]:.6g}"
        )
    return q0


def _step_matrices(q0: np.ndarray, dt: float):
    """Per-frequency e^Z, phi1(Z), phi2(Z) for Z = -dt*Q via one augmented expm."""
    n, d, _ = q0.shape
    eye = np.eye(d)
    e = np.empty((n, d, d), dtype=complex)
    p1 = np.empty((n, d, d), dtype=complex)
    p2 = np.empty((n, d, d), dtype=complex)
    for k in range(n):
        aug = np.zeros((3 * d, 3 * d), dtype=complex)
        aug[:d, :d] = -dt * q0[k]
        aug[:d, d : 2 * d] = eye
        aug[d : 2 * d, 2 * d :] = eye
        full = expm(aug)
        e[k] = full[:d, :d]
        p1[k] = full[:d, d : 2 * d]
        p2[k] = full[:d, 2 * d :]
    return e, p1, p2


def solve_parabolic(prob: ParabolicProblem, f: SpaceTimeFunction) -> SpaceTimeFunction:
    """Variation-of-constants evolution of u_t + O u = f, u(0) = 0.

    Exact (to rounding) when f is piecewise linear on the time grid, in
    particular for forcing constant in t.
    """
    _check_forcing(prob, f)
    q0 = _dissipative_gate(prob)
    dt = prob.horizon / prob.steps
    e, p1, p2 = _step_matrices(q0, dt)
    fhat = prob.core.grid.to_spectral(f.values)

    uhat = np.zeros_like(fhat)
    for m in range(prob.steps):
        df = fhat[m + 1] - fhat[m]
        uhat[m + 1] = (
            np.einsum("kij,kj->ki", e, uhat[m])
            + dt * (np.einsum("kij,kj->ki", p1, fhat[m]) + np.einsum("kij,kj->ki", p2, df))
        )
    return SpaceTimeFunction(prob.core.grid, prob.times, prob.core.grid.to_physical(uhat))


def solve_parabolic_stepped(
    prob: ParabolicProblem, f: SpaceTimeFunction, scheme: str
) -> SpaceTimeFunction:
    """One-step theta-type schemes for cross-validation.

    "implicit-euler" is first order, "crank-nicolson" second order.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    _check_forcing(prob, f)
    q0 = _dissipative_gate(prob)
    dt = prob.horizon / prob.steps
    n, d, _ = q0.shape
    eye = np.eye(d)[None, :, :]
    fhat = prob.core.grid.to_spectral(f.values)
    uhat = np.zeros_like(fhat)

    if scheme == "implicit-euler":
        step = np.linalg.inv(eye + dt * q0)
        for m in range(prob.steps):
            rhs = uhat[m] + dt * fhat[m + 1]
            uhat[m + 1] = np.einsum("kij,kj->ki", step, rhs)
    else:
        back = np.linalg.inv(eye + 0.5 * dt * q0)
        fwd = eye - 0.5 * dt * q0
        for m in range(prob.steps):
            rhs = np.einsum("kij,kj->ki", fwd, uhat[m]) + 0.5 * dt * (fhat[m] + fhat[m + 1])
            uhat[m + 1] = np.einsum("kij,kj->ki", back, rhs)
    return SpaceTimeFunction(prob.core.grid, prob.times, prob.core.grid.to_physical(uhat))


def parabolic_coercive_report(
    prob: ParabolicProblem,
    f: SpaceTimeFunction,
    u: SpaceTimeFunction | None = None,
    p: float = 2.0,
    p1: float = 2.0,
    swap: bool = False,
) -> SolveReport:
    """Mixed-norm ledger ||u_t|| + ||a*D^gamma u|| + ||A*u|| against ||f||.

    The time derivative is second-order central differencing (one-sided at
    the endpoints); the residual field u_t + a*D^gamma u + A*u - f is
    reported relative to ||f|| in the same mixed norm.
    """
    _check_forcing(prob, f)
    if u is None:
        u = solve_parabolic(prob, f)
    elif u.values.shape != f.values.shape:
        raise ValueError("solution and forcing shapes do not match")

    grid = prob.core.grid
    dt = prob.horizon / prob.steps
    du_dt = np.gradient(u.values, dt, axis=0, edge_order=2)

    xi = grid.spectral().frequencies
    gamma = prob.core.order.gamma
    mult = prob.core.a(xi) * frac_power_i_xi(xi, gamma)
    uhat = grid.to_spectral(u.values)
    frac_term = grid.to_physical(mult[None, :, None] * uhat)
    op_term = grid.to_physical(np.einsum("kij,mkj->mki", prob.core.A(xi), uhat))

    def _mixed(vals: np.ndarray) -> float:
        return mixed_norm(SpaceTimeFunction(grid, u.times, vals), p, p1, swap=swap)

    residual_field = du_dt + frac_term + op_term - f.values
    f_norm = _mixed(f.values)
    resid = _mixed(residual_field)
    terms = {
        "d_t u": _mixed(du_dt),
        f"a*D^{gamma:g} u": _mixed(frac_term),
        "A*u": _mixed(op_term),
    }
    return SolveReport(
        solution=u,
        residual=resid,
        residual_rel=resid / f_norm if f_norm > 0.0 else 0.0,
        term_norms=terms,
        coercive_ratio=sum(terms.values()) / f_norm if f_norm > 0.0 else math.inf,
        meta={
            "p": p,
            "p1": p1,
            "swap": swap,
            "steps": prob.steps,
            "horizon": prob.horizon,
            "forcing_norm": f_norm,
        },
    )


@dataclass(frozen=True, eq=False)
class SystemMatrix:
    """Constant real coupling matrix, gated on symmetry and positive definiteness.

    Construction fails unless the matrix is symmetric to 1e-12 and its
    smallest eigenvalue (the coercivity constant) is positive.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"coupling matrix must be square, got shape {a.shape}")
        scale = max(1.0, float(np.max(np.abs(a))))
        if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
            raise ValueError("coupling matrix is not symmetric to 1e-12")
        eigs = np.linalg.eigvalsh(a)
        if eigs[0] <= 0.0:
            raise ValueError(
                f"coupling matrix is not positive definite: eigenvalue {eigs[0]:.12g}"
            )
        object.__setattr__(self, "entries", a)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def coercivity(self) -> float:
        """Smallest eigenvalue C0 > 0."""
        return float(np.linalg.eigvalsh(self.entries)[0])


def _shifted_coupling(mat: SystemMatrix, lam: complex, literal_shift: bool) -> np.ndarray:
    if literal_shift:
        # lambda added inside the coupling sum: every entry shifts.
        return mat.entries + lam * np.ones_like(mat.entries)
    return mat.entries + lam * np.eye(mat.size)


def solve_system(
    mat: SystemMatrix,
    order: FractionalOrder,
    a: CoefficientSymbol,
    lam: complex,
    f,
    mode: str = "elliptic",
    grid: SpatialGrid | None = None,
    horizon: float | None = None,
    steps: int | None = None,
    literal_shift: bool = False,
    p: float = 2.0,
    p1: float = 2.0,
) -> SolveReport:
    """Solve the constant-coupling system a*D^gamma u_i + sum_j A_ij u_j
    + lambda u_i = f_i in elliptic or parabolic (zero initial data) mode.

    The SPD gate lives in :class:`SystemMatrix`.  ``literal_shift`` adds
    lambda inside the coupling sum instead of on the diagonal.  Reports
    include the coupling-weighted norm ||A u||.
    """
    lam = complex(lam)
    if mode not in ("elliptic", "parabolic"):
        raise ValueError(f"mode must be 'elliptic' or 'parabolic', got {mode!r}")
    if grid is None:
        grid = f.grid
    if mode == "elliptic" and not isinstance(f, GridFunction):
        raise ValueError("elliptic mode takes a GridFunction forcing")
    if mode == "parabolic":
        if not isinstance(f, SpaceTimeFunction):
            raise ValueError("parabolic mode takes a SpaceTimeFunction forcing")
        if horizon is None or steps is None:
            raise ValueError("parabolic mode needs horizon and steps")
    core = EllipticProblem(
        order=order,
        a=a,
        A=constant_operator(_shifted_coupling(mat, lam, literal_shift), name="coupling+shift"),
        sector=Sector.enclosing(lam),
        grid=grid,
    )
    weight = np.asarray(mat.entries, dtype=complex)
    if mode == "elliptic":
        rep = solve_elliptic(core, f, 0.0, p=p)
        weighted = lp_norm(GridFunction(grid, rep.solution.values @ weight.T), p)
    else:
        rep = parabolic_coercive_report(ParabolicProblem(core, horizon, steps), f, p=p, p1=p1)
        u = rep.solution
        weighted = mixed_norm(
            SpaceTimeFunction(grid, u.times, np.einsum("ij,mkj->mki", weight, u.values)), p, p1
        )
    return replace(
        rep,
        term_norms={**rep.term_norms, "A-weighted u": weighted},
        meta={**rep.meta, "mode": mode, "lambda": lam, "literal_shift": literal_shift,
              "coercivity": mat.coercivity},
    )
