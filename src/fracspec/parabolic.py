"""Time evolution u_t + O u = f with u(0) = 0, frequency by frequency.

The primary integrator is variation of constants with the forcing taken
piecewise linear in t on each step, evaluated through the matrix
exponential of a block-augmented matrix (one 3d x 3d exponential per
frequency); it is exact for forcing data that is genuinely piecewise
linear in time, and second-order for smooth data.  Implicit Euler and
Crank-Nicolson steppers, selected through the same entry point, exist for
cross-validation of convergence orders.

The coupled-system entry point wraps a constant SPD coupling matrix as an
operator symbol after gating on symmetry and positive definiteness.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    GridFunction,
    Sector,
    SpaceTimeFunction,
    _mixed_l2_of_spectra,
    lp_norm,
    mixed_norm,
)
from .elliptic import SolveError, SolveReport, solve_elliptic
from .fractional import FractionalOrder, frac_power_i_xi
from .symbols import (
    CoefficientSymbol,
    EllipticProblem,
    OperatorSymbol,
    constant_operator,
    q_matrices,
)

__all__ = [
    "ParabolicProblem",
    "SystemMatrix",
    "solve_parabolic",
    "parabolic_coercive_report",
    "solve_system",
]

SCHEMES = ("exact", "implicit-euler", "crank-nicolson")


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
        xi = prob.core.grid.frequencies[k]
        j = int(np.argmin(eigs[k].real))
        raise SolveError(
            f"operator symbol is not dissipative at xi={xi:.6g}: eigenvalue {eigs[k, j]:.6g}"
        )
    return q0


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential, by ``scipy.linalg.expm``.

    scipy is imported here, on the first call, so that importing fracspec
    (and every task that never integrates exactly in time) does not load it.
    """
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(m)


def _step_matrices(q0: np.ndarray, dt: float):
    """Per-frequency e^Z, phi1(Z), phi2(Z) for Z = -dt*Q, sliced out of the
    exponential of the augmented matrix [[Z, I, 0], [0, 0, I], [0, 0, 0]]."""
    n, d, _ = q0.shape
    aug = np.zeros((n, 3 * d, 3 * d), dtype=complex)
    aug[:, :d, :d] = -dt * q0
    aug[:, :d, d : 2 * d] = aug[:, d : 2 * d, 2 * d :] = np.eye(d)
    for m in aug:
        m[...] = expm(m)
    return aug[:, :d, :d], aug[:, :d, d : 2 * d], aug[:, :d, 2 * d :]


def _evolve(
    prob: ParabolicProblem,
    q0: np.ndarray,
    forcing: Callable[[int], np.ndarray],
    scheme: str,
    states: np.ndarray | None = None,
) -> np.ndarray:
    """Spectrum of u(t_steps) on the problem's time grid.

    ``q0`` is the gated stack Q(xi, 0) and ``forcing(m)`` the (N, d)
    spectrum of f(t_m), read once, when step m first needs it.  The loop
    runs entirely in frequency space and holds only the current state;
    given a (steps+1, N, d) ``states``, it writes each u(t_m), m >= 1,
    into ``states[m]`` as soon as it is computed.  Raises
    ``OverflowError`` at the first state that is not finite, when the
    step is so long that the spectral solution overflows.
    """
    dt = prob.horizon / prob.steps
    eye = np.eye(q0.shape[1])[None, :, :]

    if scheme == "exact":
        e, p1, p2 = _step_matrices(q0, dt)

        def step(u, f0, f1):
            return (
                np.einsum("kij,kj->ki", e, u)
                + dt * (np.einsum("kij,kj->ki", p1, f0) + np.einsum("kij,kj->ki", p2, f1 - f0))
            )
    elif scheme == "implicit-euler":
        inv = np.linalg.inv(eye + dt * q0)

        def step(u, f0, f1):
            return np.einsum("kij,kj->ki", inv, u + dt * f1)
    else:
        back = np.linalg.inv(eye + 0.5 * dt * q0)
        fwd = eye - 0.5 * dt * q0

        def step(u, f0, f1):
            rhs = np.einsum("kij,kj->ki", fwd, u) + 0.5 * dt * (f0 + f1)
            return np.einsum("kij,kj->ki", back, rhs)

    f0 = forcing(0)
    u = np.zeros_like(f0)
    for m in range(1, prob.steps + 1):
        f1 = forcing(m)
        u = step(u, f0, f1)
        if not np.isfinite(u).all():
            raise OverflowError(
                f"time step {dt:.6g} overflows the spectral solution; shorten the horizon"
            )
        if states is not None:
            states[m] = u
        f0 = f1
    return u


def solve_parabolic(
    prob: ParabolicProblem, f: SpaceTimeFunction, scheme: str = "exact"
) -> SpaceTimeFunction:
    """Evolve u_t + O u = f, u(0) = 0 over the problem's uniform time grid.

    "exact" is variation of constants, exact (to rounding) when f is
    piecewise linear on the time grid, in particular for forcing constant
    in t.  The one-step cross-checks "implicit-euler" (first order) and
    "crank-nicolson" (second order) serve convergence-order validation.
    Raises ``OverflowError`` when the step is so long that the spectral
    solution is not finite.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    _check_forcing(prob, f)
    q0 = _dissipative_gate(prob)
    fhat = prob.core.grid.to_spectral(f.values)
    uhat = np.zeros_like(fhat)
    _evolve(prob, q0, fhat.__getitem__, scheme, uhat)
    # Free the forcing spectrum before the inverse transform allocates its
    # output, so the two never sit on the heap together.
    del fhat
    return SpaceTimeFunction(prob.core.grid, prob.times, prob.core.grid.to_physical(uhat))


def parabolic_coercive_report(
    prob: ParabolicProblem,
    f: SpaceTimeFunction,
    scheme: str = "exact",
    p: float = 2.0,
    p1: float = 2.0,
    swap: bool = False,
) -> SolveReport:
    """Solve u_t + O u = f by ``solve_parabolic`` with ``scheme`` and report
    the mixed-norm ledger ||u_t|| + ||a*D^gamma u|| + ||A*u|| against ||f||.

    The time derivative is second-order central differencing (one-sided at
    the endpoints); the residual field u_t + O u - f, with O the symbol
    Q(xi, 0) that ``solve_parabolic`` integrates (in either ``q_form``), is
    reported relative to ||f|| in the same mixed norm.  At p = p1 = 2
    (either ``swap``) the a*D^gamma u and A*u norms are read off their
    spectra by discrete Parseval, with no inverse transform; d_t u, the
    residual and f stay in physical space, so the round trip is still
    exercised.
    """
    u = solve_parabolic(prob, f, scheme)
    grid = prob.core.grid
    dt = prob.horizon / prob.steps
    du_dt = np.gradient(u.values, dt, axis=0, edge_order=2)

    xi = grid.frequencies
    gamma = prob.core.order.gamma
    mult = prob.core.a(xi) * frac_power_i_xi(xi, gamma)
    uhat = grid.to_spectral(u.values)
    ou = grid.to_physical(np.einsum("kij,mkj->mki", q_matrices(prob.core, 0.0), uhat))

    def _mixed(vals: np.ndarray) -> float:
        return mixed_norm(SpaceTimeFunction(grid, u.times, vals), p, p1, swap=swap)

    def _ledger(spectra: np.ndarray) -> float:
        """Mixed norm of the field whose slices have these spectra."""
        if p == p1 == 2.0:
            return _mixed_l2_of_spectra(grid, u.times, spectra)
        return _mixed(grid.to_physical(spectra))

    residual_field = du_dt + ou - f.values
    f_norm = _mixed(f.values)
    resid = _mixed(residual_field)
    terms = {
        "d_t u": _mixed(du_dt),
        f"a*D^{gamma:g} u": _ledger(mult[None, :, None] * uhat),
        "A*u": _ledger(np.einsum("kij,mkj->mki", prob.core.A(xi), uhat)),
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

    Construction fails unless the matrix is real, symmetric to 1e-12 and
    its smallest eigenvalue (the coercivity constant) is positive.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries)
        if (a.imag != 0.0).any():
            raise ValueError("coupling matrix must be real, got a nonzero imaginary part")
        a = np.asarray(a.real, dtype=float)
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


def _coupling_symbol(mat: SystemMatrix, lam: complex, literal_shift: bool) -> OperatorSymbol:
    """The constant operator symbol of the shifted coupling; a singular one is rejected."""
    return constant_operator(_shifted_coupling(mat, lam, literal_shift), name="coupling+shift")


def solve_system(
    mat: SystemMatrix,
    order: FractionalOrder,
    a: CoefficientSymbol,
    lam: complex,
    f: GridFunction | SpaceTimeFunction,
    literal_shift: bool = False,
    p: float = 2.0,
    p1: float = 2.0,
) -> SolveReport:
    """Solve the constant-coupling system a*D^gamma u_i + sum_j A_ij u_j
    + lambda u_i = f_i on the forcing's grid.

    A :class:`GridFunction` forcing is solved in elliptic mode; a
    :class:`SpaceTimeFunction` forcing in parabolic mode (zero initial
    data) over its time samples.  The SPD gate lives in
    :class:`SystemMatrix`.  ``literal_shift`` adds lambda inside the
    coupling sum instead of on the diagonal.  Reports include the
    coupling-weighted norm ||A u||.
    """
    lam = complex(lam)
    if isinstance(f, GridFunction):
        mode = "elliptic"
    elif isinstance(f, SpaceTimeFunction):
        mode = "parabolic"
    else:
        raise ValueError(
            f"forcing must be a GridFunction or a SpaceTimeFunction, got {type(f).__name__}"
        )
    grid = f.grid
    core = EllipticProblem(
        order=order,
        a=a,
        A=_coupling_symbol(mat, lam, literal_shift),
        sector=Sector.enclosing(lam),
        grid=grid,
    )
    weight = np.asarray(mat.entries, dtype=complex)
    if mode == "elliptic":
        rep = solve_elliptic(core, f, 0.0, p=p)
        weighted = lp_norm(GridFunction(grid, rep.solution.values @ weight.T), p)
    else:
        pprob = ParabolicProblem(core, float(f.times[-1]), f.times.size - 1)
        rep = parabolic_coercive_report(pprob, f, p=p, p1=p1)
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
