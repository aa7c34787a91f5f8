"""Time evolution u_t + O u = f with u(0) = 0, frequency by frequency.

The primary integrator is variation of constants with the forcing taken
piecewise linear in t on each step; it is exact for forcing data that is
genuinely piecewise linear in time, and second-order for smooth data.
One time loop steps every scheme.  On a normal Q(xi, 0) the exact scheme
steps each eigenmode with the scalars e^z, phi1(z) and phi2(z); otherwise
it slices e^Z, phi1(Z) and phi2(Z) out of the matrix exponentials of
block-augmented matrices (one 3d x 3d matrix per frequency, all in one
call).  The implicit Euler and Crank-Nicolson steppers always step with
matrices; they exist for cross-validation of convergence orders.

The coupled-system entry point wraps a constant SPD coupling matrix as an
operator symbol after gating on symmetry and positive definiteness.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    GridFunction,
    Sector,
    SpaceTimeFunction,
    _at_fault,
    _mixed_l2_of_spectra,
    _time_step,
    lp_norm,
    mixed_norm,
)
from .elliptic import SolveError, SolveReport, _check_forcing, solve_elliptic
from .fractional import FractionalOrder
from .symbols import (
    CoefficientSymbol,
    EllipticProblem,
    _eigenvalues,
    constant_operator,
)

__all__ = [
    "SystemMatrix",
    "solve_parabolic",
    "parabolic_coercive_report",
    "solve_system",
]

SCHEMES = ("exact", "implicit-euler", "crank-nicolson")


def _dissipative_gate(prob: EllipticProblem) -> np.ndarray:
    """The problem's Q(xi, 0) stack after checking every eigenvalue has positive real part."""
    q0 = prob._q0
    eigs = np.linalg.eigvals(q0)
    re_min = eigs.real.min(axis=1)
    if (re_min <= 0.0).any():
        k = int(np.argmin(re_min))
        xi = prob.grid.frequencies[k]
        j = int(np.argmin(eigs[k].real))
        raise SolveError(
            f"operator symbol is not dissipative at xi={xi:.6g}: eigenvalue {eigs[k, j]:.6g}"
        )
    return q0


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponentials of a (..., n, n) stack by ``scipy.linalg.expm``,
    which takes them slice by slice: the bits of one call per matrix.

    scipy is imported here, on the first call, which only the exact scheme
    on a Q that is not normal and the ``convergence`` study's reference
    make: importing fracspec, and every other task and solve, never loads it.
    """
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(m)


def _step_matrices(q0: np.ndarray, dt: float):
    """Per-frequency e^Z, phi1(Z), phi2(Z) for Z = -dt*Q, sliced out of one
    :func:`expm` of the stack of [[Z, I, 0], [0, 0, I], [0, 0, 0]]."""
    n, d, _ = q0.shape
    aug = np.zeros((n, 3 * d, 3 * d), dtype=complex)
    aug[:, :d, :d] = -dt * q0
    aug[:, :d, d : 2 * d] = aug[:, d : 2 * d, 2 * d :] = np.eye(d)
    aug = expm(aug)
    return aug[:, :d, :d], aug[:, :d, d : 2 * d], aug[:, :d, 2 * d :]


# Terms of the Taylor series of phi1 and phi2 taken on |z| < 1: the first
# one left out is below 1/19! < 1e-17 there, against |phi1|, |phi2| > 1/4.
_PHI_TERMS = 18


def _phi(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e^z, phi1(z) = (e^z - 1)/z and phi2(z) = (e^z - 1 - z)/z^2, elementwise:
    the scalar e^Z, phi1(Z), phi2(Z) of :func:`_step_matrices`.

    On |z| < 1, where the closed forms cancel, phi1 and phi2 are their Taylor
    series.  Elsewhere phi1 = expm1(z)/z and phi2 = (phi1 - 1)/z, which stay
    finite at every finite z with Re z <= 0; (e^z - 1 - z)/z^2 would divide
    by an overflowed z^2 once |z| passes about 1e154.
    """
    small = np.abs(z) < 1.0
    zs = np.where(small, z, 0.0)
    zl = np.where(small, 1.0, z)
    t1 = t2 = 0.0
    for k in range(_PHI_TERMS - 1, -1, -1):
        t1 = t1 * zs + 1.0 / math.factorial(k + 1)
        t2 = t2 * zs + 1.0 / math.factorial(k + 2)
    p1 = np.expm1(zl) / zl
    return np.exp(z), np.where(small, t1, p1), np.where(small, t2, (p1 - 1.0) / zl)


def _step_overflow(dt: float) -> OverflowError:
    overflow = f"time step {dt:.6g} overflows the spectral solution; shorten the horizon"
    return _at_fault("dt", OverflowError(overflow))


def _evolve(
    q: np.ndarray,
    dt: float,
    steps: int,
    forcing: Callable[[int], np.ndarray],
    scheme: str,
    states: np.ndarray | None = None,
) -> np.ndarray:
    """Spectrum of u(t_steps) after ``steps`` uniform steps of length ``dt``.

    ``q`` is the gated (N, d, d) stack Q(xi, 0) or, for the exact scheme
    only, the planar (d, N) eigenvalues nu of a normal Q(xi, 0), as
    :func:`_eigenvalues` gives them; ``forcing(m)`` is the planar (d, N)
    spectrum of f(t_m) in the same basis, read when step m first needs it.
    The loop holds only the current (d, N) state; given a (steps+1, d, N)
    ``states``, it writes each u(t_m), m >= 1, into ``states[m]`` as soon
    as it is computed.  The coefficients, (d, N) scalars of :func:`_phi` at
    -dt nu or (d, d, N) stacks of matrices, are held with the frequency axis
    innermost; the identity is built only for the matrices.  Raises
    ``OverflowError``, at fault ``dt`` and with no warning, before the first
    step when dt * q overflows and after the last when a state is not finite.
    """
    if q.ndim == 2:
        mul = np.multiply
    else:
        eye = np.eye(q.shape[1])[None, :, :]

        def planar(m):
            return np.ascontiguousarray(np.moveaxis(m, 0, -1))

        def mul(m, v):
            return np.einsum("ijk,jk->ik", m, v)

    # whatever overflows here leaves a value that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(dt * q).all():
            raise _step_overflow(dt)
        if scheme == "exact":
            e, p1, p2 = _phi(-dt * q) if q.ndim == 2 else map(planar, _step_matrices(q, dt))

            def step(u, f0, f1):
                return mul(e, u) + dt * (mul(p1, f0) + mul(p2, f1 - f0))
        elif scheme == "implicit-euler":
            inv = planar(np.linalg.inv(eye + dt * q))

            def step(u, f0, f1):
                return mul(inv, u + dt * f1)
        else:
            back = planar(np.linalg.inv(eye + 0.5 * dt * q))
            fwd = planar(eye - 0.5 * dt * q)

            def step(u, f0, f1):
                return mul(back, mul(fwd, u) + 0.5 * dt * (f0 + f1))

        f0 = forcing(0)
        u = np.zeros_like(f0)
        for m in range(1, steps + 1):
            f1 = forcing(m)
            u = step(u, f0, f1)
            if states is not None:
                states[m] = u
            f0 = f1
    # a step only scales the state and adds to it, so a component that is
    # not finite stays so: the last state is finite when every one is
    if not np.isfinite(u).all():
        raise _step_overflow(dt)
    return u


def _convergence_errors(
    prob: EllipticProblem,
    spatial: GridFunction,
    profile: Callable[[np.ndarray], np.ndarray],
    horizon: float,
    levels: Sequence[int],
    scheme: str,
) -> list[float]:
    """The L2 error at t = ``horizon`` of ``scheme`` at each step count in
    ``levels`` against the exact scheme at the last level, for the forcing
    profile(times) * spatial(x).  Raises ``OverflowError`` as :func:`_evolve`."""
    grid = prob.grid
    # Every level's forcing is w(t_m) s(x): transform s once, and
    # hold its spectrum planar (d, N), as the time loop reads it.
    shat = np.ascontiguousarray(grid.to_spectral(spatial.values).T)
    q0 = _dissipative_gate(prob)

    def final_state(steps: int, integrator: str) -> np.ndarray:
        times = np.linspace(0.0, horizon, steps + 1)
        w = profile(times)
        # The forcing spectrum of step m is formed when the loop reads it.
        uhat = _evolve(q0, _time_step(times), steps, lambda m: w[m] * shat, integrator)
        return grid.to_physical(uhat.T)

    # The reference stays on the augmented expm even for a normal Q.  The
    # eigenbasis steps of _solve_spectral move the `error` column of
    # convergence.csv by up to 2e-9 relative (its norm by up to 3e-11), and
    # the benchmark's fingerprint check judges that column at 1e-12 of its
    # own scale, below the rounding of the two solutions it is the
    # difference of.  Switch once that check judges `error` at the
    # solutions' scale (ROADMAP item 1).
    exact = final_state(levels[-1], "exact")
    errors = []
    for steps in levels:
        # With the exact scheme the last level is the reference itself.
        same = scheme == "exact" and steps == levels[-1]
        diff = (exact if same else final_state(steps, scheme)) - exact
        errors.append(lp_norm(GridFunction(grid, diff), 2.0))
    return errors


def _solve_spectral(
    prob: EllipticProblem, f: SpaceTimeFunction, scheme: str
) -> tuple[np.ndarray, np.ndarray, SpaceTimeFunction]:
    """The gated stack Q(xi, 0), the C-ordered (M, N, d) spectra of the
    solution of :func:`solve_parabolic`, and that solution.

    The exact scheme on a normal Q(xi, 0) = V diag(nu) V^H steps in the
    eigenbasis: (mu, V) are the eigenpairs of ``_symbol.normal`` (V = I at
    d = 1) and nu the planar (d, N) eigenvalues of :func:`_eigenvalues` on that mu.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    _check_forcing(prob, f)
    # The ledger's second-order np.gradient needs 3 time samples.
    if f.times.size < 3:
        raise ValueError(f"need at least 2 time steps, got {f.times.size - 1}")
    q0 = _dissipative_gate(prob)
    q, v, fhat = q0, None, prob.grid.to_spectral(f.values)
    if scheme == "exact" and prob._symbol.normal is not None:
        mu, v = (None, None) if prob.dim == 1 else np.linalg.eigh(prob._symbol.normal)
        with np.errstate(over="ignore", invalid="ignore"):
            q = _eigenvalues(prob, 0.0, mu)
        # V is (d, d) for a constant operator and (N, d, d) for a perturbed one
        fhat = fhat if v is None else np.einsum("...j,...ji->...i", fhat, v.conj())
    fplanar = np.ascontiguousarray(fhat.transpose(0, 2, 1))
    del fhat
    # The loop writes each (d, N) state through a planar view of C-ordered
    # (M, N, d) memory: the solution is C-ordered, as the forcing is, and
    # so are the ledger's spectra, whose Parseval sums follow the layout.
    states = np.zeros(f.values.shape, dtype=complex)
    _evolve(q, f.step, f.times.size - 1, fplanar.__getitem__, scheme, states.transpose(0, 2, 1))
    # Free the forcing spectrum before the inverse transform allocates
    # its output, so the two never sit on the heap together.
    del fplanar
    if v is not None:
        states = np.einsum("...ij,...j->...i", v, states)
        if not np.isfinite(states).all():
            raise _step_overflow(f.step)
    return q0, states, SpaceTimeFunction(prob.grid, f.times, prob.grid.to_physical(states))


def solve_parabolic(
    prob: EllipticProblem, f: SpaceTimeFunction, scheme: str = "exact"
) -> SpaceTimeFunction:
    """Evolve u_t + O u = f, u(0) = 0 over the forcing's uniform time grid,
    with O the symbol Q(xi, 0) of ``prob``.

    "exact" is variation of constants, exact (to rounding) when f is
    piecewise linear on the time grid, in particular for forcing constant
    in t.  The one-step cross-checks "implicit-euler" (first order) and
    "crank-nicolson" (second order) serve convergence-order validation.
    Raises ``OverflowError`` when the step is so long that the spectral
    solution is not finite.
    """
    return _solve_spectral(prob, f, scheme)[2]


def parabolic_coercive_report(
    prob: EllipticProblem,
    f: SpaceTimeFunction,
    scheme: str = "exact",
    p: float = 2.0,
    p1: float = 2.0,
) -> SolveReport:
    """Solve u_t + O u = f by ``solve_parabolic`` with ``scheme`` and report
    the mixed-norm ledger ||u_t|| + ||a*D^gamma u|| + ||A*u|| against ||f||.

    The time derivative is second-order central differencing (one-sided at
    the endpoints); the residual field u_t + O u - f, with O the symbol
    Q(xi, 0) that ``solve_parabolic`` integrates (in either ``q_form``), is
    reported relative to ||f|| in the same mixed norm.  At p = p1 = 2 the
    a*D^gamma u and A*u norms are read off their spectra by discrete
    Parseval, with no inverse transform; d_t u, the residual and f stay in
    physical space, so the round trip is still exercised.  u's spectra are
    the solve's own states, not a transform of u.
    """
    q0, uhat, u = _solve_spectral(prob, f, scheme)
    grid = prob.grid
    du_dt = np.gradient(u.values, u.step, axis=0, edge_order=2)

    sym = prob._symbol
    gamma = prob.order.gamma

    def _apply(stack: np.ndarray) -> np.ndarray:
        """The (M, N, d) spectra of the (N, d, d) ``stack`` applied to u's
        slices, contracted with the frequency axis innermost and written in
        C order, as ``uhat`` is."""
        out = np.empty_like(uhat)
        planar = np.ascontiguousarray(stack.transpose(1, 2, 0))
        np.einsum("ijk,mjk->mik", planar, uhat.transpose(0, 2, 1), out=out.transpose(0, 2, 1))
        return out

    ou = grid.to_physical(_apply(q0))

    def _mixed(vals: np.ndarray) -> float:
        return mixed_norm(SpaceTimeFunction(grid, u.times, vals), p, p1)

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
        f"a*D^{gamma:g} u": _ledger((sym.a * sym.frac)[None, :, None] * uhat),
        "A*u": _ledger(_apply(sym.A)),
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
            "steps": f.times.size - 1,
            "horizon": float(f.times[-1]),
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
    coupling sum instead of on the diagonal; a singular shifted coupling
    is a ValueError at fault ``lam``.  Reports include the coupling-weighted
    norm ||A u||.
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
    # a literal shift adds lambda inside the coupling sum: every entry shifts
    shift = np.ones_like(mat.entries) if literal_shift else np.eye(mat.size)
    try:
        coupling = constant_operator(mat.entries + lam * shift, name="coupling+shift")
    except ValueError as exc:
        raise _at_fault("lam", exc)
    grid = f.grid
    core = EllipticProblem(
        order=order,
        a=a,
        A=coupling,
        sector=Sector.enclosing(lam),
        grid=grid,
    )
    weight = np.asarray(mat.entries, dtype=complex)
    if mode == "elliptic":
        rep = solve_elliptic(core, f, 0.0, p=p)
        weighted = lp_norm(GridFunction(grid, rep.solution.values @ weight.T), p)
    else:
        rep = parabolic_coercive_report(core, f, p=p, p1=p1)
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
