"""Second-order boundary operator on the cross-section (0, 1), coupled to
the fractional convolution in x.

The transverse derivative convention is D = -i d/dy, so the principal part
b2(y) D^2 is -b2(y) d^2/dy^2 and ellipticity of positive b2 comes out
right.  Dirichlet conditions at both ends are realized by the standard
central-difference matrix on the interior mesh y_i = i*h_y, h_y = 1/(m+1).
The solved problem treats the m interior values as the components of a
vector-valued function of x, reusing the spectral machinery with the
discretized cross-section operator as a constant operator symbol; the
cross-section norm is the h_y-weighted Euclidean norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (
    GridFunction,
    Sector,
    _at_fault,
    lp_norm,
    multiplier_norm,
)
from .elliptic import SolveReport, _coercive_weights, _probe_orders, _solve_with_spectrum
from .fractional import FractionalOrder, frac_power_i_xi
from .symbols import (
    CoefficientSymbol,
    ConditionReport,
    EllipticProblem,
    Witness,
    constant_operator,
)

__all__ = [
    "BVPCoefficients",
    "discretize_bvp",
    "check_ellipticity",
    "solve_anisotropic",
]

_B2_FLOOR = 1e-8
_ELLIPTICITY_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class BVPCoefficients:
    """Coefficients of b2(y) D^2 + b1(y) D + b0(y) on (0, 1), Dirichlet ends.

    The operator order is fixed at 2 and the boundary realization is
    homogeneous Dirichlet at y = 0 and y = 1.  ``mesh_size`` is the number
    of interior mesh points m.
    """

    b2: Callable[[np.ndarray], np.ndarray]
    b1: Callable[[np.ndarray], np.ndarray]
    b0: Callable[[np.ndarray], np.ndarray]
    mesh_size: int

    def __post_init__(self) -> None:
        if self.mesh_size < 1:
            raise ValueError(f"interior mesh size must be >= 1, got {self.mesh_size}")

    @property
    def mesh_spacing(self) -> float:
        return 1.0 / (self.mesh_size + 1)

    @property
    def mesh(self) -> np.ndarray:
        """Interior mesh points y_i = i*h_y, i = 1..m."""
        return self.mesh_spacing * np.arange(1, self.mesh_size + 1)


def _stencil_coefficient(coeffs: BVPCoefficients, label: str) -> np.ndarray:
    """Coefficient ``label`` ("b2", "b1" or "b0") on the interior mesh, held
    to the rules of the stencil.

    Every value must be finite, and b2 must stay away from zero,
    |b2| >= 1e-8.  Each coefficient times its scale in the stencil
    (2 / h_y^2 for b2, 1 / (2 h_y) for b1, 1 for b0) must stay within half
    the float range: an entry sums at most two such terms, so the matrix
    is then finite.  A ValueError names the coefficient and is at fault ``label``.
    """
    y = coeffs.mesh
    values = np.asarray(getattr(coeffs, label)(y), dtype=float)
    values = np.broadcast_to(values, y.shape).copy() if values.shape != y.shape else values
    if not np.all(np.isfinite(values)):
        raise _at_fault(label, ValueError(f"coefficient {label} is not finite on the mesh"))
    if label == "b2":
        small = np.abs(values) < _B2_FLOOR
        if small.any():
            where = f"at y={y[np.argmax(small)]:.6g}: |b2| < {_B2_FLOOR:g}"
            raise _at_fault(label, ValueError(f"principal coefficient b2 degenerates {where}"))
    hy = coeffs.mesh_spacing
    scale = {"b2": 2.0 / hy**2, "b1": 0.5 / hy, "b0": 1.0}[label]
    big = np.abs(values) > 0.5 * np.finfo(float).max / scale
    if big.any():
        raise _at_fault(label, ValueError(
            f"coefficient {label} = {values[np.argmax(big)]:.6g} at y={y[np.argmax(big)]:.6g} "
            f"overflows the stencil: times its scale {scale:.6g} it exceeds half the float range"
        ))
    return values


def discretize_bvp(coeffs: BVPCoefficients) -> np.ndarray:
    """Central-difference matrix of the boundary operator on the interior mesh.

    The principal coefficient must stay away from zero, |b2| >= 1e-8, on
    the mesh, and no coefficient may overflow its stencil entries (see
    :func:`_stencil_coefficient`).  b1 enters through the skew stencil of
    -i d/dy.  With b2 and b1 constant on the mesh the matrix is Hermitian,
    real symmetric when b1 = 0; a b2 or b1 that varies makes it not
    Hermitian (real but not symmetric when b2 varies and b1 = 0).
    """
    b2v, b1v, b0v = (_stencil_coefficient(coeffs, label) for label in ("b2", "b1", "b0"))
    m = coeffs.mesh_size
    hy = coeffs.mesh_spacing
    mat = np.zeros((m, m), dtype=complex)
    idx = np.arange(m)
    mat[idx, idx] = 2.0 * b2v / hy**2 + b0v
    mat[idx[:-1], idx[:-1] + 1] = -b2v[:-1] / hy**2 - 1j * b1v[:-1] / (2.0 * hy)
    mat[idx[1:], idx[1:] - 1] = -b2v[1:] / hy**2 + 1j * b1v[1:] / (2.0 * hy)
    if np.all(mat.imag == 0.0):
        return mat.real.copy()
    return mat


def check_ellipticity(
    coeffs: BVPCoefficients,
    phi0: Sector,
) -> ConditionReport:
    """Parameter-ellipticity check: min |sigma + b2(y) xi^2| / (|sigma| + xi^2)
    over the coefficient mesh, a real xi grid, and a sigma lattice in the
    phi0-sector (plus sigma = 0), skipping |xi| + |sigma| = 0.

    The lattice is fixed: xi runs over 0 and +-21 log-spaced radii in
    [1e-2, 1e2]; sigma over 0 and the same 21 radii at 9 equally spaced
    angles in [-phi0, phi0] (angle 0 alone when phi0 = 0).

    For every (y, xi) the analytic candidate minimizer sigma* = -b2(y) xi^2
    is also tested whenever it lies in the sector, so exact cancellations
    (e.g. negative b2) are always caught.  Pass threshold is 1e-8.
    """
    if not phi0.angle < math.pi / 2.0:
        raise ValueError(f"sector angle must be below pi/2, got {phi0.angle}")
    radii = np.logspace(-2.0, 2.0, 21)
    xi = np.concatenate([-radii[::-1], [0.0], radii])
    angles = np.linspace(-phi0.angle, phi0.angle, 9) if phi0.angle > 0 else np.array([0.0])
    sigma = np.concatenate([[0.0 + 0.0j], (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()])

    y = np.concatenate([[0.0], coeffs.mesh, [1.0]])
    b2v = np.broadcast_to(np.asarray(coeffs.b2(y), dtype=float), y.shape)

    best = math.inf
    best_at = None
    witnesses: list[Witness] = []

    denom = np.abs(sigma)[:, None] + xi[None, :] ** 2
    ok = denom > 0.0
    xi_nz = xi[xi != 0.0]
    # lattice sweep, vectorized over (sigma, xi) for each y
    for yi, b2i in zip(y, b2v):
        # b2 at the ends y = 0, 1 is not bound by the stencil rules: a product
        # that overflows is inf, which reads as far from the sector.
        with np.errstate(over="ignore"):
            c = b2i * xi**2  # (nxi,)
        vals = np.abs(sigma[:, None] + c[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            normed = np.where(ok, vals / denom, math.inf)
        k = int(np.argmin(normed))
        if normed.flat[k] < best:
            best = float(normed.flat[k])
            best_at = {"y": float(yi), "sigma": complex(sigma[k // xi.size]), "xi": float(xi[k % xi.size])}
        low = normed < _ELLIPTICITY_FLOOR
        for flat in np.nonzero(low.ravel())[0][:4]:
            witnesses.append(
                Witness(
                    label="ellipticity",
                    location={
                        "y": float(yi),
                        "sigma": complex(sigma[flat // xi.size]),
                        "xi": float(xi[flat % xi.size]),
                    },
                    magnitude=float(normed.flat[flat]),
                )
            )
        # The analytic candidate sigma* = -b2(y) xi^2 is real, so with
        # phi0 < pi/2 it lies in the sector exactly when it is positive
        # (b2(y) < 0), and then |sigma* + b2(y) xi^2| is exactly 0.  An
        # overflowing candidate gives inf - inf, which tests nothing.
        with np.errstate(over="ignore"):
            cand = -b2i * xi_nz**2
        for j in np.nonzero((cand > 0.0) & (cand < math.inf))[0]:
            at = {"y": float(yi), "sigma": complex(cand[j]), "xi": float(xi_nz[j])}
            if best > 0.0:
                best, best_at = 0.0, at
            witnesses.append(Witness(label="ellipticity", location=at, magnitude=0.0))

    witnesses = witnesses[:16]
    return ConditionReport(
        name="parameter-ellipticity",
        passed=not witnesses,
        constants={"min_normalized": best},
        witnesses=tuple(witnesses),
        meta={"argmin": best_at, "phi0": phi0.angle, "mesh_size": coeffs.mesh_size},
    )


def _y_derivative_stencils(values: np.ndarray, hy: float):
    """D^0, D^1, D^2 of the interior values with Dirichlet zero padding.

    D = -i d/dy, so D^1 is skew and D^2 = -d^2/dy^2; norms are unaffected
    by the -i factors.
    """
    n, m = values.shape
    padded = np.zeros((n, m + 2), dtype=complex)
    padded[:, 1:-1] = values
    d1 = -1j * (padded[:, 2:] - padded[:, :-2]) / (2.0 * hy)
    d2 = -(padded[:, 2:] - 2.0 * padded[:, 1:-1] + padded[:, :-2]) / hy**2
    return values, d1, d2


def solve_anisotropic(
    coeffs: BVPCoefficients,
    order: FractionalOrder,
    a: CoefficientSymbol,
    lam: complex,
    f: GridFunction,
    p: float = 2.0,
) -> SolveReport:
    """Solve a*D_x^gamma u + (boundary operator in y) u + lambda u = f on the forcing's grid.

    ``f`` carries the m interior-mesh values as its vector components.  The
    problem sector is the narrowest one holding lambda.  The report's norms
    use the h_y-weighted Euclidean norm in y inside an L_p norm in x, and
    the coercive ledger adds the transverse derivative norms ||D_y^b u|| for
    b = 0, 1, 2 to the x-terms weighted over s in {0, gamma/2, gamma}.
    """
    lam = complex(lam)
    grid = f.grid
    mat = discretize_bvp(coeffs)
    if f.dim != coeffs.mesh_size:
        raise ValueError(
            f"forcing carries {f.dim} components, expected mesh size {coeffs.mesh_size}"
        )
    core = EllipticProblem(
        order=order,
        a=a,
        A=constant_operator(mat, name="boundary-operator"),
        sector=Sector.enclosing(lam),
        grid=grid,
    )
    rep, u_spec = _solve_with_spectrum(core, f, lam, p)
    u = rep.solution

    hy = coeffs.mesh_spacing
    sqrt_hy = math.sqrt(hy)
    s_set = _probe_orders(order.gamma)

    sym = core._symbol
    terms: dict[str, float] = {}
    lhs = 0.0
    for s, w in zip(s_set, _coercive_weights(order.gamma, lam, s_set)):
        val = sqrt_hy * multiplier_norm(u_spec, sym.a * frac_power_i_xi(sym.xi, s), p)
        terms[f"a*Dx^{s:g} u"] = val
        lhs += w * val
    d0, d1, d2 = _y_derivative_stencils(u.values, hy)
    for b, dv in enumerate((d0, d1, d2)):
        val = sqrt_hy * lp_norm(GridFunction(grid, dv), p)
        terms[f"Dy^{b} u"] = val
        lhs += val
    f_norm = sqrt_hy * lp_norm(f, p)
    return replace(
        rep,
        term_norms=terms,
        coercive_ratio=lhs / f_norm if f_norm > 0.0 else math.inf,
        meta={
            **rep.meta,
            "mesh_size": coeffs.mesh_size,
            "mesh_spacing": hy,
            "forcing_norm": f_norm,
            "s_set": list(s_set),
        },
    )
